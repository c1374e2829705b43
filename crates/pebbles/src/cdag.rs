//! Computational directed acyclic graphs (CDAGs), paper §2.2.
//!
//! A vertex represents one elementary operation; an edge `(u, v)` means `v`
//! depends on the result of `u`. Inputs have no parents, outputs no children.

/// Vertex identifier within a [`Cdag`]. Kept at 32 bits — the CDAGs we pebble
/// exhaustively are tiny and the MMM CDAGs we analyze symbolically never need
/// materializing past a few million vertices.
pub type VertexId = u32;

/// A computational DAG: adjacency in both directions plus cached input/output
/// vertex sets.
#[derive(Debug, Clone)]
pub struct Cdag {
    preds: Vec<Vec<VertexId>>,
    succs: Vec<Vec<VertexId>>,
}

impl Cdag {
    /// Create a CDAG with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Cdag {
            preds: vec![Vec::new(); n],
            succs: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True when the CDAG has no vertices.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Add the dependency edge `u -> v` (`v` consumes the result of `u`).
    ///
    /// # Panics
    /// Panics on out-of-range ids, self-loops, or duplicate edges (duplicates
    /// would double-count dominator candidates).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        let (ui, vi) = (u as usize, v as usize);
        assert!(ui < self.len() && vi < self.len(), "vertex id out of range");
        assert_ne!(u, v, "self-loops are not allowed in a CDAG");
        assert!(!self.succs[ui].contains(&v), "duplicate edge {u} -> {v}");
        self.succs[ui].push(v);
        self.preds[vi].push(u);
    }

    /// Immediate predecessors (`Pred(v)` in the paper).
    pub fn preds(&self, v: VertexId) -> &[VertexId] {
        &self.preds[v as usize]
    }

    /// Immediate successors (`Succ(v)` in the paper).
    pub fn succs(&self, v: VertexId) -> &[VertexId] {
        &self.succs[v as usize]
    }

    /// Vertices with no parents (the input set `I`).
    pub fn inputs(&self) -> Vec<VertexId> {
        (0..self.len() as VertexId)
            .filter(|&v| self.preds[v as usize].is_empty())
            .collect()
    }

    /// Vertices with no children (the output set `O`).
    pub fn outputs(&self) -> Vec<VertexId> {
        (0..self.len() as VertexId)
            .filter(|&v| self.succs[v as usize].is_empty())
            .collect()
    }

    /// True when every vertex of `targets` is unreachable from every input
    /// without passing through `blockers` — i.e. `blockers` is a dominator
    /// set of `targets` (paper §4, definition of `Dom(V_i)`).
    ///
    /// A target that is itself an input must be contained in `blockers`.
    pub fn is_dominator_set(&self, blockers: &[VertexId], targets: &[VertexId]) -> bool {
        let n = self.len();
        let mut blocked = vec![false; n];
        for &b in blockers {
            blocked[b as usize] = true;
        }
        let mut target = vec![false; n];
        for &t in targets {
            target[t as usize] = true;
        }
        // BFS from all non-blocked inputs, never expanding through blocked
        // vertices; if we can stand on a target, the set fails to dominate.
        let mut seen = vec![false; n];
        let mut queue: Vec<VertexId> = Vec::new();
        for v in self.inputs() {
            if !blocked[v as usize] {
                if target[v as usize] {
                    return false;
                }
                seen[v as usize] = true;
                queue.push(v);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for &w in &self.succs[v as usize] {
                let wi = w as usize;
                if seen[wi] || blocked[wi] {
                    continue;
                }
                if target[wi] {
                    return false;
                }
                seen[wi] = true;
                queue.push(w);
            }
        }
        true
    }

    /// The *frontier* dominator candidate of `targets`: external immediate
    /// predecessors of the set plus any inputs contained in it. For the MMM
    /// subcomputations of §5.1 this equals the minimal dominator set
    /// `α_r ∪ β_r ∪ Γ_r` (Eq. 5); for general CDAGs it is a valid (possibly
    /// non-minimal) dominator set.
    pub fn frontier_dominators(&self, targets: &[VertexId]) -> Vec<VertexId> {
        let n = self.len();
        let mut in_set = vec![false; n];
        for &t in targets {
            in_set[t as usize] = true;
        }
        let mut dom = vec![false; n];
        for &t in targets {
            if self.preds[t as usize].is_empty() {
                dom[t as usize] = true; // input inside the set dominates itself
            }
            for &u in &self.preds[t as usize] {
                if !in_set[u as usize] {
                    dom[u as usize] = true;
                }
            }
        }
        (0..n as VertexId).filter(|&v| dom[v as usize]).collect()
    }

    /// The minimum set `Min(V_i)`: vertices of `targets` with no children in
    /// `targets` (paper §4).
    pub fn minimum_set(&self, targets: &[VertexId]) -> Vec<VertexId> {
        let n = self.len();
        let mut in_set = vec![false; n];
        for &t in targets {
            in_set[t as usize] = true;
        }
        targets
            .iter()
            .copied()
            .filter(|&t| self.succs[t as usize].iter().all(|&c| !in_set[c as usize]))
            .collect()
    }

    /// Build the "path" CDAG `0 -> 1 -> … -> n-1` (useful in tests).
    pub fn path(n: usize) -> Self {
        let mut g = Cdag::new(n);
        for v in 1..n {
            g.add_edge((v - 1) as VertexId, v as VertexId);
        }
        g
    }

    /// Build a complete binary in-tree with `leaves` leaves: leaves feed
    /// internal sums up to a single root output (a reduction CDAG).
    ///
    /// # Panics
    /// Panics unless `leaves` is a power of two and at least 2.
    pub fn reduction_tree(leaves: usize) -> Self {
        assert!(leaves >= 2 && leaves.is_power_of_two(), "leaves must be a power of two >= 2");
        // Vertices: 0..leaves are the leaves, then levels of sums.
        let total = 2 * leaves - 1;
        let mut g = Cdag::new(total);
        let mut level: Vec<VertexId> = (0..leaves as VertexId).collect();
        let mut next_id = leaves as VertexId;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len() / 2);
            for pair in level.chunks(2) {
                g.add_edge(pair[0], next_id);
                g.add_edge(pair[1], next_id);
                next.push(next_id);
                next_id += 1;
            }
            level = next;
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_len() {
        let g = Cdag::new(0);
        assert!(g.is_empty());
        let g = Cdag::new(3);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn path_inputs_outputs() {
        let g = Cdag::path(4);
        assert_eq!(g.inputs(), vec![0]);
        assert_eq!(g.outputs(), vec![3]);
        assert_eq!(g.preds(2), &[1]);
        assert_eq!(g.succs(1), &[2]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_panics() {
        let mut g = Cdag::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Cdag::new(1);
        g.add_edge(0, 0);
    }

    #[test]
    fn dominator_set_on_diamond() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 (diamond).
        let mut g = Cdag::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        // {0} dominates everything downstream.
        assert!(g.is_dominator_set(&[0], &[3]));
        // {1} alone does not block the path through 2.
        assert!(!g.is_dominator_set(&[1], &[3]));
        // {1, 2} does.
        assert!(g.is_dominator_set(&[1, 2], &[3]));
        // The target itself dominates itself.
        assert!(g.is_dominator_set(&[3], &[3]));
        // An input target must be included.
        assert!(!g.is_dominator_set(&[], &[0]));
        assert!(g.is_dominator_set(&[0], &[0]));
    }

    #[test]
    fn frontier_dominators_diamond() {
        let mut g = Cdag::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        assert_eq!(g.frontier_dominators(&[3]), vec![1, 2]);
        assert_eq!(g.frontier_dominators(&[1, 3]), vec![0, 2]);
        // The frontier is always a valid dominator set.
        for targets in [vec![3], vec![1, 3], vec![1, 2, 3], vec![0]] {
            let f = g.frontier_dominators(&targets);
            assert!(g.is_dominator_set(&f, &targets), "targets {targets:?}");
        }
    }

    #[test]
    fn minimum_set_examples() {
        let g = Cdag::path(4);
        assert_eq!(g.minimum_set(&[1, 2]), vec![2]);
        assert_eq!(g.minimum_set(&[1, 3]), vec![1, 3]);
        assert_eq!(g.minimum_set(&[3]), vec![3]);
    }

    #[test]
    fn reduction_tree_shape() {
        let g = Cdag::reduction_tree(4);
        assert_eq!(g.len(), 7);
        assert_eq!(g.inputs(), vec![0, 1, 2, 3]);
        assert_eq!(g.outputs(), vec![6]);
        // Root depends on the two level-1 sums.
        assert_eq!(g.preds(6), &[4, 5]);
    }

    #[test]
    fn reduction_tree_dominators() {
        let g = Cdag::reduction_tree(8);
        let root = g.outputs()[0];
        // The two children of the root dominate it.
        let kids = g.preds(root).to_vec();
        assert!(g.is_dominator_set(&kids, &[root]));
    }
}
