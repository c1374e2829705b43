//! The classical matrix-multiplication CDAG (paper §5.1).
//!
//! Vertices come in three families: elements of `A` (`m x k`), elements of
//! `B` (`k x n`), and the `m·n·k` *partial sums* of `C`. The `t`-th update of
//! `C(i, j)` is `C(i,j,t) = C(i,j,t-1) + A(i,t)·B(t,j)`, giving each `C`
//! vertex the three parents `φa`, `φb` and its predecessor partial sum.

use crate::cdag::{Cdag, VertexId};

/// Which matrix a CDAG vertex belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vertex {
    /// Element `A(i, t)`.
    A { i: usize, t: usize },
    /// Element `B(t, j)`.
    B { t: usize, j: usize },
    /// Partial sum `C(i, j, t)` (the `t`-th of `k` updates, `t` 0-based).
    C { i: usize, j: usize, t: usize },
}

/// The MMM CDAG for `C = A·B` with `A ∈ R^{m×k}`, `B ∈ R^{k×n}`.
#[derive(Debug, Clone)]
pub struct MmmCdag {
    /// Rows of A / C.
    pub m: usize,
    /// Columns of B / C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    graph: Cdag,
}

impl MmmCdag {
    /// Build the CDAG. Sizes must be positive and small enough that the
    /// `mk + kn + mnk` vertices fit in memory — this type exists for theory
    /// experiments, not production multiplications.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        assert!(m > 0 && n > 0 && k > 0, "dimensions must be positive");
        let total = m * k + k * n + m * n * k;
        let mut graph = Cdag::new(total);
        let tmp = MmmCdag {
            m,
            n,
            k,
            graph: Cdag::new(0),
        };
        for i in 0..m {
            for j in 0..n {
                for t in 0..k {
                    let c = tmp.c_id(i, j, t);
                    graph.add_edge(tmp.a_id(i, t), c);
                    graph.add_edge(tmp.b_id(t, j), c);
                    if t > 0 {
                        graph.add_edge(tmp.c_id(i, j, t - 1), c);
                    }
                }
            }
        }
        MmmCdag { m, n, k, graph }
    }

    /// Vertex id of `A(i, t)`.
    #[inline]
    pub fn a_id(&self, i: usize, t: usize) -> VertexId {
        debug_assert!(i < self.m && t < self.k);
        (i * self.k + t) as VertexId
    }

    /// Vertex id of `B(t, j)`.
    #[inline]
    pub fn b_id(&self, t: usize, j: usize) -> VertexId {
        debug_assert!(t < self.k && j < self.n);
        (self.m * self.k + t * self.n + j) as VertexId
    }

    /// Vertex id of the partial sum `C(i, j, t)`.
    #[inline]
    pub fn c_id(&self, i: usize, j: usize, t: usize) -> VertexId {
        debug_assert!(i < self.m && j < self.n && t < self.k);
        (self.m * self.k + self.k * self.n + (i * self.n + j) * self.k + t) as VertexId
    }

    /// Decode a vertex id back into its family and coordinates.
    pub fn vertex(&self, v: VertexId) -> Vertex {
        let v = v as usize;
        let (mk, kn) = (self.m * self.k, self.k * self.n);
        if v < mk {
            Vertex::A {
                i: v / self.k,
                t: v % self.k,
            }
        } else if v < mk + kn {
            let r = v - mk;
            Vertex::B {
                t: r / self.n,
                j: r % self.n,
            }
        } else {
            let r = v - mk - kn;
            let t = r % self.k;
            let ij = r / self.k;
            Vertex::C {
                i: ij / self.n,
                j: ij % self.n,
                t,
            }
        }
    }

    /// Projection `φa` of a `C` vertex: the `A` element it consumes (§5.1).
    ///
    /// # Panics
    /// Panics when `v` is not a `C` vertex.
    pub fn phi_a(&self, v: VertexId) -> VertexId {
        match self.vertex(v) {
            Vertex::C { i, t, .. } => self.a_id(i, t),
            other => panic!("phi_a of non-C vertex {other:?}"),
        }
    }

    /// Projection `φb` of a `C` vertex: the `B` element it consumes.
    ///
    /// # Panics
    /// Panics when `v` is not a `C` vertex.
    pub fn phi_b(&self, v: VertexId) -> VertexId {
        match self.vertex(v) {
            Vertex::C { t, j, .. } => self.b_id(t, j),
            other => panic!("phi_b of non-C vertex {other:?}"),
        }
    }

    /// Projection `φc` of a `C` vertex: the `(i, j)` output coordinate. All
    /// `k` partial sums of one output element share this projection (Eq. 4).
    ///
    /// # Panics
    /// Panics when `v` is not a `C` vertex.
    pub fn phi_c(&self, v: VertexId) -> (usize, usize) {
        match self.vertex(v) {
            Vertex::C { i, j, .. } => (i, j),
            other => panic!("phi_c of non-C vertex {other:?}"),
        }
    }

    /// The underlying generic CDAG.
    pub fn graph(&self) -> &Cdag {
        &self.graph
    }

    /// Total number of vertices.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// MMM CDAGs are never empty (dimensions are positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The subcomputation `V_r` of §5.1.2 for index sets `T1 x T2 x T3`
    /// (rows, cols, k-layers): all partial-sum vertices with those
    /// coordinates.
    pub fn brick(&self, t1: &[usize], t2: &[usize], t3: &[usize]) -> Vec<VertexId> {
        let mut v = Vec::with_capacity(t1.len() * t2.len() * t3.len());
        for &i in t1 {
            for &j in t2 {
                for &t in t3 {
                    v.push(self.c_id(i, j, t));
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_count() {
        let g = MmmCdag::new(2, 3, 4);
        assert_eq!(g.len(), 2 * 4 + 4 * 3 + 2 * 3 * 4);
    }

    #[test]
    fn id_decode_roundtrip() {
        let g = MmmCdag::new(3, 4, 2);
        for i in 0..3 {
            for t in 0..2 {
                assert_eq!(g.vertex(g.a_id(i, t)), Vertex::A { i, t });
            }
        }
        for t in 0..2 {
            for j in 0..4 {
                assert_eq!(g.vertex(g.b_id(t, j)), Vertex::B { t, j });
            }
        }
        for i in 0..3 {
            for j in 0..4 {
                for t in 0..2 {
                    assert_eq!(g.vertex(g.c_id(i, j, t)), Vertex::C { i, j, t });
                }
            }
        }
    }

    #[test]
    fn inputs_are_exactly_a_and_b() {
        let g = MmmCdag::new(2, 2, 2);
        let inputs = g.graph().inputs();
        assert_eq!(inputs.len(), 2 * 2 + 2 * 2);
        assert!(inputs
            .iter()
            .all(|&v| matches!(g.vertex(v), Vertex::A { .. } | Vertex::B { .. })));
    }

    #[test]
    fn outputs_are_last_partial_sums() {
        let g = MmmCdag::new(2, 3, 2);
        let outputs = g.graph().outputs();
        assert_eq!(outputs.len(), 2 * 3);
        for &v in &outputs {
            match g.vertex(v) {
                Vertex::C { t, .. } => assert_eq!(t, g.k - 1),
                other => panic!("unexpected output {other:?}"),
            }
        }
    }

    #[test]
    fn c_vertex_parents_match_definition() {
        let g = MmmCdag::new(3, 3, 3);
        // First layer: two parents (A and B elements).
        let c0 = g.c_id(1, 2, 0);
        let mut p = g.graph().preds(c0).to_vec();
        p.sort_unstable();
        let mut want = vec![g.a_id(1, 0), g.b_id(0, 2)];
        want.sort_unstable();
        assert_eq!(p, want);
        // Later layer: three parents including previous partial sum.
        let c2 = g.c_id(1, 2, 2);
        let mut p = g.graph().preds(c2).to_vec();
        p.sort_unstable();
        let mut want = vec![g.a_id(1, 2), g.b_id(2, 2), g.c_id(1, 2, 1)];
        want.sort_unstable();
        assert_eq!(p, want);
    }

    #[test]
    fn partial_sum_chain_has_single_child() {
        // Eq. 8 in the paper relies on C(i,j,t) having exactly one child
        // (the next partial sum) for t < k-1.
        let g = MmmCdag::new(2, 2, 4);
        for t in 0..3 {
            let v = g.c_id(0, 1, t);
            assert_eq!(g.graph().succs(v), &[g.c_id(0, 1, t + 1)]);
        }
        assert!(g.graph().succs(g.c_id(0, 1, 3)).is_empty());
    }

    #[test]
    fn projections() {
        let g = MmmCdag::new(4, 5, 6);
        let v = g.c_id(2, 3, 4);
        assert_eq!(g.phi_a(v), g.a_id(2, 4));
        assert_eq!(g.phi_b(v), g.b_id(4, 3));
        assert_eq!(g.phi_c(v), (2, 3));
        // Eq. 4: all partial updates of one element share phi_c.
        assert_eq!(g.phi_c(g.c_id(2, 3, 0)), g.phi_c(g.c_id(2, 3, 5)));
    }

    #[test]
    #[should_panic(expected = "phi_a of non-C vertex")]
    fn phi_a_rejects_inputs() {
        let g = MmmCdag::new(2, 2, 2);
        let _ = g.phi_a(g.a_id(0, 0));
    }

    #[test]
    fn brick_dominator_is_frontier() {
        // For a brick V_r, the minimal dominator is α ∪ β ∪ Γ (Eq. 5):
        // |Dom| = |T1||T3| + |T3||T2| + |T1||T2| when t3 starts past 0,
        // because Γ contributes the previous partial sums.
        let g = MmmCdag::new(3, 3, 3);
        let brick = g.brick(&[0, 1], &[1, 2], &[1, 2]);
        let dom = g.graph().frontier_dominators(&brick);
        assert!(g.graph().is_dominator_set(&dom, &brick));
        // α: A(i,t) for i in {0,1}, t in {1,2} -> 4 vertices
        // β: B(t,j) for t in {1,2}, j in {1,2} -> 4 vertices
        // Γ: C(i,j,0) for i in {0,1}, j in {1,2} -> 4 vertices
        assert_eq!(dom.len(), 12);
    }

    #[test]
    fn brick_at_k0_has_no_gamma() {
        let g = MmmCdag::new(3, 3, 3);
        let brick = g.brick(&[0, 1], &[1, 2], &[0]);
        let dom = g.graph().frontier_dominators(&brick);
        // α: 2, β: 2, Γ: none (t=0 partial sums have no C parent).
        assert_eq!(dom.len(), 4);
    }

    #[test]
    fn brick_minimum_set_is_top_layer() {
        let g = MmmCdag::new(2, 2, 4);
        let brick = g.brick(&[0, 1], &[0, 1], &[1, 2]);
        let min = g.graph().minimum_set(&brick);
        assert_eq!(min.len(), 4); // the t=2 layer, one per (i,j)
        for &v in &min {
            match g.vertex(v) {
                Vertex::C { t, .. } => assert_eq!(t, 2),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
