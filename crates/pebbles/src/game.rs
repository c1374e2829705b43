//! The red-blue pebble game engine (paper §2.2).
//!
//! A red pebble on a vertex means its value is in fast memory (at most `S`
//! red pebbles at a time); a blue pebble means it is in slow memory. The
//! allowed moves are:
//!
//! * **Load** — place a red pebble on a vertex holding a blue pebble;
//! * **Store** — place a blue pebble on a vertex holding a red pebble;
//! * **Compute** — place a red pebble on a non-input vertex whose parents all
//!   hold red pebbles;
//! * **RemoveRed / RemoveBlue** — free memory.
//!
//! Initially only inputs have blue pebbles; a *complete calculation* ends
//! with blue pebbles on all outputs. The engine validates arbitrary move
//! sequences and counts I/O (loads + stores), which is the quantity all of
//! the paper's bounds constrain.

use crate::cdag::{Cdag, VertexId};

/// One move of the red-blue pebble game.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Place a red pebble on a vertex with a blue pebble (slow → fast).
    Load(VertexId),
    /// Place a blue pebble on a vertex with a red pebble (fast → slow).
    Store(VertexId),
    /// Place a red pebble on a vertex whose parents all have red pebbles.
    Compute(VertexId),
    /// Remove a red pebble.
    RemoveRed(VertexId),
    /// Remove a blue pebble.
    RemoveBlue(VertexId),
}

/// Why a move was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GameError {
    /// Load target has no blue pebble.
    LoadWithoutBlue(VertexId),
    /// Store target has no red pebble.
    StoreWithoutRed(VertexId),
    /// Compute target is an input (inputs are never "computed").
    ComputeOnInput(VertexId),
    /// Compute target has a parent without a red pebble.
    MissingRedParent { vertex: VertexId, parent: VertexId },
    /// Placing a red pebble would exceed the fast-memory capacity `S`.
    RedCapacityExceeded { capacity: usize },
    /// Removing a pebble that is not there.
    NoSuchPebble(VertexId),
    /// Vertex id out of range for the CDAG.
    BadVertex(VertexId),
}

impl std::fmt::Display for GameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GameError::LoadWithoutBlue(v) => write!(f, "load of {v}: no blue pebble"),
            GameError::StoreWithoutRed(v) => write!(f, "store of {v}: no red pebble"),
            GameError::ComputeOnInput(v) => write!(f, "compute of {v}: vertex is an input"),
            GameError::MissingRedParent { vertex, parent } => {
                write!(f, "compute of {vertex}: parent {parent} has no red pebble")
            }
            GameError::RedCapacityExceeded { capacity } => {
                write!(f, "red pebble capacity {capacity} exceeded")
            }
            GameError::NoSuchPebble(v) => write!(f, "remove at {v}: no such pebble"),
            GameError::BadVertex(v) => write!(f, "vertex {v} out of range"),
        }
    }
}

impl std::error::Error for GameError {}

/// A running (or finished) pebble-game execution over a CDAG.
#[derive(Debug, Clone)]
pub struct GameRun<'g> {
    graph: &'g Cdag,
    capacity: usize,
    red: Vec<bool>,
    blue: Vec<bool>,
    red_count: usize,
    loads: u64,
    stores: u64,
    peak_red: usize,
    moves_applied: u64,
}

impl<'g> GameRun<'g> {
    /// Start a game with fast-memory capacity `capacity` (the paper's `S`).
    /// Inputs receive their initial blue pebbles.
    pub fn new(graph: &'g Cdag, capacity: usize) -> Self {
        let mut blue = vec![false; graph.len()];
        for v in graph.inputs() {
            blue[v as usize] = true;
        }
        GameRun {
            graph,
            capacity,
            red: vec![false; graph.len()],
            blue,
            red_count: 0,
            loads: 0,
            stores: 0,
            peak_red: 0,
            moves_applied: 0,
        }
    }

    /// Fast-memory capacity `S`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of load moves so far.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Number of store moves so far.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Total I/O (loads + stores) — the cost `Q` of the schedule so far.
    pub fn io(&self) -> u64 {
        self.loads + self.stores
    }

    /// Maximum number of red pebbles that were ever simultaneously placed.
    pub fn peak_red(&self) -> usize {
        self.peak_red
    }

    /// Number of red pebbles currently placed.
    pub fn red_count(&self) -> usize {
        self.red_count
    }

    /// Total number of moves applied.
    pub fn moves_applied(&self) -> u64 {
        self.moves_applied
    }

    /// Does `v` currently hold a blue pebble?
    pub fn has_blue(&self, v: VertexId) -> bool {
        self.blue[v as usize]
    }

    fn place_red(&mut self, v: usize) -> Result<(), GameError> {
        if !self.red[v] {
            if self.red_count == self.capacity {
                return Err(GameError::RedCapacityExceeded {
                    capacity: self.capacity,
                });
            }
            self.red[v] = true;
            self.red_count += 1;
            self.peak_red = self.peak_red.max(self.red_count);
        }
        Ok(())
    }

    /// Apply one move, enforcing all rules of the game.
    pub fn apply(&mut self, mv: Move) -> Result<(), GameError> {
        let id = match mv {
            Move::Load(v) | Move::Store(v) | Move::Compute(v) | Move::RemoveRed(v) | Move::RemoveBlue(v) => v,
        };
        if id as usize >= self.graph.len() {
            return Err(GameError::BadVertex(id));
        }
        let v = id as usize;
        match mv {
            Move::Load(_) => {
                if !self.blue[v] {
                    return Err(GameError::LoadWithoutBlue(id));
                }
                self.place_red(v)?;
                self.loads += 1;
            }
            Move::Store(_) => {
                if !self.red[v] {
                    return Err(GameError::StoreWithoutRed(id));
                }
                self.blue[v] = true;
                self.stores += 1;
            }
            Move::Compute(_) => {
                if self.graph.preds(id).is_empty() {
                    return Err(GameError::ComputeOnInput(id));
                }
                for &u in self.graph.preds(id) {
                    if !self.red[u as usize] {
                        return Err(GameError::MissingRedParent {
                            vertex: id,
                            parent: u,
                        });
                    }
                }
                self.place_red(v)?;
            }
            Move::RemoveRed(_) => {
                if !self.red[v] {
                    return Err(GameError::NoSuchPebble(id));
                }
                self.red[v] = false;
                self.red_count -= 1;
            }
            Move::RemoveBlue(_) => {
                if !self.blue[v] {
                    return Err(GameError::NoSuchPebble(id));
                }
                self.blue[v] = false;
            }
        }
        self.moves_applied += 1;
        Ok(())
    }

    /// Apply a whole sequence, stopping at the first illegal move.
    pub fn apply_all(&mut self, moves: &[Move]) -> Result<(), GameError> {
        for &mv in moves {
            self.apply(mv)?;
        }
        Ok(())
    }

    /// True when every output of the CDAG holds a blue pebble — the terminal
    /// configuration of a complete calculation.
    pub fn is_complete(&self) -> bool {
        self.graph.outputs().iter().all(|&v| self.blue[v as usize])
    }
}

/// Validate a complete calculation: run `moves` from the initial
/// configuration and require the terminal configuration; returns the total
/// I/O on success.
pub fn validate_complete(graph: &Cdag, capacity: usize, moves: &[Move]) -> Result<u64, GameError> {
    let mut run = GameRun::new(graph, capacity);
    run.apply_all(moves)?;
    if run.is_complete() {
        Ok(run.io())
    } else {
        // Report the first un-stored output as the offending vertex.
        let missing = graph
            .outputs()
            .into_iter()
            .find(|&v| !run.has_blue(v))
            .expect("incomplete run must have an unpebbled output");
        Err(GameError::NoSuchPebble(missing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdag::Cdag;

    fn diamond() -> Cdag {
        let mut g = Cdag::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn initial_configuration_has_blue_inputs() {
        let g = diamond();
        let run = GameRun::new(&g, 3);
        assert!(run.has_blue(0));
        assert!(!run.has_blue(1));
        assert_eq!(run.red_count(), 0);
        assert_eq!(run.io(), 0);
    }

    #[test]
    fn straight_line_pebbling_of_path() {
        let g = Cdag::path(3);
        let mut run = GameRun::new(&g, 2);
        run.apply_all(&[
            Move::Load(0),
            Move::Compute(1),
            Move::RemoveRed(0),
            Move::Compute(2),
            Move::Store(2),
        ])
        .unwrap();
        assert!(run.is_complete());
        assert_eq!(run.loads(), 1);
        assert_eq!(run.stores(), 1);
        assert_eq!(run.io(), 2);
        assert_eq!(run.peak_red(), 2);
    }

    #[test]
    fn load_requires_blue() {
        let g = Cdag::path(2);
        let mut run = GameRun::new(&g, 2);
        assert_eq!(run.apply(Move::Load(1)), Err(GameError::LoadWithoutBlue(1)));
    }

    #[test]
    fn store_requires_red() {
        let g = Cdag::path(2);
        let mut run = GameRun::new(&g, 2);
        assert_eq!(run.apply(Move::Store(1)), Err(GameError::StoreWithoutRed(1)));
    }

    #[test]
    fn compute_requires_all_red_parents() {
        let g = diamond();
        let mut run = GameRun::new(&g, 4);
        run.apply(Move::Load(0)).unwrap();
        run.apply(Move::Compute(1)).unwrap();
        let err = run.apply(Move::Compute(3)).unwrap_err();
        assert_eq!(err, GameError::MissingRedParent { vertex: 3, parent: 2 });
        run.apply(Move::Compute(2)).unwrap();
        run.apply(Move::Compute(3)).unwrap();
        assert_eq!(run.peak_red(), 4);
    }

    #[test]
    fn compute_on_input_rejected() {
        let g = diamond();
        let mut run = GameRun::new(&g, 2);
        assert_eq!(run.apply(Move::Compute(0)), Err(GameError::ComputeOnInput(0)));
    }

    #[test]
    fn capacity_is_enforced() {
        let g = diamond();
        let mut run = GameRun::new(&g, 1);
        run.apply(Move::Load(0)).unwrap();
        assert_eq!(run.apply(Move::Compute(1)), Err(GameError::RedCapacityExceeded { capacity: 1 }));
        // Freeing the red pebble makes room — but then 1 has no red parent.
        run.apply(Move::RemoveRed(0)).unwrap();
        assert!(matches!(run.apply(Move::Compute(1)), Err(GameError::MissingRedParent { .. })));
    }

    #[test]
    fn remove_missing_pebble_rejected() {
        let g = Cdag::path(2);
        let mut run = GameRun::new(&g, 2);
        assert_eq!(run.apply(Move::RemoveRed(0)), Err(GameError::NoSuchPebble(0)));
        assert_eq!(run.apply(Move::RemoveBlue(1)), Err(GameError::NoSuchPebble(1)));
        run.apply(Move::RemoveBlue(0)).unwrap(); // inputs start blue
        assert!(!run.has_blue(0));
    }

    #[test]
    fn bad_vertex_rejected() {
        let g = Cdag::path(2);
        let mut run = GameRun::new(&g, 2);
        assert_eq!(run.apply(Move::Load(9)), Err(GameError::BadVertex(9)));
    }

    #[test]
    fn reload_of_red_vertex_counts_io_but_not_capacity() {
        // Loading a vertex that is already red is legal (pointless) and must
        // not double-count capacity.
        let g = Cdag::path(2);
        let mut run = GameRun::new(&g, 1);
        run.apply(Move::Load(0)).unwrap();
        run.apply(Move::Load(0)).unwrap();
        assert_eq!(run.red_count(), 1);
        assert_eq!(run.loads(), 2);
    }

    #[test]
    fn validate_complete_happy_path() {
        let g = Cdag::path(3);
        let io = validate_complete(
            &g,
            2,
            &[
                Move::Load(0),
                Move::Compute(1),
                Move::RemoveRed(0),
                Move::Compute(2),
                Move::Store(2),
            ],
        )
        .unwrap();
        assert_eq!(io, 2);
    }

    #[test]
    fn validate_complete_rejects_unfinished() {
        let g = Cdag::path(3);
        let err = validate_complete(&g, 2, &[Move::Load(0), Move::Compute(1)]);
        assert!(err.is_err());
    }

    #[test]
    fn diamond_complete_with_three_reds() {
        let g = diamond();
        // S = 3 suffices: keep 0, compute 1 and 2, drop 0, compute 3.
        let moves = [
            Move::Load(0),
            Move::Compute(1),
            Move::Compute(2),
            Move::RemoveRed(0),
            Move::Compute(3),
            Move::Store(3),
        ];
        let io = validate_complete(&g, 3, &moves).unwrap();
        assert_eq!(io, 2);
        // S = 2 fails at the second compute.
        let mut run = GameRun::new(&g, 2);
        let res = run.apply_all(&moves);
        assert_eq!(res, Err(GameError::RedCapacityExceeded { capacity: 2 }));
    }

    #[test]
    fn reduction_tree_io_is_leaves_plus_root() {
        // Pebble a 4-leaf reduction tree with S = 4: load both children of
        // each sum, compute, free children. I/O = 4 loads + 1 store. (S = 3
        // does not suffice for this strategy: while computing the second sum
        // the first sum plus two leaves are already red.)
        let g = Cdag::reduction_tree(4);
        let moves = [
            Move::Load(0),
            Move::Load(1),
            Move::Compute(4),
            Move::RemoveRed(0),
            Move::RemoveRed(1),
            Move::Load(2),
            Move::Load(3),
            Move::Compute(5),
            Move::RemoveRed(2),
            Move::RemoveRed(3),
            Move::Compute(6),
            Move::Store(6),
        ];
        let io = validate_complete(&g, 4, &moves).unwrap();
        assert_eq!(io, 5);
        // And S = 3 indeed rejects this strategy at the second compute.
        let mut run = GameRun::new(&g, 3);
        assert_eq!(run.apply_all(&moves), Err(GameError::RedCapacityExceeded { capacity: 3 }));
    }
}
