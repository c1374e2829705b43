//! Machine descriptions: rank count, per-rank memory, cost constants.

use std::time::Duration;

use crate::cost::CostModel;
use crate::fault::FaultPlan;

/// Default deadlock guard: how long a `recv` waits for a matching message
/// before the run is declared deadlock-suspected (see
/// [`MachineSpec::recv_timeout`]), in virtual time.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// The interconnect shape of a machine: which shared links a transfer
/// crosses between two ranks, and how much of the wire time each crossing
/// occupies on that link.
///
/// Every transfer always ends on the receiver's private *injection* link
/// (one wire per rank — the pre-topology contention model). A fat tree adds
/// shared links along the route; each shared hop occupies its link for
/// `factor × (α + β·words)` in virtual-time consumption order, so
/// congestion compounds exactly where traffic concentrates. A `factor`
/// below 1 models a link fatter than a single rank's injection bandwidth
/// (e.g. a NIC serving a whole node); a factor above 1 models an
/// oversubscribed link.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// No shared links: transfers serialize only on the receiver's
    /// injection link. Reproduces the pre-topology virtual clock bitwise.
    Flat,
    /// A two-level fat tree: ranks packed onto nodes of `ranks_per_node`,
    /// each node with one NIC whose up (egress) and down (ingress) links
    /// all its ranks share, and nodes grouped under leaf switches of
    /// `nodes_per_switch`. Intra-node transfers bypass the NIC;
    /// inter-switch transfers additionally cross the source switch's
    /// uplink and the destination switch's downlink. With
    /// `nodes_per_switch` at least the node count, one switch holds every
    /// node and only the NICs are shared.
    FatTree {
        /// Ranks sharing one NIC.
        ranks_per_node: usize,
        /// Nodes sharing one leaf switch.
        nodes_per_switch: usize,
        /// Occupancy factor of each NIC crossing.
        nic_factor: f64,
        /// Occupancy factor of each switch up/down-link crossing
        /// (oversubscription when > `nic_factor`).
        up_factor: f64,
    },
}

impl Topology {
    /// The congested fat tree of the `topo` experiment: 4-rank nodes under
    /// 4-node leaf switches. `nic_factor = 1/ranks_per_node` provisions each
    /// NIC for its node's full injection bandwidth (like Aries: ~10 GB/s per
    /// 36-core node vs ~0.28 GB/s per core), so NICs congest only when flows
    /// concentrate. A leaf switch aggregates 16 ranks, so a balanced spine
    /// would need `up_factor = 1/16`; `0.25` makes it 4× oversubscribed —
    /// the congestion lives in the tapered spine, as on real fat trees.
    /// Heavy enough that an algorithm's communication *volume* dominates its
    /// measured runtime (the regime the paper's speedup tail comes from),
    /// light enough that COSMA's overlap still hides communication.
    pub fn congested_fat_tree() -> Self {
        Topology::FatTree {
            ranks_per_node: 4,
            nodes_per_switch: 4,
            nic_factor: 0.25,
            up_factor: 0.25,
        }
    }

    /// Can the event scheduler shard a world under this topology across
    /// rank regions without changing any measured virtual time?
    ///
    /// Region sharding commutes with the virtual clock only when every
    /// committed quantity is a function of rank-local state plus
    /// per-sender-FIFO message envelopes. [`Topology::Flat`] qualifies: the
    /// sole charged link is the receiver's private injection wire, advanced
    /// only by the receiver's own consumptions. A fat tree charges *shared*
    /// links in global virtual-time consumption order — an order the region
    /// interleave would perturb — so
    /// [`run_spmd_with`](crate::exec::run_spmd_with) falls back to the
    /// single-threaded engine for them, keeping stats bitwise-identical by
    /// construction.
    pub fn commutes_with_region_sharding(&self) -> bool {
        matches!(self, Topology::Flat)
    }

    /// Do the topology's parameters make sense for any world? (Positive
    /// counts, finite non-negative factors.)
    pub fn validate(&self) -> Result<(), &'static str> {
        let factor_ok = |f: f64| f.is_finite() && f >= 0.0;
        match self {
            Topology::Flat => Ok(()),
            Topology::FatTree {
                ranks_per_node,
                nodes_per_switch,
                nic_factor,
                up_factor,
            } => {
                if *ranks_per_node == 0 || *nodes_per_switch == 0 {
                    Err("ranks_per_node and nodes_per_switch must be positive")
                } else if !factor_ok(*nic_factor) || !factor_ok(*up_factor) {
                    Err("link factors must be finite and non-negative")
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// How ranks are assigned to the topology's nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Consecutive ranks fill a node before the next one starts (MPI's
    /// default on most machines) — communication-local algorithms keep
    /// their neighbour traffic inside a node.
    Block,
    /// Rank `r` goes to node `r mod n_nodes` — maximally scattered, every
    /// neighbour exchange crosses the network.
    RoundRobin,
}

/// A distributed machine: `p` ranks, each with `mem_words` words of local
/// memory (the paper's `S`), and a communication/computation cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Number of ranks (the paper's `p`; one rank per core in §8).
    pub p: usize,
    /// Local memory per rank in 8-byte words (the paper's `S`).
    pub mem_words: usize,
    /// Cost constants for the time model.
    pub cost: CostModel,
    /// Enforced per-rank memory budget, in words. `None` (the default)
    /// makes `S` advisory — executions only *measure* `peak_mem_words`.
    /// `Some(budget)` makes it a hard limit: a run in which any rank's
    /// tracked peak exceeds the budget returns
    /// [`ExecError::MemBudgetExceeded`](crate::exec::ExecError) from every
    /// execution backend.
    pub mem_budget: Option<u64>,
    /// Communication–computation overlap (§7.3) in the event executor's
    /// virtual clock. `true` (the default, COSMA's double-buffering edge): a
    /// posted transfer proceeds in the background on the receiver's incoming
    /// link and can hide behind the receiver's compute. `false`: every
    /// transfer is fully exposed at the receive, comm and compute strictly
    /// alternating — the model the paper uses for the non-overlapping
    /// baselines.
    pub overlap: bool,
    /// Deadlock guard: a `recv` that waits longer than this for a matching
    /// message turns the run into a typed
    /// [`ExecError::DeadlockSuspected`](crate::exec::ExecError). The wait
    /// is measured on the rank's *virtual* clock, alongside the structural
    /// no-rank-runnable detection; tests that provoke deadlocks in a world
    /// that keeps advancing shrink it.
    pub recv_timeout: Duration,
    /// The interconnect shape routing every transfer (see [`Topology`]).
    /// [`Topology::Flat`] (the default) reproduces the pre-topology
    /// per-receiver-link virtual clock bitwise.
    pub topology: Topology,
    /// Rank→node assignment under the topology (see [`Placement`]).
    /// Ignored by [`Topology::Flat`].
    pub placement: Placement,
    /// Deterministic fault injection (see [`FaultPlan`]). `None` (the
    /// default) runs fault-free. `Some(plan)` makes the event backend kill
    /// the plan's scheduled ranks at their virtual death times; a run the
    /// deaths keep from completing returns
    /// [`ExecError::RankFailed`](crate::exec::ExecError). A quiescent plan
    /// ([`FaultPlan::new`]) is bitwise a no-op.
    pub faults: Option<FaultPlan>,
    /// Buffer-reuse arenas (§7 "buffer reuse"). `true` (the default): the
    /// world's [`BufferPool`](crate::pool::BufferPool) recycles message
    /// payloads, collective scratch and leaf buffers across the run.
    /// `false`: every take is a fresh allocation. Either way results,
    /// counters and virtual times are bitwise-identical — the pool only
    /// changes where bytes live, never what they hold (the pooling-on/off
    /// property suite gates this).
    pub pooling: bool,
}

impl MachineSpec {
    /// A machine with explicit parameters (advisory memory).
    pub fn new(p: usize, mem_words: usize, cost: CostModel) -> Self {
        assert!(p > 0, "machine needs at least one rank");
        assert!(mem_words > 0, "ranks need memory");
        MachineSpec {
            p,
            mem_words,
            cost,
            mem_budget: None,
            overlap: true,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
            topology: Topology::Flat,
            placement: Placement::Block,
            faults: None,
            pooling: true,
        }
    }

    /// Enable or disable buffer-reuse arenas (see [`MachineSpec::pooling`]).
    pub fn with_pooling(mut self, pooling: bool) -> Self {
        self.pooling = pooling;
        self
    }

    /// Attach a deterministic fault-injection plan (see
    /// [`MachineSpec::faults`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Set the interconnect topology (see [`MachineSpec::topology`]).
    ///
    /// # Panics
    /// Panics when the topology's parameters are invalid
    /// ([`Topology::validate`]).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        if let Err(why) = topology.validate() {
            panic!("invalid topology: {why}");
        }
        self.topology = topology;
        self
    }

    /// Set the rank→node placement (see [`MachineSpec::placement`]).
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Set communication–computation overlap for the event executor's
    /// virtual clock (see [`MachineSpec::overlap`]).
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Set the recv deadline (see [`MachineSpec::recv_timeout`]), in virtual
    /// time.
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Enforce `words` as a hard per-rank memory budget (see
    /// [`MachineSpec::mem_budget`]).
    pub fn with_mem_budget(mut self, words: u64) -> Self {
        self.mem_budget = Some(words);
        self
    }

    /// Enforce the machine's own `S` as the hard per-rank budget — the
    /// paper's limited-memory regime taken literally.
    pub fn enforcing_memory(self) -> Self {
        let words = self.mem_words as u64;
        self.with_mem_budget(words)
    }

    /// Piz-Daint-like machine: one rank per core, 64 GiB per 36-core node
    /// (≈238 M words per core), two-sided backend. This mirrors §8's
    /// "we set p to the number of available cores and S to the main memory
    /// size per core".
    pub fn piz_daint(p: usize) -> Self {
        MachineSpec::new(p, 64 * 1024 * 1024 * 1024 / 36 / 8, CostModel::piz_daint_two_sided())
    }

    /// Piz-Daint-like machine with a reduced per-rank memory — used by the
    /// "limited memory" scenarios where `S` is scaled to the problem.
    pub fn piz_daint_with_memory(p: usize, mem_words: usize) -> Self {
        MachineSpec::new(p, mem_words, CostModel::piz_daint_two_sided())
    }

    /// A tiny test machine: `p` ranks with `mem_words` memory and a unit cost
    /// model — convenient in unit tests.
    pub fn test_machine(p: usize, mem_words: usize) -> Self {
        MachineSpec::new(
            p,
            mem_words,
            CostModel {
                peak_flops: 1e9,
                kernel_efficiency: 1.0,
                alpha_s: 1e-6,
                beta_s_per_word: 1e-9,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piz_daint_memory_per_core() {
        let m = MachineSpec::piz_daint(1024);
        assert_eq!(m.p, 1024);
        // 64 GiB / 36 cores / 8 bytes ≈ 238 M words.
        assert!(m.mem_words > 230_000_000 && m.mem_words < 245_000_000);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = MachineSpec::test_machine(0, 10);
    }

    #[test]
    fn mem_budget_defaults_off_and_enforces_s() {
        let m = MachineSpec::test_machine(4, 100);
        assert_eq!(m.mem_budget, None);
        assert_eq!(m.clone().enforcing_memory().mem_budget, Some(100));
        assert_eq!(m.with_mem_budget(64).mem_budget, Some(64));
    }

    #[test]
    fn topology_defaults_flat_block() {
        let m = MachineSpec::test_machine(4, 100);
        assert_eq!(m.topology, Topology::Flat);
        assert_eq!(m.placement, Placement::Block);
        let m = m
            .with_topology(Topology::congested_fat_tree())
            .with_placement(Placement::RoundRobin);
        assert_eq!(
            m.topology,
            Topology::FatTree {
                ranks_per_node: 4,
                nodes_per_switch: 4,
                nic_factor: 0.25,
                up_factor: 0.25
            }
        );
        assert_eq!(m.placement, Placement::RoundRobin);
    }

    #[test]
    fn topology_validation_rejects_nonsense() {
        assert!(Topology::Flat.validate().is_ok());
        assert!(Topology::FatTree {
            ranks_per_node: 0,
            nodes_per_switch: 4,
            nic_factor: 1.0,
            up_factor: 1.0
        }
        .validate()
        .is_err());
        assert!(Topology::FatTree {
            ranks_per_node: 2,
            nodes_per_switch: 0,
            nic_factor: 1.0,
            up_factor: 1.0
        }
        .validate()
        .is_err());
        assert!(Topology::FatTree {
            ranks_per_node: 2,
            nodes_per_switch: 4,
            nic_factor: f64::NAN,
            up_factor: 1.0
        }
        .validate()
        .is_err());
        assert!(Topology::congested_fat_tree().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid topology")]
    fn with_topology_panics_on_invalid() {
        let _ = MachineSpec::test_machine(4, 100).with_topology(Topology::FatTree {
            ranks_per_node: 0,
            nodes_per_switch: 4,
            nic_factor: 1.0,
            up_factor: 1.0,
        });
    }

    #[test]
    fn pooling_defaults_on_and_toggles() {
        let m = MachineSpec::test_machine(4, 100);
        assert!(m.pooling, "buffer-reuse arenas are the default");
        assert!(!m.with_pooling(false).pooling);
    }

    #[test]
    fn overlap_and_timeout_knobs() {
        let m = MachineSpec::test_machine(4, 100);
        assert!(m.overlap, "overlap (double buffering) is the default");
        assert_eq!(m.recv_timeout, DEFAULT_RECV_TIMEOUT);
        let m = m.with_overlap(false).with_recv_timeout(Duration::from_millis(50));
        assert!(!m.overlap);
        assert_eq!(m.recv_timeout, Duration::from_millis(50));
    }
}
