//! The unified algorithm API: one trait, one error type, one entry point.
//!
//! The paper's whole evaluation method is "every algorithm produces the same
//! [`DistPlan`] and is measured identically" (§9). This module makes that
//! contract a first-class type instead of a convention:
//!
//! * [`MmmAlgorithm`] — the trait every distributed MMM algorithm implements:
//!   typed identity ([`AlgoId`]), capability queries
//!   ([`MmmAlgorithm::supports`]), exact planning as a rank stream
//!   ([`MmmAlgorithm::plan_ranks`]; [`MmmAlgorithm::plan`] collects it) and
//!   a resumable rank body ([`MmmAlgorithm::execute_rank`] returns a
//!   [`RankFuture`] of the rank's [`CPart`]s). [`execute_boxed`], the one
//!   driver, runs that body on a [`MachineSpec`] with mpiP-style measured
//!   counters and virtual time on event-driven stackless state machines
//!   (any world size — run to p = 1,048,576), on as many scheduler threads
//!   as the [`ExecBackend`] names.
//! * [`PlanError`] — the single error enum for everything that can go wrong
//!   between "here is a problem" and "here is a validated plan": structural
//!   plan defects, grid infeasibility, per-algorithm rank-count constraints
//!   (CARMA's power of two), registry misses and
//!   configuration mistakes.
//! * [`AlgorithmRegistry`] — a set of boxed algorithms with per-algorithm
//!   default configurations. [`AlgorithmRegistry::core`] holds COSMA alone;
//!   the `baselines` crate's `registry()` adds the four comparison
//!   algorithms of §9.
//! * [`RunSession`] — what to multiply and how to model it (problem,
//!   algorithm, registry, cost model, overlap, executor), taken to a plan, a
//!   simulated [`SimReport`], or a verified execution in one fluent chain.
//!   The machine beyond that — topology, placement, faults, a memory
//!   budget — is a [`MachineSpec`] handed to [`execute_boxed`]:
//!
//! ```
//! use cosma::api::{AlgoId, RunSession};
//! use cosma::problem::MmmProblem;
//! use mpsim::cost::CostModel;
//!
//! let prob = MmmProblem::new(96, 80, 128, 16, 4096);
//! let outcome = RunSession::new(prob)
//!     .machine(CostModel::piz_daint_two_sided())
//!     .algorithm(AlgoId::Cosma)
//!     .run()
//!     .expect("feasible problem");
//! assert!(outcome.report.time_s > 0.0);
//! ```

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::str::FromStr;
use std::sync::Arc;

use densemat::gemm::matmul;
use densemat::matrix::Matrix;
use mpsim::comm::RankComm;
use mpsim::cost::CostModel;
use mpsim::exec::{run_spmd_with, ExecBackend, ExecError};
use mpsim::machine::MachineSpec;
use mpsim::pool::PoolStats;
use mpsim::stats::RankStats;

use crate::algorithm::{self, assemble_c, CPart, CosmaConfig};
use crate::grid::FitError;
use crate::plan::{DistPlan, PlanHeader, RankPlan, SimReport};
use crate::problem::MmmProblem;

// ---------------------------------------------------------------------------
// Algorithm identity
// ---------------------------------------------------------------------------

/// Typed identifier of a distributed MMM algorithm.
///
/// Replaces the stringly `&'static str` ids that used to float between the
/// plans, the bench runner and the CSV files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AlgoId {
    /// COSMA (§3–§7): schedule first, grid second.
    Cosma,
    /// SUMMA (van de Geijn & Watts '97) — the ScaLAPACK `pdgemm` stand-in.
    Summa,
    /// The 2.5D decomposition (Solomonik & Demmel '11) — the CTF stand-in.
    P25d,
    /// CARMA (Demmel et al. '13): BFS recursive splitting.
    Carma,
}

impl AlgoId {
    /// Every id, in the paper's presentation order.
    pub const ALL: [AlgoId; 4] = [AlgoId::Cosma, AlgoId::Summa, AlgoId::P25d, AlgoId::Carma];

    /// Canonical lower-case name (used in tables, CSV files and CLIs).
    pub fn as_str(&self) -> &'static str {
        match self {
            AlgoId::Cosma => "cosma",
            AlgoId::Summa => "summa",
            AlgoId::P25d => "p25d",
            AlgoId::Carma => "carma",
        }
    }
}

impl fmt::Display for AlgoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for AlgoId {
    type Err = PlanError;

    /// Parse a canonical name or a paper alias (`scalapack`, `ctf`, `2.5d`).
    fn from_str(s: &str) -> Result<Self, PlanError> {
        match s.to_ascii_lowercase().as_str() {
            "cosma" => Ok(AlgoId::Cosma),
            "summa" | "scalapack" => Ok(AlgoId::Summa),
            "p25d" | "2.5d" | "ctf" => Ok(AlgoId::P25d),
            "carma" => Ok(AlgoId::Carma),
            _ => Err(PlanError::UnknownAlgorithm { name: s.to_string() }),
        }
    }
}

// ---------------------------------------------------------------------------
// The unified error type
// ---------------------------------------------------------------------------

/// A rank-count constraint an algorithm imposes on `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankRequirement {
    /// `p = 2^L` (CARMA).
    PowerOfTwo,
}

impl RankRequirement {
    /// Does `p` satisfy the requirement?
    pub fn accepts(&self, p: usize) -> bool {
        match self {
            RankRequirement::PowerOfTwo => p.is_power_of_two(),
        }
    }

    /// [`accepts`](Self::accepts) as a typed check: the single source of
    /// the [`PlanError::UnsupportedRanks`] errors that `supports()` and the
    /// planners report.
    pub fn check(&self, algo: AlgoId, p: usize) -> Result<(), PlanError> {
        if self.accepts(p) {
            Ok(())
        } else {
            Err(PlanError::UnsupportedRanks {
                algo,
                p,
                requires: *self,
            })
        }
    }
}

impl fmt::Display for RankRequirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankRequirement::PowerOfTwo => write!(f, "a power-of-two rank count"),
        }
    }
}

/// Everything that can go wrong between a problem statement and a validated,
/// executable plan.
///
/// Consolidates the former `FitError` (COSMA grid fitting), `BaselineError`
/// (baseline planners) and the structural plan-validation errors into one
/// enum, so every layer of the stack speaks the same error language.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Some iteration-space point is covered zero or multiple times.
    BadCoverage {
        /// Sum of brick volumes over active ranks.
        covered: u64,
        /// Required volume `m·n·k`.
        required: u64,
    },
    /// Two active ranks' bricks overlap.
    Overlap {
        /// First rank.
        a: usize,
        /// Second rank.
        b: usize,
    },
    /// A brick exceeds the iteration-space bounds.
    OutOfBounds {
        /// Offending rank.
        rank: usize,
    },
    /// A rank's working set exceeds the per-rank memory `S`.
    MemoryExceeded {
        /// Offending rank.
        rank: usize,
        /// Its planned working set.
        need: u64,
        /// The per-rank memory.
        have: u64,
    },
    /// No decomposition of any admissible size fits the per-rank memory.
    NoFeasibleGrid,
    /// The algorithm cannot decompose for this rank count at all.
    UnsupportedRanks {
        /// The constrained algorithm.
        algo: AlgoId,
        /// The offered rank count.
        p: usize,
        /// What the algorithm requires of `p`.
        requires: RankRequirement,
    },
    /// The registry has no implementation for the requested id.
    NotRegistered {
        /// The missing algorithm.
        algo: AlgoId,
    },
    /// A plan was executed on a machine of the wrong size.
    WorldSizeMismatch {
        /// Ranks the plan was built for.
        plan_ranks: usize,
        /// Ranks of the executing machine.
        world_ranks: usize,
    },
    /// A name failed to parse as an [`AlgoId`].
    UnknownAlgorithm {
        /// The unparsable name.
        name: String,
    },
    /// A configuration knob was applied to an algorithm it does not fit.
    InvalidConfig {
        /// The algorithm the knob was applied to.
        algo: AlgoId,
        /// What went wrong.
        reason: &'static str,
    },
    /// The selected execution backend refused the world (e.g. zero workers)
    /// or the run failed with a typed executor error (deadlock, memory
    /// budget, injected fault).
    Execution {
        /// The executor's typed refusal.
        source: ExecError,
    },
    /// A cost-model constant fails
    /// [`CostModel::check`](mpsim::cost::CostModel::check): NaN, infinite, a
    /// rate that is not positive, or a negative α or β. A NaN cannot be
    /// canonicalized into a cache key, no plan objective could order
    /// candidates under either, an infinite one (or a zero rate) completes
    /// work at t = +∞, which no executor window ever admits, and a negative
    /// one plans a time no execution measures.
    InvalidCostModel {
        /// The first invalid parameter.
        field: &'static str,
    },
    /// The machine's [`Topology`](mpsim::machine::Topology) fails
    /// [`Topology::validate`](mpsim::machine::Topology::validate) — a zero
    /// count or a non-finite or negative factor.
    InvalidTopology {
        /// What `validate` rejected.
        reason: &'static str,
    },
    /// The job was abandoned before it could run to completion — e.g. the
    /// serving layer shut down with the job still queued, or its driver
    /// thread died mid-flight. The job may be safely resubmitted.
    Aborted {
        /// Why the job never completed.
        reason: &'static str,
    },
    /// The problem statement itself is not one any planner can take
    /// ([`MmmProblem::check`]): nothing to multiply, nobody to multiply it,
    /// or more work than 64 bits can count.
    DegenerateProblem {
        /// What is wrong with it.
        reason: &'static str,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadCoverage { covered, required } => {
                write!(f, "bricks cover {covered} of {required} iteration-space points")
            }
            PlanError::Overlap { a, b } => write!(f, "bricks of ranks {a} and {b} overlap"),
            PlanError::OutOfBounds { rank } => {
                write!(f, "rank {rank} has a brick outside the iteration space")
            }
            PlanError::MemoryExceeded { rank, need, have } => {
                write!(f, "rank {rank} needs {need} words but has {have}")
            }
            PlanError::NoFeasibleGrid => write!(f, "no feasible decomposition fits the per-rank memory"),
            PlanError::UnsupportedRanks { algo, p, requires } => {
                write!(f, "{algo} requires {requires}; p = {p} is not")
            }
            PlanError::NotRegistered { algo } => {
                write!(
                    f,
                    "algorithm {algo} is not in the registry (the full set lives in baselines::registry())"
                )
            }
            PlanError::WorldSizeMismatch {
                plan_ranks,
                world_ranks,
            } => {
                write!(f, "plan built for {plan_ranks} ranks executed on a {world_ranks}-rank machine")
            }
            PlanError::UnknownAlgorithm { name } => write!(f, "unknown algorithm name: {name:?}"),
            PlanError::InvalidConfig { algo, reason } => {
                write!(f, "invalid configuration for {algo}: {reason}")
            }
            PlanError::Execution { source } => write!(f, "execution backend refused: {source}"),
            PlanError::InvalidCostModel { field } => {
                write!(f, "machine parameter {field} is not finite, or is out of range")
            }
            PlanError::InvalidTopology { reason } => write!(f, "invalid topology: {reason}"),
            PlanError::Aborted { reason } => {
                write!(f, "job aborted before completion: {reason}")
            }
            PlanError::DegenerateProblem { reason } => write!(f, "degenerate problem: {reason}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<FitError> for PlanError {
    fn from(e: FitError) -> Self {
        match e {
            FitError::NoFeasibleGrid => PlanError::NoFeasibleGrid,
        }
    }
}

impl From<ExecError> for PlanError {
    fn from(source: ExecError) -> Self {
        PlanError::Execution { source }
    }
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// Measured outcome of a real execution.
///
/// The distributed output shares are assembled into the full product matrix,
/// and every rank's mpiP-style counters are returned so callers can hold the
/// execution against [`DistPlan`]'s word-exact predictions. Runs on the
/// event backend additionally carry each rank's *virtual* α-β-γ time
/// (`RankStats::time`), measured by the discrete-event scheduler — the
/// executed analogue of [`SimReport`]'s planned numbers.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// The assembled `m × n` product.
    pub c: Matrix,
    /// Per-rank measured statistics, indexed by rank.
    pub stats: Vec<RankStats>,
    /// Buffer-arena counters of the run (allocations vs. recycled hits).
    /// Display-only observability: recycling is invisible to `c` and
    /// `stats`, and the hit/miss split is not part of the determinism
    /// contract (it depends on scheduling order).
    pub pool: PoolStats,
}

impl ExecReport {
    /// Measured machine time: the slowest rank's virtual finish time, in
    /// seconds.
    pub fn measured_time_s(&self) -> f64 {
        mpsim::stats::aggregate::machine_time_s(&self.stats)
    }

    /// The slowest rank's measured compute / exposed-comm / hidden-comm
    /// breakdown — the executed analogue of `SimReport::critical`.
    pub fn critical_time(&self) -> mpsim::cost::TimeBreakdown {
        mpsim::stats::aggregate::critical_time(&self.stats)
    }

    /// Measured percent of machine peak over `p` ranks under `model` —
    /// the executed analogue of `SimReport::percent_peak` (Figures
    /// 8/10/13/14). Zero when no virtual time was measured.
    pub fn measured_percent_peak(&self, p: usize, model: &CostModel) -> f64 {
        mpsim::cost::percent_peak(
            mpsim::stats::aggregate::total_flops(&self.stats),
            p,
            self.measured_time_s(),
            model,
        )
    }
}

/// A distributed matrix-multiplication algorithm that plans exact per-rank
/// communication and executes the same schedule with real messages.
///
/// The contract every implementation upholds (and the trait-level
/// conformance suite in `tests/trait_conformance.rs` enforces):
///
/// 1. [`supports`](MmmAlgorithm::supports) is *honest*: if it accepts a
///    problem's rank count, [`plan`](MmmAlgorithm::plan) never panics on that
///    problem (it may still report memory infeasibility); if it rejects,
///    `plan` returns the same error.
/// 2. A returned plan passes [`DistPlan::validate_coverage`].
/// 3. Executing the plan moves, rank by rank, exactly the words the plan
///    predicts, and produces the same product as the sequential kernel.
/// 4. Planning is *pure*: [`plan_ranks`](MmmAlgorithm::plan_ranks) hands out
///    the same ranks, in rank order, every time it is asked the same
///    question — so a plan that was only streamed and scored is, bit for
///    bit, the plan a later [`plan`](MmmAlgorithm::plan) collects.
pub trait MmmAlgorithm: Send + Sync {
    /// The algorithm's typed identity.
    fn id(&self) -> AlgoId;

    /// Capability query: can this algorithm decompose for `prob.p` ranks?
    ///
    /// This checks *structural* constraints (CARMA's power of two), not
    /// memory feasibility — that is [`plan`]'s job, since
    /// it depends on the decomposition search.
    ///
    /// [`plan`]: MmmAlgorithm::plan
    fn supports(&self, _prob: &MmmProblem) -> Result<(), PlanError> {
        Ok(())
    }

    /// Produce the exact distributed plan for `prob` under `machine`'s cost
    /// model as a *rank stream*: every rank's plan handed to `sink` in rank
    /// order, then what the plan holds besides its ranks. The one required
    /// planning method — a caller that only judges a plan (the auto-planner
    /// scoring a candidate) folds the ranks as they pass and stores none.
    ///
    /// On `Err` the ranks already handed out mean nothing.
    fn plan_ranks(
        &self,
        prob: &MmmProblem,
        machine: &CostModel,
        sink: &mut dyn FnMut(RankPlan),
    ) -> Result<PlanHeader, PlanError>;

    /// Build the exact distributed plan for `prob` under `machine`'s cost
    /// model: [`plan_ranks`](MmmAlgorithm::plan_ranks), collected.
    fn plan(&self, prob: &MmmProblem, machine: &CostModel) -> Result<DistPlan, PlanError> {
        DistPlan::collect(|sink| self.plan_ranks(prob, machine, sink))
    }

    /// Execute the plan on the calling rank with real messages, returning
    /// this rank's shares of the distributed output (empty for ranks that
    /// hold no output — idle ranks, or non-root layers of a reduction).
    /// Most algorithms return one [`CPart`]; memory-budgeted CARMA returns
    /// one per sequential DFS leaf, and parts covering the same C region
    /// carry partial sums that [`assemble_c`] accumulates.
    ///
    /// The body is *resumable*: it returns a [`RankFuture`] whose awaits on
    /// the communicator's wait-states let the event-driven executor park
    /// the rank as a stackless state machine. Implementations wrap their
    /// `async` rank body in `Box::pin(..)`. [`execute_boxed`] runs it on
    /// every rank of a machine.
    fn execute_rank<'a>(
        &'a self,
        comm: &'a mut RankComm,
        plan: &'a DistPlan,
        a: &'a Matrix,
        b: &'a Matrix,
    ) -> RankFuture<'a, Vec<CPart>>;
}

/// The resumable rank-body future of [`MmmAlgorithm::execute_rank`]: a
/// boxed stackless state machine. Not `Send` — each executor polls a rank's
/// future on the thread that created it.
pub type RankFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// The one way a plan runs on a machine: refuse a plan built for another
/// world size, run `algo`'s rank body on every rank of `machine` (its
/// topology, placement, faults and memory budget included) on `backend`,
/// and assemble the ranks' output shares. Takes a concrete algorithm or a
/// `&dyn MmmAlgorithm` (e.g. a registry entry).
pub fn execute_boxed(
    algo: &(impl MmmAlgorithm + ?Sized),
    plan: &DistPlan,
    machine: &MachineSpec,
    backend: ExecBackend,
    a: &Matrix,
    b: &Matrix,
) -> Result<ExecReport, PlanError> {
    if plan.problem.p != machine.p {
        return Err(PlanError::WorldSizeMismatch {
            plan_ranks: plan.problem.p,
            world_ranks: machine.p,
        });
    }
    let out =
        run_spmd_with(
            machine,
            backend,
            |mut comm| async move { algo.execute_rank(&mut comm, plan, a, b).await },
        )?;
    let c = assemble_c(out.results.into_iter().flatten(), plan.problem.m, plan.problem.n);
    Ok(ExecReport {
        c,
        stats: out.stats,
        pool: out.pool,
    })
}

// ---------------------------------------------------------------------------
// COSMA's implementation
// ---------------------------------------------------------------------------

/// COSMA as an [`MmmAlgorithm`]: wraps [`CosmaConfig`] (the grid-fitting δ)
/// around the planner and executor of [`crate::algorithm`]. A variant — δ = 0,
/// say — is a registry entry: `registry.register(CosmaAlgorithm { cfg })`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CosmaAlgorithm {
    /// The tunables (δ = 0.03 by default).
    pub cfg: CosmaConfig,
}

impl MmmAlgorithm for CosmaAlgorithm {
    fn id(&self) -> AlgoId {
        AlgoId::Cosma
    }

    fn plan_ranks(
        &self,
        prob: &MmmProblem,
        machine: &CostModel,
        sink: &mut dyn FnMut(RankPlan),
    ) -> Result<PlanHeader, PlanError> {
        algorithm::plan_ranks(prob, &self.cfg, machine, sink)
    }

    fn execute_rank<'a>(
        &'a self,
        comm: &'a mut RankComm,
        plan: &'a DistPlan,
        a: &'a Matrix,
        b: &'a Matrix,
    ) -> RankFuture<'a, Vec<CPart>> {
        Box::pin(algorithm::execute(comm, plan, a, b))
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A set of [`MmmAlgorithm`] implementations, each with its default
/// configuration, addressable by [`AlgoId`].
///
/// The core crate only knows COSMA ([`AlgorithmRegistry::core`]); the
/// `baselines` crate's `registry()` returns the full four-algorithm set used
/// by the bench harness, the examples and the conformance tests.
///
/// The algorithm list is `Arc`-backed with copy-on-write mutation, so
/// `Clone` is O(1) and clones share storage until one of them registers —
/// the serving layer hands one registry to every request without rebuilding
/// it.
#[derive(Clone, Default)]
pub struct AlgorithmRegistry {
    algos: Arc<Vec<Arc<dyn MmmAlgorithm>>>,
}

impl AlgorithmRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        AlgorithmRegistry {
            algos: Arc::new(Vec::new()),
        }
    }

    /// The registry of the core crate: COSMA with its default configuration.
    pub fn core() -> Self {
        let mut r = AlgorithmRegistry::new();
        r.register(CosmaAlgorithm::default());
        r
    }

    /// Add (or replace) an algorithm. Later registrations of the same
    /// [`AlgoId`] win, so callers can override a default configuration.
    /// Copy-on-write: a registry sharing storage with clones splits off its
    /// own copy first; the clones are unaffected.
    pub fn register(&mut self, algo: impl MmmAlgorithm + 'static) -> &mut Self {
        self.register_arc(Arc::new(algo))
    }

    /// [`register`](Self::register) for an already-shared implementation.
    pub fn register_arc(&mut self, algo: Arc<dyn MmmAlgorithm>) -> &mut Self {
        let algos = Arc::make_mut(&mut self.algos);
        algos.retain(|a| a.id() != algo.id());
        algos.push(algo);
        self
    }

    /// Every registered algorithm, in registration order.
    pub fn all(&self) -> &[Arc<dyn MmmAlgorithm>] {
        &self.algos
    }

    /// The registered ids, in registration order.
    pub fn ids(&self) -> Vec<AlgoId> {
        self.algos.iter().map(|a| a.id()).collect()
    }

    /// Look up an algorithm by id.
    pub fn by_id(&self, id: AlgoId) -> Result<Arc<dyn MmmAlgorithm>, PlanError> {
        self.algos
            .iter()
            .find(|a| a.id() == id)
            .cloned()
            .ok_or(PlanError::NotRegistered { algo: id })
    }
}

impl fmt::Debug for AlgorithmRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlgorithmRegistry").field("ids", &self.ids()).finish()
    }
}

// ---------------------------------------------------------------------------
// RunSession
// ---------------------------------------------------------------------------

/// Outcome of [`RunSession::run`]: the plan and its cost-model evaluation.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The validated distributed plan.
    pub plan: DistPlan,
    /// The α-β-γ simulation of the plan (Figures 8–14 metrics).
    pub report: SimReport,
}

/// The single entry point from a problem statement to a planned, simulated
/// or executed multiplication.
///
/// A session says what to multiply and how to model it: the problem, the
/// algorithm and the registry it is looked up in, the cost model, overlap
/// and the executor. It executes on [`machine_spec`](Self::machine_spec),
/// the plain machine those describe; a run that needs more of a machine (a
/// topology, a placement, a fault plan, an enforced memory budget) builds
/// that [`MachineSpec`] and hands it to [`execute_boxed`]. An algorithm
/// variant (COSMA at δ = 0, a forced 2.5D geometry) is an entry of the
/// session's [`registry`](Self::registry).
///
/// ```
/// use cosma::api::{AlgoId, RunSession};
/// use cosma::problem::MmmProblem;
///
/// let plan = RunSession::new(MmmProblem::new(64, 64, 64, 8, 1 << 12))
///     .algorithm(AlgoId::Cosma)
///     .plan()
///     .unwrap();
/// assert_eq!(plan.algo, AlgoId::Cosma);
/// ```
#[derive(Debug, Clone)]
pub struct RunSession {
    prob: MmmProblem,
    algo: AlgoId,
    registry: AlgorithmRegistry,
    model: Option<CostModel>,
    overlap: bool,
    exec: Option<ExecBackend>,
}

impl RunSession {
    /// Start a session for `prob`. Defaults: COSMA, the core registry, a
    /// Piz-Daint-like two-sided cost model, communication overlap on.
    pub fn new(prob: MmmProblem) -> Self {
        RunSession {
            prob,
            algo: AlgoId::Cosma,
            registry: AlgorithmRegistry::core(),
            model: None,
            overlap: true,
            exec: None,
        }
    }

    /// Set the machine cost model (the machine's rank count and memory come
    /// from the problem itself).
    pub fn machine(mut self, model: CostModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Select the algorithm (default: COSMA).
    pub fn algorithm(mut self, id: AlgoId) -> Self {
        self.algo = id;
        self
    }

    /// Use a custom registry (e.g. `baselines::registry()` for the full
    /// four-algorithm set, or one with re-configured entries such as COSMA
    /// at δ = 0).
    pub fn registry(mut self, registry: AlgorithmRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Plan-simulate *and* execute with or without communication–computation
    /// overlap (§7.3). Affects [`run`](Self::run)'s cost-model evaluation
    /// and, through [`machine_spec`](Self::machine_spec), the event
    /// executor's virtual clock, so planned and measured time use the same
    /// overlap semantics.
    pub fn overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Select the execution backend for [`execute`](Self::execute) /
    /// [`execute_verified`](Self::execute_verified). Default:
    /// [`ExecBackend::event`] at every world size. `ExecBackend::Event {
    /// threads }` runs the event scheduler on `threads` OS threads; counters
    /// and virtual times are bitwise-identical at every thread count.
    pub fn exec_backend(mut self, backend: ExecBackend) -> Self {
        self.exec = Some(backend);
        self
    }

    /// The execution backend the session will use: the explicit
    /// [`exec_backend`](Self::exec_backend) choice, or [`ExecBackend::event`].
    pub fn effective_exec_backend(&self) -> ExecBackend {
        self.exec.unwrap_or(ExecBackend::event())
    }

    /// The effective cost model.
    pub fn cost_model(&self) -> CostModel {
        self.model.unwrap_or_else(CostModel::piz_daint_two_sided)
    }

    /// The simulated machine the session executes on: `prob.p` ranks with
    /// `prob.mem_words` words each under the session's cost model and
    /// [`overlap`](Self::overlap) mode — flat, fault-free, `S` advisory.
    pub fn machine_spec(&self) -> MachineSpec {
        MachineSpec::new(self.prob.p, self.prob.mem_words, self.cost_model()).with_overlap(self.overlap)
    }

    /// The session's algorithm: its [`registry`](Self::registry) entry.
    pub fn resolve(&self) -> Result<Arc<dyn MmmAlgorithm>, PlanError> {
        self.registry.by_id(self.algo)
    }

    /// Resolve, capability-check, plan and structurally validate in one
    /// step — the shared path behind [`plan`](Self::plan),
    /// [`execute`](Self::execute) and
    /// [`execute_verified`](Self::execute_verified).
    fn resolved_plan(&self) -> Result<(Arc<dyn MmmAlgorithm>, DistPlan), PlanError> {
        self.prob.check()?;
        let model = self.checked_model()?;
        let algo = self.resolve()?;
        algo.supports(&self.prob)?;
        let plan = algo.plan(&self.prob, &model)?;
        plan.validate_coverage()?;
        Ok((algo, plan))
    }

    /// The effective cost model, or [`PlanError::InvalidCostModel`] naming
    /// its first invalid constant — which would price every plan at NaN, ±∞
    /// or negative time and leave no virtual clock able to finish.
    fn checked_model(&self) -> Result<CostModel, PlanError> {
        let model = self.cost_model();
        model.check().map_err(|field| PlanError::InvalidCostModel { field })?;
        Ok(model)
    }

    /// Plan only: capability check, exact plan, structural validation.
    pub fn plan(&self) -> Result<DistPlan, PlanError> {
        self.resolved_plan().map(|(_, plan)| plan)
    }

    /// Execute an *already-made* plan (e.g. a plan-cache hit) on the
    /// session's machine, skipping the planning step entirely. The plan must
    /// be for this session's resolved algorithm and world size — a cached
    /// plan keyed by the same problem + cost model satisfies both by
    /// construction.
    ///
    /// # Errors
    /// [`PlanError::InvalidCostModel`] when a cost-model constant fails
    /// [`CostModel::check`]; [`PlanError::UnknownAlgorithm`]-family errors from
    /// resolution; [`PlanError::InvalidConfig`] when `plan.algo` is not the
    /// session's
    /// algorithm; [`PlanError::WorldSizeMismatch`] when the plan's world
    /// does not match; execution errors as [`execute`](Self::execute).
    pub fn execute_planned(&self, plan: &DistPlan, a: &Matrix, b: &Matrix) -> Result<ExecReport, PlanError> {
        self.checked_model()?;
        let algo = self.resolve()?;
        if plan.algo != algo.id() {
            return Err(PlanError::InvalidConfig {
                algo: plan.algo,
                reason: "plan was made for a different algorithm than the session resolves",
            });
        }
        execute_boxed(algo.as_ref(), plan, &self.machine_spec(), self.effective_exec_backend(), a, b)
    }

    /// Plan and evaluate under the cost model.
    pub fn run(&self) -> Result<RunOutcome, PlanError> {
        let plan = self.plan()?;
        let report = plan.simulate(&self.cost_model(), self.overlap);
        Ok(RunOutcome { plan, report })
    }

    /// Plan and execute with real messages on the session's simulated
    /// machine, assembling the distributed product. The session's
    /// [`effective_exec_backend`](Self::effective_exec_backend) picks the
    /// executor, so worlds of thousands of ranks run end-to-end.
    pub fn execute(&self, a: &Matrix, b: &Matrix) -> Result<ExecReport, PlanError> {
        let (algo, plan) = self.resolved_plan()?;
        execute_boxed(algo.as_ref(), &plan, &self.machine_spec(), self.effective_exec_backend(), a, b)
    }

    /// [`execute`](Self::execute), then verify the product against the
    /// sequential kernel and the measured words and messages against the
    /// plan, rank by rank ([`DistPlan::deviating_rank`]).
    ///
    /// # Panics
    /// Panics if the product deviates from the sequential kernel or any
    /// rank's received words or messages deviate from the plan.
    pub fn execute_verified(&self, a: &Matrix, b: &Matrix) -> Result<(DistPlan, ExecReport), PlanError> {
        let (algo, plan) = self.resolved_plan()?;
        let report =
            execute_boxed(algo.as_ref(), &plan, &self.machine_spec(), self.effective_exec_backend(), a, b)?;
        let want = matmul(a, b);
        assert!(
            want.approx_eq(&report.c, 1e-9),
            "{}: product deviates from the sequential kernel by {}",
            plan.algo,
            want.max_abs_diff(&report.c)
        );
        if let Some(r) = plan.deviating_rank(&report.stats) {
            let (st, want) = (&report.stats[r], &plan.ranks[r]);
            panic!(
                "{}: rank {r} measured {} words in {} messages, its plan {} in {}",
                plan.algo,
                st.total_recv(),
                st.msgs_recv,
                want.comm_words(),
                want.comm_msgs()
            );
        }
        Ok((plan, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two scheduler threads, next to the one-thread default.
    const SHARDED: ExecBackend = ExecBackend::Event { threads: 2 };

    #[test]
    fn algo_id_roundtrips_and_aliases() {
        for id in AlgoId::ALL {
            assert_eq!(id.as_str().parse::<AlgoId>().unwrap(), id);
        }
        assert_eq!("scalapack".parse::<AlgoId>().unwrap(), AlgoId::Summa);
        assert_eq!("CTF".parse::<AlgoId>().unwrap(), AlgoId::P25d);
        assert!(matches!("pdgemm".parse::<AlgoId>(), Err(PlanError::UnknownAlgorithm { .. })));
    }

    #[test]
    fn rank_requirements() {
        assert!(RankRequirement::PowerOfTwo.accepts(8));
        assert!(!RankRequirement::PowerOfTwo.accepts(12));
    }

    #[test]
    fn core_registry_has_cosma_only() {
        let reg = AlgorithmRegistry::core();
        assert_eq!(reg.ids(), vec![AlgoId::Cosma]);
        assert!(reg.by_id(AlgoId::Cosma).is_ok());
        assert_eq!(reg.by_id(AlgoId::Carma).err(), Some(PlanError::NotRegistered { algo: AlgoId::Carma }));
    }

    #[test]
    fn registry_replacement_wins() {
        let mut reg = AlgorithmRegistry::core();
        reg.register(CosmaAlgorithm {
            cfg: CosmaConfig { delta: 0.5 },
        });
        assert_eq!(reg.all().len(), 1, "replaced, not duplicated");
    }

    #[test]
    fn registry_clone_is_shared_until_written() {
        let original = AlgorithmRegistry::core();
        let mut clone = original.clone();
        assert!(Arc::ptr_eq(&original.algos, &clone.algos), "clones share the algorithm list");
        let default = original.by_id(AlgoId::Cosma).unwrap();
        let custom: Arc<dyn MmmAlgorithm> = Arc::new(CosmaAlgorithm {
            cfg: CosmaConfig { delta: 0.5 },
        });
        clone.register_arc(custom.clone());
        // Copy-on-write: the clone split off; the original still holds its
        // default COSMA entry.
        assert!(!Arc::ptr_eq(&original.algos, &clone.algos));
        assert!(Arc::ptr_eq(&clone.by_id(AlgoId::Cosma).unwrap(), &custom));
        assert!(Arc::ptr_eq(&original.by_id(AlgoId::Cosma).unwrap(), &default));
    }

    #[test]
    fn execute_planned_matches_execute_and_checks_the_plan() {
        let prob = MmmProblem::new(24, 20, 28, 6, 4096);
        let a = Matrix::deterministic(prob.m, prob.k, 5);
        let b = Matrix::deterministic(prob.k, prob.n, 6);
        let session = RunSession::new(prob);
        let plan = session.plan().unwrap();
        for session in [session.clone(), session.clone().exec_backend(SHARDED)] {
            let cold = session.execute(&a, &b).unwrap();
            let cached = session.execute_planned(&plan, &a, &b).unwrap();
            assert_eq!(cached.c, cold.c, "bitwise-identical product");
            assert_eq!(cached.stats, cold.stats);
        }
        // A plan made for another algorithm is refused, not executed.
        let mut foreign = plan.clone();
        foreign.algo = AlgoId::Carma;
        assert!(matches!(
            session.execute_planned(&foreign, &a, &b),
            Err(PlanError::InvalidConfig {
                algo: AlgoId::Carma,
                ..
            })
        ));
        // A plan for a different world size is refused.
        let other = RunSession::new(MmmProblem::new(24, 20, 28, 12, 4096)).plan().unwrap();
        assert!(matches!(
            session.execute_planned(&other, &a, &b),
            Err(PlanError::WorldSizeMismatch {
                plan_ranks: 12,
                world_ranks: 6
            })
        ));
    }

    #[test]
    fn non_finite_cost_model_is_typed_at_every_session_entry() {
        // Before the check, β = +∞ planned at 0.0 s and hung `execute`, and
        // a NaN α picked another grid and finished with a made-up time. A
        // zero peak ran `run` to +∞ and hung `execute` too.
        let prob = MmmProblem::new(32, 32, 32, 4, 1 << 12);
        let (a, b) = (Matrix::deterministic(32, 32, 1), Matrix::deterministic(32, 32, 2));
        let plan = RunSession::new(prob).plan().unwrap();
        let mut bad = [CostModel::piz_daint_two_sided(); 4];
        bad[0].beta_s_per_word = f64::INFINITY;
        bad[1].alpha_s = f64::NEG_INFINITY;
        bad[2].peak_flops = f64::NAN;
        bad[3].peak_flops = 0.0;
        let fields = ["beta_s_per_word", "alpha_s", "peak_flops", "peak_flops"];
        for (field, model) in fields.into_iter().zip(bad) {
            let want = PlanError::InvalidCostModel { field };
            let session = RunSession::new(prob).machine(model);
            assert_eq!(session.plan().unwrap_err(), want, "plan");
            assert_eq!(session.run().unwrap_err(), want, "run");
            assert_eq!(session.execute(&a, &b).unwrap_err(), want, "execute");
            assert_eq!(session.execute_verified(&a, &b).unwrap_err(), want, "execute_verified");
            assert_eq!(session.execute_planned(&plan, &a, &b).unwrap_err(), want, "execute_planned");
        }
    }

    #[test]
    fn session_plans_and_simulates() {
        let prob = MmmProblem::new(64, 48, 56, 12, 1 << 12);
        let out = RunSession::new(prob).run().unwrap();
        assert_eq!(out.plan.algo, AlgoId::Cosma);
        assert_eq!(out.plan.validate(), Ok(()));
        assert!(out.report.time_s > 0.0);
    }

    #[test]
    fn session_executes_verified() {
        let prob = MmmProblem::new(24, 20, 28, 6, 4096);
        let a = Matrix::deterministic(prob.m, prob.k, 5);
        let b = Matrix::deterministic(prob.k, prob.n, 6);
        // The verification is the call: product, words and messages.
        RunSession::new(prob).execute_verified(&a, &b).unwrap();
    }

    #[test]
    fn session_execute_rejects_structurally_invalid_plans() {
        // An algorithm whose plan misses part of the iteration space: the
        // session must refuse to execute it, same as plan().
        #[derive(Debug)]
        struct HolePlanner;
        impl MmmAlgorithm for HolePlanner {
            fn id(&self) -> AlgoId {
                AlgoId::Carma
            }
            fn plan_ranks(
                &self,
                prob: &MmmProblem,
                machine: &CostModel,
                sink: &mut dyn FnMut(RankPlan),
            ) -> Result<PlanHeader, PlanError> {
                CosmaAlgorithm::default().plan_ranks(prob, machine, &mut |mut r| {
                    if r.rank == 0 {
                        r.bricks.clear(); // poke a hole
                    }
                    sink(r)
                })
            }
            fn execute_rank<'a>(
                &'a self,
                comm: &'a mut RankComm,
                plan: &'a DistPlan,
                a: &'a Matrix,
                b: &'a Matrix,
            ) -> RankFuture<'a, Vec<CPart>> {
                Box::pin(async move { CosmaAlgorithm::default().execute_rank(comm, plan, a, b).await })
            }
        }
        let mut reg = AlgorithmRegistry::new();
        reg.register(HolePlanner);
        let prob = MmmProblem::new(8, 8, 8, 2, 4096);
        let a = Matrix::deterministic(prob.m, prob.k, 1);
        let b = Matrix::deterministic(prob.k, prob.n, 2);
        let session = RunSession::new(prob).registry(reg).algorithm(AlgoId::Carma);
        assert!(matches!(session.plan(), Err(PlanError::BadCoverage { .. })));
        assert!(matches!(session.execute(&a, &b), Err(PlanError::BadCoverage { .. })));
    }

    #[test]
    fn session_unregistered_algorithm_reports() {
        let prob = MmmProblem::new(16, 16, 16, 4, 4096);
        let err = RunSession::new(prob).algorithm(AlgoId::Carma).plan().unwrap_err();
        assert_eq!(err, PlanError::NotRegistered { algo: AlgoId::Carma });
    }

    #[test]
    fn world_size_mismatch_is_an_error_not_a_panic() {
        let prob = MmmProblem::new(16, 16, 16, 4, 4096);
        let algo = CosmaAlgorithm::default();
        let plan = algo.plan(&prob, &CostModel::piz_daint_two_sided()).unwrap();
        let wrong = MachineSpec::piz_daint_with_memory(5, prob.mem_words);
        let a = Matrix::deterministic(prob.m, prob.k, 1);
        let b = Matrix::deterministic(prob.k, prob.n, 2);
        let err = execute_boxed(&algo, &plan, &wrong, ExecBackend::event(), &a, &b).unwrap_err();
        assert_eq!(
            err,
            PlanError::WorldSizeMismatch {
                plan_ranks: 4,
                world_ranks: 5
            }
        );
    }

    #[test]
    fn both_drivers_refuse_a_wrong_sized_world_before_running() {
        let prob = MmmProblem::new(16, 16, 16, 4, 4096);
        let algo = CosmaAlgorithm::default();
        let plan = algo.plan(&prob, &CostModel::piz_daint_two_sided()).unwrap();
        let wrong = MachineSpec::piz_daint_with_memory(5, prob.mem_words);
        // Operands of the wrong shape: reading them would panic, so an `Err`
        // proves neither driver started a rank.
        let a = Matrix::deterministic(2, 2, 1);
        let b = Matrix::deterministic(2, 2, 2);
        let mismatch = PlanError::WorldSizeMismatch {
            plan_ranks: 4,
            world_ranks: 5,
        };
        for backend in [ExecBackend::event(), SHARDED] {
            assert_eq!(
                execute_boxed(&algo, &plan, &wrong, backend, &a, &b).unwrap_err(),
                mismatch,
                "{backend}"
            );
        }
    }

    #[test]
    fn session_sharded_backend_executes_verified() {
        let prob = MmmProblem::new(24, 20, 28, 6, 4096);
        let a = Matrix::deterministic(prob.m, prob.k, 5);
        let b = Matrix::deterministic(prob.k, prob.n, 6);
        RunSession::new(prob).exec_backend(SHARDED).execute_verified(&a, &b).unwrap();
    }

    #[test]
    fn session_event_execution_measures_virtual_time() {
        let prob = MmmProblem::new(24, 20, 28, 6, 4096);
        let a = Matrix::deterministic(prob.m, prob.k, 5);
        let b = Matrix::deterministic(prob.k, prob.n, 6);
        let session = RunSession::new(prob).exec_backend(ExecBackend::event());
        let report = session.execute(&a, &b).unwrap();
        assert!(report.measured_time_s() > 0.0, "the event backend must measure time");
        let peak = report.measured_percent_peak(prob.p, &session.cost_model());
        assert!(peak > 0.0 && peak <= 100.0, "measured %peak {peak}");
        let crit = report.critical_time();
        assert!((crit.total_s() - report.measured_time_s()).abs() < 1e-15);
        // The overlap knob reaches the executor through machine_spec():
        // disabling double buffering can only slow the measured run down.
        let off = RunSession::new(prob)
            .overlap(false)
            .exec_backend(ExecBackend::event())
            .execute(&a, &b)
            .unwrap();
        assert!(!RunSession::new(prob).overlap(false).machine_spec().overlap);
        assert!(report.measured_time_s() <= off.measured_time_s() + 1e-15);
        // Two scheduler threads measure the same product and time, bit for
        // bit.
        let sharded = RunSession::new(prob).exec_backend(SHARDED).execute(&a, &b).unwrap();
        assert_eq!((sharded.c, sharded.stats), (report.c, report.stats));
    }

    #[test]
    fn mem_budget_surfaces_typed_violations() {
        // A one-word budget no algorithm can honour: the executor's typed
        // refusal arrives as PlanError::Execution, on one scheduler thread
        // and on two.
        let prob = MmmProblem::new(16, 16, 16, 4, 4096);
        let a = Matrix::deterministic(prob.m, prob.k, 1);
        let b = Matrix::deterministic(prob.k, prob.n, 2);
        let session = RunSession::new(prob);
        let (algo, plan) = (session.resolve().unwrap(), session.plan().unwrap());
        let starved = session.machine_spec().with_mem_budget(1);
        for backend in [ExecBackend::event(), SHARDED] {
            let err = execute_boxed(algo.as_ref(), &plan, &starved, backend, &a, &b).unwrap_err();
            assert!(
                matches!(
                    err,
                    PlanError::Execution {
                        source: ExecError::MemBudgetExceeded { budget: 1, .. }
                    }
                ),
                "{err}"
            );
        }
        // The problem's own S is ample: enforcing it passes, bit for bit the
        // unenforced session run.
        let enforced = session.machine_spec().enforcing_memory();
        let report = execute_boxed(algo.as_ref(), &plan, &enforced, ExecBackend::event(), &a, &b).unwrap();
        assert!(report.stats.iter().all(|st| st.peak_mem_words <= prob.mem_words as u64));
        let free = session.execute(&a, &b).unwrap();
        assert_eq!((report.c, report.stats), (free.c, free.stats));
    }

    #[test]
    fn session_zero_workers_is_a_typed_error() {
        // The executor refuses before any rank runs, so the input matrices
        // are never read.
        let prob = MmmProblem::new(64, 64, 64, 8, 1 << 12);
        let a = Matrix::deterministic(4, 4, 1);
        let b = Matrix::deterministic(4, 4, 2);
        let backend = ExecBackend::Event { threads: 0 };
        let err = RunSession::new(prob).exec_backend(backend).execute(&a, &b).unwrap_err();
        assert_eq!(
            err,
            PlanError::Execution {
                source: ExecError::NoWorkers
            }
        );
        assert!(err.to_string().contains("execution backend refused"), "{err}");
    }

    #[test]
    fn default_backend_is_one_event_thread_at_every_world_size() {
        // One default at every world size: a single event thread.
        let session = RunSession::new(MmmProblem::new(2048, 2048, 2048, 600, 1 << 22));
        assert_eq!(session.effective_exec_backend(), ExecBackend::event());
        let huge = RunSession::new(MmmProblem::new(2048, 2048, 2048, 16_384, 1 << 22));
        assert_eq!(huge.effective_exec_backend(), ExecBackend::event());
        let pinned = huge.exec_backend(ExecBackend::Event { threads: 4 });
        assert_eq!(pinned.effective_exec_backend(), ExecBackend::Event { threads: 4 });
    }

    #[test]
    fn event_thread_count_execution_matches_single_thread_bitwise() {
        let prob = MmmProblem::new(48, 48, 48, 8, 1 << 12);
        let a = Matrix::deterministic(48, 48, 7);
        let b = Matrix::deterministic(48, 48, 11);
        let (_, base) = RunSession::new(prob)
            .exec_backend(ExecBackend::event())
            .execute_verified(&a, &b)
            .unwrap();
        let (_, par) = RunSession::new(prob)
            .exec_backend(ExecBackend::Event { threads: 4 })
            .execute_verified(&a, &b)
            .unwrap();
        assert_eq!(base.c, par.c);
        assert_eq!(base.stats, par.stats);
    }

    #[test]
    fn plan_error_displays() {
        let msgs = [
            PlanError::NoFeasibleGrid.to_string(),
            PlanError::UnsupportedRanks {
                algo: AlgoId::Carma,
                p: 6,
                requires: RankRequirement::PowerOfTwo,
            }
            .to_string(),
            PlanError::from(FitError::NoFeasibleGrid).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
