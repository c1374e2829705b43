//! Benchmarks of the serving layer (`crates/serve`): planning throughput
//! cold vs cached, and executed-jobs/s under a mixed concurrent stream.
//!
//! The mixed stream is deterministic: a fixed roster of unique
//! `(problem, AlgoChoice)` combinations — three world sizes × four
//! choice/shape variants, spanning auto selection over the full registry
//! and tenant-restricted subsets, so at least three different algorithms
//! win — cycled to the requested job count. Repeats share a
//! [`PlanKey`], so a served stream exercises both the cold and the cached
//! planning path; every concurrent result is compared bitwise against the
//! same job run serially.

use std::collections::HashSet;
use std::time::Instant;

use cosma::api::AlgoId;
use cosma::problem::MmmProblem;
use densemat::matrix::Matrix;
use mpsim::cost::CostModel;
use mpsim::exec::ExecBackend;
use serve::{AlgoChoice, AutoPlanner, JobRequest, PlanCache, PlanKey, Server, ServerConfig};

/// The unique `(problem, choice)` roster of the mixed stream.
///
/// Twelve combinations: `p ∈ {4, 8, 16}` × four variants — a square and a
/// large-k problem under full auto selection, plus a square problem under
/// two tenant-restricted pairs (the 2D classics, the recursive/replicating
/// pair). The restricted pairs guarantee the stream's winners span at
/// least three algorithms even where COSMA would sweep an open field.
pub fn unique_combos() -> Vec<(MmmProblem, AlgoChoice)> {
    let mut out = Vec::new();
    for p in [4usize, 8, 16] {
        let square = MmmProblem::new(64, 64, 64, p, 1 << 14);
        let largek = MmmProblem::new(32, 32, 256, p, 1 << 14);
        out.push((square, AlgoChoice::Auto));
        out.push((largek, AlgoChoice::Auto));
        out.push((square, AlgoChoice::Among(vec![AlgoId::Summa, AlgoId::Cannon])));
        out.push((square, AlgoChoice::Among(vec![AlgoId::P25d, AlgoId::Carma])));
    }
    out
}

/// The mixed stream: `n` jobs cycling over [`unique_combos`], ids `0..n`,
/// per-job deterministic operand matrices (seeded by id, so repeats of a
/// plan key still multiply different data). `backend` pins every job's
/// execution backend when set (the `--backend` flag).
pub fn mixed_stream(n: usize, backend: Option<ExecBackend>) -> Vec<JobRequest> {
    let combos = unique_combos();
    (0..n as u64)
        .map(|id| {
            let (prob, choice) = combos[id as usize % combos.len()].clone();
            let a = Matrix::deterministic(prob.m, prob.k, 1000 + 2 * id);
            let b = Matrix::deterministic(prob.k, prob.n, 1001 + 2 * id);
            let mut job = JobRequest::new(id, prob, a, b).choice(choice);
            job.backend = backend;
            job
        })
        .collect()
}

/// What one serving benchmark run measured.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Jobs in the mixed stream.
    pub jobs: usize,
    /// Distinct plan keys in the stream.
    pub unique_keys: usize,
    /// Cold planning throughput: full auto-planner selections per second
    /// (every candidate planned and scored, no cache).
    pub cold_plans_per_s: f64,
    /// Cached planning throughput: plan-cache lookups per second on a warm
    /// cache.
    pub cached_plans_per_s: f64,
    /// Concurrent serving throughput of the mixed stream, jobs per second.
    pub jobs_per_s: f64,
    /// The same stream served one job at a time, jobs per second.
    pub serial_jobs_per_s: f64,
    /// Plan-cache hits during the concurrent stream.
    pub hits: u64,
    /// Plan-cache misses during the concurrent stream.
    pub misses: u64,
    /// Hit rate of the concurrent stream, in `[0, 1]`.
    pub hit_rate: f64,
    /// The backend the stream's worlds executed on, as the server reported
    /// it: the pinned one, or the server's default for unpinned jobs.
    pub backend: ExecBackend,
    /// Every algorithm the auto-planner selected, ascending.
    pub algos_selected: Vec<AlgoId>,
    /// Whether every concurrent job's product and per-rank counters were
    /// bitwise-identical to the same job served serially.
    pub all_match_serial: bool,
}

impl ServeMetrics {
    /// Cached-over-cold planning speedup.
    pub fn plan_speedup(&self) -> f64 {
        self.cached_plans_per_s / self.cold_plans_per_s
    }
}

/// Run the serving benchmark: time cold and cached planning over the
/// roster, then serve an `n_jobs` mixed stream concurrently and serially,
/// comparing every result bitwise.
///
/// # Panics
/// Panics when any job of the stream fails — the stream is sized to be
/// feasible by construction, so a failure is a bug.
pub fn measure(n_jobs: usize, backend: Option<ExecBackend>) -> ServeMetrics {
    let model = CostModel::piz_daint_two_sided();
    let combos = unique_combos();
    let planner = AutoPlanner::new(baselines::registry());

    // Cold planning: full selections (plan + score every candidate), no
    // cache. Enough repetitions to dominate timer noise.
    let cold_reps = 8;
    let start = Instant::now();
    for _ in 0..cold_reps {
        for (prob, choice) in &combos {
            planner.select(prob, &model, true, choice).expect("roster plans");
        }
    }
    let cold_plans_per_s = (cold_reps * combos.len()) as f64 / start.elapsed().as_secs_f64();

    // Cached planning: the same keys on a warm cache.
    let cache = PlanCache::new(8, 256);
    let keys: Vec<PlanKey> = combos
        .iter()
        .map(|(prob, choice)| {
            PlanKey::try_new(
                prob,
                &model,
                true,
                None,
                choice,
                &mpsim::machine::Topology::Flat,
                mpsim::machine::Placement::Block,
            )
            .expect("finite model")
        })
        .collect();
    for (key, (prob, choice)) in keys.iter().zip(&combos) {
        cache
            .get_or_try_insert_with(*key, || planner.select(prob, &model, true, choice))
            .expect("warm the cache");
    }
    let cached_lookups = 50_000;
    let start = Instant::now();
    for i in 0..cached_lookups {
        let hit = cache.get(&keys[i % keys.len()]).expect("warm key");
        assert_eq!(hit.plan.problem.p, combos[i % keys.len()].0.p);
    }
    let cached_plans_per_s = cached_lookups as f64 / start.elapsed().as_secs_f64();

    // The concurrent stream.
    let config = ServerConfig {
        drivers: 4,
        ..ServerConfig::default()
    };
    let server = Server::new(baselines::registry(), config).unwrap();
    let jobs = mixed_stream(n_jobs, backend);
    let batch = jobs.clone();
    let start = Instant::now();
    let concurrent = server.run_batch(batch);
    let jobs_per_s = n_jobs as f64 / start.elapsed().as_secs_f64();
    let stats = server.cache_stats();

    // The same stream, one job at a time on a fresh server (its own cold
    // cache, so the comparison is stream-for-stream).
    let serial_server = Server::new(baselines::registry(), config).unwrap();
    let start = Instant::now();
    let serial: Vec<_> = jobs.into_iter().map(|job| serial_server.run_sync(job)).collect();
    let serial_jobs_per_s = n_jobs as f64 / start.elapsed().as_secs_f64();

    let mut algos_selected: Vec<AlgoId> = Vec::new();
    let mut all_match_serial = true;
    for (c, s) in concurrent.iter().zip(&serial) {
        assert_eq!(c.id, s.id);
        let c = c.outcome.as_ref().expect("stream jobs are feasible");
        let s = s.outcome.as_ref().expect("stream jobs are feasible");
        if !algos_selected.contains(&c.selection.algo) {
            algos_selected.push(c.selection.algo);
        }
        all_match_serial &= c.report.c == s.report.c
            && c.report.stats == s.report.stats
            && c.selection == s.selection
            && *c.plan == *s.plan;
    }
    algos_selected.sort();
    let first = concurrent.first().and_then(|r| r.outcome.as_ref().ok());
    let backend = first.expect("a non-empty, feasible stream").backend;

    ServeMetrics {
        jobs: n_jobs,
        unique_keys: keys.iter().collect::<HashSet<_>>().len().min(n_jobs),
        cold_plans_per_s,
        cached_plans_per_s,
        jobs_per_s,
        serial_jobs_per_s,
        hits: stats.hits,
        misses: stats.misses,
        hit_rate: stats.hit_rate(),
        backend,
        algos_selected,
        all_match_serial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each roster combo's winning algorithm under the default model.
    fn roster_selections() -> Vec<AlgoId> {
        let model = CostModel::piz_daint_two_sided();
        let planner = AutoPlanner::new(baselines::registry());
        unique_combos()
            .into_iter()
            .map(|(prob, choice)| {
                planner
                    .select(&prob, &model, true, &choice)
                    .expect("roster plans")
                    .selection
                    .algo
            })
            .collect()
    }

    #[test]
    fn roster_spans_at_least_three_algorithms() {
        let mut winners = roster_selections();
        winners.sort();
        winners.dedup();
        assert!(winners.len() >= 3, "winners: {winners:?}");
    }

    #[test]
    fn mixed_stream_repeats_keys() {
        let jobs = mixed_stream(64, None);
        assert_eq!(jobs.len(), 64);
        let model = CostModel::piz_daint_two_sided();
        let keys: HashSet<PlanKey> = jobs
            .iter()
            .map(|j| {
                PlanKey::try_new(
                    &j.prob,
                    &model,
                    j.overlap,
                    j.mem_budget,
                    &j.choice,
                    &j.topology,
                    j.placement,
                )
                .expect("finite model")
            })
            .collect();
        assert_eq!(keys.len(), unique_combos().len());
        assert!(keys.len() < 64, "64 jobs over {} keys repeat", keys.len());
    }
}
