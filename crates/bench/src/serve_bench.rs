//! The serving layer (`crates/serve`) under a mixed concurrent stream,
//! checked against the same stream served one job at a time.
//!
//! The mixed stream is deterministic: a fixed roster of unique
//! `(problem, AlgoChoice)` combinations — three world sizes × four
//! choice/shape variants, spanning auto selection over the full registry
//! and tenant-restricted subsets, so at least three different algorithms
//! win — cycled to the requested job count. Repeats share a
//! [`PlanKey`](serve::PlanKey), so a served stream exercises both the cold
//! and the cached planning path; every concurrent result is compared bitwise
//! against the same job run serially. How fast any of it runs is
//! `benchmark/`'s `serve-stream`, not this module's.

use cosma::api::AlgoId;
use cosma::problem::MmmProblem;
use densemat::matrix::Matrix;
use mpsim::exec::ExecBackend;
use serve::{AlgoChoice, JobRequest, Server, ServerConfig};

/// The unique `(problem, choice)` roster of the mixed stream.
///
/// Twelve combinations: `p ∈ {4, 8, 16}` × four variants — a square and a
/// large-k problem under full auto selection, plus a square problem under
/// two tenant-restricted pairs (2D SUMMA against 2.5D, and 2.5D against
/// CARMA). The restricted pairs guarantee the stream's winners span at
/// least three algorithms even where COSMA would sweep an open field.
pub fn unique_combos() -> Vec<(MmmProblem, AlgoChoice)> {
    let mut out = Vec::new();
    for p in [4usize, 8, 16] {
        let square = MmmProblem::new(64, 64, 64, p, 1 << 14);
        let largek = MmmProblem::new(32, 32, 256, p, 1 << 14);
        out.push((square, AlgoChoice::Auto));
        out.push((largek, AlgoChoice::Auto));
        out.push((square, AlgoChoice::Among(vec![AlgoId::Summa, AlgoId::P25d])));
        out.push((square, AlgoChoice::Among(vec![AlgoId::P25d, AlgoId::Carma])));
    }
    out
}

/// The mixed stream: `n` jobs cycling over [`unique_combos`], ids `0..n`,
/// per-job deterministic operand matrices (seeded by id, so repeats of a
/// plan key still multiply different data).
pub fn mixed_stream(n: usize) -> Vec<JobRequest> {
    let combos = unique_combos();
    (0..n as u64)
        .map(|id| {
            let (prob, choice) = combos[id as usize % combos.len()].clone();
            let a = Matrix::deterministic(prob.m, prob.k, 1000 + 2 * id);
            let b = Matrix::deterministic(prob.k, prob.n, 1001 + 2 * id);
            JobRequest::new(id, prob, a, b).choice(choice)
        })
        .collect()
}

/// What one served stream established.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Jobs in the mixed stream.
    pub jobs: usize,
    /// Plan-cache hits during the concurrent stream.
    pub hits: u64,
    /// Plan-cache misses during the concurrent stream.
    pub misses: u64,
    /// Hit rate of the concurrent stream, in `[0, 1]`.
    pub hit_rate: f64,
    /// The backend the stream's worlds executed on, as the server reported
    /// it: the server's default for unpinned jobs.
    pub backend: ExecBackend,
    /// Every algorithm the auto-planner selected, ascending.
    pub algos_selected: Vec<AlgoId>,
    /// Whether every concurrent job's product and per-rank counters were
    /// bitwise-identical to the same job served serially.
    pub all_match_serial: bool,
}

/// Serve an `n_jobs` mixed stream concurrently, then serially on a fresh
/// server, and compare every result bitwise.
///
/// # Panics
/// Panics when any job of the stream fails — the stream is sized to be
/// feasible by construction, so a failure is a bug.
pub fn measure(n_jobs: usize) -> ServeMetrics {
    let config = ServerConfig {
        drivers: 4,
        ..ServerConfig::default()
    };
    let server = Server::new(baselines::registry(), config).unwrap();
    let jobs = mixed_stream(n_jobs);
    let concurrent = server.run_batch(jobs.clone());
    let stats = server.cache_stats();

    // The same stream, one job at a time on a fresh server (its own cold
    // cache, so the comparison is stream-for-stream).
    let serial_server = Server::new(baselines::registry(), config).unwrap();
    let serial: Vec<_> = jobs.into_iter().map(|job| serial_server.run_sync(job)).collect();

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
    use mpsim::cost::CostModel;
    use serve::{AutoPlanner, PlanKey};
    use std::collections::HashSet;

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
        let jobs = mixed_stream(64);
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
