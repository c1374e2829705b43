//! `plan-sweep`: one operation is a cold auto-planner selection for every
//! paper scenario at every rank count of the roster. Nothing is executed and
//! nothing is cached.

use std::collections::BTreeMap;

use cosma::algorithm::CosmaConfig;
use cosma::api::{AlgoId, PlanError};
use cosma::plan::DistPlan;
use cosma::problem::MmmProblem;
use mpsim::cost::CostModel;
use serve::{AlgoChoice, AutoPlanner, Planned};

use crate::calibrate::Calibrator;
use crate::checks::Tally;
use crate::run::{repeat_set_up, timed_ops, Measured, Opts};
use crate::spec::Workload;
use crate::stats::splitmix64_at;
use crate::trace::Tracer;

/// The plans compare communication with and without overlap alike; the
/// sweep scores with overlap on, the session default.
const OVERLAP: bool = true;

struct Entry {
    scenario: &'static str,
    prob: MmmProblem,
}

/// What a selection came to, without the plan: enough to tell two selections
/// apart, small enough to keep one per roster entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Digest {
    algo: AlgoId,
    time_bits: u64,
    runner_up: Option<(AlgoId, u64)>,
    ranks: usize,
    max_comm_words: u64,
}

impl Digest {
    fn of(planned: &Planned) -> Digest {
        Digest {
            algo: planned.selection.algo,
            time_bits: planned.selection.planned_time_s.to_bits(),
            runner_up: planned.selection.runner_up.map(|r| (r.algo, r.planned_time_s.to_bits())),
            ranks: planned.plan.ranks.len(),
            max_comm_words: planned.plan.max_comm_words(),
        }
    }
}

struct Ready {
    planner: AutoPlanner,
    model: CostModel,
    roster: Vec<Entry>,
    /// The warm-up sweep's selections, verified against `RunSession`.
    expect: Vec<Digest>,
}

/// The 12 scenarios at each `p`, in an order the seed picks. The order is
/// the only input the seed can vary: the problems are the paper's.
fn roster(ps: &[usize], seed: u64) -> Vec<Entry> {
    let mut entries: Vec<Entry> = bench::scenarios::all()
        .iter()
        .flat_map(|sc| {
            ps.iter().map(|&p| Entry {
                scenario: sc.id,
                prob: (sc.problem)(p),
            })
        })
        .collect();
    for i in (1..entries.len()).rev() {
        entries.swap(i, (splitmix64_at(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    entries
}

fn sweep(ready: &Ready) -> Vec<Result<Digest, PlanError>> {
    ready
        .roster
        .iter()
        .map(|e| {
            ready
                .planner
                .select(&e.prob, &ready.model, OVERLAP, &AlgoChoice::Auto)
                .map(|p| Digest::of(&p))
        })
        .collect()
}

/// Plan and score `algo` through `RunSession`, the path that shares no code
/// with the auto-planner above the algorithms themselves.
fn session_time_bits(prob: &MmmProblem, algo: AlgoId, model: &CostModel) -> Result<u64, PlanError> {
    let outcome = cosma::api::RunSession::new(*prob)
        .registry(baselines::registry())
        .machine(*model)
        .algorithm(algo)
        .overlap(OVERLAP)
        .run()?;
    Ok(outcome.report.time_s.to_bits())
}

fn set_up(ps: &[usize], seed: u64) -> Result<Ready, String> {
    let mut ready = Ready {
        planner: AutoPlanner::new(baselines::registry()),
        model: CostModel::piz_daint_two_sided(),
        roster: roster(ps, seed),
        expect: Vec::new(),
    };
    // One full untimed sweep, then its verdicts checked independently: the
    // winner's time must be what a plain session plans, bit for bit, and no
    // slower than the runner-up's. (Re-planning the runner-up too would cost
    // more than the sweep itself.)
    for (entry, selected) in ready.roster.iter().zip(sweep(&ready)) {
        let at = format!("{} at p = {}", entry.scenario, entry.prob.p);
        let digest = selected.map_err(|e| format!("warm-up selection failed for {at}: {e}"))?;
        let winner =
            session_time_bits(&entry.prob, digest.algo, &ready.model).map_err(|e| format!("{at}: {e}"))?;
        if winner != digest.time_bits {
            return Err(format!("{at}: the selected {}'s time differs from a session's plan", digest.algo));
        }
        if digest
            .runner_up
            .is_some_and(|(_, second)| f64::from_bits(second) < f64::from_bits(winner))
        {
            return Err(format!("{at}: the runner-up beats the selected {}", digest.algo));
        }
        ready.expect.push(digest);
    }
    Ok(ready)
}

fn check(tally: &mut Tally, ready: &Ready, op: usize, selections: Vec<Result<Digest, PlanError>>) {
    let mut failures = Vec::new();
    for ((entry, want), got) in ready.roster.iter().zip(&ready.expect).zip(selections) {
        let at = format!("{} at p = {}", entry.scenario, entry.prob.p);
        match got {
            Ok(digest) if digest == *want => {}
            Ok(digest) => failures.push(format!("selection for {at} differs from the warm-up's: {digest:?}")),
            Err(e) => failures.push(format!("selection for {at} returned an error: {e}")),
        }
    }
    tally.record(op as u64, &failures);
}

pub fn run(w: &Workload, ps: &[usize], opts: &Opts, cal: &mut Calibrator) -> Result<Measured, String> {
    let mut out = Measured::new(w.name);
    let (ready, setup_s) = repeat_set_up(cal, w.setup_repeats, || set_up(ps, opts.seed))?;
    out.setup_s = setup_s;

    let (untraced, traced) = opts.ops(w);
    let tally = &mut out.tally;
    let timed =
        timed_ops(cal, 0..untraced, |_| sweep(&ready), |i, selections| check(tally, &ready, i, selections));
    out.wall_s = timed.wall_s();
    out.cpu_s = timed.cpu_s;
    out.work = (untraced * ready.roster.len()) as f64;
    out.lat_s = timed.lat_s;

    if opts.trace {
        let mut tracer = Tracer::new();
        for i in untraced..untraced + traced {
            let op = tracer.begin("op", i as u64);
            let selections = ready
                .roster
                .iter()
                .map(|e| {
                    let select = || ready.planner.select(&e.prob, &ready.model, OVERLAP, &AlgoChoice::Auto);
                    tracer.time("serve.auto.select", i as u64, select).0.map(|p| Digest::of(&p))
                })
                .collect();
            tracer.end(op);
            check(&mut out.tally, &ready, i, selections);
        }
        let selects = tracer.durations_s("serve.auto.select");
        let (slowest, slowest_s) = selects
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &s)| (&ready.roster[i % ready.roster.len()], s))
            .expect("a sweep selects at least once");
        out.notes.push(format!(
            "serve.auto.select_max_ms belongs to {} at p = {}",
            slowest.scenario, slowest.prob.p
        ));
        out.layers = direct_layers(&ready, &mut tracer);
        out.layers.insert("serve.auto.select_max_ms", slowest_s * 1e3);
        out.finish_trace(&tracer, w.name, "op")?;
    }
    Ok(out)
}

/// Each planning function called directly on every roster entry, summed per
/// function: what a selection is made of.
fn direct_layers(ready: &Ready, tracer: &mut Tracer) -> BTreeMap<&'static str, f64> {
    let cfg = CosmaConfig::default();
    let model = &ready.model;
    let (mut tried, mut infeasible) = (0u32, 0u32);
    let probes = tracer.begin("probes", 0);
    for (i, entry) in ready.roster.iter().enumerate() {
        let (i, prob) = (i as u64, &entry.prob);
        let _ = tracer.time("core.fit_ranks", i, || cosma::fit_ranks(prob, cfg.delta, model));
        let plans: [(&'static str, Result<DistPlan, PlanError>); 5] = [
            (
                "core.plan.cosma",
                tracer
                    .time("core.plan.cosma", i, || cosma::algorithm::plan(prob, &cfg, model))
                    .0,
            ),
            (
                "baselines.plan.summa",
                tracer.time("baselines.plan.summa", i, || baselines::summa::plan(prob)).0,
            ),
            (
                "baselines.plan.cannon",
                tracer.time("baselines.plan.cannon", i, || baselines::cannon::plan(prob)).0,
            ),
            (
                "baselines.plan.p25d",
                tracer.time("baselines.plan.p25d", i, || baselines::p25d::plan(prob)).0,
            ),
            (
                "baselines.plan.carma",
                tracer.time("baselines.plan.carma", i, || baselines::carma::plan(prob)).0,
            ),
        ];
        for (_, plan) in plans {
            tried += 1;
            match plan {
                Ok(plan) => drop(tracer.time("core.simulate", i, || plan.simulate(model, OVERLAP))),
                Err(_) => infeasible += 1,
            }
        }
    }
    tracer.end(probes);
    let totals = tracer.totals();
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 * 1e-6);
    BTreeMap::from([
        ("core.fit_ranks_ms", total_ms("core.fit_ranks")),
        ("core.plan.cosma_ms", total_ms("core.plan.cosma")),
        ("baselines.plan.summa_ms", total_ms("baselines.plan.summa")),
        ("baselines.plan.cannon_ms", total_ms("baselines.plan.cannon")),
        ("baselines.plan.p25d_ms", total_ms("baselines.plan.p25d")),
        ("baselines.plan.carma_ms", total_ms("baselines.plan.carma")),
        ("core.simulate_ms", total_ms("core.simulate")),
        ("serve.auto.infeasible", f64::from(infeasible) / f64::from(tried.max(1))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_orders_the_roster_and_nothing_else() {
        let key = |e: &Entry| (e.scenario, e.prob.p, e.prob.m, e.prob.n, e.prob.k);
        let one = roster(&[64, 100], 1);
        let again = roster(&[64, 100], 1);
        let two = roster(&[64, 100], 2);
        assert_eq!(one.len(), 24);
        assert_eq!(one.iter().map(key).collect::<Vec<_>>(), again.iter().map(key).collect::<Vec<_>>());
        assert_ne!(one.iter().map(key).collect::<Vec<_>>(), two.iter().map(key).collect::<Vec<_>>());
        let sorted = |r: &[Entry]| {
            let mut keys: Vec<_> = r.iter().map(key).collect();
            keys.sort();
            keys
        };
        assert_eq!(sorted(&one), sorted(&two));
    }
}
