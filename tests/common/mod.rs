//! Helpers shared by the integration-test binaries (`mod common;`). Not
//! every binary calls every helper.
#![allow(dead_code)]

use cosma::plan::RankPlan;
use mpsim::cost::{simulate_rounds, CostModel, RoundCost, TimeBreakdown};

/// The process's peak resident set so far, in KiB.
pub fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("a number of KiB")
}

/// A rank's *planned* time under `model`: its rounds one at a time, each a
/// run of one, through the α-β-γ simulation that scores the plan — the
/// per-rank number an event-backend execution's measured `RankStats::time`
/// is held against.
pub fn time_breakdown(rank: &RankPlan, model: &CostModel, overlap: bool) -> TimeBreakdown {
    let costs = rank.rounds.iter().map(|r| {
        let cost = RoundCost {
            words: r.words(),
            msgs: r.msgs,
            flops: r.flops,
        };
        (cost, 1)
    });
    simulate_rounds(costs, model, overlap)
}
