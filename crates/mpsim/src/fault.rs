//! Deterministic fault injection for the event scheduler.
//!
//! A [`FaultPlan`] is a *seeded recipe* for killing ranks mid-run,
//! attached to a machine via
//! [`MachineSpec::with_faults`](crate::machine::MachineSpec::with_faults).
//! Everything a plan decides is a pure function of `(seed, rank)` through
//! splitmix64 — no wall clock, no global interleaving — so the same plan
//! produces the *same* failure on the single-threaded and the multi-region
//! event engines, and a plan that schedules nothing is exactly a no-op
//! (zero-fault runs stay bitwise-identical to runs without a plan).
//!
//! # What a fault looks like
//!
//! Rank death is the one fault. Each doomed rank carries a *virtual death
//! time* drawn from the seed within the plan's horizon. The scheduler kills
//! the rank the first time it would poll it at or past that time: the
//! rank's body future is dropped, its mailbox is discarded, and it stops
//! consuming events. Subsequent sends to it are silently lost (a typed loss,
//! not a [`WorldTornDown`](crate::exec::ExecError::WorldTornDown) — the peer
//! did not *exit*, it *failed*). Because the kill decision compares the
//! rank's own event time against its own death time, it is made at the
//! same event on every engine, windows or not. The network itself is
//! reliable, as MPI is: no message is ever lost on the wire.
//!
//! A world that cannot complete because a rank died (it wedges
//! structurally, a recv deadline fires, or it finishes with ranks dead)
//! reports [`ExecError::RankFailed`](crate::exec::ExecError::RankFailed)
//! carrying the earliest scheduled casualty, so a caller — e.g. the `serve`
//! recovery driver — can re-fit the problem to the survivors
//! ([`FaultPlan::survivors`]) and re-run clean.

/// One splitmix64 step — the repo-wide deterministic PRNG (the same
/// generator the property suites use for case generation).
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a (seed, stream, payload...) tuple into one u64 by chaining
/// splitmix64 — each argument perturbs the state before the next.
fn mix(seed: u64, stream: u64, parts: &[u64]) -> u64 {
    let mut h = splitmix64(seed ^ splitmix64(stream));
    for &part in parts {
        h = splitmix64(h ^ part);
    }
    h
}

/// Map a hash to a uniform f64 in `[0, 1)` (53 mantissa bits).
fn u01(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Hash streams, so deaths and death times draw from independent sequences
/// of the same seed.
const STREAM_PICK: u64 = 0x5045_4B49_4C4C; // which ranks die
const STREAM_TIME: u64 = 0x4445_4154_4854; // when they die

/// A deterministic, seeded fault-injection recipe for one run.
///
/// Construct with [`FaultPlan::new`] (a quiescent plan — attaching it
/// changes nothing) and schedule deaths with [`FaultPlan::kill_exactly`]:
///
/// ```
/// use mpsim::fault::FaultPlan;
/// // Kill exactly 3 ranks somewhere inside the first 2ms of virtual time.
/// let plan = FaultPlan::new(42).kill_exactly(3, 2e-3);
/// assert_eq!(plan.planned_kills(64), 3);
/// assert_eq!(plan.survivors(64), 61);
/// ```
///
/// The plan is machine-independent: the same plan applied to worlds of
/// different `p` selects casualties per-world (deterministically in both).
/// The event scheduler injects the deaths, keyed to each rank's virtual
/// clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Exactly `min(kills, p)` ranks die, chosen by seeded hash order.
    kills: usize,
    /// Virtual-time window `(0, horizon_s)` inside which deaths land.
    horizon_s: f64,
}

impl FaultPlan {
    /// A quiescent plan: schedules no deaths. Attaching it to a machine is
    /// bitwise a no-op — the zero-fault baseline gates assert exactly this.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            kills: 0,
            horizon_s: 0.0,
        }
    }

    /// Schedule exactly `min(kills, p)` rank deaths, at seeded virtual
    /// times within `(0, horizon_s)`. Pick `horizon_s` below the expected
    /// virtual makespan so the deaths land mid-run.
    ///
    /// # Panics
    /// Panics unless `horizon_s` is finite and positive.
    pub fn kill_exactly(mut self, kills: usize, horizon_s: f64) -> FaultPlan {
        assert!(
            horizon_s.is_finite() && horizon_s > 0.0,
            "fault horizon must be finite and positive (got {horizon_s})"
        );
        self.kills = kills;
        self.horizon_s = horizon_s;
        self
    }

    /// The seed this plan draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// How many ranks of a `p`-rank world this plan schedules to die.
    pub fn planned_kills(&self, p: usize) -> usize {
        self.schedule(p).deaths
    }

    /// How many ranks of a `p`-rank world survive the scheduled deaths —
    /// the `p'` a recovery driver should re-fit the problem to.
    pub fn survivors(&self, p: usize) -> usize {
        p - self.planned_kills(p)
    }

    /// Compile the plan against a concrete world size: per-rank death
    /// times, resolved once at world construction.
    pub(crate) fn schedule(&self, p: usize) -> FaultSchedule {
        let death_at = |rank: usize| {
            // Deaths land in the middle 80% of the horizon: strictly after
            // t = 0 (every rank runs at least once) and strictly before the
            // horizon the caller sized against the expected makespan.
            let frac = 0.1 + 0.8 * u01(mix(self.seed, STREAM_TIME, &[rank as u64]));
            self.horizon_s * frac
        };
        let mut death: Vec<Option<f64>> = vec![None; p];
        if self.kills > 0 {
            // Order ranks by seeded hash (ties by rank) and fell the first
            // `kills` — an exact casualty count for conformance runs that
            // need a specific surviving p'.
            let mut order: Vec<usize> = (0..p).collect();
            order.sort_by_key(|&r| (mix(self.seed, STREAM_PICK, &[r as u64]), r));
            for &r in order.iter().take(self.kills.min(p)) {
                death[r] = Some(death_at(r));
            }
        }
        let deaths = death.iter().filter(|d| d.is_some()).count();
        FaultSchedule { death, deaths }
    }
}

/// A [`FaultPlan`] compiled against a concrete world size: the event
/// engine's lookup table.
#[derive(Debug, Clone)]
pub(crate) struct FaultSchedule {
    /// Per-rank virtual death time (`None` = survives).
    death: Vec<Option<f64>>,
    /// Scheduled death count.
    deaths: usize,
}

impl FaultSchedule {
    /// The rank's scheduled virtual death time, if any.
    pub(crate) fn death_time(&self, rank: usize) -> Option<f64> {
        self.death[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_plan_schedules_nothing() {
        let plan = FaultPlan::new(7);
        assert_eq!(plan.planned_kills(64), 0);
        assert_eq!(plan.survivors(64), 64);
        let sched = plan.schedule(8);
        assert!((0..8).all(|r| sched.death_time(r).is_none()));
    }

    #[test]
    fn kill_exactly_fells_the_requested_count_deterministically() {
        let plan = FaultPlan::new(42).kill_exactly(15, 1e-3);
        assert_eq!(plan.planned_kills(64), 15);
        assert_eq!(plan.survivors(64), 49);
        let a = plan.schedule(64);
        let b = plan.schedule(64);
        for r in 0..64 {
            assert_eq!(a.death_time(r), b.death_time(r));
            if let Some(at) = a.death_time(r) {
                assert!(at > 0.0 && at < 1e-3, "death inside the horizon, got {at}");
            }
        }
        // A different seed fells a different set.
        let c = FaultPlan::new(43).kill_exactly(15, 1e-3).schedule(64);
        assert!((0..64).any(|r| a.death_time(r).is_some() != c.death_time(r).is_some()));
    }

    #[test]
    fn kill_count_caps_at_world_size() {
        let plan = FaultPlan::new(1).kill_exactly(100, 1.0);
        assert_eq!(plan.planned_kills(4), 4);
        assert_eq!(plan.survivors(4), 0);
    }
}
