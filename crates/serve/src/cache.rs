//! The bounded, LRU plan cache.
//!
//! Keys are canonical [`PlanKey`]s; values are [`Planned`]s — the
//! auto-planner's [`Selection`](crate::auto::Selection) plus the winning
//! `Arc<DistPlan>`, so a hit skips both planning *and* selection. The map,
//! its recency ticks and its hit/miss/insert/eviction counters sit behind
//! one `Mutex`, held only for a lookup or an insert. At most `capacity`
//! plans are resident: an insert that finds the cache full first evicts the
//! least recently used plan of the whole cache, found by one scan of the
//! resident entries (O(capacity), a few microseconds at the default 1,024).
//! Only a miss pays that scan, and a miss has just run the auto-planner,
//! which costs more. [`PlanCache::stats`] reads the counters at any time.
//!
//! The cache is panic-hardened for the serving layer: the lock recovers a
//! poisoned guard (`unwrap_or_else(e.into_inner())` — the map is only ever
//! mutated through complete insert/remove operations, so a panicking holder
//! cannot leave a half-written entry), and the planning closure runs
//! *outside* the lock, so a panicking planner can never poison it in the
//! first place.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use cosma::api::PlanError;

use crate::auto::Planned;
use crate::key::PlanKey;

/// Counter snapshot of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to plan.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted to make room (the least recently used of the cache).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over lookups, in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    value: Arc<Planned>,
    /// The cache's tick at this entry's last insert or hit.
    last_used: u64,
}

/// What the lock guards: the map, the recency clock and the counters
/// (`counts.entries` unused; [`PlanCache::stats`] reads the map's length).
#[derive(Default)]
struct Lru {
    map: HashMap<PlanKey, Entry>,
    tick: u64,
    counts: CacheStats,
}

/// A `PlanKey → Arc<Planned>` map of at most `capacity` plans, evicting the
/// least recently used, with hit/miss/eviction counters. See the module
/// docs for the locking discipline.
pub struct PlanCache {
    capacity: usize,
    lru: Mutex<Lru>,
}

impl PlanCache {
    /// A cache of at most `capacity` plans.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "the plan cache needs room for at least one plan");
        PlanCache {
            capacity,
            lru: Mutex::default(),
        }
    }

    /// A cache of 1,024 plans — roomy for a serving mix.
    pub fn with_default_shape() -> Self {
        PlanCache::new(1024)
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up `key`, counting a hit or a miss; a hit makes the entry the
    /// most recently used.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<Planned>> {
        let mut guard = self.lock();
        let lru = &mut *guard;
        lru.tick += 1;
        match lru.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = lru.tick;
                lru.counts.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                lru.counts.misses += 1;
                None
            }
        }
    }

    /// The memoization entry point: return the cached plan for `key`, or
    /// run `plan` (outside the lock — planning is pure, so a concurrent
    /// duplicate is wasted work, never wrong) and cache its result. The
    /// boolean is `true` on a hit.
    ///
    /// # Errors
    /// `plan`'s error, verbatim; failures are not cached (the next request
    /// with the same key retries).
    pub fn get_or_try_insert_with(
        &self,
        key: PlanKey,
        plan: impl FnOnce() -> Result<Planned, PlanError>,
    ) -> Result<(Arc<Planned>, bool), PlanError> {
        if let Some(hit) = self.get(&key) {
            return Ok((hit, true));
        }
        let value = Arc::new(plan()?);
        let mut guard = self.lock();
        let lru = &mut *guard;
        // A racing thread may have planned the same key meanwhile; its
        // entry is identical (planning is pure) — keep ours out.
        if let Some(existing) = lru.map.get(&key) {
            return Ok((existing.value.clone(), false));
        }
        if lru.map.len() >= self.capacity {
            let oldest = lru.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k);
            if let Some(oldest) = oldest {
                lru.map.remove(&oldest);
                lru.counts.evictions += 1;
            }
        }
        lru.tick += 1;
        let entry = Entry {
            value: value.clone(),
            last_used: lru.tick,
        };
        lru.map.insert(key, entry);
        lru.counts.inserts += 1;
        Ok((value, false))
    }

    /// Current counter values and resident-entry count.
    pub fn stats(&self) -> CacheStats {
        let lru = self.lock();
        CacheStats {
            entries: lru.map.len(),
            ..lru.counts
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto::{AlgoChoice, AutoPlanner};
    use cosma::problem::MmmProblem;
    use mpsim::cost::CostModel;

    fn planned_for(p: usize) -> (PlanKey, Planned) {
        let prob = MmmProblem::new(64, 64, 64, p, 1 << 14);
        let model = CostModel::piz_daint_two_sided();
        let key = PlanKey::try_new(
            &prob,
            &model,
            true,
            None,
            &AlgoChoice::Auto,
            &mpsim::machine::Topology::Flat,
            mpsim::machine::Placement::Block,
        )
        .unwrap();
        let planned = AutoPlanner::new(baselines::registry())
            .select(&prob, &model, true, &AlgoChoice::Auto)
            .unwrap();
        (key, planned)
    }

    #[test]
    fn miss_then_hit_returns_the_identical_plan() {
        let cache = PlanCache::new(64);
        let (key, planned) = planned_for(16);
        let (cold, hit) = cache.get_or_try_insert_with(key, || Ok(planned)).unwrap();
        assert!(!hit);
        let (warm, hit) = cache
            .get_or_try_insert_with(key, || panic!("must not replan on a hit"))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&cold, &warm), "the very same allocation");
        assert_eq!(*cold.plan, *warm.plan, "bitwise-identical plan");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn planning_errors_are_not_cached() {
        let cache = PlanCache::new(4);
        let (key, planned) = planned_for(16);
        let err = cache
            .get_or_try_insert_with(key, || {
                Err(PlanError::UnknownAlgorithm {
                    name: "transient".into(),
                })
            })
            .unwrap_err();
        assert!(matches!(err, PlanError::UnknownAlgorithm { .. }));
        assert_eq!(cache.stats().entries, 0);
        // The key is retried, not poisoned.
        let (_, hit) = cache.get_or_try_insert_with(key, || Ok(planned)).unwrap();
        assert!(!hit);
    }

    /// `n` distinct keys (the memory budget S varies), each with a clone
    /// of one planned value: the cache never looks inside a value.
    fn distinct_keys(n: usize) -> Vec<(PlanKey, Planned)> {
        let (key, planned) = planned_for(16);
        (0..n as u64)
            .map(|i| {
                let key = PlanKey {
                    mem_words: key.mem_words + i,
                    ..key
                };
                (key, planned.clone())
            })
            .collect()
    }

    #[test]
    fn resident_plans_fill_the_capacity_and_never_exceed_it() {
        let keys = distinct_keys(2_100);
        for capacity in [1, 4, 1_000, 1_024] {
            let cache = PlanCache::new(capacity);
            for (i, (key, planned)) in keys.iter().enumerate() {
                let before = cache.stats();
                cache.get_or_try_insert_with(*key, || Ok(planned.clone())).unwrap();
                let after = cache.stats();
                assert!(after.entries <= capacity, "capacity {capacity}: {} resident", after.entries);
                if before.entries < capacity {
                    // Room left: nothing may go.
                    assert_eq!(after.evictions, before.evictions, "capacity {capacity}: insert {i}");
                    assert_eq!(after.entries, before.entries + 1);
                } else {
                    assert_eq!(after.evictions, before.evictions + 1, "capacity {capacity}: insert {i}");
                    assert_eq!(after.entries, capacity);
                }
            }
            let stats = cache.stats();
            assert_eq!(stats.entries, capacity);
            assert_eq!(stats.evictions, (keys.len() - capacity) as u64);
        }
    }

    #[test]
    fn a_full_cache_evicts_its_least_recently_used_plan() {
        // The default 1,024 plans: fill it, touch the oldest, then two
        // inserts evict the two next-oldest — wherever they hash to.
        let cache = PlanCache::with_default_shape();
        let keys = distinct_keys(1_026);
        for (key, planned) in &keys[..1_024] {
            cache.get_or_try_insert_with(*key, || Ok(planned.clone())).unwrap();
        }
        assert_eq!((cache.stats().entries, cache.stats().evictions), (1_024, 0));
        assert!(cache.get(&keys[0].0).is_some(), "touch the oldest");
        for (key, planned) in &keys[1_024..] {
            cache.get_or_try_insert_with(*key, || Ok(planned.clone())).unwrap();
        }
        assert_eq!((cache.stats().entries, cache.stats().evictions), (1_024, 2));
        assert!(cache.get(&keys[1].0).is_none(), "the least recently used went first");
        assert!(cache.get(&keys[2].0).is_none(), "then the next");
        for (i, (key, _)) in keys.iter().enumerate().filter(|(i, _)| !(1..=2).contains(i)) {
            assert!(cache.get(key).is_some(), "plan {i} resident");
        }
    }

    #[test]
    fn concurrent_same_key_lookups_converge_to_one_entry() {
        let cache = Arc::new(PlanCache::new(64));
        let (key, planned) = planned_for(16);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = cache.clone();
                let planned = planned.clone();
                s.spawn(move || {
                    let (got, _) = cache.get_or_try_insert_with(key, || Ok(planned)).unwrap();
                    assert_eq!(got.selection.algo, got.plan.algo);
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "one resident entry regardless of racing");
        assert_eq!(stats.hits + stats.misses, 8);
    }

    #[test]
    fn panicking_planner_does_not_poison_the_cache() {
        // The planning closure runs outside the lock, so a worker
        // dying mid-plan must leave the cache fully serviceable — the same
        // key plans cleanly on the next request.
        let cache = PlanCache::new(8);
        let (key, planned) = planned_for(16);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_try_insert_with(key, || panic!("planner worker died"))
        }));
        assert!(died.is_err());
        let (got, hit) = cache.get_or_try_insert_with(key, || Ok(planned)).unwrap();
        assert!(!hit, "the dead attempt must not have cached anything");
        assert_eq!(got.selection.algo, got.plan.algo);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    #[should_panic(expected = "at least one plan")]
    fn zero_capacity_rejected() {
        let _ = PlanCache::new(0);
    }
}
