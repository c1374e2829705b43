//! Size-classed buffer-reuse arenas for the data plane (§7 "buffer reuse").
//!
//! Every layer of the execution stack moves `Vec<f64>` buffers: event-backend
//! message payloads, collective scratch chunks, CARMA's per-leaf A/B/C
//! blocks. Before this module each of those was a fresh
//! heap allocation per message or per leaf; at million-rank world sizes the
//! allocator churn dominates wall-clock. A [`BufferPool`] recycles them:
//! buffers are parked on power-of-two *size-class shelves* when a consumer is
//! done ([`BufferPool::give`]) and handed back out on the next request of a
//! compatible size ([`BufferPool::take_clear`] and friends).
//!
//! # Invisibility contract
//!
//! Recycling must not perturb a single bit of results, counters or virtual
//! time. The pool guarantees that structurally:
//!
//! * every `take_*` variant returns a buffer whose *observable contents* are
//!   fully specified — empty ([`take_clear`](BufferPool::take_clear)), zeroed
//!   ([`take_zeroed`](BufferPool::take_zeroed)) or a copy of the source
//!   ([`take_copy`](BufferPool::take_copy)) — so a recycled buffer is
//!   indistinguishable from a fresh allocation;
//! * the pool never touches the simulator: word counters and the virtual
//!   clock are charged from buffer *lengths*, which the pool preserves
//!   exactly.
//!
//! Pool hit/miss counters are therefore *observability* data (surfaced in the
//! bench tables), never part of the bitwise-gated `RankStats`: with more than
//! one scheduler thread the interleaving of takes across regions is
//! scheduling-dependent, so hit counts are not deterministic even though
//! every result bit is.
//!
//! # Ownership
//!
//! One pool per world ([`crate::machine::MachineSpec::pooling`] controls
//! whether it recycles or degenerates to plain allocation), shared by all
//! ranks behind an [`Arc`](std::sync::Arc) and dropped with the world.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of power-of-two size classes: shelf `k` parks buffers whose
/// capacity lies in `[2^k, 2^(k+1))`, so 48 shelves cover every buffer a
/// simulated world can address.
const CLASSES: usize = 48;

/// Per-class retention cap: shelves keep at most this many parked buffers;
/// further returns are dropped (freed) so a burst cannot pin memory forever.
const MAX_PER_CLASS: usize = 1024;

/// Cumulative counters of a [`BufferPool`]'s traffic.
///
/// `misses` is the number of real heap allocations the data plane performed
/// (the `allocs` column of the bench tables); `hits` the number of requests
/// served by recycling. Counts are exact but — on multi-threaded backends —
/// not deterministic across runs: which rank's take finds a parked buffer
/// depends on OS scheduling. They are display/gating observability data,
/// never compared bitwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a shelf (no allocation).
    pub hits: u64,
    /// Requests that fell through to a fresh allocation.
    pub misses: u64,
    /// Buffers handed back to the pool.
    pub returns: u64,
}

impl PoolStats {
    /// Real allocations performed — the `allocs` bench column.
    pub fn allocs(&self) -> u64 {
        self.misses
    }

    /// Fraction of requests served by recycling, in `[0, 1]`; zero when no
    /// requests were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for PoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} allocs, {:.0}% pool hits", self.misses, self.hit_rate() * 100.0)
    }
}

/// A size-classed free list of `Vec<f64>` buffers shared by one world.
///
/// See the [module docs](self) for the invisibility contract. A disabled
/// pool ([`BufferPool::disabled`]) keeps the same API but never parks or
/// recycles anything — every take is a fresh allocation, every give a drop —
/// which is what the pooling-on/off equivalence suite runs against.
pub struct BufferPool {
    enabled: bool,
    shelves: Vec<Mutex<Vec<Vec<f64>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
}

impl BufferPool {
    /// A pool that recycles (`enabled = true`) or degenerates to plain
    /// allocation (`enabled = false`).
    pub fn new(enabled: bool) -> Self {
        BufferPool {
            enabled,
            shelves: (0..CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
        }
    }

    /// A pass-through pool: plain allocation, no recycling.
    pub fn disabled() -> Self {
        BufferPool::new(false)
    }

    /// The shelf that *serves* a request for at least `min_cap` words:
    /// every buffer parked on shelf `k` has capacity `>= 2^k >= min_cap`.
    fn class_for_request(min_cap: usize) -> usize {
        (min_cap.next_power_of_two().trailing_zeros() as usize).min(CLASSES - 1)
    }

    /// The shelf a buffer of capacity `cap` parks on: `floor(log2(cap))`,
    /// so its capacity is `>= 2^k` and it can serve any request `<= 2^k`.
    fn class_for_buffer(cap: usize) -> usize {
        debug_assert!(cap > 0);
        ((usize::BITS - 1 - cap.leading_zeros()) as usize).min(CLASSES - 1)
    }

    /// Take an *empty* buffer with capacity at least `min_cap` — for callers
    /// that build contents with `push`/`extend_from_slice`.
    pub fn take_clear(&self, min_cap: usize) -> Vec<f64> {
        let k = Self::class_for_request(min_cap);
        if self.enabled {
            // Never poisoned: a shelf lock is held only across `Vec::{push, pop, len}`.
            if let Some(mut v) = self.shelves[k].lock().unwrap().pop() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v.clear();
                debug_assert!(v.capacity() >= min_cap);
                return v;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Allocate the full class size so the buffer's class is stable
        // across recycling round-trips.
        Vec::with_capacity(1usize << k)
    }

    /// Take a buffer of exactly `len` zeros — for accumulators that sum into
    /// their contents before reading them.
    pub fn take_zeroed(&self, len: usize) -> Vec<f64> {
        let mut v = self.take_clear(len);
        v.resize(len, 0.0);
        v
    }

    /// Take a buffer holding a copy of `src` — the pooled replacement for
    /// `src.to_vec()` / `.clone()` on the message hot path.
    pub fn take_copy(&self, src: &[f64]) -> Vec<f64> {
        let mut v = self.take_clear(src.len());
        v.extend_from_slice(src);
        v
    }

    /// Hand a consumed buffer back for recycling. Zero-capacity buffers and
    /// returns beyond the per-class retention cap are simply dropped; a
    /// disabled pool drops everything.
    pub fn give(&self, v: Vec<f64>) {
        if !self.enabled || v.capacity() == 0 {
            return;
        }
        let k = Self::class_for_buffer(v.capacity());
        // Never poisoned: a shelf lock is held only across `Vec::{push, pop, len}`.
        let mut shelf = self.shelves[k].lock().unwrap();
        if shelf.len() < MAX_PER_CLASS {
            shelf.push(v);
            self.returns.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Buffers currently parked across all shelves.
    pub fn parked(&self) -> usize {
        // Never poisoned: a shelf lock is held only across `Vec::{push, pop, len}`.
        self.shelves.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// A snapshot of the cumulative traffic counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferPool")
            .field("enabled", &self.enabled)
            .field("parked", &self.parked())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn take_is_a_miss_then_a_hit_after_give() {
        let pool = BufferPool::new(true);
        let v = pool.take_clear(100);
        assert!(v.capacity() >= 100);
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 0,
                misses: 1,
                returns: 0
            }
        );
        pool.give(v);
        assert_eq!(pool.parked(), 1);
        let w = pool.take_clear(100);
        assert!(w.capacity() >= 100);
        assert!(w.is_empty());
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 1,
                misses: 1,
                returns: 1
            }
        );
    }

    #[test]
    fn size_classes_guarantee_capacity() {
        // A buffer given back with capacity c parks on shelf floor(log2 c);
        // a request of min_cap is served from shelf ceil(log2 min_cap). Every
        // served buffer must have capacity >= min_cap.
        let pool = BufferPool::new(true);
        for cap in [1usize, 2, 3, 7, 8, 9, 100, 128, 1000, 4096] {
            pool.give(Vec::with_capacity(cap));
        }
        for want in [1usize, 2, 4, 5, 64, 100, 1024] {
            let v = pool.take_clear(want);
            assert!(v.capacity() >= want, "requested {want}, got capacity {}", v.capacity());
        }
    }

    #[test]
    fn a_parked_buffer_is_handed_out_only_once() {
        // No double-return / double-take: one give parks one buffer; two
        // takes of the same class cannot both be hits.
        let pool = BufferPool::new(true);
        pool.give(Vec::with_capacity(64));
        let _a = pool.take_clear(64);
        let _b = pool.take_clear(64);
        let st = pool.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn recycled_buffers_are_content_clean() {
        let pool = BufferPool::new(true);
        pool.give(vec![7.0; 32]);
        let z = pool.take_zeroed(16);
        assert_eq!(z, vec![0.0; 16], "take_zeroed must scrub recycled contents");
        pool.give(z);
        let c = pool.take_copy(&[1.0, 2.0, 3.0]);
        assert_eq!(c, vec![1.0, 2.0, 3.0]);
        pool.give(c);
        let e = pool.take_clear(8);
        assert!(e.is_empty(), "take_clear must return an empty buffer");
    }

    #[test]
    fn disabled_pool_never_recycles() {
        let pool = BufferPool::disabled();
        let v = pool.take_clear(64);
        pool.give(v);
        assert_eq!(pool.parked(), 0);
        let _ = pool.take_clear(64);
        let st = pool.stats();
        assert_eq!(st.hits, 0);
        assert_eq!(st.misses, 2);
        assert_eq!(st.returns, 0);
    }

    #[test]
    fn per_class_cap_bounds_retention() {
        let pool = BufferPool::new(true);
        for _ in 0..(MAX_PER_CLASS + 10) {
            pool.give(Vec::with_capacity(8));
        }
        assert_eq!(pool.parked(), MAX_PER_CLASS);
        assert_eq!(pool.stats().returns, MAX_PER_CLASS as u64);
    }

    #[test]
    fn zero_sized_requests_and_returns_are_safe() {
        let pool = BufferPool::new(true);
        let v = pool.take_clear(0);
        assert!(v.is_empty());
        pool.give(v); // capacity may be 0 → dropped, not parked
        let z = pool.take_zeroed(0);
        assert!(z.is_empty());
    }

    #[test]
    fn stats_display_and_rates() {
        let st = PoolStats {
            hits: 3,
            misses: 1,
            returns: 3,
        };
        assert_eq!(st.allocs(), 1);
        assert!((st.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(st.to_string(), "1 allocs, 75% pool hits");
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = Arc::new(BufferPool::new(true));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = Arc::clone(&pool);
                s.spawn(move || {
                    for _ in 0..100 {
                        let v = p.take_zeroed(128);
                        p.give(v);
                    }
                });
            }
        });
        let st = pool.stats();
        assert_eq!(st.hits + st.misses, 400);
    }
}
