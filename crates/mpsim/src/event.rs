//! The event-driven stackless executor behind
//! [`ExecBackend::Event`](crate::exec::ExecBackend::Event) — a
//! true discrete-event simulator with a per-rank **virtual clock**.
//!
//! A rank that owned an OS thread would keep its stack while parked — tens
//! of KiB of touched pages per rank, which caps practical worlds around a
//! few thousand ranks. This module has no per-rank thread at all:
//!
//! * every rank body is a *stackless resumable state machine* — the `async`
//!   rank body the caller hands to [`crate::exec::run_spmd_with`], compiled
//!   by rustc into an explicit-continuation enum whose suspended state costs
//!   bytes, not a stack;
//! * a scheduler drives the state machines from a ready queue that keeps
//!   **one FIFO per distinct virtual timestamp**, earliest first; a rank that
//!   cannot make progress (a `recv` with no matching message, a
//!   `barrier` waiting for peers) registers a `Wait` in its slab —
//!   the world's matching table — and returns `Poll::Pending`;
//! * a `send` that satisfies a registered `Recv` wait — or the last arrival
//!   at a barrier — clears the wait and moves the rank back onto the ready
//!   queue at its virtual completion time.
//!
//! # The virtual clock
//!
//! Each rank carries a virtual `now` driven by the machine's α-β-γ
//! [`CostModel`](crate::cost::CostModel):
//!
//! * a local GEMM ([`RankComm::record_flops`]) advances the clock by
//!   `compute_time(flops)`;
//! * a `send` stamps the message with the sender's clock; the transfer costs
//!   `α + β·words` and is routed over the machine's
//!   [`Topology`](crate::machine::Topology) by a compiled
//!   [`Network`]: every link on the path (sender NIC,
//!   switch uplinks, the receiver's injection wire) is charged its share of
//!   the wire time in virtual-time *consumption* order, store-and-forward,
//!   so congestion compounds exactly where traffic concentrates. The default
//!   flat topology routes only the receiver's injection link, which is
//!   bitwise-identical to the historical per-receiver-link model;
//! * with **overlap** ([`MachineSpec::overlap`], the default — §7.3's double
//!   buffering) the transfer proceeds in the background from the moment it
//!   is posted, so a `recv` completes at `max(recv_ready, arrival)` and
//!   transfer time hides behind whatever the receiver was doing — a posted
//!   prefetch costs nothing if the current leaf's compute covers it;
//!   without overlap the transfer is fully exposed:
//!   `max(recv_ready, send_time) + α + β·words`;
//! * a barrier resolves at the **max arrival time** over all ranks, the wait
//!   counting as exposed communication.
//!
//! The clock's seconds stay in the event world: every compute step, stall
//! and hidden transfer is added to the rank's slab under the region lock the
//! clock step already holds (a barrier's charges included), and the finished
//! run reads them into each rank's [`TimeBreakdown`], so it reports
//! *measured* time and %-of-peak the way the paper's Figures 8/10/13/14 do —
//! next to the word-exact traffic counters, which [`RankComm`] records.
//!
//! Admission is by virtual readiness time with FIFO tie-breaking, so a ready
//! rank is never starved and untimed workloads (all timestamps equal) keep
//! the old strict-FIFO order (the property tests assert this on the order
//! rank bodies resume in). Messages match by `(source, tag)` in arrival
//! order, FIFO per sender — the clock changes *when* ranks are polled, never
//! *what* they compute.
//! Worlds of 100k+ ranks execute end-to-end with real messages in a few
//! hundred bytes per rank.
//!
//! # One driver
//!
//! Ranks are partitioned into contiguous **regions** (`RegionState`), each
//! owning a slab of per-rank state (mailbox ends, wait slot, clock, injection
//! link), one packet arena the mailboxes chain through and a ready queue, and
//! each driven by one worker thread. Worker 0 is the calling thread, so the usual
//! one-region world (`threads: 1`, every shared-link topology, α = 0) spawns
//! nothing: it is the N = 1 case of the one run loop (`run_event_world`:
//! `worker` + `boundary`), not a loop of its own.
//!
//! The workers advance in *conservative windows* of virtual time, classic
//! bounded-lag discrete-event style: with the cost model's per-message
//! latency α as the **lookahead**, every window spans `[floor, floor + α)`
//! where `floor` is the earliest pending event anywhere (with α = 0, the
//! single timestamp `floor`). Each worker drains its own ready queue in
//! `(time, admission)` order up to the window bound, polling rank bodies
//! (user compute runs concurrently across regions, outside any lock).
//! Cross-region sends are deposited into the target region's bounded inbox
//! and drained at the window boundary — safe, because a message posted at
//! `sent_at ≥ floor` cannot complete before `sent_at + α ≥ floor + α`, i.e.
//! never inside the window that posted it. At each boundary worker 0 delivers
//! inboxes (stable-sorted by sender, preserving per-sender FIFO), resolves a
//! fully-arrived world barrier, checks recv deadlines and structural
//! deadlock, and opens the next window.
//!
//! With one region none of that machinery engages: every send finds its
//! target in the sender's own region (the inboxes stay empty), the last
//! barrier arriver resolves the epoch inline, the window gate has one party,
//! and since the one queue holds every event the bound never reorders a poll
//! — ranks run in global `(time, admission)` order, which shared links
//! (charged in global consumption order) require. With more regions, on the
//! flat topology every virtual quantity a rank commits (its clock, its
//! receiver-private injection link, its share of the commutative barrier max)
//! depends on rank-local state and on message envelopes fixed by the sender's
//! program order — never on the global interleaving — so counters *and*
//! virtual times are bitwise-identical at every region count.
//!
//! A message owns its payload — the `Vec` the sender posted is the `Vec` the
//! receiver gets — and waits in its region's **packet arena**: a `Vec` of
//! cells with a free list, through which every rank's mailbox is a chain in
//! arrival order (`head`/`tail` cell indices in the slab). Delivery appends a
//! cell, matching walks the chain from `head` for the first `(from, tag)` hit,
//! unlinks it and frees the cell. The arena is as long as the most packets
//! the *region* ever had in flight, so an idle rank's mailbox costs eight
//! bytes and no allocation.
//!
//! Recv deadlines ([`MachineSpec::recv_timeout`], in virtual time) are
//! checked at window boundaries only: a parked recv whose deadline lies
//! before the next floor is a suspected deadlock. One that passes mid-window
//! is reported at the boundary that follows it (at most α later) — and a
//! message posted inside that window still rescues the recv — identically at
//! every thread count. Nothing is stored per park: the clock of a rank parked
//! on a recv cannot move, so its deadline is `clock + recv_timeout` read off
//! the slab, and each region keeps one lower bound on its deadlines, lowered
//! by `min` at every park. Every deadline is at or above the bound, so a
//! boundary whose floor has not passed it has nothing to report and does not
//! look; one that has scans the region's slabs for the exact earliest
//! `(deadline, rank)` and stores it back as the bound.
//!
//! # Fault injection
//!
//! With a [`FaultPlan`](crate::fault::FaultPlan) attached
//! ([`MachineSpec::with_faults`]), the scheduler kills each doomed rank the
//! first time it would poll it at or past its scheduled virtual death time
//! (body dropped, mailbox discarded — the rank stops consuming events),
//! silently loses sends to dead ranks, and reports a world the deaths keep
//! from completing as a typed [`ExecError::RankFailed`] carrying the
//! earliest scheduled casualty. A death is decided on rank-local state (the
//! rank's own event time), so the *same* ranks die at the *same* events at
//! every region count, and a plan that schedules nothing is bitwise a
//! no-op. The network never loses a message: a world fails only because a
//! rank died.
//!
//! A world whose ranks all finish with a message still in some mailbox —
//! its receiver exited first, or returned without the matching `recv` —
//! fails with [`ExecError::WorldTornDown`] naming the lowest sender of such a
//! message. The rule reads the finished world's mailboxes once, after the
//! run, so it does not depend on which region polled first.
//!
//! A second guard complements the recv deadline: a world whose clocks are
//! *frozen* (α = 0, zero-word messages) can ping-pong forever inside one
//! window without ever outrunning a deadline. Each worker counts consecutive
//! polls without strict virtual-time advance and, past a generous budget,
//! leaves its window so the boundary fires the earliest pending deadline as
//! [`ExecError::DeadlockSuspected`] — a livelocked world errors, not spins.

use std::collections::{BTreeMap, VecDeque};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

use crate::comm::RankComm;
use crate::cost::TimeBreakdown;
use crate::exec::{ExecError, Waiting};
use crate::fault::FaultSchedule;
use crate::machine::MachineSpec;
use crate::pool::BufferPool;
use crate::stats::{RankStats, StatsBoard};
use crate::topo::Network;

/// Lock a piece of world state. A poisoned lock means a rank body panicked;
/// recover the state so the original panic surfaces.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A tagged in-flight message, stamped with its virtual-time envelope.
/// It owns its payload: the sender's buffer is the one the receiver gets.
#[derive(Debug)]
struct Packet {
    from: usize,
    tag: u64,
    data: Vec<f64>,
    /// The sender's virtual clock when the message was posted.
    sent_at: f64,
    /// The wire time of this message, `α + β·words`.
    transfer_s: f64,
}

/// What a parked rank is waiting for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Wait {
    /// Runnable (or currently being polled) — not in the matching table.
    #[default]
    None,
    /// Parked on a `recv(from, tag)` with no matching message buffered.
    Recv { from: usize, tag: u64 },
    /// Parked at the world barrier.
    Barrier,
}

/// The order-keeping image of a virtual time: `-0.0` folds into `0.0`, then
/// negatives map to `!bits` and everything else to `bits | 1 << 63`, so
/// unsigned order is `f64` order on every non-NaN time.
fn time_key(at: f64) -> u64 {
    let bits = if at == 0.0 { 0 } else { at.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The virtual time `key` is the [`time_key`] of (`-0.0` comes back `0.0`).
fn key_time(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

/// A region's runnable ranks: one FIFO per distinct virtual readiness time,
/// earliest time first. Events cluster at a few times (a barrier's max, a
/// round's completions), so admitting and taking a rank is a push and a pop
/// at the ends of a deque, and ties leave in admission order by
/// construction.
#[derive(Debug, Default)]
struct ReadyQueue {
    /// Ranks (global) by [`time_key`] of their readiness time, each FIFO in
    /// admission order and never empty.
    by_time: BTreeMap<u64, VecDeque<usize>>,
    /// Emptied FIFOs, reused for the next new time instead of reallocated.
    spare: Vec<VecDeque<usize>>,
}

impl ReadyQueue {
    /// Admit `rank` at virtual time `at` behind every rank admitted at the
    /// same time. Panics on a NaN time, which no order can place.
    fn push(&mut self, rank: usize, at: f64) {
        assert!(!at.is_nan(), "rank {rank} made ready at a NaN virtual time");
        self.by_time
            .entry(time_key(at))
            .or_insert_with(|| self.spare.pop().unwrap_or_default())
            .push_back(rank);
    }

    /// The earliest readiness time, if any rank is runnable.
    fn peek(&self) -> Option<f64> {
        self.by_time.first_key_value().map(|(&key, _)| key_time(key))
    }

    /// Take the first-admitted rank of the earliest time.
    fn pop(&mut self) -> Option<usize> {
        let mut first = self.by_time.first_entry()?;
        let rank = first.get_mut().pop_front();
        if first.get().is_empty() {
            self.spare.push(first.remove());
        }
        rank
    }
}

/// Index of a [`Slot`] in its region's packet arena. `u32`, so a mailbox is
/// eight bytes a rank: a region holds fewer than 2³² packets in flight
/// (`RegionState::push` checks it), far above what memory lets a world post.
type SlotId = u32;

/// The null [`SlotId`]: end of a chain, empty mailbox, empty free list.
const NIL: SlotId = SlotId::MAX;

/// One cell of a region's packet arena: a delivered-but-unmatched packet and
/// the next cell of the mailbox chain it is on — or, with `pkt` empty, the
/// next cell of the free list.
#[derive(Debug)]
struct Slot {
    pkt: Option<Packet>,
    next: SlotId,
}

/// A rank's mailbox: a chain through the region's packet arena, in arrival
/// order. Both ends are [`NIL`] when empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mailbox {
    head: SlotId,
    tail: SlotId,
}

impl Default for Mailbox {
    fn default() -> Self {
        Mailbox { head: NIL, tail: NIL }
    }
}

/// One rank's scheduler state — the only per-rank record of the event world,
/// its virtual time included. A region's ranks live in a single contiguous
/// allocation.
#[derive(Debug, Default)]
struct RankSlab {
    /// Delivered-but-unmatched messages, in arrival order, chained through
    /// [`RegionState::packets`].
    mailbox: Mailbox,
    /// The rank's matching-table entry: what it currently waits for.
    wait: Wait,
    /// The rank's virtual clock (`now`, seconds).
    clock: f64,
    /// Virtual seconds of local compute (the γ term) the clock has stepped.
    compute_s: f64,
    /// Virtual seconds the rank stalled on communication (recv and barrier
    /// waits).
    exposed_s: f64,
    /// Virtual seconds of transfer that proceeded behind other activity
    /// (double buffering, §7.3).
    hidden_s: f64,
    /// Availability time of the rank's injection wire ([`Network`] link id
    /// `rank`), the last hop of every route to it, committed when the rank
    /// consumes a message. Receiver-private by construction, which is what
    /// makes regions independent between window boundaries.
    link_free: f64,
    /// Whether the rank's body future completed.
    finished: bool,
    /// Whether the fault plan killed this rank — distinct from `finished`: a
    /// dead rank produced no result, and sends to it are losses, not
    /// teardowns.
    dead: bool,
}

/// A contiguous block of ranks: their slabs, the packet arena their
/// mailboxes chain through and a ready queue. Each worker thread drives one:
/// mid-window only the owning worker touches it (cross-region traffic goes
/// through [`EventWorld::inboxes`]), and the mutex hands the same state to
/// the boundary leader between windows.
struct RegionState {
    /// First global rank of this region.
    base: usize,
    /// Per-rank state, indexed by `rank - base`.
    slabs: Vec<RankSlab>,
    /// Availability times of the links ranks share (node NICs, switch
    /// up/down links): [`Network`] link ids `≥ p`, stored at `id - p`.
    /// Empty on the flat topology; a shared-link world is always one
    /// region, so its region holds every link of every route.
    shared_links: Vec<f64>,
    /// This region's runnable ranks, earliest virtual readiness time first,
    /// FIFO on equal times.
    ready: ReadyQueue,
    /// The packet arena: every delivered-but-unmatched message of this
    /// region, each on its receiver's [`Mailbox`] chain. Its length is the
    /// high-water of packets in flight in the *region* — memory follows the
    /// traffic, not the rank count.
    packets: Vec<Slot>,
    /// Head of the free list through [`packets`](Self::packets): emptied
    /// cells, last freed first, reused before the arena grows.
    free: SlotId,
    /// A lower bound on every recv deadline of this region. A recv parked at
    /// clock `c` is due at `c + recv_timeout` — the clock of a parked rank
    /// cannot move, so the deadline is read off the slab and nothing is
    /// stored per park; parking lowers this bound to it by `min`. The
    /// earliest deadline is never below the bound, so a boundary whose next
    /// floor is not past it has no deadline to report and does not look
    /// ([`earliest_deadline`](Self::earliest_deadline)). Barrier waits carry
    /// no deadline (a barrier involves every rank, so a wedged barrier is
    /// caught structurally).
    deadline_lb: f64,
}

impl RegionState {
    fn slab(&self, rank: usize) -> &RankSlab {
        &self.slabs[rank - self.base]
    }

    fn slab_mut(&mut self, rank: usize) -> &mut RankSlab {
        &mut self.slabs[rank - self.base]
    }

    fn owns(&self, rank: usize) -> bool {
        (self.base..self.base + self.slabs.len()).contains(&rank)
    }

    /// Append `pkt` to `to`'s mailbox chain, in a freed cell if there is one.
    fn push(&mut self, to: usize, pkt: Packet) {
        let cell = Slot {
            pkt: Some(pkt),
            next: NIL,
        };
        let at = match self.free {
            NIL => {
                let at = SlotId::try_from(self.packets.len())
                    .ok()
                    .filter(|&at| at != NIL)
                    .expect("fewer than 2^32 packets in flight per region");
                self.packets.push(cell);
                at
            }
            at => {
                self.free = std::mem::replace(&mut self.packets[at as usize], cell).next;
                at
            }
        };
        match std::mem::replace(&mut self.slab_mut(to).mailbox.tail, at) {
            NIL => self.slab_mut(to).mailbox.head = at,
            tail => self.packets[tail as usize].next = at,
        }
    }

    /// Remove and return the first message from `from` with `tag` in
    /// `rank`'s mailbox, in arrival order. The cell goes to the free list.
    fn take_match(&mut self, rank: usize, from: usize, tag: u64) -> Option<Packet> {
        let (mut prev, mut at) = (NIL, self.slab(rank).mailbox.head);
        while at != NIL {
            let slot = &self.packets[at as usize];
            if slot.pkt.as_ref().is_some_and(|m| m.from == from && m.tag == tag) {
                break;
            }
            (prev, at) = (at, slot.next);
        }
        if at == NIL {
            return None;
        }
        let next = std::mem::replace(&mut self.packets[at as usize].next, self.free);
        self.free = at;
        let mailbox = &mut self.slab_mut(rank).mailbox;
        if next == NIL {
            mailbox.tail = prev;
        }
        match prev {
            NIL => mailbox.head = next,
            prev => self.packets[prev as usize].next = next,
        }
        self.packets[at as usize].pkt.take()
    }

    /// Drop every message in `rank`'s mailbox (the rank was killed): the
    /// whole chain goes back to the free list.
    fn clear_mailbox(&mut self, rank: usize) {
        let Mailbox { head, tail } = std::mem::take(&mut self.slab_mut(rank).mailbox);
        if head == NIL {
            return;
        }
        let mut at = head;
        while at != NIL {
            let slot = &mut self.packets[at as usize];
            slot.pkt = None;
            at = slot.next;
        }
        self.packets[tail as usize].next = self.free;
        self.free = head;
    }

    /// The lowest sender of a message still waiting in any of this region's
    /// mailboxes, if one is: every cell that holds a packet is on a chain.
    fn lowest_unreceived_sender(&self) -> Option<usize> {
        self.packets
            .iter()
            .filter_map(|slot| slot.pkt.as_ref())
            .map(|pkt| pkt.from)
            .min()
    }

    /// Availability time of link `link` of a `p`-rank world: ids `< p` are a
    /// rank's injection wire and live in its slab, the rest in
    /// [`shared_links`](Self::shared_links).
    fn link_free(&self, p: usize, link: usize) -> f64 {
        match link.checked_sub(p) {
            None => self.slab(link).link_free,
            Some(shared) => self.shared_links[shared],
        }
    }

    fn link_free_mut(&mut self, p: usize, link: usize) -> &mut f64 {
        match link.checked_sub(p) {
            None => &mut self.slab_mut(link).link_free,
            Some(shared) => &mut self.shared_links[shared],
        }
    }

    /// When a matched receive of `pkt` by `rank` would complete — the one
    /// formula behind both the wake-time ready-queue admission and the clock
    /// the recv poll commits.
    ///
    /// The message crosses every link of its route ([`Network::for_each_hop`])
    /// store-and-forward: each hop waits for the link to free, then occupies
    /// it for `factor × transfer_s`. With overlap the route is walked from
    /// the send time and runs in the background, so the receiver only waits
    /// out whatever its own activity did not cover; without overlap it is
    /// walked from the rendezvous of sender and receiver and fully exposed.
    /// On the flat topology the route is the single injection link with
    /// factor 1.0, which reproduces the historical per-receiver-link clock
    /// bitwise in both modes (`1.0 × transfer_s` is `transfer_s`; without
    /// overlap the link is only ever committed at the receiver's resulting
    /// clock, and clocks are monotone, so the extra `max` is a no-op).
    fn completion_time(&self, world: &EventWorld, rank: usize, pkt: &Packet) -> f64 {
        let clock = self.slab(rank).clock;
        let mut t = if world.overlap {
            pkt.sent_at
        } else {
            clock.max(pkt.sent_at)
        };
        world.net.for_each_hop(pkt.from, rank, |link, factor| {
            t = t.max(self.link_free(world.p, link)) + factor * pkt.transfer_s;
        });
        if world.overlap {
            clock.max(t)
        } else {
            t
        }
    }

    /// [`completion_time`](Self::completion_time), committing every link's
    /// occupancy along the route — links are charged in virtual-time
    /// consumption order (the deterministic order of the receiving polls:
    /// global on the one region of a shared-link world, the one receiver's
    /// program order for an injection wire), never at wake time.
    fn recv_completion(&mut self, world: &EventWorld, rank: usize, pkt: &Packet) -> f64 {
        let clock = self.slab(rank).clock;
        let mut t = if world.overlap {
            pkt.sent_at
        } else {
            clock.max(pkt.sent_at)
        };
        world.net.for_each_hop(pkt.from, rank, |link, factor| {
            let free = self.link_free_mut(world.p, link);
            t = t.max(*free) + factor * pkt.transfer_s;
            *free = t;
        });
        if world.overlap {
            clock.max(t)
        } else {
            t
        }
    }

    /// Put `pkt` in `to`'s mailbox; if `to` is parked on exactly this
    /// message, wake it at the estimated completion time. The wake time is
    /// only a queue priority — the recv poll recomputes (and commits) against
    /// the link states of its actual consumption order.
    fn deliver(&mut self, world: &EventWorld, to: usize, pkt: Packet) {
        let wake = self.slab(to).wait
            == (Wait::Recv {
                from: pkt.from,
                tag: pkt.tag,
            });
        let at = wake.then(|| self.completion_time(world, to, &pkt));
        self.push(to, pkt);
        if let Some(at) = at {
            self.slab_mut(to).wait = Wait::None;
            self.ready.push(to, at);
        }
    }

    /// The earliest recv deadline of this region as `(at, rank, on)` — the
    /// lowest rank among equals — if it can matter: `None` without a look
    /// while [`deadline_lb`](Self::deadline_lb) is not below `floor` (no
    /// deadline is below the bound), unless `force`d by the livelock guard.
    /// A look is one pass over the slabs and stores the exact earliest
    /// deadline back as the bound, so a bound left stale by ranks that were
    /// woken since costs one pass, not one per boundary.
    ///
    /// Worst case: a world whose `recv_timeout` is shorter than its makespan
    /// pays one O(ranks in region) pass each time the floor passes the bound
    /// — at most one per window boundary. The default 120 virtual seconds
    /// against millisecond makespans never looks.
    fn earliest_deadline(
        &mut self,
        timeout_s: f64,
        floor: f64,
        force: bool,
    ) -> Option<(f64, usize, Waiting)> {
        if self.deadline_lb >= floor && !force {
            return None;
        }
        let mut first = None;
        for (local, slab) in self.slabs.iter().enumerate() {
            if let Wait::Recv { from, tag } = slab.wait {
                let at = slab.clock + timeout_s;
                if first.is_none_or(|(earliest, _, _)| at < earliest) {
                    first = Some((at, self.base + local, Waiting::Message { from, tag }));
                }
            }
        }
        self.deadline_lb = first.map_or(f64::INFINITY, |(at, _, _)| at);
        first
    }
}

/// The world barrier's epoch state. Arrivals update it as they happen
/// (count and commutative max are interleaving-insensitive);
/// [`EventWorld::resolve_barrier`] closes a fully-arrived epoch.
#[derive(Debug, Default)]
struct BarrierState {
    /// Arrivals in the current epoch.
    arrived: usize,
    /// Max arrival clock of the current epoch.
    t_max: f64,
    /// Completed epochs (a parked arrival resumes when this passes the
    /// epoch it arrived in).
    gen: u64,
}

/// State shared by all ranks of one event-driven machine.
pub(crate) struct EventWorld {
    p: usize,
    /// The α-β-γ constants driving the virtual clock.
    model: crate::cost::CostModel,
    /// Communication–computation overlap (§7.3) — see
    /// [`MachineSpec::overlap`].
    overlap: bool,
    /// The compiled topology + placement: per-transfer routes and link ids.
    net: Network,
    /// [`MachineSpec::recv_timeout`] as virtual seconds: a parked recv whose
    /// deadline passes while other ranks keep making virtual progress is a
    /// suspected deadlock.
    timeout_s: f64,
    /// The fault plan compiled against this world
    /// ([`MachineSpec::faults`]): per-rank death times. `None` keeps every
    /// fault hook off the hot path.
    faults: Option<FaultSchedule>,
    /// Ranks per region (`ceil(p / regions)`); rank `r` lives in region
    /// `r / chunk` at slab index `r % chunk`.
    chunk: usize,
    /// The regions, in rank order: one per worker thread.
    regions: Vec<Mutex<RegionState>>,
    /// Per-target-region inboxes for cross-region packets, drained (and
    /// stable-sorted by sender) at each window boundary. Bounded by
    /// construction: a window's deposits are delivered before the next
    /// window opens, so an inbox never holds more than one window's traffic.
    inboxes: Vec<Mutex<Vec<(usize, Packet)>>>,
    barrier: Mutex<BarrierState>,
}

impl EventWorld {
    /// A world of `regions` ≥ 1 regions; more than one only on the flat
    /// topology with α > 0 (the caller guarantees both).
    fn new(spec: &MachineSpec, regions: usize) -> Self {
        let p = spec.p;
        let net = Network::compile(p, &spec.topology, spec.placement);
        let n_shared = net.n_links() - p;
        assert!(regions == 1 || n_shared == 0, "a shared-link topology runs as one region");
        let chunk = p.div_ceil(regions);
        let n_regions = p.div_ceil(chunk);
        EventWorld {
            p,
            model: spec.cost,
            overlap: spec.overlap,
            net,
            timeout_s: spec.recv_timeout.as_secs_f64(),
            faults: spec.faults.as_ref().map(|plan| plan.schedule(p)),
            chunk,
            regions: (0..n_regions)
                .map(|w| {
                    let base = w * chunk;
                    let len = chunk.min(p - base);
                    Mutex::new(RegionState {
                        base,
                        slabs: (0..len).map(|_| RankSlab::default()).collect(),
                        shared_links: vec![0.0; n_shared],
                        ready: ReadyQueue::default(),
                        packets: Vec::new(),
                        free: NIL,
                        deadline_lb: f64::INFINITY,
                    })
                })
                .collect(),
            inboxes: (0..n_regions).map(|_| Mutex::new(Vec::new())).collect(),
            barrier: Mutex::new(BarrierState::default()),
        }
    }

    fn region_of(&self, rank: usize) -> usize {
        rank / self.chunk
    }

    fn lock_region(&self, region: usize) -> MutexGuard<'_, RegionState> {
        lock(&self.regions[region])
    }

    fn lock_rank(&self, rank: usize) -> MutexGuard<'_, RegionState> {
        self.lock_region(self.region_of(rank))
    }

    /// The exclusive bound of the window that opens at `floor`: one
    /// conservative lookahead wide, the cost model's per-message latency α.
    /// The lookahead is a lower bound on the virtual time between a message
    /// being *posted* and it *completing* at the receiver, over every rank
    /// pair and network state: every transfer pays the full α end to end
    /// exactly once (routing adds bandwidth serialization on shared links,
    /// never a latency discount), so a message posted at `t` completes at
    /// `t + α + β·words ≥ t + α` on every topology, and such a window is
    /// closed under the cross-region events it generates. The `next_up`
    /// floor keeps the window non-empty when α = 0 or `floor + α` rounds
    /// back to `floor` (a clock so far past α that the sum is absorbed): the
    /// driver then steps one timestamp at a time instead of spinning.
    fn window_bound(&self, floor: f64) -> f64 {
        (floor + self.model.alpha_s).max(floor.next_up())
    }

    /// Close the fully-arrived barrier epoch behind `b`: the barrier
    /// resolves at the max arrival time, so every rank parked at it has its
    /// clock advanced there (the wait counted as exposed communication) and
    /// rejoins its ready queue, in rank order. `running` is the arriver
    /// resolving inline, which continues without suspending, like
    /// `std::sync::Barrier`'s leader.
    fn resolve_barrier(&self, mut b: MutexGuard<'_, BarrierState>, running: Option<usize>) {
        let tmax = b.t_max;
        b.arrived = 0;
        b.t_max = 0.0;
        b.gen += 1;
        drop(b);
        for region in &self.regions {
            let mut guard = lock(region);
            let reg = &mut *guard;
            for local in 0..reg.slabs.len() {
                let slab = &mut reg.slabs[local];
                if slab.wait == Wait::Barrier {
                    let r = reg.base + local;
                    slab.wait = Wait::None;
                    debug_assert!(tmax >= slab.clock, "virtual time only moves forward");
                    slab.exposed_s += tmax - slab.clock;
                    slab.clock = tmax;
                    if running != Some(r) {
                        reg.ready.push(r, tmax);
                    }
                }
            }
        }
    }

    /// The casualty a fault-afflicted world reports when it cannot complete,
    /// `None` without a fault plan or with no death in play: the earliest
    /// *scheduled* death among ranks that are dead or still unfinished with
    /// a death pending — a schedule-derived attribution, so every region
    /// count reports the same `(rank, at)`. Takes the region locks itself —
    /// call it with none held, and never mid-window.
    fn fault_error(&self) -> Option<ExecError> {
        let sched = self.faults.as_ref()?;
        let mut first: Option<(f64, usize)> = None;
        for r in 0..self.p {
            let Some(d) = sched.death_time(r) else { continue };
            let reg = self.lock_rank(r);
            let cand = (d, r);
            if (reg.slab(r).dead || !reg.slab(r).finished) && first.is_none_or(|cur| cand < cur) {
                first = Some(cand);
            }
        }
        first.map(|(at, rank)| ExecError::RankFailed { rank, at })
    }

    /// What a structurally deadlocked world reports. A wedge that is the
    /// fault plan's doing (ranks dead or doomed) reports the scheduled
    /// casualty; otherwise the
    /// first parked rank in rank order and what it waits on. A live rank with
    /// no registered wait awaited something outside the communicator (which
    /// the scheduler can never re-wake): report that honestly rather than
    /// inventing a barrier. Takes the region locks, like
    /// [`fault_error`](Self::fault_error).
    fn wedge_error(&self) -> ExecError {
        if let Some(e) = self.fault_error() {
            return e;
        }
        let mut first_unfinished = None;
        for region in &self.regions {
            let reg = lock(region);
            for (local, slab) in reg.slabs.iter().enumerate() {
                let rank = reg.base + local;
                let on = match slab.wait {
                    Wait::Recv { from, tag } => Waiting::Message { from, tag },
                    Wait::Barrier => Waiting::Barrier,
                    Wait::None => {
                        if !slab.finished {
                            first_unfinished.get_or_insert(rank);
                        }
                        continue;
                    }
                };
                return ExecError::DeadlockSuspected { rank, on };
            }
        }
        ExecError::DeadlockSuspected {
            rank: first_unfinished.expect("live ranks exist"),
            on: Waiting::Unknown,
        }
    }
}

/// The event executor's transport behind a [`RankComm`]: it moves messages
/// and steps virtual time; operations that cannot complete return futures
/// that park the rank in the world's matching table. The handle holds the
/// rank, so every operation takes it.
pub(crate) struct EventComm {
    /// The region the rank lives in, so its operations find their state
    /// without dividing.
    region: usize,
    world: Arc<EventWorld>,
}

impl EventComm {
    /// Lock the region this rank lives in.
    fn lock_region(&self) -> MutexGuard<'_, RegionState> {
        self.world.lock_region(self.region)
    }

    /// Advance `rank`'s virtual clock by `compute_time(flops)`, charged as
    /// compute.
    pub fn compute(&self, rank: usize, flops: u64) {
        let dt = self.world.model.compute_time(flops);
        debug_assert!(dt >= 0.0, "virtual time only moves forward (dt = {dt})");
        let mut reg = self.lock_region();
        let slab = reg.slab_mut(rank);
        slab.clock += dt;
        slab.compute_s += dt;
    }

    /// Send `data` from `rank` to rank `to` with `tag`. Never suspends: the
    /// message is stamped with the sender's virtual clock and deposited in
    /// the target's mailbox, and if the target is parked on a matching
    /// `recv` it is moved back onto the ready queue at its virtual completion
    /// time (the transfer itself is accounted when the target consumes the
    /// message — see `RegionState::recv_completion`). A message whose
    /// receiver already exited stays in its mailbox, and the finished world
    /// reports it (see the module doc).
    pub fn send(&self, rank: usize, to: usize, tag: u64, data: Vec<f64>) {
        let world = &*self.world;
        let transfer_s = world.model.comm_time(data.len() as u64, 1);
        let mut reg = self.lock_region();
        if world.faults.is_some() && reg.owns(to) && reg.slab(to).dead {
            // The receiver was killed mid-run: a typed loss, not a
            // teardown — the wedge reports RankFailed. (A death in another
            // region is observed at the window boundary, where delivery
            // happens anyway.)
            return;
        }
        let pkt = Packet {
            from: rank,
            tag,
            data,
            sent_at: reg.slab(rank).clock,
            transfer_s,
        };
        if !reg.owns(to) {
            // Cross-region: deposit into the target region's inbox; the
            // boundary leader delivers it. The message cannot complete before
            // `sent_at + α`, which is at or past the window bound — boundary
            // delivery never delays a wake that belonged to this window.
            drop(reg);
            lock(&world.inboxes[world.region_of(to)]).push((to, pkt));
            return;
        }
        reg.deliver(world, to, pkt);
    }

    /// `rank` receives the next message from `from` with `tag`. A
    /// wait-state: with no matching message buffered, the rank parks in the
    /// matching table and the scheduler resumes it when the message arrives.
    /// On completion the receiver's clock advances to the message's virtual
    /// completion time; the stall is charged as exposed communication, the
    /// rest of the transfer as hidden.
    pub fn recv(&self, rank: usize, from: usize, tag: u64) -> impl Future<Output = Vec<f64>> + '_ {
        poll_fn(move |_| self.poll_recv(rank, from, tag))
    }

    /// One poll of [`recv`](Self::recv): the matched message, or `rank`
    /// parked on it. A method rather than the closure's body: written as
    /// the body, the same code measured ≈ 10 % slower per message on a
    /// 4096-rank event ring (release build, 2-vCPU Xeon).
    fn poll_recv(&self, rank: usize, from: usize, tag: u64) -> Poll<Vec<f64>> {
        let world = &*self.world;
        let mut reg = self.lock_region();
        if let Some(pkt) = reg.take_match(rank, from, tag) {
            let done = reg.recv_completion(world, rank, &pkt);
            let slab = reg.slab_mut(rank);
            let stall = done - slab.clock;
            debug_assert!(stall >= 0.0, "virtual time only moves forward (stall = {stall})");
            slab.clock = done;
            slab.exposed_s += stall;
            slab.hidden_s += (pkt.transfer_s - stall).max(0.0);
            return Poll::Ready(pkt.data);
        }
        let wait = Wait::Recv { from, tag };
        let slab = reg.slab_mut(rank);
        // One outstanding wait-state per rank: a second concurrently polled
        // future would overwrite this slot and lose its wakeup, so refuse
        // loudly instead of deadlocking silently.
        assert!(
            slab.wait == Wait::None || slab.wait == wait,
            "rank {rank}: a rank supports one outstanding wait-state \
             (found {:?} while registering {wait:?})",
            slab.wait
        );
        slab.wait = wait;
        // Arm the virtual recv deadline: if the world's virtual time outruns
        // it while this rank is still parked, the scheduler reports a
        // suspected deadlock instead of simulating on.
        let due = slab.clock + world.timeout_s;
        reg.deadline_lb = reg.deadline_lb.min(due);
        Poll::Pending
    }

    /// Park `rank` until all `p` ranks reach the barrier. The barrier
    /// resolves at the max arrival time: everyone's clock advances to it
    /// (each rank's wait charged as exposed communication) and every parked
    /// rank rejoins the ready queue (see `EventWorld::resolve_barrier`).
    pub fn barrier(&self, rank: usize) -> impl Future<Output = ()> + '_ {
        // The barrier epoch this rank arrived in (`None` before first poll).
        let mut arrived_gen = None;
        poll_fn(move |_| self.poll_barrier(rank, &mut arrived_gen))
    }

    /// One poll of [`barrier`](Self::barrier) by `rank`, which arrived in
    /// epoch `arrived_gen` (`None` until its first poll) — a method for the
    /// reason [`poll_recv`](Self::poll_recv) is.
    fn poll_barrier(&self, rank: usize, arrived_gen: &mut Option<u64>) -> Poll<()> {
        let world = &*self.world;
        let Some(gen) = *arrived_gen else {
            // Arrival: park, and fold this clock into the commutative epoch
            // max.
            let mut reg = self.lock_region();
            let slab = reg.slab_mut(rank);
            assert!(
                slab.wait == Wait::None,
                "rank {rank}: a rank supports one outstanding wait-state \
                 (found {:?} while arriving at the barrier)",
                slab.wait
            );
            slab.wait = Wait::Barrier;
            let clock = slab.clock;
            drop(reg);
            let mut b = lock(&world.barrier);
            b.arrived += 1;
            b.t_max = b.t_max.max(clock);
            *arrived_gen = Some(b.gen);
            if b.arrived == world.p && world.regions.len() == 1 {
                // One region: its worker polls one rank at a time, so no
                // other rank is running and the last arriver resolves the
                // epoch inline. With more regions other workers are
                // mid-window; the arrival parks and the boundary leader
                // resolves, charging exactly the same.
                world.resolve_barrier(b, Some(rank));
                return Poll::Ready(());
            }
            return Poll::Pending;
        };
        if lock(&world.barrier).gen > gen {
            Poll::Ready(())
        } else {
            // Spurious re-poll within the same epoch: keep waiting.
            self.lock_region().slab_mut(rank).wait = Wait::Barrier;
            Poll::Pending
        }
    }
}

/// The frozen-clock livelock guard's poll budget: how many consecutive polls
/// without strict virtual-time advance a worker tolerates before it asks the
/// boundary to fire the earliest pending receive deadline.
///
/// A world whose clocks are frozen (α = 0 and only zero-word messages in
/// flight) can ping-pong forever inside one window without ever outrunning a
/// parked recv's virtual deadline — `recv_timeout` never fires and the
/// scheduler spins. The budget converts "no virtual progress for an absurd
/// number of polls" into the same [`ExecError::DeadlockSuspected`] the
/// deadline would have produced. Generous (≥ 2²⁰ polls, scaled by world size
/// so same-timestamp bursts of large untimed worlds never trip it): a
/// legitimate workload advancing time or finishing ranks resets the count.
fn livelock_poll_budget(p: usize) -> u64 {
    (p as u64) * 64 + (1 << 20)
}

/// Run control shared by the workers of one world: the published window
/// bound, the live-rank count, and the first failure of the run.
struct Control {
    /// The current window's exclusive virtual-time bound, as `f64` bits.
    bound: AtomicU64,
    /// Ranks whose body future has not completed yet.
    live: AtomicUsize,
    /// Raised as soon as any region fails: other regions cut their window
    /// short instead of simulating on.
    failed: AtomicBool,
    /// Raised by a worker whose polls exhausted [`livelock_poll_budget`]
    /// without virtual-time advance; read and cleared by the next boundary.
    frozen: AtomicBool,
    /// Set by the boundary leader when the run is over (success or failure).
    stop: AtomicBool,
    /// First typed error of the run (window order; within one window, first
    /// recorder wins).
    error: Mutex<Option<ExecError>>,
    /// First non-[`ExecError`] rank panic, re-raised after the scope joins.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// The two-phase window gate all workers (leader included) meet at.
    gate: std::sync::Barrier,
}

impl Control {
    fn fail(&self, e: ExecError) {
        lock(&self.error).get_or_insert(e);
        self.failed.store(true, Ordering::SeqCst);
    }

    fn panicked(&self, payload: Box<dyn std::any::Any + Send>) {
        lock(&self.panic).get_or_insert(payload);
        self.failed.store(true, Ordering::SeqCst);
    }

    fn bound(&self) -> f64 {
        f64::from_bits(self.bound.load(Ordering::SeqCst))
    }
}

/// One worker of the driver — the only place rank futures are polled: owns
/// region `w`'s rank bodies (created *and* polled on this thread — rank
/// futures are not `Send`), drains the region's ready queue in
/// `(time, admission)` order up to each window bound, and meets the other
/// workers at the window gate.
/// Worker 0 runs on the calling thread and doubles as the boundary leader.
fn worker<R, F, Fut>(
    world: &Arc<EventWorld>,
    ctl: &Control,
    w: usize,
    (stats, pool): (&Arc<StatsBoard>, &Arc<BufferPool>),
    f: &F,
) -> Vec<Option<R>>
where
    F: Fn(RankComm) -> Fut,
    Fut: Future<Output = R>,
{
    let base = w * world.chunk;
    let len = world.chunk.min(world.p - base);
    // One boxed state machine per rank — the entire per-rank footprint.
    let mut tasks: Vec<Option<Pin<Box<Fut>>>> = (base..base + len)
        .map(|rank| {
            let comm = EventComm {
                region: w,
                world: world.clone(),
            };
            Some(Box::pin(f(RankComm::new(rank, stats, pool, comm))))
        })
        .collect();
    let mut results: Vec<Option<R>> = (0..len).map(|_| None).collect();
    let mut cx = Context::from_waker(Waker::noop());
    // Frozen-clock livelock guard (see `livelock_poll_budget`): consecutive
    // polls without strict virtual-time advance, reset on any progress.
    let stall_budget = livelock_poll_budget(world.p);
    let mut last_advance = f64::NEG_INFINITY;
    let mut stalled_polls: u64 = 0;
    loop {
        let bound = ctl.bound();
        'window: while !ctl.failed.load(Ordering::Relaxed) {
            let r = {
                let mut reg = world.lock_region(w);
                let Some(at) = reg.ready.peek().filter(|&at| at < bound) else {
                    break;
                };
                if at > last_advance {
                    last_advance = at;
                    stalled_polls = 0;
                } else {
                    stalled_polls += 1;
                }
                if stalled_polls > stall_budget {
                    // A frozen clock can never outrun a deadline: leave the
                    // window so the boundary fires the earliest pending one
                    // (or, with none pending, reopens the window).
                    stalled_polls = 0;
                    ctl.frozen.store(true, Ordering::SeqCst);
                    break;
                }
                let r = reg.ready.pop().expect("peeked entry exists");
                // The fault plan's kill point: the first time a doomed rank
                // would be polled at or past its scheduled death, it dies
                // instead — body dropped, mailbox discarded, no result.
                // Decided against the rank's own event time, so the window
                // interleave is irrelevant.
                if let Some(d) = world.faults.as_ref().and_then(|sched| sched.death_time(r)) {
                    if !reg.slab(r).dead && at >= d {
                        let slab = reg.slab_mut(r);
                        slab.dead = true;
                        slab.wait = Wait::None;
                        reg.clear_mailbox(r);
                        drop(reg);
                        tasks[r - base] = None;
                        ctl.live.fetch_sub(1, Ordering::SeqCst);
                        continue 'window;
                    }
                }
                r
            };
            let task = tasks[r - base].as_mut().expect("ready rank has a live task");
            // A rank body's panic is caught so the other workers leave the
            // window gate, and re-raised once they have joined.
            let polled =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.as_mut().poll(&mut cx)));
            match polled {
                Ok(Poll::Ready(out)) => {
                    results[r - base] = Some(out);
                    tasks[r - base] = None;
                    world.lock_region(w).slab_mut(r).finished = true;
                    ctl.live.fetch_sub(1, Ordering::SeqCst);
                    // A finishing rank is progress even at a frozen timestamp.
                    stalled_polls = 0;
                }
                // Pending: the rank registered a wait-state; a matching send,
                // the barrier resolution or an inbox delivery re-enqueues it.
                Ok(Poll::Pending) => {}
                Err(payload) => {
                    ctl.panicked(payload);
                    break 'window;
                }
            }
        }
        ctl.gate.wait();
        if w == 0 {
            boundary(world, ctl);
        }
        ctl.gate.wait();
        if ctl.stop.load(Ordering::SeqCst) {
            return results;
        }
    }
}

/// The window-boundary phase, run by the leader alone while every worker
/// waits at the gate: deliver cross-region inboxes, resolve a fully-arrived
/// barrier, surface failures, detect deadlock, and open the next window.
fn boundary(world: &EventWorld, ctl: &Control) {
    // 1) Drain inboxes. Stable-sorting by sender canonicalizes the arrival
    //    order while preserving each sender's program order — matching is
    //    per-(sender, tag), so any per-sender-FIFO order is equivalent.
    for (target_region, inbox) in world.inboxes.iter().enumerate() {
        let mut pkts = std::mem::take(&mut *lock(inbox));
        if pkts.is_empty() {
            continue;
        }
        pkts.sort_by_key(|(_, pkt)| pkt.from);
        let mut reg = world.lock_region(target_region);
        for (to, pkt) in pkts {
            if reg.slab(to).dead {
                // The receiver was killed by the fault plan: a typed loss
                // (the wedge will report RankFailed), not a teardown.
                continue;
            }
            reg.deliver(world, to, pkt);
        }
    }
    // 2) Resolve a fully-arrived world barrier: identical charges, clocks
    //    and (rank-ordered) wakes to the one-region inline resolution by
    //    the last arriver.
    {
        let b = lock(&world.barrier);
        if b.arrived == world.p {
            world.resolve_barrier(b, None);
        }
    }
    // 3) A failed region ends the run at the next gate.
    if ctl.failed.load(Ordering::SeqCst) {
        ctl.stop.store(true, Ordering::SeqCst);
        return;
    }
    // 4) Find the next window floor: the earliest pending event anywhere.
    let floor = world
        .regions
        .iter()
        .filter_map(|region| lock(region).ready.peek())
        .reduce(f64::min);
    let Some(floor) = floor else {
        if ctl.live.load(Ordering::SeqCst) > 0 {
            // Structural deadlock: unfinished ranks, none runnable anywhere.
            ctl.fail(world.wedge_error());
        }
        ctl.stop.store(true, Ordering::SeqCst);
        return;
    };
    // 5) The recv-timeout deadline, in virtual time: if the earliest parked
    //    recv's deadline lies before the next event, the world has outrun it
    //    and the message it waits for can no longer make it in time. Checked
    //    here and nowhere else, so a deadline passed mid-window is reported
    //    at the boundary that follows it, at every region count alike. A
    //    frozen clock can never outrun a deadline; the livelock guard fires
    //    the earliest pending one instead.
    let frozen = ctl.frozen.swap(false, Ordering::SeqCst);
    // Regions are in rank order, so keeping the first of equal deadlines
    // keeps the lowest rank.
    let deadline = world
        .regions
        .iter()
        .filter_map(|region| lock(region).earliest_deadline(world.timeout_s, floor, frozen))
        .reduce(|first, d| if d.0 < first.0 { d } else { first });
    if let Some((at, rank, on)) = deadline {
        if at < floor || frozen {
            ctl.fail(world.fault_error().unwrap_or(ExecError::DeadlockSuspected { rank, on }));
            ctl.stop.store(true, Ordering::SeqCst);
            return;
        }
    }
    // 6) Open the next window.
    ctl.bound.store(world.window_bound(floor).to_bits(), Ordering::SeqCst);
}

/// Run the world to completion on `regions` scheduler threads (the calling
/// thread included, so a one-region world spawns nothing) — the one driver
/// behind [`ExecBackend::Event`](crate::exec::ExecBackend::Event). The
/// caller ([`crate::exec::run_spmd_with`]) passes more than one region only
/// where sharding is bitwise-invisible (flat topology, α > 0), and the
/// world's counters and arena, which the rank handles write and lease from.
/// Returns the rank-ordered results and a snapshot of the counters with
/// each rank's virtual time filled in from its slab.
pub(crate) fn run_event_world<R, F, Fut>(
    spec: &MachineSpec,
    regions: usize,
    shared: (&Arc<StatsBoard>, &Arc<BufferPool>),
    f: F,
) -> Result<(Vec<R>, Vec<RankStats>), ExecError>
where
    R: Send,
    F: Fn(RankComm) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    let p = spec.p;
    let world = Arc::new(EventWorld::new(spec, regions));
    for region in &world.regions {
        let mut reg = lock(region);
        for r in reg.base..reg.base + reg.slabs.len() {
            reg.ready.push(r, 0.0);
        }
    }
    let n_regions = world.regions.len();
    let ctl = Control {
        bound: AtomicU64::new(world.window_bound(0.0).to_bits()),
        live: AtomicUsize::new(p),
        failed: AtomicBool::new(false),
        frozen: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        error: Mutex::new(None),
        panic: Mutex::new(None),
        gate: std::sync::Barrier::new(n_regions),
    };
    let region_results: Vec<Vec<Option<R>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..n_regions)
            .map(|w| {
                let (world, ctl, f) = (&world, &ctl, &f);
                s.spawn(move || worker(world, ctl, w, shared, f))
            })
            .collect();
        let mut all = vec![worker(&world, &ctl, 0, shared, &f)];
        all.extend(handles.into_iter().map(|h| h.join().expect("workers catch rank panics")));
        all
    });
    if let Some(payload) = lock(&ctl.panic).take() {
        std::panic::resume_unwind(payload);
    }
    if let Some(e) = lock(&ctl.error).take() {
        return Err(e);
    }
    // Every surviving rank finished, but a run with casualties has no
    // complete result set: report the earliest scheduled death.
    if let Some(e) = world.fault_error() {
        return Err(e);
    }
    // Every rank finished: a message still in a mailbox was never received.
    if let Some(rank) = world
        .regions
        .iter()
        .filter_map(|region| lock(region).lowest_unreceived_sender())
        .min()
    {
        return Err(ExecError::WorldTornDown { rank });
    }
    let mut results = Vec::with_capacity(p);
    results.extend(
        region_results
            .into_iter()
            .flatten()
            .map(|slot| slot.expect("missing rank result")),
    );
    let mut stats = shared.0.snapshot();
    for region in &world.regions {
        let reg = lock(region);
        for (st, slab) in stats[reg.base..].iter_mut().zip(&reg.slabs) {
            st.time = TimeBreakdown {
                compute_s: slab.compute_s,
                exposed_comm_s: slab.exposed_s,
                total_comm_s: slab.exposed_s + slab.hidden_s,
            };
        }
    }
    Ok((results, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::exec::{run_spmd_with, ExecBackend};
    use crate::stats::Phase;

    #[test]
    fn results_are_rank_ordered() {
        let spec = MachineSpec::test_machine(8, 1000);
        let out = run_spmd_with(&spec, ExecBackend::event(), |c| async move { c.rank() * 10 }).unwrap();
        assert_eq!(out.results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(out.stats.len(), 8);
    }

    #[test]
    fn send_recv_parks_and_resumes() {
        let spec = MachineSpec::test_machine(4, 1000);
        let out = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            // Everyone receives from the left neighbour *before* sending to
            // the right one would be a deadlock; recv-after-send is the
            // buffered pattern.
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.send(right, 7, vec![c.rank() as f64], Phase::Other);
            c.recv(left, 7, Phase::Other).await[0] as usize
        })
        .unwrap();
        assert_eq!(out.results, vec![3, 0, 1, 2]);
        for st in &out.stats {
            assert_eq!(st.total_sent(), 1);
            assert_eq!(st.total_recv(), 1);
        }
    }

    #[test]
    fn recv_before_send_resumes_on_delivery() {
        // Rank 1 parks on recv first (rank 0 runs second in queue order on
        // this pattern), exercising the wait-then-wake path.
        let spec = MachineSpec::test_machine(2, 1000);
        let out = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            if c.rank() == 1 {
                c.recv(0, 3, Phase::Other).await
            } else {
                c.send(1, 3, vec![42.0], Phase::Other);
                vec![]
            }
        })
        .unwrap();
        assert_eq!(out.results[1], vec![42.0]);
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        let spec = MachineSpec::test_machine(6, 1000);
        let out = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            c.barrier().await;
            c.barrier().await;
            c.rank()
        })
        .unwrap();
        assert_eq!(out.results.len(), 6);
    }

    #[test]
    fn tag_matching_receives_out_of_send_order() {
        let spec = MachineSpec::test_machine(2, 1000);
        let out = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            if c.rank() == 0 {
                c.send(1, 1, vec![1.0], Phase::Other);
                c.send(1, 2, vec![2.0], Phase::Other);
                (vec![], vec![])
            } else {
                let two = c.recv(0, 2, Phase::Other).await;
                let one = c.recv(0, 1, Phase::Other).await;
                (two, one)
            }
        })
        .unwrap();
        assert_eq!(out.results[1], (vec![2.0], vec![1.0]));
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        let spec = MachineSpec::test_machine(2, 1000);
        let err = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            // Nobody ever sends: both ranks park forever.
            c.recv((c.rank() + 1) % 2, 9, Phase::Other).await
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::DeadlockSuspected {
                rank: 0,
                on: Waiting::Message { from: 1, tag: 9 }
            }
        );
    }

    #[test]
    fn send_to_exited_rank_is_typed_world_torn_down() {
        // Rank 0 (polled first) exits immediately; rank 1 then sends to it.
        // The message is never received: a typed teardown naming its sender.
        let spec = MachineSpec::test_machine(2, 1000);
        let err = run_spmd_with(&spec, ExecBackend::event(), |c| async move {
            if c.rank() == 1 {
                c.send(0, 3, vec![1.0], Phase::Other);
            }
        })
        .unwrap_err();
        assert_eq!(err, ExecError::WorldTornDown { rank: 1 });
    }

    #[test]
    fn foreign_future_deadlock_reports_unknown_wait() {
        // A rank body that awaits a non-RankComm future: the scheduler can
        // never re-wake it, and the typed report says so instead of
        // inventing a barrier.
        let spec = MachineSpec::test_machine(2, 1000);
        let err = run_spmd_with(&spec, ExecBackend::event(), |c| async move {
            if c.rank() == 1 {
                std::future::pending::<()>().await;
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::DeadlockSuspected {
                rank: 1,
                on: Waiting::Unknown
            }
        );
        assert!(err.to_string().contains("outside the communicator"), "{err}");
    }

    #[test]
    fn scheduler_trace_is_fifo_on_equal_timestamps() {
        // Ranks 1..=3 park on a recv from rank 0, which then sends them three
        // identical messages in the order 3, 1, 2: three wakes at one virtual
        // time, resumed in wake order, not rank order. Every resume logs
        // `(rank, step)`.
        let spec = MachineSpec::test_machine(4, 1000);
        let log = Mutex::new(Vec::new());
        run_spmd_with(&spec, ExecBackend::event(), |mut c| {
            let log = &log;
            async move {
                let rank = c.rank();
                log.lock().unwrap().push((rank, 0));
                if rank == 0 {
                    // Parked until rank 3, the last first poll, has run.
                    c.recv(3, 0, Phase::Other).await;
                    for to in [3, 1, 2] {
                        c.send(to, 1, vec![1.0], Phase::Other);
                    }
                } else {
                    if rank == 3 {
                        c.send(0, 0, vec![], Phase::Other);
                    }
                    c.recv(0, 1, Phase::Other).await;
                }
                log.lock().unwrap().push((rank, 1));
            }
        })
        .unwrap();
        let first_polls = [(0, 0), (1, 0), (2, 0), (3, 0)];
        let wakes = [(0, 1), (3, 1), (1, 1), (2, 1)];
        assert_eq!(*log.lock().unwrap(), [first_polls, wakes].concat(), "equal timestamps keep FIFO order");
    }

    #[test]
    fn scheduler_trace_wakes_a_barrier_in_rank_order() {
        // Four ranks meet at a barrier. Rank 3 arrives last, resolves it and
        // runs on; the three parked ranks wake at one virtual time and resume
        // in rank order, the order the ranks of every later step are polled
        // in. Every resume logs `(rank, step)`.
        let spec = MachineSpec::test_machine(4, 1000);
        let log = Mutex::new(Vec::new());
        run_spmd_with(&spec, ExecBackend::event(), |mut c| {
            let log = &log;
            async move {
                log.lock().unwrap().push((c.rank(), 0));
                c.barrier().await;
                log.lock().unwrap().push((c.rank(), 1));
            }
        })
        .unwrap();
        let first_polls = [(0, 0), (1, 0), (2, 0), (3, 0)];
        let wakes = [(3, 1), (0, 1), (1, 1), (2, 1)];
        assert_eq!(*log.lock().unwrap(), [first_polls, wakes].concat(), "a barrier wakes in rank order");
    }

    /// A unit cost model for hand-checkable virtual-clock arithmetic:
    /// compute = flops seconds, transfer = words seconds, α = 0.
    fn unit_spec(p: usize) -> MachineSpec {
        MachineSpec::new(
            p,
            1000,
            CostModel {
                peak_flops: 1.0,
                kernel_efficiency: 1.0,
                alpha_s: 0.0,
                beta_s_per_word: 1.0,
            },
        )
    }

    #[test]
    fn virtual_clock_hides_transfer_behind_compute_with_overlap() {
        // Rank 0 sends 4 words at t = 0 (arrival 4), then rank 1 computes 10
        // flops (clock 10) and receives: the transfer is fully hidden.
        let out = run_spmd_with(&unit_spec(2), ExecBackend::event(), |mut c| async move {
            if c.rank() == 0 {
                c.send(1, 1, vec![0.0; 4], Phase::Other);
            } else {
                c.record_flops(10);
                c.recv(0, 1, Phase::Other).await;
            }
        })
        .unwrap();
        let t = out.stats[1].time;
        assert_eq!(t.compute_s, 10.0);
        assert_eq!(t.exposed_comm_s, 0.0, "arrival 4 < clock 10: fully hidden");
        assert_eq!(t.total_comm_s, 4.0);
        assert_eq!(t.total_s(), 10.0);
    }

    #[test]
    fn virtual_clock_exposes_transfer_without_overlap() {
        // Same exchange, overlap off: the 4-word transfer is fully exposed
        // after the compute.
        let out =
            run_spmd_with(&unit_spec(2).with_overlap(false), ExecBackend::event(), |mut c| async move {
                if c.rank() == 0 {
                    c.send(1, 1, vec![0.0; 4], Phase::Other);
                } else {
                    c.record_flops(10);
                    c.recv(0, 1, Phase::Other).await;
                }
            })
            .unwrap();
        let t = out.stats[1].time;
        assert_eq!(t.compute_s, 10.0);
        assert_eq!(t.exposed_comm_s, 4.0);
        assert_eq!(t.total_comm_s, 4.0);
        assert_eq!(t.total_s(), 14.0);
    }

    #[test]
    fn recv_waits_for_late_sender() {
        // Rank 0 computes 7 s before sending 2 words; rank 1 posts recv at
        // t = 0 and stalls until arrival 9 (overlap) — all exposed.
        let out = run_spmd_with(&unit_spec(2), ExecBackend::event(), |mut c| async move {
            if c.rank() == 0 {
                c.record_flops(7);
                c.send(1, 1, vec![0.0; 2], Phase::Other);
            } else {
                c.recv(0, 1, Phase::Other).await;
            }
        })
        .unwrap();
        let t = out.stats[1].time;
        assert_eq!(t.exposed_comm_s, 9.0);
        assert_eq!(t.total_s(), 9.0);
    }

    #[test]
    fn incoming_link_serializes_transfers() {
        // Two senders, 3 words each, both send at t = 0: the receiver's link
        // serializes them (arrivals 3 and 6), so the second recv completes
        // at 6 even though both transfers were posted at 0.
        let out = run_spmd_with(&unit_spec(3), ExecBackend::event(), |mut c| async move {
            match c.rank() {
                0 | 1 => c.send(2, 1, vec![0.0; 3], Phase::Other),
                _ => {
                    c.recv(0, 1, Phase::Other).await;
                    c.recv(1, 1, Phase::Other).await;
                }
            }
        })
        .unwrap();
        let t = out.stats[2].time;
        assert_eq!(t.total_comm_s, 6.0);
        assert_eq!(t.total_s(), 6.0);
    }

    #[test]
    fn barrier_resolves_at_max_arrival_time() {
        // Ranks compute rank * 2 seconds before the barrier: everyone leaves
        // at the slowest rank's clock (6.0), the waits exposed.
        let out = run_spmd_with(&unit_spec(4), ExecBackend::event(), |mut c| async move {
            c.record_flops(c.rank() as u64 * 2);
            c.barrier().await;
        })
        .unwrap();
        for (r, st) in out.stats.iter().enumerate() {
            assert_eq!(st.time.total_s(), 6.0, "rank {r} must leave the barrier at t = 6");
            assert_eq!(st.time.compute_s, r as f64 * 2.0);
            assert_eq!(st.time.exposed_comm_s, 6.0 - r as f64 * 2.0);
        }
    }

    #[test]
    fn virtual_time_accumulates_in_the_slabs() {
        // Four ranks compute 1, 2, 3 and 4 µs on the test machine, shift
        // 1000 words one step right around a ring (2 µs on the wire) and
        // meet at a barrier. Rank 0's message comes from the slowest rank and
        // stalls it 5 µs; each other rank waits 1 µs of its message's 2, the
        // rest hidden behind its compute. All leave the barrier at rank 0's
        // clock.
        let spec = MachineSpec::test_machine(4, 1000);
        let (m, words) = (spec.cost, 1000);
        let flops = |r: usize| 1000 * (r as u64 + 1);
        let body = |mut c: RankComm| async move {
            let (right, left) = ((c.rank() + 1) % 4, (c.rank() + 3) % 4);
            c.record_flops(flops(c.rank()));
            c.sendrecv(right, left, 0, vec![0.0; words as usize], Phase::Other).await;
            c.barrier().await;
        };
        // The closed forms: the clock after compute, the recv completion on
        // an idle injection wire, and the barrier's max.
        let wire = m.comm_time(words, 1);
        let computed = |r: usize| m.compute_time(flops(r));
        let received = |r: usize| computed(r).max(computed((r + 3) % 4) + wire);
        let leave = (0..4).map(received).fold(0.0, f64::max);
        let one = run_spmd_with(&spec, ExecBackend::event(), body).unwrap();
        let two = run_spmd_with(&spec, ExecBackend::Event { threads: 2 }, body).unwrap();
        for (r, st) in one.stats.iter().enumerate() {
            let stall = received(r) - computed(r);
            let exposed = stall + (leave - received(r));
            let want = TimeBreakdown {
                compute_s: computed(r),
                exposed_comm_s: exposed,
                total_comm_s: exposed + (wire - stall).max(0.0),
            };
            assert_eq!(st.time, want, "rank {r}");
        }
        assert_eq!(one.stats[0].time.total_comm_s, one.stats[0].time.exposed_comm_s, "nothing hidden");
        assert!(one.stats[1].time.total_comm_s > one.stats[1].time.exposed_comm_s, "half hidden");
        assert_eq!(one.stats, two.stats, "bitwise equal on one and two scheduler threads");
    }

    #[test]
    fn timed_runs_are_deterministic() {
        let spec = MachineSpec::test_machine(16, 1000);
        let body = |mut c: RankComm| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.sendrecv(right, left, 1, vec![1.0; c.rank() + 1], Phase::Other).await;
            c.barrier().await;
            c.rank()
        };
        let a = run_spmd_with(&spec, ExecBackend::event(), body).unwrap();
        let b = run_spmd_with(&spec, ExecBackend::event(), body).unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.stats, b.stats, "virtual times must be bit-identical across runs");
        assert!(a.stats.iter().any(|s| s.time.total_s() > 0.0), "the clock must move");
    }

    #[test]
    fn hundred_thousand_ranks_in_bytes_per_rank() {
        // The headline capability: a world far beyond what per-rank carrier
        // threads could hold, with a real message per rank.
        let p = 100_000;
        let spec = MachineSpec::test_machine(p, 10);
        let out = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.sendrecv(right, left, 1, vec![c.rank() as f64], Phase::Other).await[0] as usize
        })
        .unwrap();
        for (r, &got) in out.results.iter().enumerate() {
            assert_eq!(got, (r + p - 1) % p);
        }
    }

    #[test]
    fn explicit_flat_topology_is_bitwise_identical_to_default() {
        use crate::machine::{Placement, Topology};
        let body = |mut c: RankComm| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.record_flops(c.rank() as u64);
            c.sendrecv(right, left, 1, vec![1.0; 5], Phase::Other).await;
            c.barrier().await;
        };
        let base = run_spmd_with(&unit_spec(8), ExecBackend::event(), body).unwrap();
        let flat = run_spmd_with(
            &unit_spec(8).with_topology(Topology::Flat).with_placement(Placement::RoundRobin),
            ExecBackend::event(),
            body,
        )
        .unwrap();
        assert_eq!(base.stats, flat.stats, "flat topology must not perturb the clock");
    }

    #[test]
    fn nic_contention_serializes_cross_node_transfers() {
        use crate::machine::Topology;
        // Two nodes of two ranks under one leaf switch. Ranks 0 and 1 (node
        // 0) each send 3 words to ranks 2 and 3 (node 1) at t = 0. Flat
        // would deliver both at 3 (distinct receivers); the shared node links
        // store-and-forward:
        //   0→2: up [0,3], down [3,6], injection [6,9]   → rank 2 done at 9
        //   1→3: up [3,6], down [6,9], injection [9,12]  → rank 3 done at 12
        let topo = Topology::FatTree {
            ranks_per_node: 2,
            nodes_per_switch: usize::MAX,
            nic_factor: 1.0,
            up_factor: 1.0,
        };
        let out =
            run_spmd_with(&unit_spec(4).with_topology(topo), ExecBackend::event(), |mut c| async move {
                match c.rank() {
                    0 => c.send(2, 1, vec![0.0; 3], Phase::Other),
                    1 => c.send(3, 1, vec![0.0; 3], Phase::Other),
                    r => {
                        c.recv(r - 2, 1, Phase::Other).await;
                    }
                }
            })
            .unwrap();
        assert_eq!(out.stats[2].time.total_s(), 9.0);
        assert_eq!(out.stats[3].time.total_s(), 12.0);
        // Word counters are untouched by the topology.
        assert_eq!(out.stats[2].total_recv(), 3);
        assert_eq!(out.stats[3].total_recv(), 3);
    }

    #[test]
    fn intra_node_transfers_skip_the_nic() {
        use crate::machine::Topology;
        // Same exchange but both pairs placed on one node each (block
        // placement puts {0,1} and {2,3} together): rank 0 → 1 stays on-node
        // and costs exactly the flat wire time.
        let topo = Topology::FatTree {
            ranks_per_node: 2,
            nodes_per_switch: usize::MAX,
            nic_factor: 1.0,
            up_factor: 1.0,
        };
        let out =
            run_spmd_with(&unit_spec(4).with_topology(topo), ExecBackend::event(), |mut c| async move {
                match c.rank() {
                    0 => c.send(1, 1, vec![0.0; 3], Phase::Other),
                    1 => {
                        c.recv(0, 1, Phase::Other).await;
                    }
                    _ => {}
                }
            })
            .unwrap();
        assert_eq!(out.stats[1].time.total_s(), 3.0, "on-node transfer is one injection hop");
    }

    /// `rank`'s mailbox as `(from, tag, words)` in arrival order, read off the
    /// chain — which must end at the cell the mailbox calls its tail.
    fn mailbox_of(reg: &RegionState, rank: usize) -> Vec<(usize, u64, usize)> {
        let Mailbox { head, tail } = reg.slab(rank).mailbox;
        let (mut out, mut last, mut at) = (Vec::new(), NIL, head);
        while at != NIL {
            let slot = &reg.packets[at as usize];
            let pkt = slot.pkt.as_ref().expect("a chained cell holds a packet");
            out.push((pkt.from, pkt.tag, pkt.data.len()));
            (last, at) = (at, slot.next);
        }
        assert_eq!(last, tail, "rank {rank}: the chain ends at the tail");
        out
    }

    /// A `words`-word packet on the unit cost model (wire time = words).
    fn unit_packet(from: usize, tag: u64, words: usize) -> Packet {
        Packet {
            from,
            tag,
            data: vec![0.0; words],
            sent_at: 0.0,
            transfer_s: words as f64,
        }
    }

    #[test]
    fn take_match_is_first_per_sender_and_tag_in_arrival_order() {
        let world = EventWorld::new(&unit_spec(3), 1);
        let mut reg = world.lock_region(0);
        // Rank 2's mailbox, in arrival order; the word count names the packet.
        for (from, tag, words) in [(0, 1, 1), (1, 1, 2), (0, 2, 3), (0, 1, 4)] {
            reg.push(2, unit_packet(from, tag, words));
        }
        let left = |reg: &RegionState| mailbox_of(reg, 2).iter().map(|m| m.2).collect::<Vec<_>>();
        assert_eq!(reg.take_match(2, 0, 1).unwrap().data.len(), 1, "the earlier of the two (0, 1) packets");
        assert_eq!(left(&reg), [2, 3, 4], "the rest keeps its order");
        assert!(reg.take_match(2, 1, 2).is_none(), "sender and tag must both match");
        assert_eq!(reg.take_match(2, 0, 1).unwrap().data.len(), 4);
        assert_eq!(left(&reg), [2, 3]);
    }

    #[test]
    fn mailbox_chains_agree_with_a_vec_model() {
        use crate::fault::splitmix64;
        for seed in 0..256u64 {
            let mut state = splitmix64(seed);
            let mut draw = |n: usize| {
                state = splitmix64(state);
                (state % n as u64) as usize
            };
            let ranks = 3 + draw(3);
            let world = EventWorld::new(&unit_spec(ranks), 1);
            let mut reg = world.lock_region(0);
            // The model: per rank, `(from, tag, words)` in arrival order. The
            // word count is the packet's serial number, so it names it.
            let mut model: Vec<Vec<(usize, u64, usize)>> = vec![Vec::new(); ranks];
            let (mut serial, mut in_flight, mut high_water) = (0, 0usize, 0usize);
            for step in 0..200 {
                let what = format!("seed {seed} step {step}");
                let rank = draw(ranks);
                match draw(8) {
                    0..=3 => {
                        let (from, tag) = (draw(ranks), draw(3) as u64);
                        serial += 1;
                        reg.deliver(&world, rank, unit_packet(from, tag, serial));
                        model[rank].push((from, tag, serial));
                        in_flight += 1;
                        high_water = high_water.max(in_flight);
                    }
                    4..=6 => {
                        // Mostly a key some buffered packet has, else any key.
                        let (from, tag) = match model[rank].len() {
                            n if n > 0 && draw(4) > 0 => {
                                let (from, tag, _) = model[rank][draw(n)];
                                (from, tag)
                            }
                            _ => (draw(ranks), draw(3) as u64),
                        };
                        let want = model[rank]
                            .iter()
                            .position(|m| (m.0, m.1) == (from, tag))
                            .map(|i| model[rank].remove(i));
                        let got = reg.take_match(rank, from, tag).map(|m| (m.from, m.tag, m.data.len()));
                        assert_eq!(got, want, "{what}: take_match({rank}, {from}, {tag})");
                        in_flight -= usize::from(want.is_some());
                    }
                    _ => {
                        reg.clear_mailbox(rank);
                        in_flight -= model[rank].len();
                        model[rank].clear();
                    }
                }
                for (r, want) in model.iter().enumerate() {
                    assert!(mailbox_of(&reg, r).iter().eq(want), "{what}: rank {r}'s mailbox");
                }
                // Never above the high-water, and not below it either: the
                // arena only grows when no freed cell is left to reuse.
                assert_eq!(reg.packets.len(), high_water, "{what}: arena length");
            }
        }
    }

    #[test]
    fn ready_queue_pops_in_the_old_heap_order() {
        use crate::fault::splitmix64;
        use std::cmp::Ordering as Order;
        use std::collections::BinaryHeap;
        // The rule the queue replaced: a min-heap by `(time, admission)`,
        // times compared by `partial_cmp`, so -0.0 ties 0.0.
        #[derive(PartialEq)]
        struct Entry(f64, u64, usize);
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Order {
                other.0.partial_cmp(&self.0).unwrap().then(other.1.cmp(&self.1))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Order> {
                Some(self.cmp(other))
            }
        }
        let times = [0.0, -0.0, -1.5, -0.25, 2.0, f64::NEG_INFINITY, f64::INFINITY];
        for seed in 0..256u64 {
            let mut state = splitmix64(seed);
            let mut draw = |n: usize| {
                state = splitmix64(state);
                (state % n as u64) as usize
            };
            let (mut queue, mut model, mut seq) = (ReadyQueue::default(), BinaryHeap::new(), 0);
            for step in 0..300 {
                let what = format!("seed {seed} step {step}");
                if draw(5) < 3 {
                    let (rank, at) = (draw(64), times[draw(times.len())]);
                    queue.push(rank, at);
                    model.push(Entry(at, seq, rank));
                    seq += 1;
                } else {
                    let want = model.pop().map(|e| (e.0, e.2));
                    assert_eq!(queue.peek().zip(queue.pop()), want, "{what}: pop");
                }
                assert_eq!(queue.peek(), model.peek().map(|e| e.0), "{what}: peek");
            }
            while let Some(Entry(at, _, rank)) = model.pop() {
                assert_eq!(queue.peek().zip(queue.pop()), Some((at, rank)), "seed {seed}: drain");
            }
            assert_eq!((queue.peek(), queue.pop()), (None, None), "seed {seed}: drained");
        }
    }

    #[test]
    #[should_panic(expected = "NaN virtual time")]
    fn ready_queue_refuses_a_nan_time() {
        let mut queue = ReadyQueue::default();
        queue.push(0, 1.0);
        queue.push(1, f64::NAN);
    }

    #[test]
    fn recv_completion_commits_the_route_completion_time_prices() {
        use crate::machine::Topology;
        // Two nodes of two ranks (p = 4) under one leaf switch: NIC links are
        // ids 4..8, the switch's up/down links 8 and 9, stored at
        // shared_links[id - 4]. 0→2 crosses node 0's up link (4), node 1's
        // down link (7) and rank 2's injection wire, 3 s each from t = 0.
        let world = EventWorld::new(
            &unit_spec(4).with_topology(Topology::FatTree {
                ranks_per_node: 2,
                nodes_per_switch: usize::MAX,
                nic_factor: 1.0,
                up_factor: 1.0,
            }),
            1,
        );
        let mut reg = world.lock_region(0);
        let first = unit_packet(0, 1, 3);
        assert_eq!(reg.completion_time(&world, 2, &first), 9.0);
        assert_eq!(reg.shared_links, [0.0; 6], "pricing a wake commits nothing");
        assert_eq!(reg.slab(2).link_free, 0.0);
        assert_eq!(reg.recv_completion(&world, 2, &first), 9.0);
        assert_eq!(reg.shared_links, [3.0, 0.0, 0.0, 6.0, 0.0, 0.0]);
        assert_eq!(reg.slab(2).link_free, 9.0);
        // 1→3 shares both NIC links and nothing else: it queues behind the
        // first transfer's 3 s on node 0's up link and is 3 s late end to end.
        let second = unit_packet(1, 1, 3);
        assert_eq!(reg.completion_time(&world, 3, &second), 9.0 + 3.0);
        assert_eq!(reg.recv_completion(&world, 3, &second), 12.0);
        assert_eq!(reg.shared_links, [6.0, 0.0, 0.0, 9.0, 0.0, 0.0]);
        assert_eq!(reg.slab(3).link_free, 12.0);
    }

    /// Polls two futures from one `poll` — the concurrency a rank body must
    /// not apply to its own communicator's wait-states.
    struct Both<A, B>(A, B);

    impl<A: Future + Unpin, B: Future + Unpin> Future for Both<A, B> {
        type Output = ();

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let a = Pin::new(&mut self.0).poll(cx).is_ready();
            let b = Pin::new(&mut self.1).poll(cx).is_ready();
            if a && b {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        }
    }

    #[test]
    fn second_outstanding_wait_state_is_refused_loudly() {
        let spec = MachineSpec::test_machine(2, 1000);
        for backend in [ExecBackend::event(), ExecBackend::Event { threads: 2 }] {
            let run = || {
                run_spmd_with(&spec, backend, |c| async move {
                    let ec = &c.event;
                    if c.rank == 0 {
                        Both(ec.recv(0, 1, 1), ec.recv(0, 1, 2)).await;
                    }
                })
            };
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("two parked recvs of one rank must panic");
            let msg = payload.downcast_ref::<String>().expect("assert! message");
            assert!(msg.contains("one outstanding wait-state"), "{backend:?}: {msg}");
        }
    }

    #[test]
    fn recv_timeout_fires_as_virtual_deadline() {
        // Rank 0 parks on a recv that rank 1 satisfies at t ≈ 7; rank 2
        // parks on a recv nobody ever sends. With a 1-virtual-second
        // timeout, popping the t = 7 wake trips rank 2's deadline — the
        // deadline path, not the empty-queue structural path.
        let spec = unit_spec(3).with_recv_timeout(std::time::Duration::from_secs(1));
        let err = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            match c.rank() {
                0 => {
                    c.recv(1, 1, Phase::Other).await;
                }
                1 => {
                    c.record_flops(5);
                    c.send(0, 1, vec![0.0; 2], Phase::Other);
                }
                _ => {
                    c.recv(0, 9, Phase::Other).await;
                }
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::DeadlockSuspected {
                rank: 2,
                on: Waiting::Message { from: 0, tag: 9 }
            }
        );
    }

    #[test]
    fn recv_deadline_stops_a_world_that_keeps_advancing() {
        // Rank 0 parks on a recv nobody sends; ranks 1 and 2 ping-pong a
        // thousand rounds of 1.5 virtual seconds each. With a 1-second
        // timeout the deadline must end the run long before the rounds do:
        // the structural check alone would report the same error, but only
        // after the last round.
        use std::sync::atomic::AtomicUsize;
        const ROUNDS: usize = 1000;
        let cost = CostModel {
            alpha_s: 0.5,
            ..unit_spec(3).cost
        };
        let spec = MachineSpec::new(3, 1000, cost).with_recv_timeout(std::time::Duration::from_secs(1));
        for threads in 1..=3 {
            let rounds = AtomicUsize::new(0);
            let err = run_spmd_with(&spec, ExecBackend::Event { threads }, |mut c| {
                let rounds = &rounds;
                async move {
                    match c.rank() {
                        0 => {
                            c.recv(1, 9, Phase::Other).await;
                        }
                        1 => {
                            for _ in 0..ROUNDS {
                                c.sendrecv(2, 2, 1, vec![0.0], Phase::Other).await;
                                rounds.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        _ => {
                            for _ in 0..ROUNDS {
                                let got = c.recv(1, 1, Phase::Other).await;
                                c.send(1, 1, got, Phase::Other);
                            }
                        }
                    }
                }
            })
            .unwrap_err();
            assert!(matches!(err, ExecError::DeadlockSuspected { rank: 0, .. }), "{threads} threads: {err}");
            let rounds = rounds.load(Ordering::Relaxed);
            assert!(rounds < ROUNDS, "{threads} threads: {rounds} rounds ran past the deadline");
        }
    }

    #[test]
    fn recv_deadline_is_the_same_typed_error_at_every_thread_count() {
        // The world above on a flat machine with α = 0.5 s, so two and three
        // threads shard it: rank 1's message wakes rank 0 at t = 7.5, long
        // past the deadline (t = 1) of rank 2's orphan recv, and the first
        // window boundary reports it — whichever region rank 2 lives in.
        let cost = CostModel {
            alpha_s: 0.5,
            ..unit_spec(3).cost
        };
        let spec = MachineSpec::new(3, 1000, cost).with_recv_timeout(std::time::Duration::from_secs(1));
        for threads in 1..=3 {
            let err = run_spmd_with(&spec, ExecBackend::Event { threads }, |mut c| async move {
                match c.rank() {
                    0 => {
                        c.recv(1, 1, Phase::Other).await;
                    }
                    1 => {
                        c.record_flops(5);
                        c.send(0, 1, vec![0.0; 2], Phase::Other);
                    }
                    _ => {
                        c.recv(0, 9, Phase::Other).await;
                    }
                }
            })
            .unwrap_err();
            assert_eq!(
                err,
                ExecError::DeadlockSuspected {
                    rank: 2,
                    on: Waiting::Message { from: 0, tag: 9 }
                },
                "{threads} threads"
            );
        }
    }

    #[test]
    fn recv_deadline_passed_mid_window_is_judged_at_the_boundary() {
        // α = 8, a 10-second timeout. Rank 0 parks at t = 0 (deadline 10) on
        // a message that rank 1 only posts when it wakes at t = 11. Rank 2's
        // wake at t = 9 opens the window [9, 17): the deadline passes inside
        // it, the message is posted inside it, and the boundary that follows
        // finds rank 0 woken — the world completes, at every thread count.
        // (A per-poll check would report rank 0 on popping the t = 11 wake.)
        let cost = CostModel {
            alpha_s: 8.0,
            ..unit_spec(4).cost
        };
        let spec = MachineSpec::new(4, 1000, cost).with_recv_timeout(std::time::Duration::from_secs(10));
        for threads in 1..=4 {
            let out = run_spmd_with(&spec, ExecBackend::Event { threads }, |mut c| async move {
                match c.rank() {
                    0 => {
                        c.recv(1, 1, Phase::Other).await;
                    }
                    1 => {
                        c.recv(3, 0, Phase::Other).await;
                        c.send(0, 1, vec![], Phase::Other);
                    }
                    2 => {
                        c.recv(3, 0, Phase::Other).await;
                    }
                    _ => {
                        c.record_flops(1);
                        c.send(2, 0, vec![], Phase::Other);
                        c.record_flops(2);
                        c.send(1, 0, vec![], Phase::Other);
                    }
                }
            })
            .unwrap_or_else(|e| panic!("{threads} threads: {e}"));
            assert_eq!(out.stats[0].time.total_s(), 19.0, "{threads} threads");
        }
    }

    #[test]
    fn stale_deadline_bound_costs_one_look_and_fires_nothing() {
        let on = Waiting::Message { from: 0, tag: 9 };
        let spec = unit_spec(3).with_recv_timeout(std::time::Duration::from_secs(1));
        {
            // Rank 1 parked at t = 4 (due at 5) under a bound an earlier,
            // long-woken park left at 1.
            let world = EventWorld::new(&spec, 1);
            let mut reg = world.lock_region(0);
            *reg.slab_mut(1) = RankSlab {
                wait: Wait::Recv { from: 0, tag: 9 },
                clock: 4.0,
                ..RankSlab::default()
            };
            reg.deadline_lb = 1.0;
            assert_eq!(
                reg.earliest_deadline(1.0, 3.0, false),
                Some((5.0, 1, on)),
                "floor past the bound: look"
            );
            assert_eq!(reg.deadline_lb, 5.0, "the look stores the exact earliest deadline");
            assert_eq!(reg.earliest_deadline(1.0, 5.0, false), None, "floor not past the bound: no look");
            assert_eq!(reg.earliest_deadline(1.0, 5.0, true), Some((5.0, 1, on)), "the livelock guard looks");
            reg.slab_mut(1).wait = Wait::None;
            assert_eq!(reg.earliest_deadline(1.0, 6.0, false), None, "nobody parked: nothing due");
            assert_eq!(reg.deadline_lb, f64::INFINITY);
        }
        // The same through the driver: rank 0 parks at t = 0 (bound 1) and is
        // woken at t = 2; rank 1 parks at t = 5 (due at 6). The floor passes
        // the stale bound at t = 2, the look finds only rank 1's deadline,
        // not due, and the world runs to its end at t = 7.
        let out = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            match c.rank() {
                0 => {
                    c.recv(1, 1, Phase::Other).await;
                    c.record_flops(3);
                    c.send(1, 2, vec![0.0; 2], Phase::Other);
                }
                1 => {
                    c.send(0, 1, vec![0.0; 2], Phase::Other);
                    c.record_flops(5);
                    c.recv(0, 2, Phase::Other).await;
                }
                _ => {}
            }
        })
        .unwrap();
        assert_eq!(out.stats[1].time.total_s(), 7.0);
    }

    #[test]
    fn equal_recv_deadlines_report_the_lower_rank_at_every_thread_count() {
        // Ranks 1 and 3 park at t = 0 on messages nobody sends, both due at
        // t = 1; rank 2's message wakes rank 0 at t = 7.5. α = 0.5 shards the
        // world into {0, 1} | {2, 3} and {0} | {1} | {2} | {3}: the tie is
        // inside one region, then across two, then across two of four.
        let cost = CostModel {
            alpha_s: 0.5,
            ..unit_spec(4).cost
        };
        let spec = MachineSpec::new(4, 1000, cost).with_recv_timeout(std::time::Duration::from_secs(1));
        for threads in [1, 2, 4] {
            let err = run_spmd_with(&spec, ExecBackend::Event { threads }, |mut c| async move {
                match c.rank() {
                    0 => {
                        c.recv(2, 1, Phase::Other).await;
                    }
                    2 => {
                        c.record_flops(5);
                        c.send(0, 1, vec![0.0; 2], Phase::Other);
                    }
                    r => {
                        c.recv(r - 1, 9, Phase::Other).await;
                    }
                }
            })
            .unwrap_err();
            assert_eq!(
                err,
                ExecError::DeadlockSuspected {
                    rank: 1,
                    on: Waiting::Message { from: 0, tag: 9 }
                },
                "{threads} threads"
            );
        }
    }

    /// A mixed workload for the sharded-vs-one-region bitwise tests:
    /// rank-dependent compute, a ring exchange, a long-distance exchange
    /// with the antipodal rank (all cross-region on any even region count),
    /// and a closing barrier.
    async fn mixed_body(mut c: RankComm) -> usize {
        let p = c.size();
        let r = c.rank();
        c.record_flops((r as u64 % 7) * 1000);
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        c.sendrecv(right, left, 1, vec![r as f64; 1 + r % 3], Phase::InputA).await;
        let far = (r + p / 2) % p;
        let got = c.sendrecv(far, far, 2, vec![r as f64], Phase::InputB).await;
        c.barrier().await;
        got[0] as usize
    }

    #[test]
    fn shared_link_topologies_keep_their_clock_bits() {
        use crate::machine::Topology;
        // `[compute_s, exposed_comm_s, total_comm_s]` as `f64::to_bits`, per
        // rank, of `mixed_body` at p = 16, recorded at commit f818ed4. Shared
        // links are charged in global consumption order, so these bits hold
        // the sequential driver's poll order as well as the clock arithmetic.
        #[rustfmt::skip]
        const BITS: [[[u64; 3]; 16]; 4] = [
            // node-nic overlap=true
            [
                [0x0000000000000000, 0x3ee2e1fc5649b019, 0x3ee2e1fc5649b019],
                [0x3eb0c6f7a0b5ed8d, 0x3ee0c91d6232f267, 0x3ee2e1fc5649b019],
                [0x3ec0c6f7a0b5ed8d, 0x3edd607cdc38696c, 0x3ee0c91d6232f268],
                [0x3ec92a737110e454, 0x3ed92ebef40aee08, 0x3edd607cdc38696c],
                [0x3ed0c6f7a0b5ed8d, 0x3ed4fd010bdd72a5, 0x3ed4fd010bdd72a5],
                [0x3ed4f8b588e368f1, 0x3ed0cb4323aff741, 0x3ed4fd010bdd72a5],
                [0x3ed92a737110e454, 0x3ec9330a7704f7bc, 0x3ed0cb4323aff742],
                [0x0000000000000000, 0x3ee2e1fc5649b019, 0x3ee2e1fc5649b019],
                [0x3eb0c6f7a0b5ed8d, 0x3ee0c91d6232f268, 0x3ee0c91d6232f268],
                [0x3ec0c6f7a0b5ed8d, 0x3edd607cdc38696c, 0x3ee0c91d6232f268],
                [0x3ec92a737110e454, 0x3ed92ebef40aee08, 0x3edd607cdc38696c],
                [0x3ed0c6f7a0b5ed8d, 0x3ed4fd010bdd72a5, 0x3ed92ebef40aee08],
                [0x3ed4f8b588e368f1, 0x3ed0cb4323aff741, 0x3ed0cb4323aff741],
                [0x3ed92a737110e454, 0x3ec9330a7704f7bc, 0x3ed0cb4323aff741],
                [0x0000000000000000, 0x3ee2e1fc5649b019, 0x3ee2e1fc5649b019],
                [0x3eb0c6f7a0b5ed8d, 0x3ee0c91d6232f267, 0x3ee2e1fc5649b019],
            ],
            // node-nic overlap=false
            [
                [0x0000000000000000, 0x3ee60a3eae77b350, 0x3ee60a3eae77b350],
                [0x3eb0c6f7a0b5ed8d, 0x3ee3f15fba60f59e, 0x3ee3f15fba60f59e],
                [0x3ec0c6f7a0b5ed8d, 0x3ee1d880c64a37ed, 0x3ee1d880c64a37ed],
                [0x3ec92a737110e454, 0x3edf7f43a466f476, 0x3edf7f43a466f476],
                [0x3ed0c6f7a0b5ed8d, 0x3edb4d85bc397913, 0x3edb4d85bc397913],
                [0x3ed4f8b588e368f1, 0x3ed71bc7d40bfdaf, 0x3ed71bc7d40bfdaf],
                [0x3ed92a737110e454, 0x3ed2ea09ebde824c, 0x3ed2ea09ebde824c],
                [0x0000000000000000, 0x3ee60a3eae77b350, 0x3ee60a3eae77b350],
                [0x3eb0c6f7a0b5ed8d, 0x3ee3f15fba60f59e, 0x3ee3f15fba60f59e],
                [0x3ec0c6f7a0b5ed8d, 0x3ee1d880c64a37ed, 0x3ee1d880c64a37ed],
                [0x3ec92a737110e454, 0x3edf7f43a466f476, 0x3edf7f43a466f476],
                [0x3ed0c6f7a0b5ed8d, 0x3edb4d85bc397913, 0x3edb4d85bc397913],
                [0x3ed4f8b588e368f1, 0x3ed71bc7d40bfdaf, 0x3ed71bc7d40bfdaf],
                [0x3ed92a737110e454, 0x3ed2ea09ebde824c, 0x3ed2ea09ebde824c],
                [0x0000000000000000, 0x3ee60a3eae77b350, 0x3ee60a3eae77b350],
                [0x3eb0c6f7a0b5ed8d, 0x3ee3f15fba60f59e, 0x3ee3f15fba60f59e],
            ],
            // fat-tree overlap=true
            [
                [0x0000000000000000, 0x3ee1d548240eb0a5, 0x3ee1d548240eb0a5],
                [0x3eb0c6f7a0b5ed8d, 0x3edf78d25fefe5e7, 0x3ee1d548240eb0a5],
                [0x3ec0c6f7a0b5ed8d, 0x3edb471477c26a83, 0x3edf78d25fefe5e6],
                [0x3ec92a737110e454, 0x3ed715568f94ef20, 0x3edb471477c26a84],
                [0x3ed0c6f7a0b5ed8d, 0x3ed2e398a76773bd, 0x3ed4fbee2b1ef038],
                [0x3ed4f8b588e368f1, 0x3ecd63b57e73f0b2, 0x3ed2e398a76773bd],
                [0x3ed92a737110e454, 0x3ec50039ae18f9ec, 0x3ecd63b57e73f0b3],
                [0x0000000000000000, 0x3ee1d548240eb0a5, 0x3ee1d548240eb0a5],
                [0x3eb0c6f7a0b5ed8d, 0x3edf78d25fefe5e7, 0x3ee0c84f39a41096],
                [0x3ec0c6f7a0b5ed8d, 0x3edb471477c26a84, 0x3edf78d25fefe5e7],
                [0x3ec92a737110e454, 0x3ed715568f94ef20, 0x3edb471477c26a84],
                [0x3ed0c6f7a0b5ed8d, 0x3ed2e398a76773bd, 0x3ed715568f94ef20],
                [0x3ed4f8b588e368f1, 0x3ecd63b57e73f0b2, 0x3ed0c91d6232f268],
                [0x3ed92a737110e454, 0x3ec50039ae18f9ec, 0x3ecd63b57e73f0b2],
                [0x0000000000000000, 0x3ee1d548240eb0a5, 0x3ee1d548240eb0a5],
                [0x3eb0c6f7a0b5ed8d, 0x3edf78d25fefe5e6, 0x3ee1d548240eb0a5],
            ],
            // fat-tree overlap=false
            [
                [0x0000000000000000, 0x3ee2e172e5ea6ee2, 0x3ee2e172e5ea6ee2],
                [0x3eb0c6f7a0b5ed8d, 0x3ee0c893f1d3b132, 0x3ee0c893f1d3b132],
                [0x3ec0c6f7a0b5ed8d, 0x3edd5f69fb79e6ff, 0x3edd5f69fb79e6ff],
                [0x3ec92a737110e454, 0x3ed92dac134c6b9c, 0x3ed92dac134c6b9c],
                [0x3ed0c6f7a0b5ed8d, 0x3ed4fbee2b1ef039, 0x3ed4fbee2b1ef039],
                [0x3ed4f8b588e368f1, 0x3ed0ca3042f174d5, 0x3ed0ca3042f174d5],
                [0x3ed92a737110e454, 0x3ec930e4b587f2e4, 0x3ec930e4b587f2e4],
                [0x0000000000000000, 0x3ee2e172e5ea6ee3, 0x3ee2e172e5ea6ee3],
                [0x3eb0c6f7a0b5ed8d, 0x3ee0c893f1d3b132, 0x3ee0c893f1d3b132],
                [0x3ec0c6f7a0b5ed8d, 0x3edd5f69fb79e700, 0x3edd5f69fb79e700],
                [0x3ec92a737110e454, 0x3ed92dac134c6b9c, 0x3ed92dac134c6b9c],
                [0x3ed0c6f7a0b5ed8d, 0x3ed4fbee2b1ef039, 0x3ed4fbee2b1ef039],
                [0x3ed4f8b588e368f1, 0x3ed0ca3042f174d5, 0x3ed0ca3042f174d5],
                [0x3ed92a737110e454, 0x3ec930e4b587f2e4, 0x3ec930e4b587f2e4],
                [0x0000000000000000, 0x3ee2e172e5ea6ee3, 0x3ee2e172e5ea6ee3],
                [0x3eb0c6f7a0b5ed8d, 0x3ee0c893f1d3b131, 0x3ee0c893f1d3b131],
            ],
        ];
        // "node-nic" is a fat tree whose one leaf switch holds every node:
        // only the NICs are shared.
        let topologies = [
            (
                "node-nic",
                Topology::FatTree {
                    ranks_per_node: 4,
                    nodes_per_switch: usize::MAX,
                    nic_factor: 0.5,
                    up_factor: 0.5,
                },
            ),
            ("fat-tree", Topology::congested_fat_tree()),
        ];
        let mut want = BITS.iter();
        for (name, topo) in topologies {
            for overlap in [true, false] {
                let spec = MachineSpec::test_machine(16, 1000)
                    .with_topology(topo.clone())
                    .with_overlap(overlap);
                let out = run_spmd_with(&spec, ExecBackend::event(), mixed_body).unwrap();
                let want = want.next().expect("one table per world");
                for (r, (st, want)) in out.stats.iter().zip(want).enumerate() {
                    let t = st.time;
                    let got = [t.compute_s, t.exposed_comm_s, t.total_comm_s].map(f64::to_bits);
                    assert_eq!(got, *want, "{name}, overlap {overlap}, rank {r}: {t:?}");
                }
            }
        }
    }

    #[test]
    fn parallel_regions_match_single_thread_bitwise() {
        let spec = MachineSpec::test_machine(64, 1000);
        let seq = run_spmd_with(&spec, ExecBackend::event(), mixed_body).unwrap();
        for threads in [2, 3, 4, 8] {
            let par = run_spmd_with(&spec, ExecBackend::Event { threads }, mixed_body).unwrap();
            assert_eq!(seq.results, par.results, "{threads} threads: results");
            assert_eq!(
                seq.stats, par.stats,
                "{threads} threads: counters and virtual times must be bitwise-identical"
            );
        }
    }

    #[test]
    fn parallel_all_cross_region_traffic_matches_bitwise() {
        // With 2 regions every exchange below crosses the region boundary:
        // the inbox-drain path carries the whole workload.
        let spec = MachineSpec::test_machine(32, 1000);
        let body = |mut c: RankComm| async move {
            let p = c.size();
            let partner = (c.rank() + p / 2) % p;
            c.record_flops(c.rank() as u64 * 100);
            let got = c.sendrecv(partner, partner, 5, vec![c.rank() as f64; 4], Phase::Other).await;
            c.barrier().await;
            got[0] as usize
        };
        let seq = run_spmd_with(&spec, ExecBackend::event(), body).unwrap();
        let par = run_spmd_with(&spec, ExecBackend::Event { threads: 2 }, body).unwrap();
        assert_eq!(seq.results, par.results);
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn parallel_falls_back_when_contract_is_unprovable() {
        use crate::machine::Topology;
        // α = 0 (no lookahead) and a shared-link topology both clamp to the
        // one region: same stats, bitwise, whatever the thread count.
        let body = |mut c: RankComm| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.sendrecv(right, left, 1, vec![1.0; 3], Phase::Other).await;
            c.barrier().await;
        };
        let zero_alpha = unit_spec(8);
        assert_eq!(
            run_spmd_with(&zero_alpha, ExecBackend::event(), body).unwrap().stats,
            run_spmd_with(&zero_alpha, ExecBackend::Event { threads: 4 }, body)
                .unwrap()
                .stats,
        );
        let shared_links = MachineSpec::test_machine(8, 1000).with_topology(Topology::FatTree {
            ranks_per_node: 2,
            nodes_per_switch: usize::MAX,
            nic_factor: 1.0,
            up_factor: 1.0,
        });
        assert_eq!(
            run_spmd_with(&shared_links, ExecBackend::event(), body).unwrap().stats,
            run_spmd_with(&shared_links, ExecBackend::Event { threads: 4 }, body)
                .unwrap()
                .stats,
        );
    }

    #[test]
    fn parallel_structural_deadlock_is_detected() {
        let spec = MachineSpec::test_machine(8, 1000);
        let err = run_spmd_with(&spec, ExecBackend::Event { threads: 4 }, |mut c| async move {
            // Nobody ever sends: every region's heap runs dry with all
            // ranks parked — the boundary leader reports the first rank.
            c.recv((c.rank() + 1) % 8, 9, Phase::Other).await
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::DeadlockSuspected {
                rank: 0,
                on: Waiting::Message { from: 1, tag: 9 }
            }
        );
    }

    #[test]
    fn parallel_cross_region_send_to_exited_rank_is_typed() {
        // Rank 0 exits in the first window; rank p-1 sends to it, in another
        // region from two threads on. The message is never received, and
        // the finished world names its sender at every thread count.
        let spec = MachineSpec::test_machine(8, 1000);
        for threads in [1, 2, 4] {
            let err = run_spmd_with(&spec, ExecBackend::Event { threads }, |c| async move {
                if c.rank() == 7 {
                    c.send(0, 3, vec![1.0], Phase::Other);
                }
            })
            .unwrap_err();
            assert_eq!(err, ExecError::WorldTornDown { rank: 7 }, "{threads} threads");
        }
    }

    #[test]
    fn unreceived_message_is_the_same_teardown_at_every_thread_count() {
        // Rank 0 sends one word to rank 2 and every rank returns. Whether
        // rank 2 is polled before the send (same region) or finishes before
        // the boundary delivers it (another region), the message is never
        // received, and the outcome does not depend on the poll order.
        let spec = MachineSpec::test_machine(4, 1000);
        for threads in [1, 2, 4] {
            let got = run_spmd_with(&spec, ExecBackend::Event { threads }, |c| async move {
                if c.rank() == 0 {
                    c.send(2, 0, vec![1.0], Phase::Other);
                }
                c.rank()
            });
            assert_eq!(
                got.map(|out| out.results),
                Err(ExecError::WorldTornDown { rank: 0 }),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_more_threads_than_ranks_clamps() {
        let spec = MachineSpec::test_machine(3, 1000);
        let out = run_spmd_with(&spec, ExecBackend::Event { threads: 16 }, |mut c| async move {
            c.barrier().await;
            c.rank()
        })
        .unwrap();
        assert_eq!(out.results, vec![0, 1, 2]);
    }

    #[test]
    fn generous_recv_timeout_does_not_false_positive() {
        // The same world with the default (120 virtual seconds) timeout
        // completes the satisfied recv and reports the orphan structurally.
        let err = run_spmd_with(&unit_spec(3), ExecBackend::event(), |mut c| async move {
            match c.rank() {
                0 => {
                    c.recv(1, 1, Phase::Other).await;
                }
                1 => {
                    c.record_flops(5);
                    c.send(0, 1, vec![0.0; 2], Phase::Other);
                }
                _ => {
                    c.recv(0, 9, Phase::Other).await;
                }
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::DeadlockSuspected {
                rank: 2,
                on: Waiting::Message { from: 0, tag: 9 }
            }
        );
    }

    #[test]
    fn livelocked_world_with_inflight_messages_errors_as_deadlock() {
        // α = 0 and zero-word messages freeze every clock at t = 0: ranks 0
        // and 1 ping-pong forever without advancing virtual time, so rank
        // 2's recv deadline can never be outrun by the clock. The frozen-
        // clock poll budget must convert the spin into the same
        // `DeadlockSuspected` the deadline would have produced.
        let spec = unit_spec(3).with_recv_timeout(std::time::Duration::from_secs(1));
        let err = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            match c.rank() {
                0 => loop {
                    c.send(1, 1, vec![], Phase::Other);
                    c.recv(1, 1, Phase::Other).await;
                },
                1 => loop {
                    c.recv(0, 1, Phase::Other).await;
                    c.send(0, 1, vec![], Phase::Other);
                },
                _ => {
                    c.recv(0, 9, Phase::Other).await;
                }
            }
        })
        .unwrap_err();
        assert!(
            matches!(err, ExecError::DeadlockSuspected { .. }),
            "frozen-clock livelock must surface as DeadlockSuspected, got {err:?}"
        );
    }

    /// A long, barrier-paced workload for the fault tests: every rank has
    /// poll points spread across the whole makespan, so any death scheduled
    /// inside the horizon reliably materializes.
    async fn barrier_paced_body(mut c: RankComm) {
        for _ in 0..10 {
            c.record_flops(100);
            c.barrier().await;
        }
    }

    #[test]
    fn injected_rank_death_surfaces_as_rank_failed() {
        use crate::fault::FaultPlan;
        // unit_spec clocks: 100 s of compute per iteration, 10 iterations —
        // a horizon of 500 s puts the single death squarely mid-run.
        let plan = FaultPlan::new(0xC0FFEE).kill_exactly(1, 500.0);
        assert_eq!(plan.planned_kills(8), 1);
        assert_eq!(plan.survivors(8), 7);
        let sched = plan.schedule(8);
        let (victim, death) = (0..8)
            .filter_map(|r| sched.death_time(r).map(|d| (r, d)))
            .next()
            .expect("one death scheduled");
        let err = run_spmd_with(&unit_spec(8).with_faults(plan), ExecBackend::event(), barrier_paced_body)
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::RankFailed {
                rank: victim,
                at: death
            }
        );
    }

    #[test]
    fn fault_failure_is_identical_across_event_thread_counts() {
        use crate::fault::FaultPlan;
        // test_machine: 1000 flops ≈ 1 µs per iteration, 20 iterations — a
        // 10 µs horizon schedules all three deaths mid-run. A sharded world
        // (α = 1 µs > 0, flat topology) must report the exact same typed
        // failure as the one-region run at every thread count.
        let body = |mut c: RankComm| async move {
            for _ in 0..20 {
                c.record_flops(1000);
                c.barrier().await;
            }
        };
        let plan = FaultPlan::new(42).kill_exactly(3, 10e-6);
        let spec = MachineSpec::test_machine(64, 1000).with_faults(plan);
        let seq = run_spmd_with(&spec, ExecBackend::event(), body).unwrap_err();
        assert!(matches!(seq, ExecError::RankFailed { .. }), "got {seq:?}");
        for threads in [2, 4, 8] {
            let par = run_spmd_with(&spec, ExecBackend::Event { threads }, body).unwrap_err();
            assert_eq!(seq, par, "{threads} threads: failure attribution must match");
        }
    }

    #[test]
    fn quiescent_fault_plan_is_a_bitwise_no_op() {
        use crate::fault::FaultPlan;
        // A plan with no kills and no drops must not perturb a single
        // counter or virtual timestamp, at any region count.
        let base = MachineSpec::test_machine(64, 1000);
        let armed = base.clone().with_faults(FaultPlan::new(7));
        let plain = run_spmd_with(&base, ExecBackend::event(), mixed_body).unwrap();
        let quiet = run_spmd_with(&armed, ExecBackend::event(), mixed_body).unwrap();
        assert_eq!(plain.results, quiet.results);
        assert_eq!(plain.stats, quiet.stats, "quiescent plan must be invisible to the clock");
        let quiet_par = run_spmd_with(&armed, ExecBackend::Event { threads: 4 }, mixed_body).unwrap();
        assert_eq!(plain.stats, quiet_par.stats);
    }

    #[test]
    fn death_scheduled_past_the_makespan_never_fires() {
        use crate::fault::FaultPlan;
        // The horizon lies entirely beyond the run's end: no rank is ever
        // polled at or past its death time, so the run completes clean.
        let plan = FaultPlan::new(9).kill_exactly(2, 1e9);
        let sched = plan.schedule(4);
        let earliest = (0..4).filter_map(|r| sched.death_time(r)).fold(f64::MAX, f64::min);
        assert!(earliest > 1000.0, "horizon must be far past the ~600 s makespan");
        let out = run_spmd_with(&unit_spec(4).with_faults(plan), ExecBackend::event(), barrier_paced_body);
        assert!(out.is_ok(), "un-materialized deaths must not fail the run: {out:?}");
    }
}
