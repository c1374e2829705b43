//! Tree and ring collectives over the lines of a processor grid (§7.2).
//!
//! The paper replaces Cray-MPICH's broadcast with a hand-crafted binomial
//! broadcast tree exploiting the known processor grid; these helpers are the
//! equivalent building blocks. Every line of a grid is an arithmetic
//! progression of ranks, so every collective takes its group as a [`Fiber`]
//! in closed form, builds no table, and finds the calling member's position
//! from its rank. A rank list that spells a progression converts into one.
//!
//! Traffic accounting is inherited from the point-to-point layer: interior
//! tree nodes both receive and forward, exactly as an MPI implementation
//! would be measured by mpiP. The plan-side counts a plan prices a
//! collective by sit beside it ([`bcast_pipelined_recv_msgs`],
//! [`reduce_recv_count`], [`allgather_bruck_msgs`]), and each equals what
//! its collective is measured to receive.
//!
//! Every collective is an `async fn` over [`RankComm`]: each internal
//! receive or exchange is a resumable wait-state that parks the rank's state
//! machine in the event executor's matching table.

use std::ops::Range;

use crate::comm::RankComm;
use crate::stats::Phase;

/// A line of a processor grid as the arithmetic progression of ranks it is:
/// member `j` is rank `base + j · stride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fiber {
    /// Rank of member 0.
    pub base: usize,
    /// Rank distance between consecutive members.
    pub stride: usize,
    /// Number of members.
    pub len: usize,
}

impl Fiber {
    /// Rank of member `j`.
    #[inline]
    pub fn rank(&self, j: usize) -> usize {
        debug_assert!(j < self.len, "member {j} of a {}-member fiber", self.len);
        self.base + j * self.stride
    }

    /// The member that `rank` is.
    ///
    /// # Panics
    /// Panics if `rank` is not a member.
    fn position(&self, rank: usize) -> usize {
        let pos = rank.checked_sub(self.base).map_or(self.len, |d| d / self.stride.max(1));
        assert!(pos < self.len && self.rank(pos) == rank, "rank {rank} is not a member of {self:?}");
        pos
    }
}

/// The fiber a rank list spells: member `j` is `ranks[j]`.
///
/// # Panics
/// Panics if the list is not an increasing arithmetic progression.
impl<T: AsRef<[usize]> + ?Sized> From<&T> for Fiber {
    fn from(ranks: &T) -> Fiber {
        let ranks = ranks.as_ref();
        let stride = match ranks {
            [a, b, ..] if b > a => b - a,
            _ => 1,
        };
        assert!(
            ranks.windows(2).all(|w| w[1] > w[0] && w[1] - w[0] == stride),
            "rank list {ranks:?} is not an increasing arithmetic progression"
        );
        Fiber {
            base: ranks.first().copied().unwrap_or(0),
            stride,
            len: ranks.len(),
        }
    }
}

/// A binomial tree over `group` rooted at member `root_pos`: the group's
/// size, the caller's tree position (the root's is 0) and the rank at each
/// tree position; `None` for a group of one, in which nothing moves.
fn tree(comm: &RankComm, group: Fiber, root_pos: usize) -> Option<(usize, usize, impl Fn(usize) -> usize)> {
    let g = group.len;
    assert!(root_pos < g, "root position out of range");
    let relative = (g > 1).then(|| (group.position(comm.rank()) + g - root_pos) % g)?;
    Some((g, relative, move |rel: usize| group.rank((rel + root_pos) % g)))
}

/// Binomial-tree broadcast of `data` from member `root_pos` to the whole
/// group. On non-root ranks `data`'s previous contents are replaced.
pub async fn bcast(
    comm: &mut RankComm,
    group: impl Into<Fiber>,
    root_pos: usize,
    data: &mut Vec<f64>,
    tag: u64,
    phase: Phase,
) {
    let Some((g, relative, abs)) = tree(comm, group.into(), root_pos) else {
        return;
    };

    // Receive from the parent (the sender that owns our lowest set bit).
    let mut mask = 1usize;
    while mask < g {
        if relative & mask != 0 {
            *data = comm.recv(abs(relative - mask), tag, phase).await;
            break;
        }
        mask <<= 1;
    }
    // Forward to children below the bit we received on (or all bits, for the
    // root where mask ran past g). Outgoing copies are leased from the
    // world's arena; the receiver recovers ownership and recycles.
    mask >>= 1;
    while mask > 0 {
        if relative + mask < g {
            let payload = comm.pool().take_copy(data);
            comm.send(abs(relative + mask), tag, payload, phase);
        }
        mask >>= 1;
    }
}

/// Segment size (words) of a [`bcast_pipelined`] over a `g`-member group.
///
/// A plain binomial broadcast pays the full wire time `β·W` once per tree
/// level — `⌈log₂ g⌉ · β·W` on the critical path — because an interior node
/// cannot forward before its whole payload arrived. Segmenting lets a level
/// forward segment `s` while receiving `s + 1`, collapsing the critical
/// path to `(depth + nseg − 1)` segment times. Eight segments per level
/// (`W / (8·depth)`) puts that within ~12% of `β·W` while a 64-word floor
/// keeps the α (per-message) cost bounded.
pub fn bcast_segment_words(total_words: usize, g: usize) -> usize {
    if total_words == 0 {
        return 1;
    }
    let depth = (usize::BITS - (g.max(2) - 1).leading_zeros()) as usize;
    total_words.div_ceil(8 * depth).max(64)
}

/// Messages a member at tree position `relative` (root = 0) receives in a
/// [`bcast_pipelined`] of `total_words` over a `g`-member group — the
/// plan-side mirror of the executed segment count, used by plan models that
/// must match execution message-for-message.
pub fn bcast_pipelined_recv_msgs(relative: usize, g: usize, total_words: usize) -> u64 {
    if g <= 1 || relative == 0 {
        return 0;
    }
    total_words.div_ceil(bcast_segment_words(total_words, g)).max(1) as u64
}

/// Pipelined binomial-tree broadcast: same tree as [`bcast`], payload cut
/// into [`bcast_segment_words`] segments forwarded as they arrive, so deep
/// trees cost ~`β·W` on the critical path instead of `⌈log₂ g⌉·β·W`.
///
/// Receivers must know the payload length up front (`total_words`) to count
/// segments — lengths are not discoverable from the stream without sending
/// extra words. The root's `data` must already hold `total_words` words; on
/// other ranks `data` is replaced. Segment `s` is tagged `tag + s`
/// (wrapping): callers broadcasting repeatedly on overlapping groups must
/// space their base tags accordingly.
pub async fn bcast_pipelined(
    comm: &mut RankComm,
    group: impl Into<Fiber>,
    root_pos: usize,
    data: &mut Vec<f64>,
    total_words: usize,
    tag: u64,
    phase: Phase,
) {
    let Some((g, relative, abs)) = tree(comm, group.into(), root_pos) else {
        return;
    };

    // Parent and children of the same binomial tree as `bcast`: the parent
    // owns our lowest set bit; children sit below the bit we receive on (or
    // all bits, for the root where mask runs past g).
    let mut parent = None;
    let mut mask = 1usize;
    while mask < g {
        if relative & mask != 0 {
            parent = Some(abs(relative - mask));
            break;
        }
        mask <<= 1;
    }
    let top = mask >> 1;
    // Send a pooled copy of `chunk` to every child, highest bit first.
    let forward = |comm: &RankComm, chunk: &[f64], seg_tag: u64| {
        let mut mask = top;
        while mask > 0 {
            if relative + mask < g {
                let payload = comm.pool().take_copy(chunk);
                comm.send(abs(relative + mask), seg_tag, payload, phase);
            }
            mask >>= 1;
        }
    };

    let seg = bcast_segment_words(total_words, g);
    let nseg = total_words.div_ceil(seg).max(1);
    let seg_tag = |s: usize| tag.wrapping_add(s as u64);
    match parent {
        None => {
            assert_eq!(data.len(), total_words, "root payload length mismatch");
            for s in 0..nseg {
                let lo = (s * seg).min(total_words);
                let hi = ((s + 1) * seg).min(total_words);
                forward(comm, &data[lo..hi], seg_tag(s));
            }
        }
        // One segment is the whole payload: the received buffer is the
        // result, as in `bcast`.
        Some(par) if nseg == 1 => {
            let chunk = comm.recv(par, tag, phase).await;
            forward(comm, &chunk, tag);
            comm.recycle(std::mem::replace(data, chunk));
        }
        Some(par) => {
            data.clear();
            data.reserve(total_words);
            for s in 0..nseg {
                let chunk = comm.recv(par, seg_tag(s), phase).await;
                data.extend_from_slice(&chunk);
                forward(comm, &chunk, seg_tag(s));
                comm.recycle(chunk);
            }
        }
    }
    debug_assert_eq!(data.len(), total_words, "assembled payload length mismatch");
}

/// Binomial-tree sum-reduction of equal-length vectors onto member
/// `root_pos`. On the root, `data` holds the element-wise sum on return; on
/// other ranks its contents are the partial sums that were forwarded
/// (callers should treat them as garbage).
pub async fn reduce_sum(
    comm: &mut RankComm,
    group: impl Into<Fiber>,
    root_pos: usize,
    data: &mut [f64],
    tag: u64,
    phase: Phase,
) {
    let Some((g, relative, abs)) = tree(comm, group.into(), root_pos) else {
        return;
    };

    for child in reduce_children(relative, g) {
        let chunk = comm.recv(abs(child), tag, phase).await;
        assert_eq!(chunk.len(), data.len(), "reduce length mismatch");
        for (d, s) in data.iter_mut().zip(&chunk) {
            *d += *s;
        }
        comm.recycle(chunk);
    }
    // The parent owns our lowest set bit.
    if relative != 0 {
        let payload = comm.pool().take_copy(data);
        comm.send(abs(relative & (relative - 1)), tag, payload, phase);
    }
}

/// The tree positions a member at `relative` (root = 0) of a `g`-member
/// [`reduce_sum`] receives from, in the order it does: `relative + 2^b` for
/// every bit below its lowest set one (every bit, for the root) that stays
/// inside the group.
fn reduce_children(relative: usize, g: usize) -> impl Iterator<Item = usize> {
    let below = if relative == 0 {
        g
    } else {
        1 << relative.trailing_zeros()
    };
    (0..usize::BITS)
        .map(|bit| 1usize << bit)
        .take_while(move |&mask| mask < below && relative + mask < g)
        .map(move |mask| relative + mask)
}

/// Messages a member at tree position `relative` (root = 0) receives in a
/// [`reduce_sum`] over a `g`-member group — the plan-side mirror of the
/// executed tree, walked by the same iteration over a member's children.
pub fn reduce_recv_count(relative: usize, g: usize) -> u64 {
    reduce_children(relative, g).count() as u64
}

/// The blocks a gather brought to member `pos` of its fiber, left in the
/// buffers they arrived in. Block `j` is words `cut(j)..cut(j + 1)` of all
/// the blocks in order; the buffers hold the foreign ones back to back in
/// cyclic order from block `pos + 1`, each buffer whole blocks. Nothing is
/// copied into one slab: [`Gathered::for_each_piece`] hands the blocks out in
/// ascending order where they lie, and [`Gathered::recycle`] returns the
/// buffers to the world's arena once they have been read. It keeps no table
/// of blocks: a rank holds one of these across the next gather's awaits.
#[derive(Debug)]
pub struct Gathered {
    /// The caller's own block, `cut(pos)..cut(pos + 1)`.
    own: Range<usize>,
    bufs: Vec<Vec<f64>>,
}

impl Gathered {
    /// The blocks around `own` (`cut(pos)..cut(pos + 1)`), which `bufs` hold
    /// back to back in cyclic order from the block after it.
    ///
    /// # Panics
    /// Panics if `bufs` hold fewer words than the blocks before `own`.
    fn new(own: Range<usize>, bufs: Vec<Vec<f64>>) -> Self {
        let words: usize = bufs.iter().map(Vec::len).sum();
        assert!(words >= own.start, "{words} gathered words for {} before the own block", own.start);
        Gathered { own, bufs }
    }

    /// Calls `f(at, words)` for every piece of the blocks in ascending order:
    /// `at` is where the piece lies among all the blocks' words, `words` are
    /// its words where they arrived, and `None` stands for the caller's own
    /// block, which it reads where it keeps it. A piece is whole consecutive
    /// blocks of one buffer; empty pieces other than the own block are
    /// skipped.
    pub fn for_each_piece(&self, mut f: impl FnMut(Range<usize>, Option<&[f64]>)) {
        // In arrival order the blocks after the own one come first, then
        // the wrap to block 0 and the `own.start` words of the blocks before.
        let words: usize = self.bufs.iter().map(Vec::len).sum();
        let after = words - self.own.start;
        self.pieces(after..words, 0, &mut f);
        f(self.own.clone(), None);
        self.pieces(0..after, self.own.end, &mut f);
    }

    /// Words `range` of the buffers taken back to back, placed from `at` on:
    /// one call per buffer they touch.
    fn pieces(&self, range: Range<usize>, at: usize, f: &mut impl FnMut(Range<usize>, Option<&[f64]>)) {
        let mut start = 0;
        for buf in &self.bufs {
            let (lo, hi) = (range.start.max(start), range.end.min(start + buf.len()));
            if lo < hi {
                f(at + lo - range.start..at + hi - range.start, Some(&buf[lo - start..hi - start]));
            }
            start += buf.len();
        }
    }

    /// Hand every buffer back to the world's arena.
    pub fn recycle(self, comm: &RankComm) {
        for buf in self.bufs {
            comm.recycle(buf);
        }
    }
}

/// Bruck all-gather of blocks that stay where they arrive: member `j` of the
/// `g`-member `fiber` owns block `j`, `cut(j + 1) − cut(j)` words (`cut`
/// monotone from `cut(0) = 0`). The caller, member `pos` by its rank, keeps
/// its own block wherever it lies and hands [`allgather_bruck`] `own`, which
/// appends that block's words to an outgoing payload; the foreign blocks come
/// back as a [`Gathered`]. `⌈log₂ g⌉` rounds of doubling block counts instead
/// of the ring's `g − 1` steps, for the same received words (every foreign
/// block arrives exactly once) — the latency-optimized pattern of the paper's
/// §7.2 trees.
///
/// A round sends the `want` blocks from `pos` on (mod `g`) as one pooled
/// payload, block after block: the own block, appended by `own`, then the
/// leading words of the payloads received so far, which hold the next blocks
/// in that order. The received payload is kept as it is. So a word is copied
/// into each payload it leaves in and never out of one, and a rank holds
/// `O(log g)` buffers and no table. All members must pass the same `cut`.
pub async fn allgather_bruck(
    comm: &mut RankComm,
    fiber: impl Into<Fiber>,
    own: impl Fn(&mut Vec<f64>),
    cut: impl Fn(usize) -> usize,
    tag: u64,
    phase: Phase,
) -> Gathered {
    let fiber = fiber.into();
    let (g, pos) = (fiber.len, fiber.position(comm.rank()));
    assert_eq!(cut(0), 0, "the first block starts at word 0");
    let words_of = |first, count| {
        block_runs(&cut, g, first, count)
            .into_iter()
            .map(|run| run.len())
            .sum::<usize>()
    };
    let mut bufs: Vec<Vec<f64>> = Vec::with_capacity(allgather_bruck_msgs(g) as usize);
    // Before the round with distance `step` I hold blocks pos..pos + step
    // (mod g): mine, then `bufs` in arrival order.
    let (mut step, mut round) = (1usize, 0u64);
    while step < g {
        let want = (g - step).min(step);
        let dst = fiber.rank((pos + g - step) % g);
        let src = fiber.rank((pos + step) % g);
        // dst lacks my first `want` blocks (its collection ends at pos - 1).
        let words = words_of(pos, want);
        let mut payload = comm.pool().take_clear(words);
        own(&mut payload);
        assert_eq!(payload.len(), words_of(pos, 1), "the own block is {} words", words_of(pos, 1));
        for buf in &bufs {
            let rest = words - payload.len();
            payload.extend_from_slice(&buf[..rest.min(buf.len())]);
        }
        let received = comm.sendrecv(dst, src, tag.wrapping_add(round), payload, phase).await;
        let expected = words_of((pos + step) % g, want);
        assert_eq!(received.len(), expected, "bruck payload framing mismatch");
        bufs.push(received);
        step <<= 1;
        round += 1;
    }
    Gathered::new(cut(pos)..cut(pos + 1), bufs)
}

/// Messages every member receives in an [`allgather_bruck`] over `g`
/// members: one per round, `⌈log₂ g⌉`.
pub fn allgather_bruck_msgs(g: usize) -> u64 {
    if g <= 1 {
        0
    } else {
        (usize::BITS - (g - 1).leading_zeros()) as u64
    }
}

/// The words of blocks `first..first + count` (mod `g`) of a gather cut at
/// `cut`: the run up to the last block, then the wrap from block 0 (empty
/// unless the blocks wrap).
fn block_runs(cut: &impl Fn(usize) -> usize, g: usize, first: usize, count: usize) -> [Range<usize>; 2] {
    let end = first + count;
    [cut(first)..cut(end.min(g)), 0..cut(end.saturating_sub(g))]
}

/// Ring reduce-scatter: element-wise sum of every member's `data`, scattered
/// so that the caller — member `pos` of the `g`-member `fiber` — ends up
/// owning the summed chunk `(pos + 1) mod g` (balanced chunks by
/// [`even_range`]). Returns `(owned_chunk_index, summed_chunk)`.
///
/// `g − 1` steps; each member receives every chunk except its own position's,
/// i.e. `total − |chunk_pos|` words — perfectly balanced, unlike a tree
/// reduction whose root transiently receives `log g` full payloads.
pub async fn reduce_scatter_ring(
    comm: &mut RankComm,
    fiber: impl Into<Fiber>,
    data: &mut [f64],
    tag: u64,
    phase: Phase,
) -> (usize, Vec<f64>) {
    let fiber = fiber.into();
    let (g, pos) = (fiber.len, fiber.position(comm.rank()));
    let len = data.len();
    let chunk = |idx: usize| even_range(len, g, idx);
    if g == 1 {
        return (0, data.to_vec());
    }
    let right = fiber.rank((pos + 1) % g);
    let left = fiber.rank((pos + g - 1) % g);
    for s in 0..g - 1 {
        let send_idx = (pos + g - s) % g;
        let recv_idx = (pos + g - s - 1) % g;
        let outgoing = comm.pool().take_copy(&data[chunk(send_idx)]);
        let incoming = comm.sendrecv(right, left, tag.wrapping_add(s as u64), outgoing, phase).await;
        let dst = &mut data[chunk(recv_idx)];
        assert_eq!(incoming.len(), dst.len(), "reduce-scatter chunk mismatch");
        for (d, v) in dst.iter_mut().zip(&incoming) {
            *d += *v;
        }
        comm.recycle(incoming);
    }
    let own = (pos + 1) % g;
    (own, data[chunk(own)].to_vec())
}

/// Where the `idx`-th of `parts` balanced contiguous pieces of `0..total`
/// starts (leading pieces one longer on remainders; `idx == parts` gives
/// `total`), in closed form — the one balanced split every grid algorithm
/// and [`reduce_scatter_ring`] cut by.
#[inline]
pub fn even_cut(total: usize, parts: usize, idx: usize) -> usize {
    debug_assert!(idx <= parts, "cut {idx} of {parts} pieces");
    idx * (total / parts) + idx.min(total % parts)
}

/// The `idx`-th of `parts` balanced contiguous pieces of `0..total`.
#[inline]
pub fn even_range(total: usize, parts: usize, idx: usize) -> std::ops::Range<usize> {
    even_cut(total, parts, idx)..even_cut(total, parts, idx + 1)
}

/// The piece of [`even_range`] that holds `x < total`: its inverse, in
/// closed form.
#[inline]
pub fn even_owner(total: usize, parts: usize, x: usize) -> usize {
    debug_assert!(x < total, "coordinate {x} beyond all pieces of {total}");
    let (base, extra) = (total / parts, total % parts);
    let long = (base + 1) * extra;
    if x < long {
        x / (base + 1)
    } else {
        extra + (x - long) / base
    }
}

/// All `parts` ranges of [`even_range`], as a table.
pub fn even_chunk_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    (0..parts).map(|i| even_range(len, parts, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_spmd_with, ExecBackend, RunOutput};
    use crate::machine::MachineSpec;

    /// The sharded engine the collective tests run on: four regions, so
    /// collectives cross region boundaries, and bitwise the one-thread
    /// default's measurement.
    const SHARDED: ExecBackend = ExecBackend::Event { threads: 4 };

    /// A world of `p` ranks as one fiber: rank `r` is member `r`.
    fn world(p: usize) -> Fiber {
        Fiber {
            base: 0,
            stride: 1,
            len: p,
        }
    }

    /// Five members from rank 2 in steps of 3 (ranks 2, 5, 8, 11, 14) in a
    /// world of 17 ranks, whose other ranks run no collective.
    const STRIDED: (usize, Fiber) = (
        17,
        Fiber {
            base: 2,
            stride: 3,
            len: 5,
        },
    );

    /// The executors the [`STRIDED`] cases run on.
    const BACKENDS: [ExecBackend; 2] = [ExecBackend::event(), ExecBackend::Event { threads: 2 }];

    /// `body(comm, pos)` on every member of `fiber`, `pos` being its
    /// position, in a world of `p` ranks; the other ranks return `None`.
    fn on_fiber<R, F, Fut>(p: usize, fiber: Fiber, backend: ExecBackend, body: F) -> RunOutput<Option<R>>
    where
        R: Send,
        F: Fn(RankComm, usize) -> Fut + Sync,
        Fut: std::future::Future<Output = R>,
    {
        let spec = MachineSpec::test_machine(p, 10_000);
        let body = &body;
        run_spmd_with(&spec, backend, |c| {
            let member = (0..fiber.len).find(|&j| fiber.rank(j) == c.rank());
            async move {
                match member {
                    Some(pos) => Some(body(c, pos).await),
                    None => None,
                }
            }
        })
        .unwrap()
    }

    /// Checks a run of [`on_fiber`]: member `pos` received `msgs(pos)`
    /// messages and returned a value, and no other rank sent or received.
    fn check_members<R>(out: &RunOutput<Option<R>>, fiber: Fiber, msgs: impl Fn(usize) -> u64, what: &str) {
        for (r, st) in out.stats.iter().enumerate() {
            match (0..fiber.len).find(|&j| fiber.rank(j) == r) {
                Some(pos) => {
                    assert!(out.results[r].is_some(), "{what}: member {pos} returned nothing");
                    assert_eq!(st.msgs_recv, msgs(pos), "{what}: member {pos} messages");
                }
                None => assert_eq!((st.msgs_sent, st.msgs_recv), (0, 0), "{what}: rank {r} is no member"),
            }
        }
    }

    #[test]
    fn rank_lists_convert_into_the_fiber_they_spell() {
        let fiber = |base, stride, len| Fiber { base, stride, len };
        assert_eq!(Fiber::from(&vec![1, 3, 5]), fiber(1, 2, 3));
        assert_eq!(Fiber::from(&[7][..]), fiber(7, 1, 1));
        assert_eq!(Fiber::from(&[2, 5, 8, 11, 14]), STRIDED.1);
        for bad in [vec![0, 2, 5], vec![3, 1], vec![2, 2]] {
            let err = std::panic::catch_unwind(|| Fiber::from(&bad)).expect_err("not a progression");
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains(&format!("{bad:?}")), "{msg}");
        }
    }

    #[test]
    fn bcast_delivers_to_all_group_sizes_and_roots() {
        for p in [1usize, 2, 3, 4, 5, 8, 13] {
            for root in [0, p / 2, p - 1] {
                let spec = MachineSpec::test_machine(p, 1000);
                let out = run_spmd_with(&spec, SHARDED, |mut c| async move {
                    let group: Vec<usize> = (0..c.size()).collect();
                    let mut data = if c.rank() == group[root] {
                        vec![42.0, 7.0]
                    } else {
                        vec![]
                    };
                    bcast(&mut c, &group, root, &mut data, 9, Phase::InputA).await;
                    data
                })
                .unwrap();
                for (r, d) in out.results.iter().enumerate() {
                    assert_eq!(d, &vec![42.0, 7.0], "p={p} root={root} rank={r}");
                }
            }
        }
        // Every root of a strided fiber: a non-root receives the payload once.
        let (p, fiber) = STRIDED;
        for root in 0..fiber.len {
            for backend in BACKENDS {
                let out = on_fiber(p, fiber, backend, |mut c, pos| async move {
                    let mut data = if pos == root { vec![42.0, 7.0] } else { vec![] };
                    bcast(&mut c, fiber, root, &mut data, 9, Phase::InputA).await;
                    data
                });
                let what = format!("strided root={root} {backend}");
                check_members(&out, fiber, |pos| u64::from(pos != root), &what);
                for d in out.results.iter().flatten() {
                    assert_eq!(d, &vec![42.0, 7.0], "{what}");
                }
            }
        }
    }

    #[test]
    fn bcast_traffic_is_tree_shaped() {
        // Binomial tree over g ranks: g-1 point-to-point messages in total;
        // every non-root receives exactly the payload once.
        let p = 8;
        let spec = MachineSpec::test_machine(p, 1000);
        let out = run_spmd_with(&spec, SHARDED, |mut c| async move {
            let group: Vec<usize> = (0..c.size()).collect();
            let mut data = if c.rank() == 0 { vec![1.0; 100] } else { vec![] };
            bcast(&mut c, &group, 0, &mut data, 1, Phase::InputA).await;
        })
        .unwrap();
        let total_recv: u64 = out.stats.iter().map(|s| s.total_recv()).sum();
        assert_eq!(total_recv, 700, "7 receivers x 100 words");
        assert_eq!(out.stats[0].total_recv(), 0);
        // The root of a binomial tree over 8 sends log2(8) = 3 messages.
        assert_eq!(out.stats[0].msgs_sent, 3);
    }

    #[test]
    fn bcast_on_subgroup_leaves_others_untouched() {
        let spec = MachineSpec::test_machine(6, 1000);
        let out = run_spmd_with(&spec, SHARDED, |mut c| async move {
            let group = vec![1, 3, 5];
            if group.contains(&c.rank()) {
                let mut data = if c.rank() == 3 { vec![5.0] } else { vec![] };
                bcast(&mut c, &group, 1, &mut data, 2, Phase::InputB).await;
                data
            } else {
                vec![]
            }
        })
        .unwrap();
        assert_eq!(out.results[1], vec![5.0]);
        assert_eq!(out.results[3], vec![5.0]);
        assert_eq!(out.results[5], vec![5.0]);
        assert_eq!(out.stats[0].total_recv() + out.stats[2].total_recv() + out.stats[4].total_recv(), 0);
    }

    #[test]
    fn bcast_pipelined_delivers_to_all_group_sizes_and_roots() {
        for p in [1usize, 2, 3, 4, 5, 8, 13] {
            for root in [0, p / 2, p - 1] {
                for words in [0usize, 1, 64, 65, 1000] {
                    let spec = MachineSpec::test_machine(p, 10_000);
                    let out = run_spmd_with(&spec, SHARDED, move |mut c| async move {
                        let group: Vec<usize> = (0..c.size()).collect();
                        let mut data = if c.rank() == group[root] {
                            (0..words).map(|i| i as f64).collect()
                        } else {
                            vec![]
                        };
                        bcast_pipelined(&mut c, &group, root, &mut data, words, 9, Phase::InputA).await;
                        data
                    })
                    .unwrap();
                    let want: Vec<f64> = (0..words).map(|i| i as f64).collect();
                    for (r, d) in out.results.iter().enumerate() {
                        assert_eq!(d, &want, "p={p} root={root} words={words} rank={r}");
                    }
                }
            }
        }
    }

    #[test]
    fn bcast_pipelined_word_and_message_counts_match_the_plan_helper() {
        for p in [2usize, 5, 8, 16] {
            for words in [0usize, 1, 64, 513, 4096] {
                let spec = MachineSpec::test_machine(p, 10_000);
                let out = run_spmd_with(&spec, SHARDED, move |mut c| async move {
                    let group: Vec<usize> = (0..c.size()).collect();
                    let mut data = if c.rank() == 0 { vec![1.0; words] } else { vec![] };
                    bcast_pipelined(&mut c, &group, 0, &mut data, words, 1, Phase::InputA).await;
                })
                .unwrap();
                for (r, st) in out.stats.iter().enumerate() {
                    let expect_words = if r == 0 { 0 } else { words as u64 };
                    assert_eq!(st.total_recv(), expect_words, "p={p} words={words} rank {r}");
                    assert_eq!(
                        st.msgs_recv,
                        bcast_pipelined_recv_msgs(r, p, words),
                        "p={p} words={words} rank {r} msgs"
                    );
                }
            }
        }
        // Every root of a strided fiber, one segment and several.
        let (p, fiber) = STRIDED;
        let g = fiber.len;
        for words in [0usize, 1, 64, 513] {
            let want: Vec<f64> = (0..words).map(|i| i as f64).collect();
            for root in 0..g {
                for backend in BACKENDS {
                    let out = on_fiber(p, fiber, backend, |mut c, pos| async move {
                        let mut data = if pos == root {
                            (0..words).map(|i| i as f64).collect()
                        } else {
                            vec![]
                        };
                        bcast_pipelined(&mut c, fiber, root, &mut data, words, 9, Phase::InputA).await;
                        data
                    });
                    let what = format!("strided words={words} root={root} {backend}");
                    let msgs = |pos| bcast_pipelined_recv_msgs((pos + g - root) % g, g, words);
                    check_members(&out, fiber, msgs, &what);
                    for d in out.results.iter().flatten() {
                        assert_eq!(d, &want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn bcast_pipelined_shortens_the_deep_tree_critical_path() {
        // 1024 words over 16 ranks: the plain tree's leaf waits
        // depth · β·W = 4096 s (unit model); the pipelined tree stays within
        // ~2× of β·W. Event backend, so the virtual clock is measured.
        let p = 16;
        let words = 1024;
        let cost = crate::cost::CostModel {
            peak_flops: 1.0,
            kernel_efficiency: 1.0,
            alpha_s: 0.0,
            beta_s_per_word: 1.0,
        };
        let spec = MachineSpec::new(p, 1 << 20, cost);
        let plain = run_spmd_with(&spec, ExecBackend::event(), move |mut c| async move {
            let group: Vec<usize> = (0..c.size()).collect();
            let mut data = if c.rank() == 0 { vec![1.0; words] } else { vec![] };
            bcast(&mut c, &group, 0, &mut data, 1, Phase::InputA).await;
        })
        .unwrap();
        let piped = run_spmd_with(&spec, ExecBackend::event(), move |mut c| async move {
            let group: Vec<usize> = (0..c.size()).collect();
            let mut data = if c.rank() == 0 { vec![1.0; words] } else { vec![] };
            bcast_pipelined(&mut c, &group, 0, &mut data, words, 1, Phase::InputA).await;
        })
        .unwrap();
        let slowest =
            |stats: &[crate::stats::RankStats]| stats.iter().map(|s| s.time.total_s()).fold(0.0f64, f64::max);
        let (t_plain, t_piped) = (slowest(&plain.stats), slowest(&piped.stats));
        assert!(t_piped < t_plain / 1.5, "pipelining must beat the plain tree: {t_piped} vs {t_plain}");
        assert!(t_piped <= 2.0 * words as f64, "pipelined critical path should approach β·W: {t_piped}");
    }

    /// `bcast_pipelined` of `0.0, 1.0, …` over the whole world from `root`.
    fn piped_world(
        spec: &MachineSpec,
        backend: ExecBackend,
        root: usize,
        words: usize,
    ) -> crate::exec::RunOutput<Vec<f64>> {
        run_spmd_with(spec, backend, move |mut c| async move {
            let group: Vec<usize> = (0..c.size()).collect();
            let mut data = if c.rank() == root {
                (0..words).map(|i| i as f64).collect()
            } else {
                vec![]
            };
            bcast_pipelined(&mut c, &group, root, &mut data, words, 9, Phase::InputA).await;
            data
        })
        .unwrap()
    }

    #[test]
    fn bcast_pipelined_keeps_its_bits() {
        use crate::machine::Topology;
        // One splitmix64 fold per case over every rank's
        // `[compute_s, exposed_comm_s, total_comm_s]` bits on the event
        // backend, in case order: machine {flat, node-nic: one leaf switch
        // over 2-rank nodes} × g × words × root
        // {0, g − 1}. Recorded at commit 783cb4d: peers, tags, words and order
        // are the function's contract, whatever it does with its buffers.
        #[rustfmt::skip]
        const CLOCKS: [u64; 120] = [
            0x035bff8407b8c066, 0x577b3223480c8710, 0x4463af02f2436807, 0x92678b4af59d8d74,
            0x59a092db4dbfc606, 0x691d77bffe126f54, 0x4f9d5ba5aac79c27, 0x573ce24dab06255d,
            0xbc8b8f028526be7c, 0x23bd69b4c6d60d9c, 0x6b98f411aa36b4c0, 0xc89e61d473f97b20,
            0x22fbf3ad4f49fe8c, 0x2e589e2051297fba, 0xe1c443844f83e8d6, 0x22f8a1583d164aee,
            0xfb8e08ca73858abf, 0x90788e5b1201da12, 0xccca8e3ce2d48303, 0x3b38fa31fc5dbac5,
            0xedc69cddbf314f28, 0x0a9b51f942719a7b, 0xe5400cc5955dd808, 0x263f80f3342deb4e,
            0x9a5bd0b9a522d6ae, 0x44d1592b7531749e, 0xc59f8b8f171ae0bf, 0xea6d9e5e681c6acd,
            0x6b66a123544251f2, 0xe111e4542c47ba18, 0x0a5d5e1723009fc5, 0xadd0400ea350904e,
            0x268fb85265e24804, 0x1881c15058a680d9, 0xff53a7c449c06097, 0x98d1f8a2a0967fb0,
            0x2a80eb56df7fc4ef, 0x7166695e9f098c95, 0x44d54b3fd7766e24, 0x1255a32e4d95afbf,
            0xa42337e53e053af6, 0xcff9fa008ed4bf7e, 0x66971ffedb6aef7e, 0x0b2c12e659c9d239,
            0x53c53a036487159b, 0x6340d109d5265257, 0xa6740fa58a412546, 0x8dffeccdcc8821e2,
            0x0bdac0613dba770f, 0x3d77e56785689c08, 0xf322802e733fbb13, 0x4058f61d1a74ba72,
            0x16620839f1ff5676, 0xfd41b80093594746, 0x8d54e3eb3c3d8c92, 0x7371288cdae9daba,
            0x95d265e5c94af2c3, 0x65046fc4b5289693, 0x961ed51f17db2eaf, 0x004b94e3cc73c90a,
            0x035bff8407b8c066, 0x577b3223480c8710, 0x4463af02f2436807, 0x92678b4af59d8d74,
            0x59a092db4dbfc606, 0x691d77bffe126f54, 0x4f9d5ba5aac79c27, 0x573ce24dab06255d,
            0xbc8b8f028526be7c, 0x23bd69b4c6d60d9c, 0x6b98f411aa36b4c0, 0xc89e61d473f97b20,
            0xc06d808074a60fb8, 0x08e4f851e19d580e, 0x69af08b9e0c61b6c, 0x4db2d674ab922e7a,
            0x02b9855ef9203ae2, 0xa01caac140eef192, 0x784443defacd6086, 0xb3a7b7b3dc58d07f,
            0x2ce75f858586e35d, 0xa0d631d72bf1e05a, 0xc763a312c62aebd4, 0x1db261b8fc91af98,
            0xeac88a8c82939dd1, 0x301c1f274f5685a2, 0xd34cfdec7a879ee6, 0xf5bf6734afedb081,
            0x159f1de0e3777335, 0xd34aa686c40121fd, 0xf2bd5317135aea80, 0xd3706f91dab5103d,
            0xd6600d3a4c96e6ab, 0x81286497817a49e1, 0x5105706f8d92d21d, 0xcf3415ec8e0fca25,
            0x620ce9ef48049f9c, 0xd5476e6e491e32a2, 0xf2e1eebfa9eb8ab4, 0xae0fff60e9a6f3fc,
            0x48018b4d3b160bab, 0x2284f3295cdbf926, 0x9a706dd70aa5ade6, 0x66faefaa470510e8,
            0x73a31ee355ada770, 0x9c883f9863112dc6, 0xb9b842f09c02959f, 0xda70c7998de4cd4c,
            0x2a3c6ec0877c2435, 0x773f025e2200b25c, 0x36cb6c7dff51d324, 0x84807a7e1d4d0086,
            0x25730f1a130a5e65, 0xaf8c7e1de1389ef8, 0x7d997a6932473b14, 0x64ba4bcf7c2c09ee,
            0x18690f5688e400d6, 0x297f5bde345eed7b, 0xe4e562bca595da99, 0xd5ea9bde18f21147,
        ];
        let mut got = Vec::with_capacity(CLOCKS.len());
        for nic in [false, true] {
            for g in [2usize, 3, 5, 8, 64] {
                for words in [0usize, 1, 63, 64, 65, 1000] {
                    for root in [0, g - 1] {
                        let what = format!("nic={nic} g={g} words={words} root={root}");
                        let flat = MachineSpec::test_machine(g, 10_000);
                        let spec = if nic {
                            flat.with_topology(Topology::FatTree {
                                ranks_per_node: 2,
                                nodes_per_switch: usize::MAX,
                                nic_factor: 0.5,
                                up_factor: 0.5,
                            })
                        } else {
                            flat
                        };
                        let sharded = piped_world(&spec, SHARDED, root, words);
                        let event = piped_world(&spec, ExecBackend::event(), root, words);
                        let unpooled =
                            piped_world(&spec.clone().with_pooling(false), ExecBackend::event(), root, words);
                        let want: Vec<f64> = (0..words).map(|i| i as f64).collect();
                        for (r, d) in event.results.iter().enumerate() {
                            assert_eq!(d, &want, "{what} rank {r}");
                        }
                        assert_eq!(sharded.results, event.results, "{what}");
                        assert_eq!(unpooled.results, event.results, "{what}");
                        assert_eq!(sharded.stats, event.stats, "{what}");
                        assert_eq!(unpooled.stats, event.stats, "{what}");
                        let mut fold = 0u64;
                        for st in &event.stats {
                            let t = st.time;
                            for w in [t.compute_s, t.exposed_comm_s, t.total_comm_s] {
                                fold = crate::fault::splitmix64(fold ^ w.to_bits());
                            }
                        }
                        got.push(fold);
                    }
                }
            }
        }
        if got != CLOCKS {
            let table: Vec<String> = got
                .chunks(4)
                .map(|row| row.iter().map(|d| format!("0x{d:016x}, ")).collect::<String>())
                .collect();
            panic!("virtual clocks moved; the table now reads:\n{}", table.join("\n"));
        }
    }

    #[test]
    fn reduce_sum_collects_on_root() {
        for p in [1usize, 2, 3, 5, 8] {
            let spec = MachineSpec::test_machine(p, 1000);
            let out = run_spmd_with(&spec, SHARDED, |mut c| async move {
                let group: Vec<usize> = (0..c.size()).collect();
                let mut data = vec![c.rank() as f64, 1.0];
                reduce_sum(&mut c, &group, 0, &mut data, 3, Phase::OutputC).await;
                data
            })
            .unwrap();
            let expect_sum: f64 = (0..p).map(|r| r as f64).sum();
            assert_eq!(out.results[0], vec![expect_sum, p as f64], "p={p}");
        }
    }

    #[test]
    fn reduce_sum_nonzero_root() {
        let spec = MachineSpec::test_machine(5, 1000);
        let out = run_spmd_with(&spec, SHARDED, |mut c| async move {
            let group: Vec<usize> = (0..c.size()).collect();
            let mut data = vec![1.0];
            reduce_sum(&mut c, &group, 2, &mut data, 4, Phase::OutputC).await;
            data
        })
        .unwrap();
        assert_eq!(out.results[2], vec![5.0]);
    }

    #[test]
    fn reduce_counts_conserve_messages() {
        // Every non-root sends exactly once, so the receives add up to g − 1.
        for g in 1..40 {
            let recvs: u64 = (0..g).map(|r| reduce_recv_count(r, g)).sum();
            assert_eq!(recvs, (g - 1) as u64, "g={g}");
        }
    }

    #[test]
    fn reduce_root_receives_log() {
        assert_eq!(reduce_recv_count(0, 8), 3);
        assert_eq!(reduce_recv_count(0, 5), 3);
        assert_eq!(reduce_recv_count(2, 8), 1); // receives from 3, sends to 0
        assert_eq!(reduce_recv_count(1, 8), 0);
        assert_eq!(reduce_recv_count(0, 1), 0);
    }

    #[test]
    fn reduce_sum_receives_what_reduce_recv_count_plans() {
        // Every group size and root, on one scheduler thread and on two:
        // each member's measured receives are the plan's count,
        // and the root holds the sum.
        for g in 1usize..=33 {
            let spec = MachineSpec::test_machine(g, 1000);
            for root in 0..g {
                for backend in BACKENDS {
                    let out = run_spmd_with(&spec, backend, |mut c| async move {
                        let group: Vec<usize> = (0..c.size()).collect();
                        let mut data = vec![c.rank() as f64];
                        reduce_sum(&mut c, &group, root, &mut data, 5, Phase::OutputC).await;
                        data
                    })
                    .unwrap();
                    assert_eq!(
                        out.results[root],
                        vec![(g * (g - 1) / 2) as f64],
                        "g={g} root={root} {backend}"
                    );
                    for (r, st) in out.stats.iter().enumerate() {
                        let relative = (r + g - root) % g;
                        assert_eq!(
                            st.msgs_recv,
                            reduce_recv_count(relative, g),
                            "g={g} root={root} {backend}: rank {r}"
                        );
                    }
                }
            }
        }
        // Every root of a strided fiber, summing the members' ranks.
        let (p, fiber) = STRIDED;
        let g = fiber.len;
        let sum = (0..g).map(|j| fiber.rank(j) as f64).sum::<f64>();
        for root in 0..g {
            for backend in BACKENDS {
                let out = on_fiber(p, fiber, backend, |mut c, _| async move {
                    let mut data = vec![c.rank() as f64, 1.0];
                    reduce_sum(&mut c, fiber, root, &mut data, 5, Phase::OutputC).await;
                    data
                });
                let what = format!("strided root={root} {backend}");
                check_members(&out, fiber, |pos| reduce_recv_count((pos + g - root) % g, g), &what);
                assert_eq!(out.results[fiber.rank(root)], Some(vec![sum, g as f64]), "{what}");
            }
        }
    }

    #[test]
    fn allgather_bruck_msgs_is_ceil_log2() {
        assert_eq!(allgather_bruck_msgs(1), 0);
        assert_eq!(allgather_bruck_msgs(2), 1);
        assert_eq!(allgather_bruck_msgs(5), 3);
        assert_eq!(allgather_bruck_msgs(8), 3);
        assert_eq!(allgather_bruck_msgs(9), 4);
    }

    #[test]
    fn allgather_singleton_group_is_free() {
        let spec = MachineSpec::test_machine(2, 1000);
        let out = run_spmd_with(&spec, SHARDED, |mut c| async move {
            let alone = Fiber {
                base: c.rank(),
                stride: 1,
                len: 1,
            };
            let own = |_: &mut Vec<f64>| panic!("a lone member sends nothing");
            let got = allgather_bruck(&mut c, alone, own, |j| 3 * j, 12, Phase::InputA).await;
            let mut pieces = Vec::new();
            got.for_each_piece(|at, words| pieces.push((at, words.is_some())));
            pieces
        })
        .unwrap();
        assert_eq!(out.results[0], vec![(0..3, false)]);
        assert_eq!((out.stats[0].total_recv(), out.stats[0].msgs_sent), (0, 0));
    }

    /// All the blocks' words in order, rebuilt from `got`'s pieces with the
    /// own block's words `own` put where its piece says. Every piece starts
    /// where the last one ended, on a block boundary (`is_cut`).
    fn rebuilt(got: &Gathered, own: &[f64], is_cut: impl Fn(usize) -> bool) -> Vec<f64> {
        let mut words = Vec::new();
        got.for_each_piece(|at, piece| {
            let piece = piece.unwrap_or(own);
            assert_eq!((at.start, at.len()), (words.len(), piece.len()), "pieces back to back");
            assert!(is_cut(at.start) && is_cut(at.end), "a piece is whole blocks");
            words.extend_from_slice(piece);
        });
        words
    }

    /// The blocks of a `rows × cuts[g]` row-major matrix whose word `i` is
    /// `i` — block `j` being columns `cuts[j]..cuts[j + 1]`, row by row —
    /// gathered over a world of `g` ranks, [`rebuilt`]. Every rank appends its
    /// own block row by row from the matrix, as COSMA does from A.
    fn bruck_world(
        spec: &MachineSpec,
        backend: ExecBackend,
        rows: usize,
        cuts: &[usize],
    ) -> RunOutput<Vec<f64>> {
        let g = cuts.len() - 1;
        run_spmd_with(spec, backend, |c| {
            let pos = c.rank();
            bruck_member(c, world(g), pos, rows, cuts)
        })
        .unwrap()
    }

    /// [`bruck_world`]'s gather on member `pos` of `fiber`.
    async fn bruck_member(
        mut c: RankComm,
        fiber: Fiber,
        pos: usize,
        rows: usize,
        cuts: &[usize],
    ) -> Vec<f64> {
        let own: Vec<f64> = matrix_block(rows, cuts, pos).collect();
        let append = |out: &mut Vec<f64>| out.extend_from_slice(&own);
        let cut = |j| rows * cuts[j];
        let got = allgather_bruck(&mut c, fiber, append, cut, 40, Phase::InputA).await;
        let words = rebuilt(&got, &own, |w| cuts.iter().any(|&c| rows * c == w));
        got.recycle(&c);
        words
    }

    /// Block `j` of [`bruck_world`]'s matrix, row by row.
    fn matrix_block(rows: usize, cuts: &[usize], j: usize) -> impl Iterator<Item = f64> + '_ {
        let width = cuts[cuts.len() - 1];
        (0..rows).flat_map(move |r| (cuts[j]..cuts[j + 1]).map(move |col| (r * width + col) as f64))
    }

    #[test]
    fn bruck_allgather_delivers_every_foreign_block_once() {
        for g in 1usize..=33 {
            // Uneven blocks (every third one empty), and a matrix narrower
            // than the group: most blocks empty.
            let uneven: Vec<usize> = (0..=g).map(|j| j - j / 3).collect();
            let narrow: Vec<usize> = (0..=g).map(|j| even_cut(g / 3, g, j)).collect();
            for cuts in [&uneven, &narrow] {
                for rows in [1usize, 3] {
                    let what = format!("g={g} rows={rows} cuts={cuts:?}");
                    let spec = MachineSpec::test_machine(g, 10_000);
                    let out = bruck_world(&spec, SHARDED, rows, cuts);
                    let total = rows * cuts[g];
                    let want: Vec<f64> = (0..g).flat_map(|j| matrix_block(rows, cuts, j)).collect();
                    for (r, st) in out.stats.iter().enumerate() {
                        assert_eq!(out.results[r], want, "{what} rank {r}");
                        let own = rows * (cuts[r + 1] - cuts[r]);
                        assert_eq!(st.total_recv() as usize, total - own, "{what} rank {r} words");
                        assert_eq!(st.msgs_recv, allgather_bruck_msgs(g), "{what} rank {r} msgs");
                    }
                    // The arena and the thread count are invisible to
                    // results, counters and virtual time.
                    let event = bruck_world(&spec, ExecBackend::event(), rows, cuts);
                    let unpooled =
                        bruck_world(&spec.clone().with_pooling(false), ExecBackend::event(), rows, cuts);
                    assert_eq!((&event.results, &unpooled.results), (&out.results, &out.results), "{what}");
                    assert_eq!(event.stats, unpooled.stats, "{what}");
                    assert_eq!(out.stats, event.stats, "{what}");
                }
            }
        }
        // A strided fiber: every member, uneven blocks.
        let (p, fiber) = STRIDED;
        let g = fiber.len;
        let cuts: Vec<usize> = (0..=g).map(|j| j - j / 3).collect();
        let want: Vec<f64> = (0..g).flat_map(|j| matrix_block(2, &cuts, j)).collect();
        for backend in BACKENDS {
            let out = on_fiber(p, fiber, backend, |c, pos| bruck_member(c, fiber, pos, 2, &cuts));
            check_members(&out, fiber, |_| allgather_bruck_msgs(g), &format!("strided {backend}"));
            for words in out.results.iter().flatten() {
                assert_eq!(words, &want, "strided {backend}");
            }
        }
    }

    #[test]
    fn reduce_scatter_sums_and_scatters() {
        for p in [1usize, 2, 3, 4, 5, 8] {
            let len = 13;
            let spec = MachineSpec::test_machine(p, 1000);
            let out = run_spmd_with(&spec, SHARDED, |mut c| async move {
                let mut data: Vec<f64> = (0..len).map(|i| (c.rank() * 100 + i) as f64).collect();
                reduce_scatter_ring(&mut c, world(p), &mut data, 50, Phase::OutputC).await
            })
            .unwrap();
            // Reference sum.
            let want: Vec<f64> = (0..len).map(|i| (0..p).map(|r| (r * 100 + i) as f64).sum()).collect();
            let ranges = even_chunk_ranges(len, p);
            let mut owned = vec![false; p];
            for (pos, (idx, chunk)) in out.results.iter().enumerate() {
                assert_eq!(*idx, (pos + 1) % p, "p={p}: wrong owned chunk");
                assert!(!owned[*idx], "chunk owned twice");
                owned[*idx] = true;
                assert_eq!(chunk.as_slice(), &want[ranges[*idx].clone()], "p={p} pos={pos}");
            }
            assert!(owned.iter().all(|&x| x));
        }
        // A strided fiber: member `pos` owns chunk `pos + 1` of the sum.
        let (p, fiber) = STRIDED;
        let (g, len) = (fiber.len, 13);
        let want: Vec<f64> = (0..len)
            .map(|i| (0..g).map(|j| (fiber.rank(j) * 100 + i) as f64).sum())
            .collect();
        for backend in BACKENDS {
            let out = on_fiber(p, fiber, backend, |mut c, pos| async move {
                let mut data: Vec<f64> = (0..len).map(|i| (c.rank() * 100 + i) as f64).collect();
                (pos, reduce_scatter_ring(&mut c, fiber, &mut data, 50, Phase::OutputC).await)
            });
            let what = format!("strided {backend}");
            check_members(&out, fiber, |_| (g - 1) as u64, &what);
            for (pos, (idx, chunk)) in out.results.iter().flatten() {
                assert_eq!(*idx, (pos + 1) % g, "{what}: member {pos}");
                assert_eq!(chunk.as_slice(), &want[even_range(len, g, *idx)], "{what}: member {pos}");
            }
        }
    }

    #[test]
    fn reduce_scatter_traffic_is_balanced() {
        let p = 4;
        let len = 40; // divisible: every chunk is 10 words
        let spec = MachineSpec::test_machine(p, 1000);
        let out = run_spmd_with(&spec, SHARDED, |mut c| async move {
            let mut data = vec![1.0; len];
            reduce_scatter_ring(&mut c, world(p), &mut data, 51, Phase::OutputC).await;
        })
        .unwrap();
        for st in &out.stats {
            assert_eq!(st.total_recv() as usize, len - len / p);
            assert_eq!(st.msgs_recv as usize, p - 1);
        }
    }

    #[test]
    fn even_chunk_ranges_cover() {
        let r = even_chunk_ranges(10, 3);
        assert_eq!(r, vec![0..4, 4..7, 7..10]);
        let r = even_chunk_ranges(3, 5);
        assert_eq!(r, vec![0..1, 1..2, 2..3, 3..3, 3..3]);
    }

    /// One shared collective workload, for the cross-backend checks below.
    async fn collective_workload(mut c: RankComm) -> (Vec<f64>, Vec<f64>, usize) {
        let group: Vec<usize> = (0..c.size()).collect();
        let mut data = if c.rank() == 0 { vec![7.0; 5] } else { vec![] };
        bcast(&mut c, &group, 0, &mut data, 1, Phase::InputA).await;
        let mut sum = vec![c.rank() as f64];
        reduce_sum(&mut c, &group, 0, &mut sum, 2, Phase::OutputC).await;
        // One word per rank; count the words that came to their place.
        let (me, p) = (c.rank(), c.size());
        let own = [me as f64];
        let got =
            allgather_bruck(&mut c, world(p), |out| out.extend_from_slice(&own), |j| j, 3, Phase::InputB)
                .await;
        let words = rebuilt(&got, &own, |_| true);
        got.recycle(&c);
        let gathered = words.iter().enumerate().filter(|&(j, &v)| v == j as f64).count();
        (data, sum, gathered)
    }

    #[test]
    fn collectives_complete_on_fewer_threads_than_ranks() {
        // A world far bigger than the scheduler's two threads: tree parents
        // and gather partners park awaiting peers in other regions, and
        // every collective must still terminate with the right data.
        let p = 24;
        let spec = MachineSpec::test_machine(p, 1000);
        let out = run_spmd_with(&spec, ExecBackend::Event { threads: 2 }, collective_workload)
            .expect("two-thread run accepted");
        for (r, (data, _, gathered)) in out.results.iter().enumerate() {
            assert_eq!(data, &vec![7.0; 5], "rank {r} missed the broadcast");
            assert_eq!(*gathered, p, "rank {r} missed allgather chunks");
        }
        let expect: f64 = (0..p).map(|r| r as f64).sum();
        assert_eq!(out.results[0].1, vec![expect]);
    }

    #[test]
    fn collectives_complete_on_the_event_executor() {
        // The same workload on one scheduler thread: every tree/exchange
        // wait must park and resume through the matching table, and results
        // and the measurement, virtual clock included, equal the four-thread
        // run's bit for bit.
        let p = 24;
        let spec = MachineSpec::test_machine(p, 1000);
        let sharded = run_spmd_with(&spec, SHARDED, collective_workload).unwrap();
        let event =
            run_spmd_with(&spec, ExecBackend::event(), collective_workload).expect("event run accepted");
        assert_eq!(sharded.results, event.results);
        assert_eq!(sharded.stats, event.stats);
    }

    #[test]
    fn consecutive_collectives_do_not_cross_talk() {
        let spec = MachineSpec::test_machine(4, 1000);
        let out = run_spmd_with(&spec, SHARDED, |mut c| async move {
            let group: Vec<usize> = (0..c.size()).collect();
            let mut a = if c.rank() == 0 { vec![1.0] } else { vec![] };
            bcast(&mut c, &group, 0, &mut a, 100, Phase::InputA).await;
            let mut b = if c.rank() == 3 { vec![2.0] } else { vec![] };
            bcast(&mut c, &group, 3, &mut b, 101, Phase::InputB).await;
            let mut s = vec![1.0];
            reduce_sum(&mut c, &group, 0, &mut s, 102, Phase::OutputC).await;
            (a, b, s)
        })
        .unwrap();
        for r in 0..4 {
            assert_eq!(out.results[r].0, vec![1.0]);
            assert_eq!(out.results[r].1, vec![2.0]);
        }
        assert_eq!(out.results[0].2, vec![4.0]);
    }
}
