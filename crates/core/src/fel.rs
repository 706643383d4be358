//! The future event list (FEL).
//!
//! A min-priority queue of events ordered by [`EventKey`]. Every LP owns one
//! FEL; the sequential kernel owns a single global FEL.
//!
//! Two interchangeable implementations sit behind the same API, selected by
//! [`FelImpl`] (see DESIGN.md §4.4):
//!
//! - [`FelImpl::BinaryHeap`]: the reference `std::collections::BinaryHeap`
//!   min-heap — O(log n) sift per push/pop, branchy comparisons on every
//!   level.
//! - [`FelImpl::Ladder`] (default): a size-adaptive ladder queue (after Tang
//!   & Goh's ladder queue). A list of at most a bucket's worth of events is a
//!   small sorted bottom tier (popped O(1) from the back) with an unsorted
//!   far-future overflow behind it, and builds nothing else. A larger list
//!   spreads its events over fixed-width time buckets, each a chain of
//!   16-event chunks from a pool the ladder recycles, so no bucket regrows
//!   and the memory held follows the events held; a promoted bucket is
//!   either sorted into the bottom or — when too large to sort cheaply —
//!   subdivided into a finer child rung. An imminent push is inserted into
//!   the bottom in place when it lands fewer than `LADDER_INSERT_WINDOW`
//!   places from the back (a scan from the back), and staged unsorted for
//!   one lazy merge otherwise.
//!   Amortized O(1) per event on both the kernels' windowed access pattern
//!   (many small per-LP lists) and the sequential kernel's push-one/pop-one
//!   pattern (one large list).
//!
//! Both implementations pop in exactly the same order — the total
//! [`EventKey`] order — so simulation results are bit-identical regardless
//! of the configured implementation (checked by the differential property
//! suite in `crates/core/tests/proptests.rs`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::event::{Event, EventKey};
use crate::time::Time;

/// Which FEL implementation a run uses (`RunConfig::fel`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FelImpl {
    /// The reference binary min-heap.
    BinaryHeap,
    /// The size-adaptive ladder queue (default).
    #[default]
    Ladder,
}

impl FelImpl {
    /// Short display name, used in reports and bench output.
    pub fn name(self) -> &'static str {
        match self {
            FelImpl::BinaryHeap => "binary-heap",
            FelImpl::Ladder => "ladder",
        }
    }
}

/// Wrapper inverting the event order so `BinaryHeap` acts as a min-heap.
struct HeapEntry<P>(Event<P>);

impl<P> PartialEq for HeapEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key
    }
}

impl<P> Eq for HeapEntry<P> {}

impl<P> PartialOrd for HeapEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for HeapEntry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the smallest key is the "greatest" heap element.
        other.0.key.cmp(&self.0.key)
    }
}

/// Number of buckets per rung. Each rung covers `LADDER_BUCKETS`
/// bucket-widths of virtual time; the width is recalibrated from the
/// observed span at every re-prime, and again (divided by this factor)
/// every time an oversized bucket spawns a child rung.
const LADDER_BUCKETS: usize = 32;

/// Promotion threshold: a bucket no larger than this is sorted straight
/// into the bottom tier; a larger one is split into a finer child rung
/// first (unless its width is already 1 ns, the resolution floor).
const LADDER_THRES: usize = 64;

/// Bound on the near tier (`bottom` + `stage`) while no rung exists: a list
/// that outgrows it is not small after all, and is spilled into one rung so
/// the staged re-sorts stay bounded (see [`Ladder::spill_near`]). Also the
/// largest near-tier buffer a refill keeps (see [`Ladder::refill`]) and
/// the largest overflow buffer a re-prime keeps (see [`Ladder::reprime`]).
const LADDER_NEAR_MAX: usize = 4 * LADDER_THRES;

/// The in-place window: a near-tier push while nothing is staged is
/// inserted straight into the bottom when its slot lies fewer than this
/// many places from the back, and staged otherwise (see
/// [`Ladder::direct_slot`]). The scan from the back touches only the events
/// the insert then shifts, in one contiguous `memmove`; a staged push costs
/// a third buffer per list and, at the merge, the same scan and shift or a
/// share of a re-sort. Staging what lands deeper keeps a burst behind the
/// back linear: one sort, not one `memmove` of the whole bottom per event.
///
/// Set from the traffic, not from a cost model. At 8, 87 % of
/// `dumbbell_dctcp`'s sequential pushes were staged, landing 9.2 places
/// deep on average, and every `phold_torus` list kept a stage buffer; at
/// 16 the staged pushes fall by half and to 529 a run. A sweep over 8, 16,
/// 32 and 64 lowered `phold_torus` peak RSS at every window from 16 up
/// and at none of 8, and resolved no run-time difference, so the window
/// is the smallest that takes the stage off the small lists
/// (EXPERIMENTS.md "The near tier inserts in place").
const LADDER_INSERT_WINDOW: usize = 16;

/// The merge batch: a stage of at most this many events is merged by
/// back-scan insertion (see [`Ladder::flush_stage`]); a larger one is
/// appended and the whole bottom re-sorted once, so a burst of any size
/// costs one sort. At 16, with the window at 16, no whole-bottom re-sort is
/// left on `dumbbell_dctcp` and `phold_torus` (23 670 and 1 788 a run at 8);
/// the same sweep told no larger batch apart from it.
const LADDER_MERGE_MAX: usize = 16;

/// Depth cap on the rung stack — a backstop against adversarial
/// distributions; widths shrink by `LADDER_BUCKETS`x per level, so real
/// workloads bottom out at width 1 long before this.
const LADDER_MAX_RUNGS: usize = 16;

/// Events per rung-bucket chunk, and every chunk buffer's exact capacity. A
/// bucket is a chain of chunks, so it never reallocates; a chunk is small
/// enough that the one partial chunk of each non-empty bucket costs little
/// (32 or 64 events measured more memory on `fattree_incast`, DESIGN.md
/// §7).
const LADDER_CHUNK: usize = 16;

/// "No slot": the end of a bucket's chain of full chunks.
const NIL: u32 = u32::MAX;

/// A rung bucket, or the overflow of the large-list regime: a chain of
/// chunks. The newest chunk, `open`, sits in the bucket itself and is
/// filled in place, so a push costs what a `Vec` push costs; it holds
/// 1..=`LADDER_CHUNK` events while the bucket is non-empty, and no buffer
/// at all while the bucket is empty. The older chunks hang off `full`
/// ([`Chunks::slots`]), each holding exactly `LADDER_CHUNK` events.
struct Bucket<P> {
    open: Vec<Event<P>>,
    full: u32,
}

impl<P> Bucket<P> {
    const EMPTY: Self = Bucket {
        open: Vec::new(),
        full: NIL,
    };
}

/// A full chunk parked on a bucket's chain, or a free slot (no buffer).
struct Slot<P> {
    events: Vec<Event<P>>,
    /// The next (older) full chunk of the same bucket.
    next: u32,
}

/// A ladder's chunk storage: the pool of empty chunk buffers and the slots
/// that chain full chunks behind their bucket's open one. A bucket takes
/// a buffer from the pool when it starts a chunk and gives every buffer
/// back when it is emptied; the pool allocates only when it is empty, and
/// never holds more buffers than are lent (the pool rule), so the ladder
/// holds at most twice the chunks its buckets use. When the list becomes
/// small again no chunk is lent, and the pool is empty.
struct Chunks<P> {
    /// Empty chunk buffers, each of capacity `LADDER_CHUNK`; never more
    /// than `lent`.
    pool: Vec<Vec<Event<P>>>,
    /// Chunk buffers out of the pool: the open and parked chunks of every
    /// bucket.
    lent: usize,
    /// Full chunks, chained per bucket, and free slots.
    slots: Vec<Slot<P>>,
    /// The free slots' indices. A stack, not a list threaded through the
    /// slots: taking a slot then reads no slot, and filling it is a store.
    free: Vec<u32>,
}

impl<P> Chunks<P> {
    /// Appends `ev` to bucket `b`.
    #[inline]
    fn push(&mut self, b: &mut Bucket<P>, ev: Event<P>) {
        if b.open.len() == b.open.capacity() {
            self.rotate(b);
        }
        b.open.push(ev);
    }

    /// Gives bucket `b` an empty open chunk from the pool: its first, or the
    /// next one after parking the full one on its chain.
    #[inline(never)]
    fn rotate(&mut self, b: &mut Bucket<P>) {
        let fresh = self
            .pool
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(LADDER_CHUNK));
        self.lent += 1;
        let events = std::mem::replace(&mut b.open, fresh);
        if events.capacity() == 0 {
            // The bucket was empty: nothing to park.
            return;
        }
        let slot = Slot {
            events,
            next: b.full,
        };
        b.full = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                // INVARIANT: a `u32` index of 16-event chunks addresses 2^36
                // events, beyond any memory this ladder can hold.
                let i = u32::try_from(self.slots.len()).expect("slot index fits u32");
                self.slots.push(slot);
                i
            }
        };
    }

    /// Empties bucket `b`, open chunk first: `each` empties every chunk's
    /// buffer (draining, appending or clearing it), which then goes back to
    /// the pool — before the next chunk is handed over, so a split's child
    /// rung fills the chunks its parent bucket just gave up.
    fn empty(&mut self, b: &mut Bucket<P>, mut each: impl FnMut(&mut Self, &mut Vec<Event<P>>)) {
        let mut open = std::mem::take(&mut b.open);
        if open.capacity() == 0 {
            return;
        }
        each(self, &mut open);
        self.give(open);
        let mut i = std::mem::replace(&mut b.full, NIL);
        while i != NIL {
            let mut events = std::mem::take(&mut self.slots[i as usize].events);
            each(self, &mut events);
            self.give(events);
            self.free.push(i);
            i = self.slots[i as usize].next;
        }
    }

    /// Takes back a lent chunk, as the emptied buffer `buf` (freed when it
    /// is not of chunk capacity), and trims the pool to the chunks still
    /// lent: one return frees at most two buffers.
    #[inline]
    fn give(&mut self, buf: Vec<Event<P>>) {
        debug_assert!(buf.is_empty());
        self.lent -= 1;
        if buf.capacity() == LADDER_CHUNK {
            self.pool.push(buf);
        }
        self.pool.truncate(self.lent);
    }

    /// The full chunks of a bucket whose chain starts at `full`, newest
    /// first.
    fn chain(&self, full: u32) -> impl Iterator<Item = &Slot<P>> {
        std::iter::successors(self.slots.get(full as usize), |s| {
            self.slots.get(s.next as usize)
        })
    }

    /// The events of bucket `b`, in storage order.
    fn events<'a>(&'a self, b: &'a Bucket<P>) -> impl Iterator<Item = &'a Event<P>> {
        b.open
            .iter()
            .chain(self.chain(b.full).flat_map(|s| &s.events))
    }

    /// Events in bucket `b`.
    fn len(&self, b: &Bucket<P>) -> usize {
        b.open.len() + LADDER_CHUNK * self.chain(b.full).count()
    }
}

/// What only a large list needs, allocated with a ladder's first rung and
/// kept from then on, so that a list that stays small carries one pointer
/// for the rung machinery instead of its state. A list that becomes small
/// again keeps the box, its slot table and its spare bucket arrays (a few
/// KiB), but not its chunk buffers.
struct Large<P> {
    /// The chunks of the rung buckets and of `overflow`, and their pool.
    chunks: Chunks<P>,
    /// Bucket arrays of retired rungs, reused by the next rung. Every
    /// bucket is empty and holds no chunk: a retired array keeps no event
    /// storage. Boxed as the rung holds them, so moving one between the
    /// two is a pointer move, not a 1 KiB copy or an allocation.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<Buckets<P>>>,
    /// The far-future events pushed while a rung existed and the ladder's
    /// overflow vector was full.
    overflow: Bucket<P>,
}

impl<P> Large<P> {
    /// The large-list state in `slot`, allocated on first use.
    #[inline]
    fn of(slot: &mut Option<Box<Self>>) -> &mut Self {
        slot.get_or_insert_with(Self::boxed)
    }

    #[cold]
    fn boxed() -> Box<Self> {
        Box::new(Large {
            chunks: Chunks {
                pool: Vec::new(),
                lent: 0,
                slots: Vec::new(),
                free: Vec::new(),
            },
            spare: Vec::new(),
            overflow: Bucket::EMPTY,
        })
    }
}

/// One rung: `LADDER_BUCKETS` fixed-width time buckets with a drain cursor.
struct Rung<P> {
    /// Inclusive lower time bound of bucket 0.
    start: Time,
    /// Bucket width in virtual nanoseconds (>= 1).
    width: u64,
    /// Drain cursor: buckets below this index have been promoted (they are
    /// empty); events in their time range now belong to a deeper rung or
    /// the bottom tier.
    cur: usize,
    /// Events stored in this rung.
    count: usize,
    /// The buckets. `buckets[i]` holds events with
    /// `start + i*width <= ts < start + (i+1)*width` (the last bucket also
    /// absorbs the saturated remainder near `u64::MAX`).
    buckets: Box<Buckets<P>>,
}

/// A rung's bucket array.
type Buckets<P> = [Bucket<P>; LADDER_BUCKETS];

impl<P> Rung<P> {
    /// Lower time bound of the not-yet-promoted region: pushes at or above
    /// it belong to this rung, pushes below it fall through to a deeper
    /// rung or the bottom tier.
    #[inline]
    fn threshold(&self) -> Time {
        Time(
            self.start
                .0
                .saturating_add((self.cur as u64).saturating_mul(self.width)),
        )
    }

    /// Bucket index for `ts` (callers guarantee `ts >= self.start`). The
    /// clamp only engages when the rung's nominal end saturated near
    /// `u64::MAX`; the last bucket then absorbs the tail, which is safe
    /// because it is promoted last and promotion sorts by full key.
    #[inline]
    fn bucket_of(&self, ts: Time) -> usize {
        (((ts.0 - self.start.0) / self.width) as usize).min(LADDER_BUCKETS - 1)
    }

    /// Files `ev` (at or after the threshold) into its bucket.
    #[inline]
    fn put(&mut self, chunks: &mut Chunks<P>, ev: Event<P>) {
        let idx = self.bucket_of(ev.key.ts);
        self.count += 1;
        chunks.push(&mut self.buckets[idx], ev);
    }
}

/// The multi-rung ladder queue (see module docs and DESIGN.md §4.4).
///
/// Three tiers (and `never`, invariant 5):
///
/// - **near** (`bottom` ∪ `stage`): `bottom` is a small vector sorted
///   descending by [`EventKey`], popped from the back — the imminent
///   events. A push into this range goes straight into `bottom` when its
///   slot is fewer than `LADDER_INSERT_WINDOW` places from the back and
///   nothing is staged; otherwise it waits, unsorted, in `stage`.
/// - **rungs**: a stack of [`Rung`]s. `rungs[0]` is the coarsest; each
///   deeper rung subdivides one promoted bucket of its parent, so deeper
///   rungs always cover *earlier* time than the shallower remainders. A
///   bucket is a chain of fixed-size chunks from the ladder's pool
///   ([`Chunks`]), so no bucket ever regrows, and the memory the rungs
///   hold follows the events they hold.
/// - **overflow**: unsorted far-future events at or beyond `top_start`
///   (the horizon), with a cached minimum timestamp. They go into a plain
///   vector (`overflow`), which grows only while no rung exists; in the
///   large-list regime, what its retained capacity cannot take goes into a
///   chunk chain (`large.overflow`), so a large list's overflow never
///   regrows either.
///
/// The rungs exist only while the list is large, and so does their chunk
/// memory: the pool never holds more empty chunks than the buckets hold
/// (the pool rule, [`Chunks`]), so when the list is small again it holds
/// none; and a refill frees a near-tier buffer that a burst grew past
/// `LADDER_NEAR_MAX` (the near-tier rule, [`Ladder::refill`]). The split rule
/// (`LADDER_THRES`) decides it, on every tier: an overflow no larger than
/// the threshold is sorted straight into the bottom (no rung, no chunk —
/// the per-LP lists of a fine-grained partition live here and the structure
/// is a sorted vector with an unsorted tail); a larger one is spread over
/// a rung, and a promoted bucket above the threshold is subdivided into a
/// child rung in O(len) instead of being re-sorted on every near-tier
/// insert (the sequential kernel's single global list lives here).
///
/// # Invariants
///
/// 1. The near tier holds exactly the stored events with
///    `ts < rungs.last().threshold()`, or all events below `top_start`
///    when no rung exists; `bottom` is sorted descending by key and popped
///    from the back, `stage_min` caches the minimum staged key.
/// 2. Within a rung, buckets at or after `cur` cover ascending disjoint
///    time ranges; buckets before `cur` are empty. Each rung's remaining
///    range starts at or after the end of every deeper rung's range.
/// 3. Every overflow event has `top_start <= ts < Time::MAX`, and
///    `top_start` only moves (up) when the near tier and every rung are
///    empty: to one past the latest promoted event when a small overflow
///    is sorted into the bottom, to the new rung's end at a re-prime.
/// 4. While no rung exists the near tier holds at most `LADDER_NEAR_MAX`
///    events: the push that would exceed it spills the tier into one rung
///    over `[min ts, top_start)`.
/// 5. Events at `Time::MAX` ("never") sit in `never` and nowhere else; they
///    follow every other event, so no horizon ever has to rise past them.
///
/// Together these give the pop rule: the global minimum is at the back of
/// the bottom if non-empty, else in the first non-empty bucket of the
/// deepest non-empty rung, else in the overflow, else in `never`.
struct Ladder<P> {
    /// Imminent events, sorted descending by key; pop from the back.
    bottom: Vec<Event<P>>,
    /// Unsorted near-tier pushes, merged into `bottom` lazily — only when
    /// the next pop would otherwise return a later key. The first push to
    /// land outside the window (`LADDER_INSERT_WINDOW`) starts it,
    /// and every near-tier push until the merge joins it, so a burst costs
    /// O(1) per event and one sort; the sort is bounded because the split
    /// rule keeps `bottom` near `LADDER_THRES` and invariant 4 bounds the
    /// tier when there is no rung to split into.
    stage: Vec<Event<P>>,
    /// Minimum key in `stage`; meaningless when `stage` is empty.
    stage_min: EventKey,
    /// Rung stack: `[0]` coarsest, last = deepest (earliest remaining).
    rungs: Vec<Rung<P>>,
    /// The rungs' chunks, their retired bucket arrays and the overflow's
    /// chunk chain; `None` until the first rung is built.
    large: Option<Box<Large<P>>>,
    /// Far-future tier: unsorted events at or beyond the horizon. It grows
    /// only while no rung exists; the rest of the tier is `large.overflow`.
    overflow: Vec<Event<P>>,
    /// Cached minimum timestamp of the far-future tier (`Time::MAX` when
    /// empty).
    overflow_min: Time,
    /// The horizon: pushes at or above it go to the overflow.
    top_start: Time,
    /// Events at `Time::MAX`, unsorted (invariant 5).
    never: Vec<Event<P>>,
    /// Memoized minimum timestamp stored in any rung (`Time::MAX` when the
    /// rungs are empty); `None` when stale. [`Ladder::next_ts`] is called
    /// once per LP per round by the kernels' window planning, and without
    /// the memo each call re-scans the deepest rung's front bucket. Pushes
    /// keep the memo exact (`min`); structural changes — promotion, rung
    /// spawn, clear — invalidate it.
    rung_min_memo: std::cell::Cell<Option<Time>>,
    /// Total stored events.
    len: usize,
}

impl<P> Ladder<P> {
    fn new(capacity: usize) -> Self {
        Ladder {
            bottom: Vec::with_capacity(capacity),
            stage: Vec::new(),
            stage_min: EventKey::MAX,
            rungs: Vec::new(),
            large: None,
            overflow: Vec::new(),
            overflow_min: Time::MAX,
            top_start: Time::ZERO,
            never: Vec::new(),
            rung_min_memo: std::cell::Cell::new(Some(Time::MAX)),
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, ev: Event<P>) {
        self.len += 1;
        let ts = ev.key.ts;
        if ts >= self.top_start {
            if ts == Time::MAX {
                self.never.push(ev);
                return;
            }
            self.overflow_min = self.overflow_min.min(ts);
            if self.rungs.is_empty() || self.overflow.len() < self.overflow.capacity() {
                self.overflow.push(ev);
            } else {
                let Large {
                    chunks, overflow, ..
                } = Large::of(&mut self.large);
                chunks.push(overflow, ev);
            }
            return;
        }
        // Coarsest-first walk: each deeper rung covers an earlier range
        // (invariant 2), so the first rung whose remaining range contains
        // `ts` is the right one. The stack is almost always 1-2 deep.
        for r in &mut self.rungs {
            if ts >= r.threshold() {
                r.put(&mut Large::of(&mut self.large).chunks, ev);
                // A push can only lower the rung minimum, so the memo
                // stays exact without a rescan.
                self.rung_min_memo
                    .set(self.rung_min_memo.get().map(|m| m.min(ts)));
                return;
            }
        }
        // Below every rung cursor: the event is imminent. Insert it where it
        // belongs if that is near the back, else stage it for a lazy merge
        // into the sorted bottom.
        if let Some(at) = self.direct_slot(&ev.key) {
            self.bottom.insert(at, ev);
        } else {
            if self.stage.is_empty() || ev.key < self.stage_min {
                self.stage_min = ev.key;
            }
            self.stage.push(ev);
        }
        if self.rungs.is_empty() && self.bottom.len() + self.stage.len() > LADDER_NEAR_MAX {
            self.spill_near();
        }
    }

    /// Where a near-tier push with `key` goes straight into `bottom`: its
    /// slot, found by scanning from the back, when nothing is staged and
    /// the slot is fewer than `LADDER_INSERT_WINDOW` places from the back
    /// (or the bottom is no longer than the window). `None` stages the
    /// push. Behind a non-empty stage every push is staged: inserting in
    /// place there too was no faster with a window of 8, nor with both
    /// bounds at 16, where it staged 86 % fewer of `dumbbell_dctcp`'s
    /// sequential pushes and ran that cell 1.5 % slower (DESIGN.md §7).
    #[inline]
    fn direct_slot(&self, key: &EventKey) -> Option<usize> {
        if !self.stage.is_empty() {
            return None;
        }
        let lo = self.bottom.len().saturating_sub(LADDER_INSERT_WINDOW);
        match self.bottom[lo..].iter().rposition(|e| e.key > *key) {
            Some(i) => Some(lo + i + 1),
            None => (lo == 0).then_some(0),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Event<P>> {
        loop {
            if !self.stage.is_empty()
                && (self.bottom.is_empty()
                    // INVARIANT: `bottom` is non-empty on this branch.
                    || self.stage_min < self.bottom.last().expect("bottom non-empty").key)
            {
                self.flush_stage();
            }
            if let Some(ev) = self.bottom.pop() {
                self.len -= 1;
                return Some(ev);
            }
            if self.len == self.never.len() {
                return self.pop_never();
            }
            self.refill();
        }
    }

    /// [`Ladder::pop`] restricted to events with `ts < bound` — the
    /// kernel's per-round drain loop. Deciding from tier *lower bounds*
    /// alone (bottom back, `stage_min`, the next bucket's start, the
    /// cached overflow minimum) keeps the no-more-work answer cheap: a
    /// failing call never scans bucket contents the way [`Ladder::next_ts`]
    /// must and never sorts the overflow, so the round-boundary probe is
    /// O(1) amortized.
    ///
    /// The stage is flushed only when a staged event is actually *due*
    /// (`stage_min.ts < bound`), not merely earlier than the bottom head:
    /// keys order by `ts` first, so a staged event at or after `bound` can
    /// never precede a poppable bottom event. Arrivals that are not yet
    /// poppable therefore accumulate unsorted across calls and are merged
    /// in one sort when the bound reaches them.
    fn pop_below(&mut self, bound: Time) -> Option<Event<P>> {
        loop {
            let stage_due = !self.stage.is_empty() && self.stage_min.ts < bound;
            if let Some(ev) = self.bottom.last() {
                if stage_due && self.stage_min < ev.key {
                    self.flush_stage();
                    continue;
                }
                if ev.key.ts >= bound {
                    return None;
                }
                // INVARIANT: `last()` above proved `bottom` non-empty.
                let ev = self.bottom.pop().expect("bottom non-empty");
                self.len -= 1;
                return Some(ev);
            }
            if stage_due {
                self.flush_stage();
                continue;
            }
            if !self.stage.is_empty() {
                // Staged events are all at/after `bound`, and every rung
                // and overflow event is at/after the deepest rung
                // threshold, which lies above the staged range — nothing
                // below `bound` exists.
                return None;
            }
            // `settle` answers `Time::MAX` when only `never` events remain,
            // which no bound exceeds.
            if self.len == 0 || self.settle() >= bound {
                return None;
            }
            // The next bucket (or the overflow) starts below `bound`, so it
            // may hold a qualifying event: promote it (the cursor work
            // `settle` just did makes the nested call inside `refill` O(1))
            // and re-check.
            self.refill();
        }
    }

    /// Pops the minimum-key `Time::MAX` event. Caller guarantees every
    /// other tier is empty. A linear scan: such events are sentinels, a
    /// handful at most.
    #[cold]
    fn pop_never(&mut self) -> Option<Event<P>> {
        let i = (0..self.never.len()).min_by_key(|&i| self.never[i].key)?;
        self.len -= 1;
        Some(self.never.swap_remove(i))
    }

    /// Merges the staged pushes into the sorted bottom. Up to
    /// `LADDER_MERGE_MAX` of them are inserted in place, each slot found by
    /// scanning from the back — the scan visits exactly the events the
    /// `insert` then shifts, so it never costs more than the move it
    /// precedes, and staged events mostly land near the back; a larger
    /// batch is appended and the whole tier re-sorted, which keeps the
    /// allocation. The near tier is bounded (see `stage`), so either stays
    /// small.
    fn flush_stage(&mut self) {
        if self.stage.len() <= LADDER_MERGE_MAX {
            for ev in self.stage.drain(..) {
                let at = self
                    .bottom
                    .iter()
                    .rposition(|e| e.key > ev.key)
                    .map_or(0, |i| i + 1);
                self.bottom.insert(at, ev);
            }
            return;
        }
        self.bottom.append(&mut self.stage);
        self.sort_bottom();
    }

    /// Restores `bottom`'s order (descending by key) after an append.
    fn sort_bottom(&mut self) {
        self.bottom
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
    }

    /// Retires spent rungs and advances the deepest live rung's cursor to
    /// its first non-empty bucket. Returns the earliest timestamp any tier
    /// below the (empty) near tier can still hold: that bucket's lower time
    /// bound, or the cached overflow minimum when every rung is spent.
    /// Caller guarantees the near tier is empty.
    fn settle(&mut self) -> Time {
        while let Some(r) = self.rungs.last_mut() {
            if r.count > 0 {
                // INVARIANT: `count > 0` implies a non-empty bucket at or
                // after `cur` (invariant 2), so the cursor stays in bounds.
                while r.buckets[r.cur].open.is_empty() {
                    r.cur += 1;
                }
                return r.threshold();
            }
            // A spent rung holds no chunk: each bucket gave its chunks back
            // to the pool when it was promoted.
            debug_assert!(r.buckets.iter().all(|b| b.open.capacity() == 0));
            // INVARIANT: the `last_mut()` above guarantees a rung.
            let r = self.rungs.pop().expect("rung stack non-empty");
            Large::of(&mut self.large).spare.push(r.buckets);
        }
        self.overflow_min
    }

    /// Refills the empty near tier from the earliest events beyond it.
    /// With a live rung: promotes the deepest rung's next non-empty
    /// bucket, splitting it into a child rung when it is too big to sort
    /// cheaply. With every rung spent: sorts a small overflow straight
    /// into the bottom, or re-primes a rung from a large one. Caller
    /// guarantees the near tier is empty and an event below `Time::MAX`
    /// is stored.
    ///
    /// A near-tier buffer that a burst grew past `LADDER_NEAR_MAX` is
    /// freed first (the near-tier rule): the tier is empty, and a rung
    /// refills it a bucket at a time.
    fn refill(&mut self) {
        debug_assert!(self.bottom.is_empty() && self.stage.is_empty());
        for near in [&mut self.bottom, &mut self.stage] {
            if near.capacity() > LADDER_NEAR_MAX {
                *near = Vec::new();
            }
        }
        loop {
            self.settle();
            let depth = self.rungs.len();
            let Some(ri) = depth.checked_sub(1) else {
                let chunked = self
                    .large
                    .as_deref()
                    .map_or(0, |l| l.chunks.len(&l.overflow));
                let far = self.overflow.len() + chunked;
                if far <= LADDER_THRES {
                    self.promote_overflow();
                    return;
                }
                self.reprime();
                continue;
            };
            let r = &mut self.rungs[ri];
            let (start, width, cur) = (r.threshold(), r.width, r.cur);
            let mut bucket = std::mem::replace(&mut r.buckets[cur], Bucket::EMPTY);
            let len = Large::of(&mut self.large).chunks.len(&bucket);
            r.count -= len;
            // The promoted bucket held the rung minimum (invariant 2).
            self.rung_min_memo.set(None);
            // Advance the cursor *before* anything re-enters this range:
            // pushes into it now fall through to the child rung or bottom.
            r.cur += 1;
            if len > LADDER_THRES && width > 1 && depth < LADDER_MAX_RUNGS {
                // The split: the bucket's chunks go back to the pool as the
                // child rung fills its own.
                let width = width / LADDER_BUCKETS as u64 + 1;
                self.spawn_rung(start, width, &mut Vec::new(), &mut bucket);
                continue;
            }
            self.bucket_into_bottom(&mut bucket);
            self.sort_bottom();
            return;
        }
    }

    /// Moves the events of bucket `b` (a promoted bucket, the overflow's
    /// chunks) into `bottom` and gives its chunks back to the pool. A
    /// one-chunk bucket whose buffer is at least as large as the empty
    /// bottom's *becomes* the bottom — no copy — and the bottom's old
    /// buffer is given back in its place (and freed when it is smaller
    /// than a chunk or the pool is full). Otherwise the events are
    /// appended. The condition keeps a bottom that has grown past a chunk
    /// where it is: swapping it into the pool would park a large buffer
    /// there while the bottom regrew (DESIGN.md §7).
    fn bucket_into_bottom(&mut self, b: &mut Bucket<P>) {
        if b.open.is_empty() {
            return;
        }
        let chunks = &mut Large::of(&mut self.large).chunks;
        if b.full == NIL && self.bottom.is_empty() && self.bottom.capacity() <= LADDER_CHUNK {
            std::mem::swap(&mut self.bottom, &mut b.open);
            chunks.give(std::mem::take(&mut b.open));
            return;
        }
        let bottom = &mut self.bottom;
        chunks.empty(b, |_, chunk| bottom.append(chunk));
    }

    /// Pushes a new deepest rung covering `LADDER_BUCKETS` buckets of
    /// `width` ns from `start`, and drains `events` and bucket `b` into it.
    fn spawn_rung(
        &mut self,
        start: Time,
        width: u64,
        events: &mut Vec<Event<P>>,
        b: &mut Bucket<P>,
    ) {
        let large = Large::of(&mut self.large);
        let buckets = large
            .spare
            .pop()
            .unwrap_or_else(|| Box::new([const { Bucket::EMPTY }; LADDER_BUCKETS]));
        self.rungs.push(Rung {
            start,
            width,
            cur: 0,
            count: 0,
            buckets,
        });
        // INVARIANT: the rung was just pushed.
        let rung = self.rungs.last_mut().expect("rung just pushed");
        for ev in events.drain(..) {
            rung.put(&mut large.chunks, ev);
        }
        large.chunks.empty(b, |chunks, chunk| {
            for ev in chunk.drain(..) {
                rung.put(chunks, ev);
            }
        });
        self.rung_min_memo.set(None);
    }

    /// The small-list refill: the whole overflow is no larger than a
    /// bucket the split rule would sort, so sort it straight into the
    /// bottom and raise the horizon to one past its latest event. No rung
    /// is built; what is pushed below the new horizon is staged, what is
    /// pushed at or above it starts the next overflow.
    ///
    /// Every rung is spent and the overflow's chunks are in the bottom, so
    /// no chunk is lent and, by the pool rule, the pool is empty: the next
    /// spill or re-prime allocates its chunks again. A pool kept through
    /// the small regime would hold each ladder's burst high-water for the
    /// rest of the run, while the allocator shares freed buffers among all
    /// ladders (DESIGN.md §4.4, §7).
    fn promote_overflow(&mut self) {
        debug_assert!(self.rungs.is_empty() && self.bottom.is_empty());
        let mut chunked = self.take_overflow_chunks();
        self.bucket_into_bottom(&mut chunked);
        // Swapping the buffers costs nothing per event, but leaves the
        // overflow with the bottom's old buffer, so it is done only when
        // that buffer is no larger than the one the overflow gives up:
        // neither buffer grows by a promotion.
        if self.bottom.is_empty() && self.bottom.capacity() <= self.overflow.capacity() {
            std::mem::swap(&mut self.bottom, &mut self.overflow);
        } else {
            self.bottom.append(&mut self.overflow);
        }
        self.sort_bottom();
        self.overflow_min = Time::MAX;
        // Overflow events lie below `Time::MAX` (invariant 3).
        self.top_start = Time(self.bottom[0].key.ts.0 + 1);
        debug_assert!(self
            .large
            .as_deref()
            .is_none_or(|l| l.chunks.pool.is_empty() && l.chunks.lent == 0));
    }

    /// The large-list refill: recalibrates the bucket width from the
    /// overflow's observed span, raises the horizon to the new rung's end,
    /// and redistributes every overflow event into a fresh rung 0. Nothing
    /// that is currently stored re-overflows, so a far outlier is
    /// rescanned at most once per horizon.
    ///
    /// The drained overflow vector is kept only when it is near-tier
    /// sized. A larger one grew while no rung existed — the list's first
    /// fill, or a small list that grew — and in the rung regime it would
    /// sit idle at that size, as what it cannot take goes into chunks.
    fn reprime(&mut self) {
        debug_assert!(self.rungs.is_empty());
        let mut chunked = self.take_overflow_chunks();
        let mut omin = Time::MAX;
        let mut omax = Time::ZERO;
        let parked = self.large.as_deref().into_iter();
        let parked = parked.flat_map(|l| l.chunks.chain(chunked.full).map(|s| &s.events));
        for events in [&self.overflow, &chunked.open].into_iter().chain(parked) {
            for ev in events {
                omin = omin.min(ev.key.ts);
                omax = omax.max(ev.key.ts);
            }
        }
        let width = ((omax.0 - omin.0) / LADDER_BUCKETS as u64) + 1;
        self.top_start = Time(
            omin.0
                .saturating_add(width.saturating_mul(LADDER_BUCKETS as u64)),
        );
        let mut events = std::mem::take(&mut self.overflow);
        self.overflow_min = Time::MAX;
        self.spawn_rung(omin, width, &mut events, &mut chunked);
        if events.capacity() <= LADDER_NEAR_MAX {
            self.overflow = events;
        }
    }

    /// Takes the overflow's chunk chain out of the large-list state (an
    /// empty bucket when there is none).
    fn take_overflow_chunks(&mut self) -> Bucket<P> {
        self.large.as_deref_mut().map_or(Bucket::EMPTY, |l| {
            std::mem::replace(&mut l.overflow, Bucket::EMPTY)
        })
    }

    /// Ends the rung-less regime (invariant 4): the near tier has outgrown
    /// `LADDER_NEAR_MAX`, so the list is not small after all. Moves the
    /// whole tier into one rung over `[min ts, top_start)`; from here the
    /// split rule bounds every sort, as it does for a re-primed rung.
    #[cold]
    fn spill_near(&mut self) {
        debug_assert!(self.rungs.is_empty() && self.bottom.len() + self.stage.len() > 0);
        // The tier's minimum: the bottom's back, or the staged minimum when
        // anything is staged (a direct insert can leave the stage empty).
        let mut start = self.bottom.last().map_or(Time::MAX, |ev| ev.key.ts);
        if !self.stage.is_empty() {
            start = start.min(self.stage_min.ts);
        }
        // Near-tier events lie below `top_start` (invariant 1).
        let width = (self.top_start.0 - 1 - start.0) / LADDER_BUCKETS as u64 + 1;
        let mut events = std::mem::take(&mut self.bottom);
        events.append(&mut self.stage);
        let mut none = Bucket::EMPTY;
        self.spawn_rung(start, width, &mut events, &mut none);
        self.bottom = events;
    }

    /// Timestamp of the next event (`Time::MAX` when empty), without
    /// mutating the structure: the cached `overflow_min` avoids the
    /// overflow scan, and bucket scans only need the minimum `ts`. The
    /// answers that read no rung — the sequential kernel asks its event
    /// list and its (mostly empty) global list once per event — are
    /// inlined; the rung scan is [`Ladder::next_ts_in_rungs`].
    #[inline]
    fn next_ts(&self) -> Time {
        if let Some(ev) = self.bottom.last() {
            let near = ev.key.ts;
            return if self.stage.is_empty() {
                near
            } else {
                near.min(self.stage_min.ts)
            };
        }
        if !self.stage.is_empty() {
            return self.stage_min.ts;
        }
        if self.rungs.is_empty() {
            return self.overflow_min;
        }
        self.next_ts_in_rungs()
    }

    /// [`Ladder::next_ts`] with an empty near tier and a rung: the rung
    /// minimum (memoized) or the overflow's.
    fn next_ts_in_rungs(&self) -> Time {
        let rung_min = self.rung_min_memo.get().unwrap_or_else(|| {
            // Invariant 2: the first non-empty bucket of the deepest
            // non-empty rung holds the rung minimum.
            let first = self
                .rungs
                .iter()
                .rev()
                .flat_map(|r| &r.buckets[r.cur..])
                .find(|b| !b.open.is_empty());
            let m = match (first, self.large.as_deref()) {
                (Some(b), Some(large)) => large
                    .chunks
                    .events(b)
                    .map(|e| e.key.ts)
                    .fold(Time::MAX, Time::min),
                _ => Time::MAX,
            };
            self.rung_min_memo.set(Some(m));
            m
        });
        rung_min.min(self.overflow_min)
    }

    fn iter(&self) -> impl Iterator<Item = &Event<P>> {
        let chunked = self.large.as_deref().into_iter().flat_map(|large| {
            let rungs = self.rungs.iter().flat_map(|r| r.buckets.iter());
            rungs
                .chain([&large.overflow])
                .flat_map(|b| large.chunks.events(b))
        });
        self.bottom
            .iter()
            .chain(self.stage.iter())
            .chain(self.overflow.iter())
            .chain(chunked)
            .chain(self.never.iter())
    }

    fn clear(&mut self) {
        self.bottom.clear();
        self.stage.clear();
        if let Some(large) = self.large.as_deref_mut() {
            let rungs = self.rungs.iter_mut().flat_map(|r| r.buckets.iter_mut());
            for b in rungs.chain([&mut large.overflow]) {
                large.chunks.empty(b, |_, chunk| chunk.clear());
            }
            large.spare.extend(self.rungs.drain(..).map(|r| r.buckets));
        }
        self.overflow.clear();
        self.overflow_min = Time::MAX;
        self.top_start = Time::ZERO;
        self.never.clear();
        self.rung_min_memo.set(Some(Time::MAX));
        self.len = 0;
    }

    /// The buckets that hold chunks (the rungs' and the overflow's), with
    /// the large-list state they draw on.
    #[cfg(test)]
    fn chunked_buckets(&self) -> impl Iterator<Item = (&Large<P>, &Bucket<P>)> {
        self.large.as_deref().into_iter().flat_map(|large| {
            let rungs = self.rungs.iter().flat_map(|r| r.buckets.iter());
            rungs
                .chain([&large.overflow])
                .filter(|b| !b.open.is_empty())
                .map(move |b| (large, b))
        })
    }

    /// Chunk buffers this ladder holds: in buckets and in the pool.
    #[cfg(test)]
    fn chunks_made(&self) -> usize {
        let in_buckets: usize = self
            .chunked_buckets()
            .map(|(l, b)| 1 + l.chunks.chain(b.full).count())
            .sum();
        in_buckets + self.large.as_deref().map_or(0, |l| l.chunks.pool.len())
    }

    /// The chunk bound the present contents give: ⌈chunked events /
    /// `LADDER_CHUNK`⌉ plus one partial chunk per non-empty bucket.
    #[cfg(test)]
    fn chunk_bound(&self) -> usize {
        let events: usize = self.chunked_buckets().map(|(l, b)| l.chunks.len(b)).sum();
        events.div_ceil(LADDER_CHUNK) + self.chunked_buckets().count()
    }

    /// Checks the chunk structure: every buffer has `LADDER_CHUNK`
    /// capacity, pooled buffers are empty, a non-empty bucket's open chunk
    /// holds 1..=`LADDER_CHUNK` events and its parked ones exactly
    /// `LADDER_CHUNK`, an empty bucket holds no buffer, every slot is on
    /// exactly one bucket's chain or free (and then holds no buffer),
    /// promoted buckets are empty, each rung's `count` is what its buckets
    /// hold, and a ladder without its large-list state has no rung.
    #[cfg(test)]
    fn check_chunks(&self) {
        let Some(large) = self.large.as_deref() else {
            assert!(self.rungs.is_empty(), "a rung without chunk storage");
            return;
        };
        let chunks = &large.chunks;
        let mut seen = vec![false; chunks.slots.len()];
        let mut visit = |i: u32| {
            let seen = std::mem::replace(&mut seen[i as usize], true);
            assert!(!seen, "slot {i} twice");
            &chunks.slots[i as usize]
        };
        let rungs = self.rungs.iter().flat_map(|r| r.buckets.iter());
        let spare = large.spare.iter().flat_map(|a| a.iter());
        for b in rungs.chain(spare).chain([&large.overflow]) {
            if b.open.is_empty() {
                assert_eq!(
                    (b.open.capacity(), b.full),
                    (0, NIL),
                    "empty bucket holds a chunk"
                );
                continue;
            }
            assert_eq!(b.open.capacity(), LADDER_CHUNK);
            let mut i = b.full;
            while i != NIL {
                let s = visit(i);
                let shape = (s.events.len(), s.events.capacity());
                assert_eq!(shape, (LADDER_CHUNK, LADDER_CHUNK), "parked slot {i}");
                i = s.next;
            }
        }
        for &i in &chunks.free {
            let s = visit(i);
            assert_eq!(s.events.capacity(), 0, "free slot {i} holds a buffer");
        }
        assert!(seen.iter().all(|&s| s), "a slot is on no chain");
        for r in &self.rungs {
            assert!(r.buckets[..r.cur].iter().all(|b| b.open.is_empty()));
            let held: usize = r.buckets.iter().map(|b| chunks.len(b)).sum();
            assert_eq!(held, r.count);
        }
        for buf in &chunks.pool {
            assert!(buf.is_empty() && buf.capacity() == LADDER_CHUNK);
        }
    }

    /// Events waiting in the stage.
    #[cfg(test)]
    fn staged(&self) -> usize {
        self.stage.len()
    }

    /// The chunk pool's (length, lent count).
    #[cfg(test)]
    fn pool_and_lent(&self) -> (usize, usize) {
        let chunks = self.large.as_deref().map(|l| &l.chunks);
        chunks.map_or((0, 0), |c| (c.pool.len(), c.lent))
    }
}

/// A future event list: a min-priority queue over the deterministic
/// [`EventKey`] order.
///
/// # Examples
///
/// ```
/// use unison_core::{Event, EventKey, Fel, NodeId, Time};
///
/// let mut fel: Fel<&str> = Fel::new();
/// fel.push(Event { key: EventKey::external(Time(20), 1), node: NodeId(0), payload: "b" });
/// fel.push(Event { key: EventKey::external(Time(10), 0), node: NodeId(0), payload: "a" });
/// assert_eq!(fel.pop().unwrap().payload, "a");
/// assert_eq!(fel.pop().unwrap().payload, "b");
/// assert!(fel.is_empty());
/// ```
pub struct Fel<P> {
    repr: Repr<P>,
}

enum Repr<P> {
    Heap(BinaryHeap<HeapEntry<P>>),
    Ladder(Ladder<P>),
}

impl<P> Default for Fel<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> Fel<P> {
    /// Creates an empty FEL with the default implementation
    /// ([`FelImpl::Ladder`]).
    pub fn new() -> Self {
        Fel::with_impl(FelImpl::default())
    }

    /// Creates an empty FEL backed by the given implementation.
    pub fn with_impl(imp: FelImpl) -> Self {
        Fel {
            repr: match imp {
                FelImpl::BinaryHeap => Repr::Heap(BinaryHeap::new()),
                FelImpl::Ladder => Repr::Ladder(Ladder::new(0)),
            },
        }
    }

    /// Creates an empty FEL (default implementation) with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Fel {
            repr: match FelImpl::default() {
                FelImpl::BinaryHeap => Repr::Heap(BinaryHeap::with_capacity(cap)),
                FelImpl::Ladder => Repr::Ladder(Ladder::new(cap)),
            },
        }
    }

    /// Which implementation backs this FEL.
    pub fn backend(&self) -> FelImpl {
        match &self.repr {
            Repr::Heap(_) => FelImpl::BinaryHeap,
            Repr::Ladder(_) => FelImpl::Ladder,
        }
    }

    /// Inserts an event.
    #[inline]
    pub fn push(&mut self, ev: Event<P>) {
        match &mut self.repr {
            Repr::Heap(h) => h.push(HeapEntry(ev)),
            Repr::Ladder(l) => l.push(ev),
        }
    }

    /// Bulk insert. For the ladder this is one routing pass, each event
    /// placed as [`Fel::push`] places it: appended unsorted to its rung
    /// bucket or the overflow, or — when imminent — inserted into the sorted
    /// bottom if its slot is within a few places of the back and nothing is
    /// staged, else staged; the staged events are sorted lazily on pop.
    pub fn extend(&mut self, events: impl IntoIterator<Item = Event<P>>) {
        match &mut self.repr {
            Repr::Heap(h) => h.extend(events.into_iter().map(HeapEntry)),
            Repr::Ladder(l) => {
                for ev in events {
                    l.push(ev);
                }
            }
        }
    }

    /// Removes and returns the event with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<Event<P>> {
        match &mut self.repr {
            Repr::Heap(h) => h.pop().map(|e| e.0),
            Repr::Ladder(l) => l.pop(),
        }
    }

    /// Timestamp of the next event, or [`Time::MAX`] when empty.
    #[inline]
    pub fn next_ts(&self) -> Time {
        match &self.repr {
            Repr::Heap(h) => h.peek().map_or(Time::MAX, |e| e.0.key.ts),
            Repr::Ladder(l) => l.next_ts(),
        }
    }

    /// Removes and returns the next event only if its timestamp is strictly
    /// below `bound`.
    #[inline]
    pub fn pop_below(&mut self, bound: Time) -> Option<Event<P>> {
        match &mut self.repr {
            Repr::Heap(h) => {
                if h.peek().is_some_and(|e| e.0.key.ts < bound) {
                    h.pop().map(|e| e.0)
                } else {
                    None
                }
            }
            // Native: decides from tier lower bounds, never a bucket scan.
            Repr::Ladder(l) => l.pop_below(bound),
        }
    }

    /// Number of stored events.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Heap(h) => h.len(),
            Repr::Ladder(l) => l.len,
        }
    }

    /// Whether the FEL holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of stored events with timestamp strictly below `bound`.
    ///
    /// Used by the `ByPendingEvents` scheduling metric; linear in the FEL
    /// size.
    pub fn count_below(&self, bound: Time) -> usize {
        match &self.repr {
            Repr::Heap(h) => h.iter().filter(|e| e.0.key.ts < bound).count(),
            Repr::Ladder(l) => l.iter().filter(|e| e.key.ts < bound).count(),
        }
    }

    /// Iterates over all stored events in *unspecified* order (heap/tier
    /// order); the unit tests' view of what a list holds.
    #[cfg(test)]
    fn iter(&self) -> Box<dyn Iterator<Item = &Event<P>> + '_> {
        match &self.repr {
            Repr::Heap(h) => Box::new(h.iter().map(|e| &e.0)),
            Repr::Ladder(l) => Box::new(l.iter()),
        }
    }

    /// Drops all events (used on kernel teardown).
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Heap(h) => h.clear(),
            Repr::Ladder(l) => l.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LpId, NodeId};

    fn ev(ts: u64, lp: u32, seq: u64) -> Event<u64> {
        Event {
            key: EventKey::new(Time(ts), Time(ts.saturating_sub(1)), LpId(lp), seq),
            node: NodeId(0),
            payload: ts.wrapping_mul(1000).wrapping_add(seq),
        }
    }

    fn both() -> [Fel<u64>; 2] {
        [
            Fel::with_impl(FelImpl::BinaryHeap),
            Fel::with_impl(FelImpl::Ladder),
        ]
    }

    #[test]
    fn default_backend_is_ladder() {
        assert_eq!(Fel::<u64>::new().backend(), FelImpl::Ladder);
        assert_eq!(Fel::<u64>::with_capacity(8).backend(), FelImpl::Ladder);
        assert_eq!(
            Fel::<u64>::with_impl(FelImpl::BinaryHeap).backend(),
            FelImpl::BinaryHeap
        );
        assert_eq!(FelImpl::Ladder.name(), "ladder");
        assert_eq!(FelImpl::BinaryHeap.name(), "binary-heap");
    }

    #[test]
    fn pops_in_key_order() {
        for mut fel in both() {
            fel.push(ev(5, 0, 0));
            fel.push(ev(1, 0, 1));
            fel.push(ev(3, 0, 2));
            let order: Vec<u64> = std::iter::from_fn(|| fel.pop().map(|e| e.ts().0)).collect();
            assert_eq!(order, vec![1, 3, 5]);
        }
    }

    #[test]
    fn simultaneous_events_use_tie_break() {
        for mut fel in both() {
            fel.push(ev(7, 2, 9));
            fel.push(ev(7, 1, 3));
            fel.push(ev(7, 1, 2));
            assert_eq!(fel.pop().unwrap().key.seq(), 2);
            assert_eq!(fel.pop().unwrap().key.seq(), 3);
            assert_eq!(fel.pop().unwrap().key.sender_lp(), LpId(2));
        }
    }

    #[test]
    fn next_ts_of_empty_is_max() {
        for fel in both() {
            assert_eq!(fel.next_ts(), Time::MAX);
        }
    }

    #[test]
    fn pop_below_respects_bound() {
        for mut fel in both() {
            fel.push(ev(10, 0, 0));
            assert!(fel.pop_below(Time(10)).is_none());
            assert!(fel.pop_below(Time(11)).is_some());
        }
    }

    #[test]
    fn count_below() {
        for mut fel in both() {
            for t in [1u64, 5, 9, 13] {
                fel.push(ev(t, 0, t));
            }
            assert_eq!(fel.count_below(Time(9)), 2);
            assert_eq!(fel.count_below(Time(100)), 4);
            assert_eq!(fel.count_below(Time(0)), 0);
        }
    }

    #[test]
    fn extend_matches_push() {
        for mut fel in both() {
            fel.extend((0..50u64).rev().map(|t| ev(t, 0, t)));
            fel.extend((50..100u64).map(|t| ev(t, 0, t)));
            assert_eq!(fel.len(), 100);
            let order: Vec<u64> = std::iter::from_fn(|| fel.pop().map(|e| e.ts().0)).collect();
            assert_eq!(order, (0..100u64).collect::<Vec<_>>());
        }
    }

    /// Windowed drain interleaved with pushes — the kernels' actual access
    /// pattern: exercises stage flushes, bucket advances and re-primes.
    #[test]
    fn windowed_drain_interleaved_with_pushes() {
        let mut rng = crate::rng::Rng::new(42);
        for mut fel in both() {
            let mut expected: Vec<EventKey> = Vec::new();
            let mut seq = 0u64;
            for _ in 0..20 {
                for _ in 0..50 {
                    let ts = rng.next_below(100_000);
                    let e = ev(ts, (seq % 5) as u32, seq);
                    expected.push(e.key);
                    fel.push(e);
                    seq += 1;
                }
                let bound = Time(rng.next_below(120_000));
                while let Some(e) = fel.pop_below(bound) {
                    assert!(e.key.ts < bound);
                }
            }
            // Drain the rest; total pop order must be the sorted key order.
            let mut popped: Vec<EventKey> = Vec::new();
            // Replay: collect everything popped so far by re-running is
            // complex; instead verify the remaining pops are sorted and the
            // total count matches.
            while let Some(e) = fel.pop() {
                popped.push(e.key);
            }
            assert!(popped.windows(2).all(|w| w[0] < w[1]));
            assert!(fel.is_empty());
            assert_eq!(fel.next_ts(), Time::MAX);
        }
    }

    /// The ladder's far-future tier: events clustered now plus a lone
    /// far-out event (the classic stop-event shape) must still pop in
    /// order across multiple re-primes.
    #[test]
    fn ladder_far_outlier_pops_in_order() {
        let mut fel: Fel<u64> = Fel::with_impl(FelImpl::Ladder);
        fel.push(ev(u64::MAX / 2, 0, 999));
        for t in 0..100u64 {
            fel.push(ev(t, 0, t));
        }
        for t in 0..100u64 {
            assert_eq!(fel.pop().unwrap().key.ts, Time(t));
        }
        // Second cluster after the first is fully drained.
        for t in 1_000_000..1_000_050u64 {
            fel.push(ev(t, 0, t));
        }
        for t in 1_000_000..1_000_050u64 {
            assert_eq!(fel.pop().unwrap().key.ts, Time(t));
        }
        assert_eq!(fel.pop().unwrap().key.ts, Time(u64::MAX / 2));
        assert!(fel.pop().is_none());
    }

    /// The ladder behind `fel`.
    fn ladder(fel: &Fel<u64>) -> &Ladder<u64> {
        match &fel.repr {
            Repr::Ladder(l) => l,
            Repr::Heap(_) => panic!("not a ladder"),
        }
    }

    /// Chunks the ladder behind `fel` has allocated.
    fn chunks_made(fel: &Fel<u64>) -> usize {
        ladder(fel).chunks_made()
    }

    /// `[heap, ladder]` holding 1 000 events 1 µs apart; the first pop (which
    /// both must agree on) re-primes the ladder's overflow into a rung and
    /// sorts its first bucket into the bottom.
    fn with_live_rung() -> [Fel<u64>; 2] {
        let [mut heap, mut lad] = both();
        for s in 0..1_000u64 {
            heap.push(ev(s * 1_000, 0, s));
            lad.push(ev(s * 1_000, 0, s));
        }
        assert_eq!(lad.pop().map(|e| e.key), heap.pop().map(|e| e.key));
        assert!(!ladder(&lad).rungs.is_empty());
        [heap, lad]
    }

    /// Pops both lists empty and checks they agree, returning the count.
    fn drain_equal(heap: &mut Fel<u64>, lad: &mut Fel<u64>) -> usize {
        let mut n = 0;
        while let Some(h) = heap.pop() {
            assert_eq!(lad.pop().map(|e| e.key), Some(h.key), "pop {n}");
            n += 1;
        }
        assert!(lad.pop().is_none());
        n
    }

    /// The hold regime of the near tier: driven pop-one/push-one with half
    /// the successors 0–3 ns after the event just popped and half a rung
    /// ahead or beyond the horizon, a ladder inserts every imminent push in
    /// place — the stage stays empty throughout, across bucket promotions
    /// and re-primes — and pops in the heap's order.
    #[test]
    fn hold_pushes_insert_in_place() {
        let mut rng = crate::rng::Rng::new(5);
        let [mut heap, mut lad] = with_live_rung();
        let mut direct = 0;
        for seq in 1_000..21_000u64 {
            let popped = heap.pop().expect("constant population").key;
            assert_eq!(lad.pop().map(|e| e.key), Some(popped), "hold op {seq}");
            let delta = if rng.next_below(2) == 0 {
                rng.next_below(4)
            } else {
                100_000 + rng.next_below(1_000_000)
            };
            let bottom = ladder(&lad).bottom.len();
            heap.push(ev(popped.ts.0 + delta, 0, seq));
            lad.push(ev(popped.ts.0 + delta, 0, seq));
            direct += usize::from(ladder(&lad).bottom.len() > bottom);
            assert_eq!(ladder(&lad).staged(), 0, "hold op {seq} staged");
        }
        assert!(
            direct > 5_000,
            "{direct} of 20 000 pushes inserted in place"
        );
        // Past the first rung's horizon (1 ms): the overflow was re-primed.
        assert!(heap.next_ts() > Time(2_000_000), "{:?}", heap.next_ts());
        assert_eq!(drain_equal(&mut heap, &mut lad), 999);
    }

    /// The window reaches past the depth the traffic lands at: on a small
    /// list's live bottom, an imminent push that lands 9 to
    /// `LADDER_INSERT_WINDOW - 1` places from the back (9.2 is where
    /// `dumbbell_dctcp`'s sequential pushes land on average; depth 9 is
    /// tried whatever the window) goes in place at exactly that depth, the
    /// stage stays empty, and the pops are the heap's.
    #[test]
    fn pushes_within_the_window_insert_in_place() {
        let [mut heap, mut lad] = both();
        for s in 0..LADDER_THRES as u64 {
            heap.push(ev(s * 1_000, 0, s));
            lad.push(ev(s * 1_000, 0, s));
        }
        // The first pop sorts the whole overflow into the bottom.
        assert_eq!(lad.pop().map(|e| e.key), heap.pop().map(|e| e.key));
        let depths = 9..LADDER_INSERT_WINDOW.max(10);
        for (seq, depth) in depths.clone().enumerate() {
            let bottom = &ladder(&lad).bottom;
            assert!(bottom.len() > depth, "bottom of {}", bottom.len());
            // Sender LP 1 sorts right after the `depth`-th event to pop.
            let ts = bottom[bottom.len() - depth].key.ts.0;
            heap.push(ev(ts, 1, seq as u64));
            lad.push(ev(ts, 1, seq as u64));
            let bottom = &ladder(&lad).bottom;
            assert_eq!(ladder(&lad).staged(), 0, "depth {depth} staged");
            let at = bottom[bottom.len() - 1 - depth].key;
            assert_eq!((at.ts.0, at.sender_lp()), (ts, LpId(1)), "depth {depth}");
        }
        assert_eq!(
            drain_equal(&mut heap, &mut lad),
            LADDER_THRES - 1 + depths.len()
        );
    }

    /// The burst regime: 10 000 pushes at the head's timestamp, each key
    /// larger than the last (so each lands one place deeper behind the
    /// back), below the deepest rung threshold. Fewer than
    /// `LADDER_INSERT_WINDOW` go in place; the rest are staged and merged by
    /// one sort, so a burst costs no `memmove` of the bottom per event, and
    /// the pops are in key order.
    #[test]
    fn a_burst_behind_the_back_is_staged_and_sorted_once() {
        let [mut heap, mut lad] = with_live_rung();
        let head = lad.next_ts();
        for s in 0..10_000u64 {
            // Sender LP 1 sorts after every set-up event at `head`.
            heap.push(ev(head.0, 1, s));
            lad.push(ev(head.0, 1, s));
        }
        let staged = ladder(&lad).staged();
        assert!(
            staged > 10_000 - LADDER_INSERT_WINDOW,
            "only {staged} of 10 000 staged"
        );
        assert_eq!(drain_equal(&mut heap, &mut lad), 10_999);
    }

    /// Drives `fel` through `rounds` kernel rounds at a constant
    /// `population`: ingest last round's cross-LP arrivals (`extend`), drain
    /// below the window (`pop_below` loop; every handled event schedules a
    /// successor 1-3 windows later, every other one by way of the next
    /// round's arrivals), probe once more, read `next_ts`. Returns the
    /// popped keys.
    fn windowed_rounds(fel: &mut Fel<u64>, population: usize, rounds: u64) -> Vec<EventKey> {
        let mut rng = crate::rng::Rng::new(population as u64);
        let mut seq = 0u64;
        let mut arrivals: Vec<Event<u64>> = (0..population)
            .map(|s| ev(rng.next_below(3_000), 1, s as u64))
            .collect();
        let mut popped = Vec::new();
        for round in 1..=rounds {
            let window = Time(round * 1_000);
            fel.extend(arrivals.drain(..));
            while let Some(e) = fel.pop_below(window) {
                popped.push(e.key);
                seq += 1;
                let next = ev(e.key.ts.0 + 1_000 + rng.next_below(2_000), 0, seq);
                if seq.is_multiple_of(2) {
                    arrivals.push(next);
                } else {
                    fel.push(next);
                }
            }
            assert!(fel.pop_below(window).is_none());
            assert!(fel.next_ts() >= window);
            assert_eq!(fel.len() + arrivals.len(), population);
        }
        popped
    }

    /// The size-adaptive contract: a list that stays at or below
    /// `LADDER_THRES` events is served by the bottom and overflow tiers
    /// alone — through 1 000 windowed rounds it never allocates a bucket
    /// chunk — while a 10 000-event list does build rungs.
    #[test]
    fn small_list_never_builds_a_rung_and_large_list_does() {
        for (population, rounds, expect_rungs) in [
            (8, 1_000, false),
            (LADDER_THRES, 1_000, false),
            (10_000, 20, true),
        ] {
            let [mut heap, mut ladder] = both();
            assert_eq!(
                windowed_rounds(&mut ladder, population, rounds),
                windowed_rounds(&mut heap, population, rounds),
                "population {population}"
            );
            assert_eq!(
                chunks_made(&ladder) > 0,
                expect_rungs,
                "population {population}: {} chunks",
                chunks_made(&ladder)
            );
        }
    }

    /// A rung-less list that grows past `LADDER_NEAR_MAX` below its horizon
    /// spills into a rung (invariant 4) and keeps popping in key order.
    #[test]
    fn near_tier_spills_into_a_rung_when_it_outgrows_its_bound() {
        let mut fel: Fel<u64> = Fel::with_impl(FelImpl::Ladder);
        // A small overflow: the first pop sorts it into the bottom and puts
        // the horizon one past its latest event.
        for t in 0..10u64 {
            fel.push(ev(t * 100_000, 0, t));
        }
        assert_eq!(fel.pop().unwrap().key.ts, Time(0));
        assert_eq!(chunks_made(&fel), 0);
        // Everything below the horizon is staged; the bound trips exactly
        // when the near tier would exceed it.
        let mut expected: Vec<u64> = (1..10u64).map(|t| t * 100_000).collect();
        let mut rng = crate::rng::Rng::new(3);
        for s in 0..LADDER_NEAR_MAX as u64 {
            let ts = rng.next_below(900_000);
            expected.push(ts);
            fel.push(ev(ts, 1, 100 + s));
            assert_eq!(
                chunks_made(&fel) > 0,
                9 + s as usize + 1 > LADDER_NEAR_MAX,
                "after {} staged pushes",
                s + 1
            );
        }
        expected.sort_unstable();
        let order: Vec<u64> = std::iter::from_fn(|| fel.pop().map(|e| e.ts().0)).collect();
        assert_eq!(order, expected);
    }

    /// The chunk pool's memory bound, under a seeded random mix of batches,
    /// pops, bounded drains, holds with near and far successors, bursts at
    /// one instant and clears: after every step the chunk structure is
    /// intact (`check_chunks`), `lent` counts exactly the chunk buffers
    /// outside the pool and the pool holds no more than that (the pool
    /// rule), and the chunks allocated never exceed the peak the chunked
    /// contents have called for — ⌈chunked events / `LADDER_CHUNK`⌉ plus
    /// one partial chunk per non-empty bucket — by more than one rung's
    /// worth of partial chunks, the transient of a split (the parent's
    /// chunks are freed as the child fills its own).
    #[test]
    fn chunk_pool_stays_within_the_peak_chunk_bound() {
        let mut rng = crate::rng::Rng::new(36);
        let [mut heap, mut lad] = both();
        let mut seq = 0u64;
        let mut push_both = |heap: &mut Fel<u64>, lad: &mut Fel<u64>, ts: u64| {
            seq += 1;
            heap.push(ev(ts, (seq % 3) as u32, seq));
            lad.push(ev(ts, (seq % 3) as u32, seq));
        };
        let mut peak = 0;
        for step in 0..600 {
            let now = heap.next_ts().0 % (1 << 40);
            match rng.next_below(8) {
                0 | 1 => {
                    for _ in 0..rng.next_below(1_000) {
                        push_both(&mut heap, &mut lad, now + rng.next_below(1_000_001));
                    }
                }
                2 => {
                    for _ in 0..rng.next_below(1_500) {
                        assert_eq!(lad.pop().map(|e| e.key), heap.pop().map(|e| e.key));
                    }
                }
                3 => {
                    let bound = Time(now + rng.next_below(200_000));
                    while let Some(h) = heap.pop_below(bound) {
                        assert_eq!(lad.pop_below(bound).map(|e| e.key), Some(h.key));
                    }
                    assert!(lad.pop_below(bound).is_none());
                }
                4 | 5 => {
                    for _ in 0..rng.next_below(2_000) {
                        let Some(h) = heap.pop() else { break };
                        assert_eq!(lad.pop().map(|e| e.key), Some(h.key));
                        let spread = [3, 1_000, 2_000_000][rng.next_below(3) as usize];
                        push_both(&mut heap, &mut lad, h.key.ts.0 + rng.next_below(spread + 1));
                    }
                }
                6 => {
                    for _ in 0..rng.next_below(300) {
                        push_both(&mut heap, &mut lad, now + 5_000);
                    }
                }
                _ => {
                    if rng.next_below(20) == 0 {
                        heap.clear();
                        lad.clear();
                    }
                }
            }
            let l = ladder(&lad);
            l.check_chunks();
            let (pool, lent) = l.pool_and_lent();
            assert!(pool <= lent, "step {step}: {pool} pooled, {lent} lent");
            assert_eq!(lent, l.chunks_made() - pool, "step {step}: lent miscounted");
            peak = peak.max(l.chunk_bound());
            assert!(
                l.chunks_made() <= peak + LADDER_BUCKETS + 1,
                "step {step}: {} chunks made, peak bound {peak}",
                l.chunks_made()
            );
        }
        assert!(peak > 100, "the rungs held only {peak} chunks' worth");
        drain_equal(&mut heap, &mut lad);
        ladder(&lad).check_chunks();
    }

    /// A ladder that is small again holds no chunk: grown past
    /// `LADDER_NEAR_MAX` it builds rungs, and once it has drained to
    /// `LADDER_THRES` events — all beyond the rungs' horizon — the refill
    /// that finds every rung spent frees every chunk buffer. The next burst
    /// builds them again. Three cycles, with the chunk structure checked
    /// and the pops matched with the heap after every step.
    #[test]
    fn a_ladder_small_again_frees_its_chunks() {
        let mut rng = crate::rng::Rng::new(40);
        let [mut heap, mut lad] = both();
        let mut seq = 0u64;
        let mut push_both = |heap: &mut Fel<u64>, lad: &mut Fel<u64>, ts: u64| {
            seq += 1;
            heap.push(ev(ts, (seq % 3) as u32, seq));
            lad.push(ev(ts, (seq % 3) as u32, seq));
        };
        let pop_both = |heap: &mut Fel<u64>, lad: &mut Fel<u64>| {
            assert_eq!(lad.pop().map(|e| e.key), heap.pop().map(|e| e.key));
            ladder(lad).check_chunks();
        };
        for cycle in 0..3u64 {
            let base = cycle * 10_000_000;
            for _ in 0..4 * LADDER_NEAR_MAX {
                push_both(&mut heap, &mut lad, base + rng.next_below(1_000_000));
            }
            pop_both(&mut heap, &mut lad);
            assert!(!ladder(&lad).rungs.is_empty(), "cycle {cycle}: no rung");
            // Beyond the rung's horizon: the far tier, chunked while the
            // rung exists.
            for i in 0..LADDER_THRES as u64 {
                push_both(&mut heap, &mut lad, base + 5_000_000 + i * 1_000);
            }
            while heap.len() > LADDER_THRES {
                pop_both(&mut heap, &mut lad);
            }
            assert!(chunks_made(&lad) > 0, "cycle {cycle}: pool freed early");
            pop_both(&mut heap, &mut lad);
            assert!(ladder(&lad).rungs.is_empty());
            assert_eq!(chunks_made(&lad), 0, "cycle {cycle}: chunks kept");
            while !heap.is_empty() {
                pop_both(&mut heap, &mut lad);
            }
        }
        assert!(lad.pop().is_none());
    }

    /// A hold that shrinks while its rung lives keeps only what it uses:
    /// 2¹⁴ events held for 2¹⁴ cycles, a burst of 1 000 pushes at the head
    /// (staged behind the bottom's back, past `LADDER_NEAR_MAX`), then
    /// pop-two/push-one down to 2⁸ events. A rung still exists at the end,
    /// yet the pool holds no more than the chunks the buckets use — not
    /// the thousand the large hold needed — and the near tier's buffers
    /// are back within `LADDER_NEAR_MAX`. Pops match the heap throughout.
    #[test]
    fn a_shrinking_hold_keeps_only_the_chunks_it_lends() {
        let mut rng = crate::rng::Rng::new(46);
        let [mut heap, mut lad] = both();
        let mut seq = 0u64;
        let mut push_both = |heap: &mut Fel<u64>, lad: &mut Fel<u64>, ts: u64| {
            seq += 1;
            heap.push(ev(ts, (seq % 3) as u32, seq));
            lad.push(ev(ts, (seq % 3) as u32, seq));
        };
        let pop_both = |heap: &mut Fel<u64>, lad: &mut Fel<u64>| {
            let h = heap.pop().expect("a hold is never empty").key;
            assert_eq!(lad.pop().map(|e| e.key), Some(h));
            h.ts.0
        };
        for _ in 0..1 << 14 {
            push_both(&mut heap, &mut lad, rng.next_below(1_000_000));
        }
        for _ in 0..1 << 14 {
            let now = pop_both(&mut heap, &mut lad);
            push_both(&mut heap, &mut lad, now + 1 + rng.next_below(1_000_000));
        }
        let head = pop_both(&mut heap, &mut lad);
        for _ in 0..1_000 {
            push_both(&mut heap, &mut lad, head);
        }
        assert!(
            ladder(&lad).staged() > LADDER_NEAR_MAX,
            "the burst went in place"
        );
        let peak = chunks_made(&lad);
        while heap.len() > 1 << 8 {
            pop_both(&mut heap, &mut lad);
            let now = pop_both(&mut heap, &mut lad);
            push_both(&mut heap, &mut lad, now + 1 + rng.next_below(1_000_000));
        }
        let l = ladder(&lad);
        l.check_chunks();
        assert!(!l.rungs.is_empty(), "the rung retired");
        let (pool, lent) = l.pool_and_lent();
        assert!(
            pool <= lent,
            "{pool} chunks pooled for {lent} lent (the hold made {peak})"
        );
        let near = (l.bottom.capacity(), l.stage.capacity());
        assert!(
            near.0 <= LADDER_NEAR_MAX && near.1 <= LADDER_NEAR_MAX,
            "near-tier capacities {near:?}"
        );
        assert_eq!(drain_equal(&mut heap, &mut lad), 1 << 8);
    }

    /// Events at `Time::MAX` (the never-firing sentinel shape) follow every
    /// other event in key order, are invisible to bounded pops, and do not
    /// disturb the horizon of the events below them.
    #[test]
    fn end_of_time_events_pop_last_in_key_order() {
        for mut fel in both() {
            fel.push(ev(u64::MAX, 3, 7));
            for t in 0..100u64 {
                fel.push(ev(t * 10, 0, t));
            }
            for t in 0..100u64 {
                assert_eq!(fel.pop_below(Time::MAX).unwrap().key.ts, Time(t * 10));
            }
            assert!(fel.pop_below(Time::MAX).is_none());
            assert_eq!(fel.next_ts(), Time::MAX);
            assert_eq!(fel.len(), 1);
            // A second sentinel with a smaller key, pushed after the horizon
            // has moved, still precedes the first.
            fel.push(ev(u64::MAX, 1, 9));
            fel.push(ev(u64::MAX - 1, 0, 200));
            assert_eq!(fel.next_ts(), Time(u64::MAX - 1));
            assert_eq!(fel.pop().unwrap().key.ts, Time(u64::MAX - 1));
            assert_eq!(fel.iter().count(), 2);
            assert_eq!(fel.pop().unwrap().key.sender_lp(), LpId(1));
            assert_eq!(fel.pop().unwrap().key.sender_lp(), LpId(3));
            assert!(fel.pop().is_none());
        }
    }

    #[test]
    fn clear_resets_all_tiers() {
        for mut fel in both() {
            for t in 0..100u64 {
                fel.push(ev(t * 1_000, 0, t));
            }
            fel.pop();
            fel.clear();
            assert!(fel.is_empty());
            assert_eq!(fel.len(), 0);
            assert_eq!(fel.next_ts(), Time::MAX);
            fel.push(ev(7, 0, 0));
            assert_eq!(fel.pop().unwrap().key.ts, Time(7));
        }
    }

    #[test]
    fn iter_yields_every_event_once() {
        for mut fel in both() {
            for t in 0..200u64 {
                fel.push(ev(t * 997 % 50_000, 0, t));
            }
            // Pop a few to move the ladder cursor, then check iter coverage.
            for _ in 0..20 {
                fel.pop();
            }
            let mut seqs: Vec<u64> = fel.iter().map(|e| e.key.seq()).collect();
            seqs.sort_unstable();
            assert_eq!(seqs.len(), 180);
            seqs.dedup();
            assert_eq!(seqs.len(), 180, "iter must not duplicate events");
        }
    }
}
