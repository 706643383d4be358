//! The ladder FEL allocates nothing in steady state (DESIGN.md §4.4).
//!
//! A counting global allocator over `System` counts the allocations and
//! reallocations of the one thread that asks for it (the test harness runs
//! tests in parallel threads of one process). Two hold models — pop one
//! event, push one a seeded delay later, so the population stays constant
//! — are warmed up and then measured:
//!
//! - 2¹⁵ events over a 1 ms delay range: every list the ladder holds is
//!   large, it re-primes its overflow into a rung about once per 2¹⁵
//!   cycles and splits the rung's buckets (about a thousand events each)
//!   into child rungs, so the measured cycles cross many re-primes and
//!   splits. Its rung buckets are chunk chains from a pool that never
//!   shrinks, and every other buffer keeps its capacity, so the ladder
//!   allocates only when its need for chunks reaches a new peak — ever
//!   more rarely, as the need fluctuates around a constant population;
//!   the seeded run's last new peak falls inside the warm-up. (A ladder
//!   that frees a split bucket and regrows the slot by doubling makes
//!   about 250 allocations and 1 300 reallocations per 2¹⁵ cycles here,
//!   for as long as it runs.)
//! - 32 events: the small-list regime (no rung), a sorted vector with an
//!   unsorted tail whose two buffers are reused.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use unison_core::{Event, EventKey, Fel, FelImpl, LpId, NodeId, Rng, Time};

/// `System`, counting the calls made by threads that opted in.
struct Counting;

thread_local! {
    /// Whether this thread's calls are counted.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// This thread's counted (allocations, reallocations).
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Counts one allocation (or reallocation) if this thread is measuring.
/// Both thread-locals are const-initialised and need no destructor, so
/// reading them never allocates.
fn note(realloc: bool) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNTS.try_with(|c| {
            let (allocs, reallocs) = c.get();
            c.set(if realloc {
                (allocs, reallocs + 1)
            } else {
                (allocs + 1, reallocs)
            });
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(false);
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every block was allocated through this wrapper, that is
        // by `System`, with this `layout` (the caller's contract).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true);
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The (allocations, reallocations) `f` makes on this thread.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    COUNTS.with(|c| c.set((0, 0)));
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    COUNTS.with(Cell::get)
}

/// A hold model on a ladder FEL: `population` events, each popped event
/// replaced by one 1 ns to `max_delay` ns after it.
struct Hold {
    fel: Fel<u64>,
    rng: Rng,
    max_delay: u64,
    seq: u64,
    now: Time,
}

impl Hold {
    fn new(population: u64, max_delay: u64, seed: u64) -> Self {
        let mut hold = Hold {
            fel: Fel::with_impl(FelImpl::Ladder),
            rng: Rng::new(seed),
            max_delay,
            seq: 0,
            now: Time::ZERO,
        };
        for _ in 0..population {
            let ts = hold.rng.next_below(max_delay);
            hold.push(ts);
        }
        hold
    }

    fn push(&mut self, ts: u64) {
        self.seq += 1;
        self.fel.push(Event {
            key: EventKey::new(Time(ts), self.now, LpId(0), self.seq),
            node: NodeId(0),
            payload: self.seq,
        });
    }

    fn cycles(&mut self, n: u64) {
        for _ in 0..n {
            let ev = self.fel.pop().expect("a hold keeps its population");
            assert!(ev.key.ts >= self.now, "popped out of order");
            self.now = ev.key.ts;
            let ts = self.now.0 + 1 + self.rng.next_below(self.max_delay);
            self.push(ts);
        }
    }
}

/// Warms `hold` up for `warmup` cycles, then asserts that `measured`
/// further cycles allocate and reallocate nothing.
fn steady_state_allocates_nothing(mut hold: Hold, warmup: u64, measured: u64) {
    hold.cycles(warmup);
    let (allocs, reallocs) = counted(|| hold.cycles(measured));
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "(allocations, reallocations) in {measured} cycles after a {warmup}-cycle warm-up"
    );
}

#[test]
fn a_large_hold_allocates_nothing_across_reprimes_and_splits() {
    const POPULATION: u64 = 1 << 15;
    steady_state_allocates_nothing(
        Hold::new(POPULATION, 1_000_000, 7),
        24 * POPULATION,
        8 * POPULATION,
    );
}

#[test]
fn a_small_hold_allocates_nothing() {
    steady_state_allocates_nothing(Hold::new(32, 1_000, 7), 50_000, 100_000);
}

/// The counter sees this thread's allocations, and only while it
/// measures: a helper thread's allocations do not count.
#[test]
fn the_counter_counts_this_thread_only_while_measuring() {
    let mut v: Vec<u64> = Vec::new();
    let (allocs, reallocs) = counted(|| {
        v.reserve(4);
        v.reserve(1_000);
    });
    assert_eq!((allocs, reallocs), (1, 1));
    let spawn = |boxes: usize| {
        counted(|| {
            let helper = std::thread::spawn(move || (0..boxes).map(Box::new).count());
            assert_eq!(helper.join().expect("helper thread"), boxes);
        })
    };
    assert_eq!(spawn(0), spawn(1_000));
    let before = COUNTS.with(Cell::get);
    std::hint::black_box(Vec::<u8>::with_capacity(64));
    assert_eq!(
        COUNTS.with(Cell::get),
        before,
        "counted outside a measurement"
    );
}
