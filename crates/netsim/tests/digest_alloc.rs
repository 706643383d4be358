//! `world_digest` holds no encoding (DESIGN.md §4.7): the writer is the
//! hash, so all the digest allocates is the sorted key vector `save_map`
//! builds for one socket or UDP map at a time.
//!
//! A counting global allocator over `System` tracks the live bytes of the
//! one thread that asks for it (the test harness runs tests in parallel
//! threads of one process) and their peak. A k = 4 fat tree runs an incast
//! until the receiver's ToR queue holds packets and the receiver holds
//! segments out of order — the state whose encodings are largest — and the
//! digest of that world may then peak at no more than one `&FlowId` per
//! entry of the largest flow map of any node. A writer that buffers a
//! node's encoding, or the world's, peaks far above that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use unison_core::{KernelKind, Time};
use unison_netsim::{world_digest, FlowId, NetworkBuilder, QueueConfig, TcpConfig};
use unison_topology::fat_tree;
use unison_traffic::FlowSpec;

/// `System`, tracking the live bytes of threads that opted in.
struct Counting;

thread_local! {
    /// Whether this thread's calls are counted.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// This thread's counted (live bytes, peak live bytes).
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

/// Moves this thread's live bytes by `delta` if it is measuring. Both
/// thread-locals are const-initialised and need no destructor, so reading
/// them never allocates.
fn note(delta: i64) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        let _ = LIVE.try_with(|c| {
            let (live, peak) = c.get();
            let live = live + delta;
            c.set((live, peak.max(live)));
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: every block was allocated through this wrapper, that is
        // by `System`, with this `layout` (the caller's contract).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the peak of the live bytes it held on this thread.
fn peak_live<R>(f: impl FnOnce() -> R) -> (R, i64) {
    LIVE.with(|c| c.set((0, 0)));
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, LIVE.with(Cell::get).1)
}

#[test]
fn the_digest_holds_one_sorted_key_vector_at_a_time() {
    // Fifteen hosts send 200 kB each to host 0 at once: their windows
    // overflow the 60 kB queues on the way, and the segments behind each
    // drop arrive out of order. The run stops while both are so.
    let topo = fat_tree(4);
    let hosts = topo.hosts();
    let flows = hosts[1..].iter().map(|&src| FlowSpec {
        src,
        dst: hosts[0],
        bytes: 200_000,
        start: Time::ZERO,
    });
    let world = NetworkBuilder::new(&topo)
        .tcp_config(TcpConfig::newreno_dcn())
        .queue(QueueConfig::DropTail {
            limit_bytes: 60_000,
        })
        .flows(flows)
        .stop_at(Time::from_micros(150))
        .build()
        .run(KernelKind::Sequential { compat_keys: false })
        .world;

    let queued: usize = world
        .nodes()
        .flat_map(|n| n.devices.iter())
        .map(|d| d.queue.len())
        .sum();
    assert!(queued > 0, "no packet is queued when the digest is taken");
    let out_of_order = world
        .nodes()
        .flat_map(|n| n.receivers.values())
        .filter(|r| r.completed_at.is_none() && r.bytes_rx > r.rcv_nxt())
        .count();
    assert!(
        out_of_order > 0,
        "no receiver holds data past its next expected byte"
    );

    let largest_map = world
        .nodes()
        .map(|n| n.senders.len().max(n.receivers.len()))
        .max()
        .expect("a fat tree has nodes");
    assert!(largest_map > 1, "no node holds more than one flow");
    let bound = (std::mem::size_of::<&FlowId>() * largest_map) as i64;

    let (digest, peak) = peak_live(|| world_digest(&world));
    assert!(
        peak <= bound,
        "world_digest peaked at {peak} live bytes; the largest sorted key vector it needs \
         is {bound} B ({largest_map} flows)"
    );
    assert_eq!(
        digest,
        world_digest(&world),
        "the digest is a function of the world"
    );
}
