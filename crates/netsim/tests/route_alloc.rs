//! Static ECMP tables grow with nodes × columns, not nodes² (DESIGN.md
//! §4.11).
//!
//! A counting global allocator over `System` tracks the live bytes of the
//! one thread that asks for it (the test harness runs tests in parallel
//! threads of one process). The tables of a k = 16 fat tree — 1 344 nodes,
//! 1 024 of them hosts under 320 switches — must be held in under a third
//! of the 7 230 720 bytes that per-destination offsets alone took
//! (`N × (N + 1)` `u32`s); per-destination tables hold more than that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use unison_netsim::route::compute_static_tables;
use unison_topology::fat_tree;

/// `System`, tracking the live bytes of threads that opted in.
struct Counting;

thread_local! {
    /// Whether this thread's calls are counted.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// This thread's counted live bytes.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Moves this thread's live bytes by `delta` if it is measuring. Both
/// thread-locals are const-initialised and need no destructor, so reading
/// them never allocates.
fn note(delta: i64) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        let _ = LIVE.try_with(|c| c.set(c.get() + delta));
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

/// `f`'s result and the live bytes it left allocated on this thread.
fn held<R>(f: impl FnOnce() -> R) -> (R, i64) {
    LIVE.with(|c| c.set(0));
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, LIVE.with(Cell::get))
}

#[test]
fn k16_fat_tree_tables_hold_under_a_third_of_the_per_destination_offsets() {
    // The adjacency `NetworkBuilder::build` hands over: per node, `(peer,
    // device)` in link order.
    let topo = fat_tree(16);
    let n = topo.node_count();
    let mut adj: Vec<Vec<(u32, u8)>> = vec![Vec::new(); n];
    for l in &topo.links {
        let (a_dev, b_dev) = (adj[l.a].len() as u8, adj[l.b].len() as u8);
        adj[l.a].push((l.b as u32, a_dev));
        adj[l.b].push((l.a as u32, b_dev));
    }
    assert_eq!(n, 1_344);
    let per_destination_offsets = (n * (n + 1) * 4) as i64;
    assert_eq!(per_destination_offsets, 7_230_720);

    let (tables, bytes) = held(|| compute_static_tables(&adj));
    assert_eq!(tables.len(), n);
    assert!(
        bytes < per_destination_offsets / 3,
        "the k = 16 tables hold {bytes} live bytes; the bound is a third of the \
         {per_destination_offsets} bytes per-destination offsets took"
    );
    // The tables still route: a host reaches a host in another pod over
    // its one device, and its edge switch has an uplink per aggregation
    // switch of the pod.
    let hosts = topo.hosts();
    let (src, dst) = (hosts[0], *hosts.last().expect("hosts"));
    let mut buf = [0u8; 16];
    assert_eq!(tables[src].lookup(dst as u32, &mut buf), 1);
    let edge = adj[src][0].0 as usize;
    assert_eq!(tables[edge].lookup(dst as u32, &mut buf), 8);
}
