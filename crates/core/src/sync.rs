//! Thread synchronization primitives for the phase-driven kernel.
//!
//! The Unison kernel separates the four phases of a round with barriers
//! implemented using atomic operations (§5.1). [`TreeBarrier`] is the only
//! barrier a kernel crosses; the flat [`SpinBarrier`] is kept for the
//! frozen benchmark (`benchmark/src/micro.rs:84–162`) and goes with ROADMAP
//! item 1. Both spin briefly and then yield, which behaves well both on
//! dedicated cores (short waits stay in user space) and on oversubscribed
//! machines (yielding lets the other workers run).
//!
//! All atomics go through `crate::sync_shim`, so under
//! `RUSTFLAGS="--cfg loom"` the barriers run on the in-repo loom model
//! checker's instrumented types; `crates/core/tests/loom_models.rs`
//! exhaustively verifies generation reuse, leader uniqueness and the
//! happens-before edge the barriers promise.

use crate::sync_shim::{
    spin_loop, yield_now, AtomicBool, AtomicU64, AtomicUsize, CachePadded, Ordering,
};

/// How many failed spins of a barrier `wait` stay in user space
/// (`spin_loop` hints) before each subsequent retry yields the CPU with
/// `std::thread::yield_now`.
///
/// The default favours dedicated cores: phase hand-offs in the Unison
/// kernel are typically shorter than a scheduler quantum, so a short
/// user-space spin wins. On heavily oversubscribed machines construct the
/// barrier with [`TreeBarrier::with_spin_limit`] and a lower value (0 =
/// always yield).
pub(crate) const SPIN_YIELD_THRESHOLD: u32 = 64;

/// A reusable sense-reversing barrier over atomics.
///
/// No kernel uses it: the Unison kernel crosses [`TreeBarrier`]. It is kept
/// only because `benchmark/src/micro.rs:84–162` times it (and uses it as a
/// start gate), and goes with ROADMAP item 1, together with loom claims 1,
/// 2 and 5.
///
/// # Memory ordering
///
/// `wait` is a full synchronization point: every write sequenced before a
/// participant's `wait` happens-before every read sequenced after *any*
/// participant's matching `wait` returns. The edge is established by the
/// arrival `fetch_add(AcqRel)` chain into the leader plus the leader's
/// `Release` sense flip, which each waiter observes with an `Acquire` load.
///
/// ## Why the `Relaxed` count reset is sound
///
/// The leader resets `count` with `store(0, Relaxed)` *before* flipping the
/// sense with `Release`. A waiter of the **same** generation never touches
/// `count` again, so only a *re-arriving* participant of the next
/// generation could observe the reset out of order — but to re-arrive it
/// must first have observed the flipped sense with `Acquire`, and the reset
/// is sequenced before the `Release` flip on the leader. The
/// Acquire/Release pair therefore orders `reset → flip → observe flip →
/// next fetch_add`, making a stale (pre-reset) `count` unobservable.
/// `Relaxed` is sufficient; the loom model `barrier_generation_reuse`
/// machine-checks this argument (a `debug_assert` in `wait` would trip if a
/// stale count ever doubled-up arrivals).
/// ## Poisoning
///
/// [`SpinBarrier::poison`] marks the barrier permanently broken. Every
/// participant currently spinning in `wait` — and every later caller —
/// returns immediately (with `false`) instead of waiting for stragglers.
/// This is the drain path a kernel's panic containment and round-progress
/// watchdog use (on [`TreeBarrier`], same contract): when one worker dies, the survivors must fall
/// out of the round loop instead of spinning on a generation that can never
/// complete. A poisoned barrier never recovers; callers are expected to
/// check [`SpinBarrier::is_poisoned`] after each `wait` and stop
/// participating. Because a participant calls `wait` at most once more
/// after observing poison, the per-generation arrival count stays bounded
/// by `threads` and the stale-count `debug_assert` still holds.
pub struct SpinBarrier {
    threads: usize,
    // PADDING: the flat barrier is all-to-all by design — every waiter
    // spins on these same words, so there is no neighbour to false-share
    // with. The padded, scalable alternative is [`TreeBarrier`].
    count: AtomicUsize,
    sense: AtomicBool,    // PADDING: deliberately shared line; see `count`.
    poisoned: AtomicBool, // PADDING: deliberately shared line; see `count`.
    spin_limit: u32,
}

impl SpinBarrier {
    /// Creates a barrier for `threads` participants with the default
    /// `SPIN_YIELD_THRESHOLD`.
    pub fn new(threads: usize) -> Self {
        Self::with_spin_limit(threads, SPIN_YIELD_THRESHOLD)
    }

    /// Creates a barrier that starts yielding after `spin_limit` failed
    /// spins (0 = yield immediately on every failed check).
    pub fn with_spin_limit(threads: usize, spin_limit: u32) -> Self {
        assert!(threads > 0);
        SpinBarrier {
            threads,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            spin_limit,
        }
    }

    /// Marks the barrier permanently broken, releasing every current and
    /// future waiter (their `wait` returns `false`). Idempotent.
    pub fn poison(&self) {
        // Release: a waiter that observes the poison with Acquire also
        // observes everything the poisoner wrote before it (e.g. the
        // failure diagnostics recorded by a panicking worker).
        self.poisoned.store(true, Ordering::Release);
    }

    /// Whether [`SpinBarrier::poison`] has been called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Blocks until all participants have called `wait`. Returns `true` for
    /// exactly one participant per generation (the last to arrive), or
    /// `false` immediately when the barrier is (or becomes) poisoned.
    pub fn wait(&self) -> bool {
        // Checked before the arrival fetch_add so a drained participant
        // never contributes a stale count to a generation that will not
        // complete.
        if self.is_poisoned() {
            return false;
        }
        let local_sense = !self.sense.load(Ordering::Relaxed);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        // A stale (unreset) count from a previous generation would surface
        // here; see the ordering proof on the type.
        debug_assert!(
            arrived <= self.threads,
            "more arrivals than participants: stale barrier count"
        );
        if arrived == self.threads {
            // Relaxed is enough: ordered before the Release flip below, and
            // next-generation arrivals are ordered after their Acquire
            // observation of that flip (see type-level docs).
            self.count.store(0, Ordering::Relaxed);
            // Release: publishes everything written before the barrier to
            // threads that observe the flipped sense.
            self.sense.store(local_sense, Ordering::Release);
            true
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != local_sense {
                if self.is_poisoned() {
                    return false;
                }
                if spins < self.spin_limit {
                    spins += 1;
                    spin_loop();
                } else {
                    yield_now();
                }
            }
            false
        }
    }
}

/// Fan-in of the [`TreeBarrier`] arrival tree: each node combines at most
/// this many children (participants at a leaf, winners at inner nodes).
///
/// Four keeps the tree flat for the worker counts the Unison kernel
/// actually runs (≤ 4 workers collapse to a single root node; 16 workers
/// need two levels) while still splitting the arrival cache line once the
/// flat counter would become a global hot word.
pub(crate) const TREE_FAN_IN: usize = 4;

/// One combining node of the arrival tree. Each node owns its own cache
/// line (the whole node is stored `CachePadded`), so arrivals at different
/// leaves never contend on a shared word — the flat [`SpinBarrier`]'s
/// `count` is exactly such a global hot word.
struct TreeNode {
    /// Arrivals of the current generation (participants at a leaf, child
    /// winners at an inner node). Reset to 0 by the node's winner *before*
    /// it climbs; see the ordering proof on [`TreeBarrier`].
    arrivals: AtomicUsize, // PADDING: the whole node is `CachePadded` in `nodes`.
    /// Release wave: the root winner stores the completed generation into
    /// every node (root first, leaves last) with `Release`; waiters spin
    /// with `Acquire` until their node's value reaches their generation.
    release_gen: AtomicU64, // PADDING: the whole node is `CachePadded` in `nodes`.
    /// How many arrivals complete this node.
    expected: usize,
    /// Parent node index; `usize::MAX` at the root.
    parent: usize,
}

/// A hierarchical sense-free tree barrier: cache-padded arrival nodes with
/// fan-in `TREE_FAN_IN`, release broadcast down from the root.
///
/// Drop-in replacement for [`SpinBarrier`] in the round-based kernels,
/// with the same poison semantics (the kernel times its waits itself, as
/// laps of one chained clock). The only API difference: each participant holds a [`TreeWaiter`] handle
/// (its leaf assignment plus a local generation counter), obtained once
/// from [`TreeBarrier::waiter`].
///
/// # Memory ordering
///
/// Arrivals `fetch_add(AcqRel)` chain up the tree: a node's winner (the
/// arrival that completes it) climbs and arrives at the parent, so the
/// root's final arrival happens-after every participant's leaf arrival.
/// The root winner then walks the nodes top-down storing the completed
/// generation into `release_gen` with `Release`; a waiter's `Acquire`
/// spin on its own node therefore observes everything every participant
/// wrote before the barrier.
///
/// ## Why a generation counter instead of a sense bit
///
/// Unlike the flat barrier, releases overlap the next generation's
/// arrivals: a participant released at its leaf can win the leaf's next
/// generation and climb to an inner node *before* the root winner's
/// release wave has reached that inner node. A boolean sense read from
/// the node would then be one generation stale — and generation `g-1`'s
/// sense equals generation `g+1`'s, so the early climber would sail
/// through a wait it must block on. A monotone `u64` generation is immune:
/// the climber waits for `release_gen >= g+1`, and a stale `g-1` (or the
/// in-flight `g`) value keeps it spinning.
///
/// ## Why the `Relaxed` arrival reset is sound
///
/// A node's winner resets `arrivals` with `store(0, Relaxed)` *before*
/// its `fetch_add` on the parent. The next generation's first arrival at
/// that node is sequenced after that participant's `Acquire` observation
/// of some node's `release_gen`, which reads the root winner's `Release`
/// store, which happens-after the winner's parent `fetch_add` via the
/// `AcqRel` arrival chain — so the reset is visible before any
/// re-arrival, and a stale count can never double-count (the same
/// `debug_assert` as the flat barrier guards this). The loom model
/// `tree_barrier_release_publication` machine-checks both arguments.
///
/// ## Poisoning
///
/// Identical contract to [`SpinBarrier::poison`]: every current and
/// future waiter drains immediately (returning `false`), the barrier
/// never recovers, and the Release-poison / Acquire-observe pair
/// publishes the poisoner's diagnostics. The tree-path extension of the
/// `barrier_poison_releases_waiters` loom model covers waiters parked at
/// both leaf and inner nodes.
pub struct TreeBarrier {
    threads: usize,
    /// Combining fan-in (`TREE_FAN_IN` in production; loom models shrink
    /// it to force multi-level trees with few threads).
    fan_in: usize,
    /// All tree nodes, leaves first (node 0..leaves), then each level up,
    /// root last. Each node on its own cache line.
    nodes: Vec<CachePadded<TreeNode>>,
    poisoned: CachePadded<AtomicBool>,
    spin_limit: u32,
}

/// A participant's handle on a [`TreeBarrier`]: its leaf node and its
/// local generation counter. One per participant; not shareable.
pub struct TreeWaiter {
    leaf: usize,
    gen: u64,
}

impl TreeBarrier {
    /// Creates a tree barrier for `threads` participants with the default
    /// `SPIN_YIELD_THRESHOLD`.
    pub fn new(threads: usize) -> Self {
        Self::with_spin_limit(threads, SPIN_YIELD_THRESHOLD)
    }

    /// Creates a tree barrier that starts yielding after `spin_limit`
    /// failed spins (0 = yield immediately on every failed check).
    pub fn with_spin_limit(threads: usize, spin_limit: u32) -> Self {
        Self::with_shape(threads, TREE_FAN_IN, spin_limit)
    }

    /// Creates a tree barrier with an explicit fan-in. Only tests and loom
    /// models should need this: a small fan-in forces a multi-level tree
    /// with few participants, which is what the model checker has to
    /// explore (production code always uses `TREE_FAN_IN`).
    #[doc(hidden)]
    pub fn with_shape(threads: usize, fan_in: usize, spin_limit: u32) -> Self {
        assert!(threads > 0);
        assert!(fan_in > 1);
        let mut nodes: Vec<CachePadded<TreeNode>> = Vec::new();
        if threads > 1 {
            // Build level by level: `width` participants arrive at
            // `ceil(width / fan_in)` nodes; their winners form the next
            // level, until a single root remains.
            let mut level_start = 0;
            let mut width = threads;
            loop {
                let level_nodes = width.div_ceil(fan_in);
                for i in 0..level_nodes {
                    let expected = fan_in.min(width - i * fan_in);
                    nodes.push(CachePadded::new(TreeNode {
                        arrivals: AtomicUsize::new(0),
                        release_gen: AtomicU64::new(0),
                        expected,
                        parent: usize::MAX, // patched below
                    }));
                }
                // Patch this level's parents once the next level exists.
                if level_nodes == 1 {
                    break;
                }
                let next_start = level_start + level_nodes;
                for i in 0..level_nodes {
                    nodes[level_start + i].parent = next_start + i / fan_in;
                }
                level_start = next_start;
                width = level_nodes;
            }
        }
        TreeBarrier {
            threads,
            fan_in,
            nodes,
            poisoned: CachePadded::new(AtomicBool::new(false)),
            spin_limit,
        }
    }

    /// The handle for participant `id` (0-based, `< threads`). Each
    /// participant must use its own handle for every `wait`.
    pub fn waiter(&self, id: usize) -> TreeWaiter {
        assert!(id < self.threads);
        TreeWaiter {
            leaf: id / self.fan_in,
            gen: 0,
        }
    }

    /// Marks the barrier permanently broken, releasing every current and
    /// future waiter (their `wait` returns `false`). Idempotent.
    pub fn poison(&self) {
        // Release: a waiter that observes the poison with Acquire also
        // observes everything the poisoner wrote before it (failure
        // diagnostics — same contract as `SpinBarrier::poison`).
        self.poisoned.store(true, Ordering::Release);
    }

    /// Whether [`TreeBarrier::poison`] has been called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Blocks until all participants have called `wait`. Returns `true`
    /// for exactly one participant per generation (the root winner), or
    /// `false` immediately when the barrier is (or becomes) poisoned.
    pub fn wait(&self, waiter: &mut TreeWaiter) -> bool {
        if self.is_poisoned() {
            return false;
        }
        let gen = waiter.gen + 1;
        if self.threads == 1 {
            waiter.gen = gen;
            return true;
        }
        let mut at = waiter.leaf;
        loop {
            let node = &self.nodes[at];
            let arrived = node.arrivals.fetch_add(1, Ordering::AcqRel) + 1;
            // A stale (unreset) count from a previous generation would
            // surface here; see the ordering proof on the type.
            debug_assert!(
                arrived <= node.expected,
                "more arrivals than expected at tree node: stale arrival count"
            );
            if arrived < node.expected {
                // Not this node's winner: park here until the release wave
                // publishes our generation (or the barrier is poisoned).
                let mut spins = 0u32;
                while node.release_gen.load(Ordering::Acquire) < gen {
                    if self.is_poisoned() {
                        return false;
                    }
                    if spins < self.spin_limit {
                        spins += 1;
                        spin_loop();
                    } else {
                        yield_now();
                    }
                }
                waiter.gen = gen;
                return false;
            }
            // Winner: reset for the next generation *before* climbing (the
            // `AcqRel` chain up plus the release wave orders this reset
            // before any re-arrival; see the type-level proof).
            node.arrivals.store(0, Ordering::Relaxed);
            if node.parent == usize::MAX {
                // Root winner: broadcast the release wave down (root
                // first, leaves last — any order is correct, waiters only
                // watch their own node).
                waiter.gen = gen;
                for n in self.nodes.iter().rev() {
                    n.release_gen.store(gen, Ordering::Release);
                }
                return true;
            }
            at = node.parent;
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn single_thread_barrier_is_noop() {
        let b = SpinBarrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
    }

    #[test]
    fn orders_phases_across_threads() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        barrier.wait();
                        // Every thread must observe all increments of this
                        // round before anyone proceeds.
                        let seen = counter.load(std::sync::atomic::Ordering::Relaxed);
                        assert!(seen >= ((round + 1) * THREADS) as u64);
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            counter.load(std::sync::atomic::Ordering::Relaxed),
            (THREADS * ROUNDS) as u64
        );
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        const THREADS: usize = 3;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let leaders = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        if barrier.wait() {
                            leaders.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(std::sync::atomic::Ordering::Relaxed), 100);
    }

    #[test]
    fn poison_releases_current_and_future_waiters() {
        let barrier = Arc::new(SpinBarrier::new(2));
        let waiter = {
            let barrier = Arc::clone(&barrier);
            // Only 1 of 2 participants ever arrives: without poison this
            // thread would spin forever.
            std::thread::spawn(move || barrier.wait())
        };
        // Give the waiter a chance to enter the spin loop, then poison.
        std::thread::yield_now();
        barrier.poison();
        assert!(!waiter.join().unwrap(), "poisoned wait must not lead");
        assert!(barrier.is_poisoned());
        // Later arrivals drain immediately as well.
        assert!(!barrier.wait());
        assert!(!barrier.wait());
    }

    #[test]
    fn poison_is_idempotent_and_sticky() {
        let b = SpinBarrier::new(3);
        b.poison();
        b.poison();
        assert!(b.is_poisoned());
        assert!(!b.wait());
    }

    #[test]
    fn tree_single_thread_barrier_is_noop() {
        let b = TreeBarrier::new(1);
        let mut w = b.waiter(0);
        assert!(b.wait(&mut w));
        assert!(b.wait(&mut w));
    }

    #[test]
    fn tree_shape_matches_fan_in() {
        // <= FAN_IN participants collapse to a single root node.
        let b = TreeBarrier::new(4);
        assert_eq!(b.nodes.len(), 1);
        assert_eq!(b.nodes[0].expected, 4);
        // 5 participants: two leaves (4 + 1) plus a root combining both.
        let b = TreeBarrier::new(5);
        assert_eq!(b.nodes.len(), 3);
        assert_eq!(b.nodes[0].expected, 4);
        assert_eq!(b.nodes[1].expected, 1);
        assert_eq!(b.nodes[2].expected, 2);
        assert_eq!(b.nodes[0].parent, 2);
        assert_eq!(b.nodes[1].parent, 2);
        assert_eq!(b.nodes[2].parent, usize::MAX);
        // 17 participants: 5 leaves -> 2 inner -> root.
        let b = TreeBarrier::new(17);
        assert_eq!(b.nodes.len(), 8);
    }

    #[test]
    fn tree_orders_phases_across_threads() {
        // 6 participants forces a two-level tree (2 leaves + root).
        const THREADS: usize = 6;
        const ROUNDS: usize = 200;
        let barrier = Arc::new(TreeBarrier::new(THREADS));
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let mut waiter = barrier.waiter(w);
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        barrier.wait(&mut waiter);
                        // Every thread must observe all increments of this
                        // round before anyone proceeds.
                        let seen = counter.load(std::sync::atomic::Ordering::Relaxed);
                        assert!(seen >= ((round + 1) * THREADS) as u64);
                        barrier.wait(&mut waiter);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            counter.load(std::sync::atomic::Ordering::Relaxed),
            (THREADS * ROUNDS) as u64
        );
    }

    #[test]
    fn tree_exactly_one_leader_per_generation() {
        const THREADS: usize = 5;
        let barrier = Arc::new(TreeBarrier::new(THREADS));
        let leaders = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let barrier = Arc::clone(&barrier);
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    let mut waiter = barrier.waiter(w);
                    for _ in 0..100 {
                        if barrier.wait(&mut waiter) {
                            leaders.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(std::sync::atomic::Ordering::Relaxed), 100);
    }

    #[test]
    fn tree_poison_releases_current_and_future_waiters() {
        let barrier = Arc::new(TreeBarrier::new(2));
        let waiter = {
            let barrier = Arc::clone(&barrier);
            // Only 1 of 2 participants ever arrives: without poison this
            // thread would spin forever at its leaf.
            std::thread::spawn(move || {
                let mut w = barrier.waiter(0);
                barrier.wait(&mut w)
            })
        };
        std::thread::yield_now();
        barrier.poison();
        assert!(!waiter.join().unwrap(), "poisoned wait must not lead");
        assert!(barrier.is_poisoned());
        let mut w1 = barrier.waiter(1);
        assert!(!barrier.wait(&mut w1));
        assert!(!barrier.wait(&mut w1));
    }

    #[test]
    fn zero_spin_limit_always_yields_and_still_works() {
        const THREADS: usize = 2;
        let barrier = Arc::new(SpinBarrier::with_spin_limit(THREADS, 0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut leads = 0u32;
                    for _ in 0..50 {
                        if barrier.wait() {
                            leads += 1;
                        }
                    }
                    leads
                })
            })
            .collect();
        let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 50);
    }
}
