//! A lock-free multi-producer single-consumer queue with node recycling.
//!
//! Replaces `crossbeam::queue::SegQueue` for the inboxes of the barrier and
//! null-message kernels (the real crate is unavailable in offline builds;
//! the round kernels use no queue at all — their transport is the outbox
//! table of `crate::lp::LpSlots`) and is deliberately simpler: an
//! atomic exchange ("Treiber") stack that producers push onto with a CAS
//! loop, which the consumer detaches wholesale and reverses, restoring
//! per-producer FIFO order.
//!
//! This matches how those kernels consume their inboxes — a full drain
//! between synchronization points — and has the memory-ordering contract a
//! mailbox needs: `push` is a `Release` operation and the consumer's
//! detach is an `Acquire` operation, so everything written before a `push`
//! happens-before the closure invocation in [`MpscQueue::drain`] that
//! receives the value. The `crates/core/tests/loom_models.rs` model
//! `mailbox_handoff_happens_before` machine-checks that edge.
//!
//! Ordering across *different* producers is the physical CAS arrival order,
//! exactly like `SegQueue`: the barrier and null-message baselines, which
//! are documented-nondeterministic, share one inbox per destination; a
//! caller that needs per-source order ([`crate::mailbox::Mailboxes`]) keeps
//! one queue per (source, destination) pair.
//!
//! # Node pool
//!
//! The queue optionally recycles its nodes instead of round-tripping each
//! one through the global allocator (today only
//! [`crate::mailbox::Mailboxes`], kept for the frozen benchmark, pushes
//! pooled): [`MpscQueue::drain_into`] retires drained nodes onto an
//! internal freelist, and [`MpscQueue::push_pooled`] reuses them. The freelist hand-out
//! protocol is ABA-free by construction — a taker detaches the *entire*
//! list with one `swap`, keeps the head node, and splices the remainder
//! back — so a node can never be handed to two producers, and the worst
//! outcome of (disallowed, but memory-safe) concurrent misuse is a
//! transiently longer freelist, never a double-claim. The loom model
//! `mailbox_pool_no_aba` machine-checks the race between a recycling drain
//! and a pooled push; DESIGN.md §4.4 states the ownership rules.

use core::marker::PhantomData;
use core::mem::MaybeUninit;
use core::ptr;

use crate::sync_shim::{AtomicUsize, Ordering};

/// One linked node. Heap ownership transfers producer → queue → consumer
/// (and, on the recycling paths, back to the queue's freelist).
///
/// `value` is a `MaybeUninit` because freelist nodes have had their payload
/// moved out by a drain: a node is *initialized* exactly while it is
/// reachable from `head`, and *uninitialized* while reachable from `free`.
struct Node<T> {
    value: MaybeUninit<T>,
    next: *mut Node<T>,
}

/// Lock-free MPSC queue (see module docs).
pub struct MpscQueue<T> {
    /// Top of the exchange stack as a `*mut Node<T>` address (0 = empty).
    head: AtomicUsize,
    /// Freelist of spare nodes (payload uninitialized), same encoding.
    free: AtomicUsize,
    /// How many [`MpscQueue::push_pooled`] calls reused a freelist node.
    pool_hits: AtomicUsize,
    /// How many [`MpscQueue::push_pooled`] calls fell back to the allocator.
    pool_misses: AtomicUsize,
    _marker: PhantomData<Box<Node<T>>>,
}

// SAFETY: values of `T` are moved through the queue between threads, which
// requires `T: Send`; the queue itself holds no thread-affine state and all
// shared mutation goes through `head`/`free` with Release/Acquire ordering.
unsafe impl<T: Send> Send for MpscQueue<T> {}
// SAFETY: as above — concurrent `push` calls synchronize on the CAS, the
// consumer takes whole chains with an Acquire swap before touching nodes,
// and freelist nodes are handed out exclusively (whole-list swap).
unsafe impl<T: Send> Sync for MpscQueue<T> {}

impl<T> Default for MpscQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MpscQueue<T> {
    /// Creates an empty queue with an empty node pool.
    pub fn new() -> Self {
        MpscQueue {
            head: AtomicUsize::new(0),
            free: AtomicUsize::new(0),
            pool_hits: AtomicUsize::new(0),
            pool_misses: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Appends `value` in a freshly allocated node. Callable from any
    /// thread; lock-free (a CAS loop that only retries when another
    /// producer won the race).
    pub fn push(&self, value: T) {
        let node = Box::into_raw(Box::new(Node {
            value: MaybeUninit::new(value),
            next: ptr::null_mut(),
        }));
        self.publish(node);
    }

    /// Appends `value`, reusing a recycled node when the pool has one.
    ///
    /// Same ordering contract as [`MpscQueue::push`]. The pool refills via
    /// [`MpscQueue::drain_into`], so a producer that pushes at most as much
    /// as the consumer drained last round allocates nothing in steady
    /// state. Hit/miss counts are reported by [`MpscQueue::pool_stats`].
    pub fn push_pooled(&self, value: T) {
        let node = self.take_free();
        let node = if node.is_null() {
            self.pool_misses.fetch_add(1, Ordering::Relaxed);
            Box::into_raw(Box::new(Node {
                value: MaybeUninit::new(value),
                next: ptr::null_mut(),
            }))
        } else {
            self.pool_hits.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `take_free` hands out each freelist node to exactly
            // one caller (whole-list swap — see its SAFETY comment), so we
            // own `node` exclusively. Its payload is uninitialized (moved
            // out when the node was retired), so overwriting the
            // `MaybeUninit` drops nothing.
            unsafe {
                (*node).value = MaybeUninit::new(value);
                (*node).next = ptr::null_mut();
            }
            node
        };
        self.publish(node);
    }

    /// Links an exclusively-owned, initialized node into the stack.
    fn publish(&self, node: *mut Node<T>) {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is owned exclusively by this thread (fresh from
            // `Box::into_raw` or handed out by `take_free`) and has not been
            // published yet.
            unsafe { (*node).next = head as *mut Node<T> };
            // Release on success: publishes the node's contents (and
            // everything sequenced before this push) to the consumer's
            // Acquire detach.
            match self.head.compare_exchange(
                head,
                node as usize,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Takes one node off the freelist, or null when it is empty.
    ///
    /// ABA-free by construction: the *entire* freelist is detached with one
    /// `swap`, the head node is kept, and the remainder is spliced back. Two
    /// concurrent takers therefore see disjoint chains — a node can never be
    /// handed out twice, which is what makes [`MpscQueue::push_pooled`] a
    /// safe fn even under (disallowed) concurrent misuse.
    fn take_free(&self) -> *mut Node<T> {
        // Acquire: pairs with the Release in `recycle` / `restore_free`, so
        // the retiring thread's payload move-out happens-before our reuse.
        let chain = self.free.swap(0, Ordering::Acquire) as *mut Node<T>;
        if chain.is_null() {
            return chain;
        }
        // SAFETY: the swap transferred exclusive ownership of the whole
        // chain to this thread; reading the head's link is ours to do.
        let rest = unsafe { (*chain).next };
        if !rest.is_null() {
            self.restore_free(rest);
        }
        chain
    }

    /// Splices an exclusively-owned chain back onto the freelist.
    fn restore_free(&self, rest: *mut Node<T>) {
        // Fast path: nothing was recycled since the swap (always true with
        // one producer and a consumer that drains between its pushes).
        if self
            .free
            .compare_exchange(0, rest as usize, Ordering::Release, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        // A concurrent recycle landed meanwhile: find our chain's tail and
        // push the whole chain, preserving both (nothing leaks).
        let mut tail = rest;
        // SAFETY: we own the `rest` chain exclusively (detached by our
        // `swap` in `take_free`), so walking and relinking it is safe.
        unsafe {
            while !(*tail).next.is_null() {
                tail = (*tail).next;
            }
        }
        let mut head = self.free.load(Ordering::Relaxed);
        loop {
            // SAFETY: as above — `tail` is inside our exclusively-owned
            // chain until the CAS below publishes it.
            unsafe { (*tail).next = head as *mut Node<T> };
            match self.free.compare_exchange(
                head,
                rest as usize,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Retires an exclusively-owned node (payload already moved out) onto
    /// the freelist.
    fn recycle(&self, node: *mut Node<T>) {
        let mut head = self.free.load(Ordering::Relaxed);
        loop {
            // SAFETY: the caller (a drain) owns `node` exclusively until the
            // CAS below publishes it to the freelist.
            unsafe { (*node).next = head as *mut Node<T> };
            // Release: pairs with the Acquire swap in `take_free`, ordering
            // the payload move-out before any reuse of the slot.
            match self.free.compare_exchange(
                head,
                node as usize,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Detaches everything pushed so far and reverses the chain in one local
    /// pass, returning the FIFO-ordered head (the reversal cursor never
    /// re-reads `self.head`).
    fn detach_fifo(&self) -> *mut Node<T> {
        // Acquire: pairs with the Release CAS in `publish`.
        let mut cur = self.head.swap(0, Ordering::Acquire) as *mut Node<T>;
        // The stack holds newest-first; reverse in place to recover FIFO.
        let mut prev: *mut Node<T> = ptr::null_mut();
        while !cur.is_null() {
            // SAFETY: the swap above transferred exclusive ownership of the
            // whole chain to this thread; `cur` walks only that chain.
            let next = unsafe { (*cur).next };
            // SAFETY: as above — exclusive ownership of `cur`.
            unsafe { (*cur).next = prev };
            prev = cur;
            cur = next;
        }
        prev
    }

    /// Detaches everything pushed so far and invokes `f` on each value in
    /// per-producer FIFO order, freeing the nodes.
    ///
    /// Single consumer: concurrent `drain` calls would each take a disjoint
    /// chain (still safe), but the kernels' discipline is one consumer per
    /// queue between synchronization points.
    pub fn drain(&self, mut f: impl FnMut(T)) {
        let mut cur = self.detach_fifo();
        while !cur.is_null() {
            // SAFETY: each node was allocated by `Box::new` in a push and is
            // visited exactly once, so re-boxing reclaims it exactly once.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next;
            // SAFETY: nodes reachable from `head` are initialized (module
            // invariant), and the box is dropped right after the move-out.
            f(unsafe { node.value.assume_init() });
        }
    }

    /// Batched drain: detaches everything pushed so far, appends the values
    /// to `out` in per-producer FIFO order, retires the nodes onto the
    /// freelist, and returns how many values were appended.
    ///
    /// This is the cheapest consumption path — a single pointer walk (the
    /// newest-first chain goes straight into `out`, then the appended slice
    /// is reversed in cache-friendly contiguous memory rather than by a
    /// second chain walk) and no per-value closure dispatch. It feeds
    /// `Mailboxes::drain_batch`.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let start = out.len();
        // Acquire: pairs with the Release CAS in `publish`.
        let mut cur = self.head.swap(0, Ordering::Acquire) as *mut Node<T>;
        while !cur.is_null() {
            // SAFETY: the swap transferred exclusive ownership of the whole
            // chain; each value is moved out exactly once (slot becomes
            // uninitialized, satisfying the freelist invariant) and each
            // node is retired exactly once.
            let (value, next) = unsafe { ((*cur).value.assume_init_read(), (*cur).next) };
            self.recycle(cur);
            cur = next;
            out.push(value);
        }
        // Chain order is newest-first; restore per-producer FIFO.
        out[start..].reverse();
        out.len() - start
    }

    /// Whether the queue was empty at the time of the check. Racy by nature
    /// (a producer can push immediately after); callers use it only as a
    /// wake-up hint under an external lock.
    pub fn is_empty(&self) -> bool {
        // Acquire so a true "non-empty" answer also makes the observed
        // node's payload visible if the caller goes on to drain.
        self.head.load(Ordering::Acquire) == 0
    }

    /// Number of values pending at the time of the check, without detaching
    /// them. Racy the same way [`MpscQueue::is_empty`] is — a lower bound
    /// while producers are active, exact between synchronization points.
    /// O(pending); used for pre-sizing receive buffers, not in loops.
    pub fn len_hint(&self) -> usize {
        // Acquire: makes the observed chain's links visible.
        let mut cur = self.head.load(Ordering::Acquire) as *mut Node<T>;
        let mut n = 0;
        while !cur.is_null() {
            // SAFETY: published nodes are immutable until the (single)
            // consumer detaches them, and we are that consumer — a
            // concurrent producer only prepends *before* the head we
            // loaded, never mutating the chain we walk.
            cur = unsafe { (*cur).next };
            n += 1;
        }
        n
    }

    /// `(hits, misses)` of [`MpscQueue::push_pooled`] since construction.
    pub fn pool_stats(&self) -> (usize, usize) {
        (
            self.pool_hits.load(Ordering::Relaxed),
            self.pool_misses.load(Ordering::Relaxed),
        )
    }
}

impl<T> Drop for MpscQueue<T> {
    fn drop(&mut self) {
        self.drain(drop);
        // Free the spare nodes. Their payloads are uninitialized, so only
        // the boxes are reclaimed — no `T` is dropped here.
        let mut cur = self.free.swap(0, Ordering::Acquire) as *mut Node<T>;
        while !cur.is_null() {
            // SAFETY: `&mut self` means no other thread can touch the
            // freelist; each spare node is re-boxed exactly once.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next;
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn drain_preserves_fifo_per_producer() {
        let q: MpscQueue<u32> = MpscQueue::new();
        assert!(q.is_empty());
        for i in 0..100 {
            q.push(i);
        }
        assert!(!q.is_empty());
        let mut got = Vec::new();
        q.drain(|v| got.push(v));
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn drain_on_empty_is_noop() {
        let q: MpscQueue<String> = MpscQueue::new();
        let mut n = 0;
        q.drain(|_| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn drain_into_preserves_fifo_and_appends() {
        let q: MpscQueue<u32> = MpscQueue::new();
        for i in 0..50 {
            q.push(i);
        }
        let mut out = vec![999];
        assert_eq!(q.drain_into(&mut out), 50);
        assert_eq!(out[0], 999, "drain_into must append, not overwrite");
        assert_eq!(out[1..], (0..50).collect::<Vec<_>>()[..]);
        assert_eq!(q.drain_into(&mut out), 0);
    }

    #[test]
    fn pooled_push_reuses_drained_nodes() {
        let q: MpscQueue<String> = MpscQueue::new();
        for i in 0..10 {
            q.push_pooled(format!("a{i}"));
        }
        assert_eq!(q.pool_stats(), (0, 10), "cold pool: all misses");
        q.drain_into(&mut Vec::new());
        for i in 0..10 {
            q.push_pooled(format!("b{i}"));
        }
        assert_eq!(q.pool_stats(), (10, 10), "warm pool: all hits");
        let mut got = Vec::new();
        q.drain_into(&mut got);
        assert_eq!(got, (0..10).map(|i| format!("b{i}")).collect::<Vec<_>>());
    }

    #[test]
    fn drain_into_recycles_nodes() {
        let q: MpscQueue<u64> = MpscQueue::new();
        for round in 0..5u64 {
            for i in 0..20 {
                q.push_pooled(round * 100 + i);
            }
            let mut out = Vec::new();
            assert_eq!(q.drain_into(&mut out), 20);
            assert_eq!(out, (round * 100..round * 100 + 20).collect::<Vec<_>>());
        }
        let (hits, misses) = q.pool_stats();
        assert_eq!(misses, 20, "only the first round allocates");
        assert_eq!(hits, 80);
    }

    #[test]
    fn len_hint_counts_pending() {
        let q: MpscQueue<u8> = MpscQueue::new();
        assert_eq!(q.len_hint(), 0);
        for _ in 0..7 {
            q.push(1);
        }
        assert_eq!(q.len_hint(), 7);
        q.drain(drop);
        assert_eq!(q.len_hint(), 0);
    }

    #[test]
    fn drop_reclaims_pending_nodes() {
        // Detected by sanitizers / Miri if nodes leaked or double-freed.
        let q: MpscQueue<Vec<u8>> = MpscQueue::new();
        for i in 0..10 {
            q.push(vec![i; 100]);
        }
        drop(q);
    }

    #[test]
    fn drop_reclaims_freelist_nodes() {
        // The freelist's nodes have moved-out payloads; Drop must free the
        // boxes without dropping values (Miri catches both leak and double
        // free).
        let q: MpscQueue<Vec<u8>> = MpscQueue::new();
        for i in 0..10 {
            q.push_pooled(vec![i; 100]);
        }
        q.drain_into(&mut Vec::new());
        for i in 0..4 {
            q.push_pooled(vec![i; 100]); // leave some pool nodes in use
        }
        drop(q);
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 1_000;
        let q = Arc::new(MpscQueue::<u64>::new());
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        q.push(p * PER + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got = Vec::new();
        q.drain(|v| got.push(v));
        assert_eq!(got.len(), (PRODUCERS * PER) as usize);
        // Per-producer FIFO: each producer's values appear in order.
        for p in 0..PRODUCERS {
            let seq: Vec<u64> = got.iter().copied().filter(|v| v / PER == p).collect();
            assert_eq!(seq, (p * PER..(p + 1) * PER).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concurrent_pooled_producers_lose_nothing() {
        // Warm the pool, then race pooled pushes: values survive, pool
        // hand-out never double-claims (each value appears exactly once).
        const PRODUCERS: u64 = 4;
        const PER: u64 = 500;
        let q = Arc::new(MpscQueue::<u64>::new());
        for i in 0..100 {
            q.push_pooled(i);
        }
        q.drain_into(&mut Vec::new());
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        q.push_pooled(1_000_000 + p * PER + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got = Vec::new();
        q.drain_into(&mut got);
        got.sort_unstable();
        let want: Vec<u64> = (0..PRODUCERS * PER).map(|i| 1_000_000 + i).collect();
        assert_eq!(
            got, want,
            "no value lost or duplicated under racing pooled pushes"
        );
    }
}
