//! Logical-process state and the shared LP slot table.
//!
//! Each LP exclusively owns a set of nodes and a future event list. During
//! the parallel phases of a round, worker threads claim LPs through an
//! atomic cursor (each LP is claimed by exactly one thread per phase), so
//! mutable access to the slots is race-free even though the container is
//! shared. [`LpSlots`] encapsulates that pattern behind a small unsafe
//! surface with the claim discipline documented at every call site.
//!
//! The table also owns the run's cross-LP transport: W × W *outboxes*, one
//! plain buffer per (sending worker, receiving home worker). A worker
//! appends every cross-LP event it produces in a process phase to its own
//! row — whichever LP it is executing, its own or a stolen one — and in the
//! receive phase drains its own column straight into the destination FELs,
//! touching an LP only when there is an event for it. The phase barrier
//! between the two is the only synchronization (DESIGN.md §4.4).

use std::cell::UnsafeCell;

use crate::sync_shim::CachePadded;

use crate::event::{Event, LpId};
use crate::fel::Fel;
use crate::global::GlobalFn;
use crate::time::Time;
use crate::world::{NodeDirectory, SimNode};

/// A global event scheduled by a node mid-round, waiting to be merged into
/// the public LP by the main thread.
pub struct PendingGlobal<N: SimNode> {
    /// Absolute execution time.
    pub ts: Time,
    /// Virtual time at which it was scheduled (tie-break data).
    pub sender_ts: Time,
    /// The event body.
    pub f: GlobalFn<N>,
}

/// The state exclusively owned by one logical process.
pub struct LpState<N: SimNode> {
    /// This LP's id.
    pub id: LpId,
    /// Nodes owned by this LP, in ascending node-id order.
    pub nodes: Vec<N>,
    /// This LP's future event list.
    pub fel: Fel<N::Payload>,
    /// Monotone per-LP sequence counter for tie-break keys.
    pub seq: u64,
    /// Global events scheduled by this LP's nodes during the current round.
    pub pending_globals: Vec<PendingGlobal<N>>,
    /// Cached timestamp of the next local event: refreshed after the LP's
    /// last pop of a process phase and lowered by every [`LpState::push`],
    /// so it is exact whenever the LP is not mid-visit (input to the window
    /// computation and to the idle-LP skip).
    pub next_ts: Time,
    /// Measured processing cost of the LP's last visit, in nanoseconds. The
    /// Unison kernel reads this clock only above `MetricsLevel::Summary`,
    /// for per-round profiles and `lp-task` spans; its scheduler estimates
    /// from [`LpState::round_events`] instead.
    pub last_cost_ns: u64,
    /// Events processed by this LP in the current round (metrics, and the
    /// default `ByLastRoundTime` scheduling estimate).
    pub round_events: u64,
    /// Events received from other LPs since the LP's last process-phase
    /// visit, i.e. in the current round's receive phase (metrics).
    pub round_recv: u64,
    /// Total events processed by this LP over the whole run.
    pub total_events: u64,
    /// Locality proxy: number of consecutive processed events whose target
    /// node differs from the previous event's node (the quantity the paper's
    /// fine-grained partition reduces; stands in for cache-miss counters).
    pub node_switches: u64,
    /// Node id handled by the most recent event (for `node_switches`).
    pub last_node: u32,
}

impl<N: SimNode> LpState<N> {
    /// Creates an empty LP whose FEL is backed by `fel_impl`
    /// (`RunConfig::fel`).
    pub fn with_fel(id: LpId, fel_impl: crate::fel::FelImpl) -> Self {
        LpState {
            id,
            nodes: Vec::new(),
            fel: Fel::with_impl(fel_impl),
            seq: 0,
            pending_globals: Vec::new(),
            next_ts: Time::MAX,
            last_cost_ns: 0,
            round_events: 0,
            round_recv: 0,
            total_events: 0,
            node_switches: 0,
            last_node: u32::MAX,
        }
    }

    /// Refreshes the cached next-event timestamp.
    #[inline]
    pub fn refresh_next_ts(&mut self) {
        self.next_ts = self.fel.next_ts();
    }

    /// Inserts an event that arrives from outside the LP's own handlers (a
    /// cross-LP delivery, a global event's injection), keeping the
    /// [`LpState::next_ts`] cache current.
    #[inline]
    pub fn push(&mut self, ev: Event<N::Payload>) {
        self.next_ts = self.next_ts.min(ev.key.ts);
        self.fel.push(ev);
    }
}

/// One outbox: the in-flight events of one (sending worker, receiving home)
/// pair, plus its allocation profile.
struct Outbox<P> {
    buf: Vec<Event<P>>,
    /// Pushes that found `buf` full and had to grow it.
    grows: u64,
    /// Events handed to their destination LPs so far.
    delivered: u64,
}

/// Unused outboxes between two rows of the table: at least one padded line
/// (an outbox is its `Vec` header and two counters, whatever the payload).
const ROW_GAP: usize = 128usize.div_ceil(std::mem::size_of::<Outbox<()>>());

/// A shared table of LP slots with phase-disciplined mutable access, and
/// the outboxes that carry events between them.
///
/// # Access discipline
///
/// During a process phase, each slot index is claimed by exactly one worker
/// (via an atomic cursor over a permutation of indices), giving that worker
/// exclusive access; during a receive phase an LP belongs to its *home*
/// worker (`lp_home`, a static table). Between phases — separated by
/// barriers that establish happens-before — only the main thread touches
/// slots. All mutable access funnels through [`LpSlots::get_mut`], whose
/// safety contract states this invariant.
///
/// The outbox at (row `w`, column `h`) is written only by worker `w`, and
/// only during a process phase ([`LpSlots::send`]); it is drained only by
/// worker `h` during a receive phase, or by the control thread while every
/// worker is parked — fused rounds and abort drains
/// ([`LpSlots::receive`]). A barrier separates the two and carries the
/// happens-before edge (loom model `outbox_handoff_happens_before`). The
/// order events travel in carries no information: the FEL orders them by
/// their keys alone.
///
/// # Claim auditing
///
/// Each slot carries an owner tag `(generation << 8) | owner_id` in a
/// parallel atomic array. `get_mut` stamps the tag with the calling thread's
/// owner id and the current phase generation (a swap, unless a load finds
/// the caller's own current stamp already in place) and panics
/// deterministically if a *different* thread already claimed the slot in
/// the *same* generation — the double claim that would make the `unsafe`
/// contract a lie. Kernels
/// bump the generation with [`LpSlots::begin_phase`] at every phase
/// boundary after which another thread may claim (from inside the
/// main-exclusive window, so the bump itself cannot race with claims); a
/// stretch in which one thread claims alone, such as the unison kernel's
/// fused span, may be one generation. The tags are diagnostic metadata, not part of
/// the synchronization protocol: they use plain `std` atomics with
/// `Relaxed` ordering and never establish happens-before edges, so the
/// audit cannot mask a real race and no simulation result depends on it.
///
/// [`LpSlots::send`] does not stamp: it only *checks* that the calling
/// thread's current-generation stamp is on the source LP — one relaxed
/// load, so the event path carries no second read-modify-write.
/// [`LpSlots::receive`] takes every destination through `get_mut`, and
/// checks that the LP's home is the column being drained (one compare).
pub struct LpSlots<N: SimNode> {
    slots: Vec<CachePadded<UnsafeCell<LpState<N>>>>,
    directory: NodeDirectory,
    /// Home worker of each LP: the column its deliveries travel in.
    lp_home: Vec<u32>,
    /// Workers, i.e. rows and columns of the outbox table.
    workers: usize,
    // PADDING: per writer, not per outbox. Row `w` is the `workers` cells
    // from `w * stride`; `stride` leaves `ROW_GAP` unused cells (>= one
    // padded line) behind every row, so two writers' `Vec` headers never
    // share a line wherever the allocation starts, while one row stays
    // packed for its writer and a column read touches few lines.
    outboxes: Box<[UnsafeCell<Outbox<N::Payload>>]>,
    stride: usize,
    // Padded: every claimant swaps its LP's owner word each phase —
    // unpadded they'd false-share across workers.
    owners: Vec<CachePadded<std::sync::atomic::AtomicU32>>,
    phase: std::sync::atomic::AtomicU32,
}

/// Per-thread auditor identity: 0 is "free", claimants get 1..=255.
/// Ids recycle modulo 255, so with >255 live threads two threads could
/// share an id and a double claim between them would go unreported — an
/// accepted diagnostic limitation (the kernels spawn at most one thread
/// per core).
fn claim_owner_id() -> u32 {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static OWNER: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }
    OWNER.with(|o| {
        let mut id = o.get();
        if id == 0 {
            id = NEXT.fetch_add(1, Ordering::Relaxed) % 255 + 1;
            o.set(id);
        }
        id
    })
}

// SAFETY: `LpSlots` hands out `&mut LpState` only through `get_mut`, whose
// contract requires callers to hold an exclusive claim on that index (atomic
// cursor during process phases, home ownership during receive phases,
// main-thread exclusivity between barriers). An outbox is reached only
// through `send`/`receive`, whose contracts give each cell one accessor at
// a time with a barrier between accessors. `LpState<N>: Send` because
// `N: Send` and payloads are `Send`; the tables are read-only.
unsafe impl<N: SimNode> Sync for LpSlots<N> {}

impl<N: SimNode> LpSlots<N> {
    /// Wraps LP states into a shared slot table for one worker (every LP's
    /// home is worker 0).
    pub fn new(lps: Vec<LpState<N>>, directory: NodeDirectory) -> Self {
        let lp_home = vec![0; lps.len()];
        Self::with_homes(lps, directory, lp_home, 1)
    }

    /// Wraps LP states into a shared slot table for `workers` workers;
    /// `lp_home[lp]` is the worker that receives for `lp`.
    ///
    /// # Panics
    ///
    /// If `lp_home` does not name a worker below `workers` for every LP.
    pub fn with_homes(
        lps: Vec<LpState<N>>,
        directory: NodeDirectory,
        lp_home: Vec<u32>,
        workers: usize,
    ) -> Self {
        assert_eq!(lp_home.len(), lps.len(), "one home per LP");
        assert!(
            lp_home.iter().all(|&h| (h as usize) < workers),
            "an LP's home must be one of the {workers} workers"
        );
        let stride = workers + ROW_GAP;
        let owners = (0..lps.len())
            .map(|_| CachePadded::new(std::sync::atomic::AtomicU32::new(0)))
            .collect();
        LpSlots {
            slots: lps
                .into_iter()
                .map(|lp| CachePadded::new(UnsafeCell::new(lp)))
                .collect(),
            directory,
            lp_home,
            workers,
            outboxes: (0..workers * stride)
                .map(|_| {
                    UnsafeCell::new(Outbox {
                        buf: Vec::new(),
                        grows: 0,
                        delivered: 0,
                    })
                })
                .collect(),
            stride,
            owners,
            phase: std::sync::atomic::AtomicU32::new(0),
        }
    }

    /// Advances the claim-audit phase generation. Call from a context that
    /// is exclusive with respect to all claimants (the main thread between
    /// barriers); claims stamped with an older generation are thereby
    /// released.
    #[inline]
    pub fn begin_phase(&self) {
        self.phase
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// The calling thread's claim in the current phase generation:
    /// `(generation, owner id)`; the tag is `(generation << 8) | owner`.
    fn current_claim(&self) -> (u32, u32) {
        // 24 bits of generation: wraps after ~16.7M phase boundaries, at
        // which point a slot untouched for exactly 2^24 generations could
        // alias — an accepted diagnostic limitation.
        let generation = self.phase.load(std::sync::atomic::Ordering::Relaxed) & 0x00FF_FFFF;
        (generation, claim_owner_id())
    }

    /// Stamps the claim tag for `idx` and panics on a double claim.
    fn audit_claim(&self, idx: usize) {
        use std::sync::atomic::Ordering;
        let (generation, me) = self.current_claim();
        let tag = (generation << 8) | me;
        // The caller's own stamp is already there (the sequential kernel
        // touches one slot per event, a receive phase one per delivery):
        // nothing to write. Another thread stamping this generation still
        // swaps, reads this tag and panics, and this thread's next touch
        // then reads a foreign tag and swaps.
        if self.owners[idx].load(Ordering::Relaxed) == tag {
            return;
        }
        let prev = self.owners[idx].swap(tag, Ordering::Relaxed);
        let (prev_gen, prev_owner) = (prev >> 8, prev & 0xFF);
        if prev_owner != 0 && prev_owner != me && prev_gen == generation {
            panic!(
                "claim-audit: double claim of LP slot {idx} in phase \
                 generation {generation}: owner {prev_owner} already holds \
                 the claim and owner {me} claimed it again (two threads \
                 raced on one slot, or a phase boundary is missing a \
                 begin_phase call)"
            );
        }
    }

    /// Panics unless the calling thread stamped `idx` in the current phase
    /// generation (a load, no stamp of its own).
    fn audit_held(&self, idx: usize, what: &str) {
        let (generation, me) = self.current_claim();
        let tag = self.owners[idx].load(std::sync::atomic::Ordering::Relaxed);
        if tag != (generation << 8) | me {
            panic!(
                "claim-audit: {what} without the claim on LP slot {idx} in \
                 phase generation {generation}: the slot is tagged owner {} \
                 generation {}, the caller is owner {me}",
                tag & 0xFF,
                tag >> 8
            );
        }
    }

    /// Sends `ev` from LP `src`, executing on `worker`, to LP `dst`: appends
    /// it to the outbox at (`worker`, home of `dst`). Any pair of LPs has a
    /// lane, linked or not.
    ///
    /// # Safety
    ///
    /// The caller must be worker `worker` (the control thread in a fused
    /// round: worker 0) inside a process phase, holding the claim on `src`
    /// (see [`LpSlots::get_mut`]), and `dst` must own `ev.node`; the row is
    /// drained only after the next barrier.
    #[inline]
    pub unsafe fn send(&self, src: LpId, worker: usize, dst: LpId, ev: Event<N::Payload>) {
        self.audit_held(src.index(), "outbox push");
        let home = self.lp_home[dst.index()] as usize;
        // SAFETY: only worker `worker` writes its row during a process
        // phase (caller contract), so this is the only live reference. A
        // `worker` beyond the table indexes past the last row and panics.
        let outbox = unsafe { &mut *self.outboxes[worker * self.stride + home].get() };
        if outbox.buf.len() == outbox.buf.capacity() {
            outbox.grows += 1;
        }
        outbox.buf.push(ev);
    }

    /// Delivers every event addressed to home worker `home` — its column,
    /// one outbox per sending worker — into the destination LPs' FELs
    /// ([`LpState::push`]), counting it in [`LpState::round_recv`]. `f`
    /// sees each event and its destination LP just before the insertion.
    /// Buffers keep their capacity. Returns the number of events delivered.
    ///
    /// # Safety
    ///
    /// The caller must be worker `home` inside a receive phase, or the
    /// control thread while every worker is parked or joined; either way
    /// it has exclusive access to every LP whose home is `home`, and a
    /// barrier (or join) separates this call from every send.
    #[inline]
    pub unsafe fn receive(&self, home: usize, mut f: impl FnMut(LpId, &Event<N::Payload>)) -> u64 {
        let mut total = 0;
        // Neither the phase generation nor the calling thread changes
        // within one call, so neither does the caller's claim tag: read it
        // once, not once per delivery.
        let tag = {
            let (generation, me) = self.current_claim();
            (generation << 8) | me
        };
        for row in 0..self.workers {
            // SAFETY: outside a process phase only `home`'s drainer reaches
            // this cell (caller contract), so this is the only live
            // reference.
            let outbox = unsafe { &mut *self.outboxes[row * self.stride + home].get() };
            let n = outbox.buf.len() as u64;
            outbox.delivered += n;
            total += n;
            for ev in outbox.buf.drain(..) {
                let dst = self.directory.lp_of(ev.node);
                if self.lp_home[dst.index()] as usize != home {
                    panic!(
                        "claim-audit: delivery into LP slot {} out of the \
                         column of worker {home}, but the LP's home is worker \
                         {}: only its home worker may receive for an LP",
                        dst.index(),
                        self.lp_home[dst.index()]
                    );
                }
                f(dst, &ev);
                // `get_mut`'s audit: its first step, the load-compare
                // against the caller's own tag, with the tag read once per
                // call; a slot this thread has not stamped in this phase
                // takes the whole audit (swap, double-claim panic).
                if self.owners[dst.index()].load(std::sync::atomic::Ordering::Relaxed) != tag {
                    self.audit_claim(dst.index());
                }
                // SAFETY: forwarded to the caller — it has exclusive access
                // to the LPs of `home`, and `dst` is one (checked above by
                // the audit, which also stamps the claim; `send` chose the
                // column by the same table).
                let lp = unsafe { &mut *self.slots[dst.index()].get() };
                lp.round_recv += 1;
                lp.push(ev);
            }
        }
        total
    }

    /// Delivers every in-flight event, column by column. Returns how many.
    ///
    /// # Safety
    ///
    /// The caller must have exclusive access to every LP slot: the control
    /// thread while every worker is parked or joined.
    pub unsafe fn receive_all(&self) -> u64 {
        (0..self.workers)
            // SAFETY: forwarded to the caller — exclusive on every LP.
            .map(|home| unsafe { self.receive(home, |_, _| {}) })
            .sum()
    }

    /// Number of LPs.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// The node → (LP, local slot) directory.
    #[inline]
    pub fn directory(&self) -> &NodeDirectory {
        &self.directory
    }

    /// Returns exclusive access to one LP slot.
    ///
    /// # Safety
    ///
    /// The caller must hold an exclusive claim on `idx`: either it popped
    /// `idx` from the process phase's atomic work cursor (each index is
    /// handed out at most once per phase and phases are separated by
    /// barriers), or it is `idx`'s home worker inside a receive phase, or
    /// it is the main thread executing between barriers while all workers
    /// wait.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, idx: usize) -> &mut LpState<N> {
        self.audit_claim(idx);
        // SAFETY: forwarded to the caller — the function's contract requires
        // an exclusive claim on `idx`, making this the only live reference.
        unsafe { &mut *self.slots[idx].get() }
    }

    /// The outboxes' `(hits, misses)` allocation profile: sends served from
    /// retained capacity, and sends that had to grow their buffer — the
    /// steady-state allocation profile of cross-LP traffic, reported as
    /// `RunReport::engine`. Their sum is the number of cross-LP sends.
    pub fn outbox_stats(&mut self) -> (u64, u64) {
        let (mut sends, mut grows) = (0, 0);
        for cell in self.outboxes.iter_mut() {
            let outbox = cell.get_mut();
            sends += outbox.delivered + outbox.buf.len() as u64;
            grows += outbox.grows;
        }
        (sends - grows, grows)
    }

    /// Consumes the table, returning the LP states (after all threads have
    /// been joined). Events still in an outbox are dropped: deliver them
    /// with [`LpSlots::receive_all`] first where they matter.
    pub fn into_inner(self) -> (Vec<LpState<N>>, NodeDirectory) {
        let lps = self
            .slots
            .into_iter()
            .map(|c| CachePadded::into_inner(c).into_inner())
            .collect();
        (lps, self.directory)
    }
}

#[cfg(test)]
mod tests {
    //! The slot table, and the claim auditor: `get_mut` stamps an owner tag
    //! per slot and must panic deterministically when two threads claim the
    //! same slot in the same phase generation — the exact violation of the
    //! claim discipline that the `unsafe` contract forbids. The outboxes
    //! lean on the same tags: a send needs the caller's stamp on the source
    //! LP, and a delivery takes its destination LP through `get_mut` after
    //! checking that the LP's home is the column being drained.

    use std::sync::mpsc;

    use super::*;
    use crate::event::{EventKey, NodeId};
    use crate::fel::FelImpl;
    use crate::world::SimCtx;

    struct Nop;
    impl SimNode for Nop {
        type Payload = ();
        fn handle(&mut self, _p: (), _ctx: &mut dyn SimCtx<Self>) {}
    }

    #[test]
    fn slots_roundtrip() {
        let mut lp0 = LpState::<Nop>::with_fel(LpId(0), FelImpl::default());
        lp0.nodes.push(Nop);
        let lp1 = LpState::<Nop>::with_fel(LpId(1), FelImpl::default());
        let dir = NodeDirectory::from_lp_nodes(1, &[vec![NodeId(0)], vec![]]);
        let slots = LpSlots::new(vec![lp0, lp1], dir);
        assert_eq!(slots.len(), 2);
        // SAFETY: single-threaded test; trivially exclusive.
        unsafe {
            slots.get_mut(0).seq = 42;
        }
        let (lps, dir) = slots.into_inner();
        assert_eq!(lps[0].seq, 42);
        assert_eq!(dir.lp_of(NodeId(0)), LpId(0));
    }

    /// Two LPs of one node each (node `i` in LP `i`) and two workers: LP `i`'s
    /// home is worker `i`.
    fn two_slots() -> LpSlots<Nop> {
        let lps = (0..2)
            .map(|i| {
                let mut lp = LpState::<Nop>::with_fel(LpId(i), FelImpl::default());
                lp.nodes.push(Nop);
                lp
            })
            .collect();
        let dir = NodeDirectory::from_lp_nodes(2, &[vec![NodeId(0)], vec![NodeId(1)]]);
        LpSlots::with_homes(lps, dir, vec![0, 1], 2)
    }

    /// An event for `node` at t=1.
    fn ev(node: u32) -> Event<()> {
        Event {
            key: EventKey::external(Time(1), 0),
            node: NodeId(node),
            payload: (),
        }
    }

    /// Forged double claim: a helper thread claims slot 0 and keeps the claim
    /// (no phase boundary), then the main thread claims the same slot in the
    /// same generation. The auditor must panic with a "double claim" message.
    #[test]
    #[should_panic(expected = "double claim")]
    fn forged_double_claim_panics() {
        let slots = two_slots();
        slots.begin_phase();
        let (tx, rx) = mpsc::channel();
        let slots = &slots;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // SAFETY: this claim itself is legitimate (no other claimant
                // yet); the reference is dropped immediately, so no aliasing
                // ever occurs — the *audit tag* is what stays behind.
                let lp = unsafe { slots.get_mut(0) };
                lp.seq += 1;
                tx.send(()).unwrap();
            });
            rx.recv().unwrap();
            // Same generation, different thread: the contract violation. The
            // auditor fires before any aliased reference can be produced.
            // SAFETY: never reached past the audit panic.
            let _ = unsafe { slots.get_mut(0) };
        });
    }

    /// A helper thread claims slot 0 in the current generation; `Err` carries
    /// its audit panic.
    fn claim_slot_0_from_a_second_thread(slots: &LpSlots<Nop>) -> std::thread::Result<()> {
        std::thread::scope(|scope| {
            let helper = scope.spawn(move || {
                // SAFETY: the callers forge a double claim on purpose; the
                // audit panics before the reference exists.
                let _ = unsafe { slots.get_mut(0) };
            });
            helper.join()
        })
    }

    /// A repeat touch by the stamp's owner takes the load-only path; a second
    /// thread stamping *after* it must still see the first owner's tag and
    /// panic.
    #[test]
    fn double_claim_after_the_owners_repeat_touch_panics() {
        let slots = two_slots();
        slots.begin_phase();
        for _ in 0..2 {
            // SAFETY: sole claimant so far; the reference is dropped at once.
            unsafe { slots.get_mut(0) }.seq += 1;
        }
        let forged = claim_slot_0_from_a_second_thread(&slots);
        let msg = *forged.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("double claim of LP slot 0"), "{msg}");
    }

    /// The other order: the second thread stamps *between* the owner's two
    /// touches. It panics itself (the owner's tag was there), and the owner's
    /// repeat touch no longer finds its own tag, so it swaps and panics too.
    #[test]
    #[should_panic(expected = "double claim")]
    fn double_claim_before_the_owners_repeat_touch_panics() {
        let slots = two_slots();
        slots.begin_phase();
        // SAFETY: sole claimant so far; the reference is dropped at once.
        unsafe { slots.get_mut(0) }.seq += 1;
        let forged = claim_slot_0_from_a_second_thread(&slots);
        assert!(forged.is_err(), "the second claimant was not caught");
        // SAFETY: never reached past the audit panic.
        let _ = unsafe { slots.get_mut(0) };
    }

    /// Re-claiming a slot from the same thread within one generation is the
    /// normal kernel pattern (the main thread walks all slots repeatedly in its
    /// exclusive windows) and must not panic.
    #[test]
    fn same_owner_reclaim_is_allowed() {
        let slots = two_slots();
        slots.begin_phase();
        for _ in 0..3 {
            // SAFETY: single-threaded; trivially exclusive.
            unsafe { slots.get_mut(0) }.seq += 1;
            // SAFETY: as above.
            unsafe { slots.get_mut(1) }.seq += 1;
        }
        // SAFETY: as above.
        assert_eq!(unsafe { slots.get_mut(0) }.seq, 3);
    }

    /// A phase boundary releases all claims: a claim from generation g does not
    /// conflict with a different thread's claim in generation g+1.
    #[test]
    fn begin_phase_releases_claims() {
        let slots = two_slots();
        slots.begin_phase();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // SAFETY: sole claimant in this generation; reference dropped
                // before the phase boundary below.
                unsafe { slots.get_mut(0) }.seq += 1;
                tx.send(()).unwrap();
            });
            rx.recv().unwrap();
            slots.begin_phase();
            // SAFETY: new generation — the previous claim is released and the
            // barrier-equivalent (thread join above via channel + scope) orders
            // the accesses.
            unsafe { slots.get_mut(0) }.seq += 1;
        });
        let (lps, _) = slots.into_inner();
        assert_eq!(lps[0].seq, 2);
    }

    /// A send is covered by the claim on its source LP: sending from LP 0 with
    /// only LP 1 stamped (or nothing stamped) is a send nobody was entitled to
    /// make.
    #[test]
    #[should_panic(expected = "outbox push without the claim")]
    fn send_without_the_source_claim_panics() {
        let slots = two_slots();
        slots.begin_phase();
        // SAFETY: single-threaded; trivially exclusive.
        let _ = unsafe { slots.get_mut(1) };
        // SAFETY: never reached past the audit panic.
        unsafe { slots.send(LpId(0), 0, LpId(1), ev(1)) };
    }

    /// A stamp from an earlier generation is no claim either.
    #[test]
    #[should_panic(expected = "outbox push without the claim")]
    fn send_with_a_stale_claim_panics() {
        let slots = two_slots();
        slots.begin_phase();
        // SAFETY: single-threaded; trivially exclusive.
        let _ = unsafe { slots.get_mut(0) };
        slots.begin_phase();
        // SAFETY: never reached past the audit panic.
        unsafe { slots.send(LpId(0), 0, LpId(1), ev(1)) };
    }

    /// Sends `ev(node)` from LP 0 on worker 0, addressed to LP `dst`, under the
    /// claim on LP 0, and opens the next phase generation.
    fn send_then_next_phase(slots: &LpSlots<Nop>, dst: u32, node: u32) {
        slots.begin_phase();
        // SAFETY: single-threaded; trivially exclusive.
        let _ = unsafe { slots.get_mut(0) };
        // SAFETY: LP 0 is stamped by this thread in this generation.
        unsafe { slots.send(LpId(0), 0, LpId(dst), ev(node)) };
        slots.begin_phase();
    }

    /// A helper thread touches LP 1 in the receive generation; the main thread
    /// then delivers into LP 1 in the same generation. The delivery's `get_mut`
    /// is the second claim.
    #[test]
    #[should_panic(expected = "double claim of LP slot 1")]
    fn delivery_into_an_lp_another_thread_stamped_panics() {
        let slots = two_slots();
        send_then_next_phase(&slots, 1, 1);
        let (tx, rx) = mpsc::channel();
        let slots = &slots;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // SAFETY: sole claimant of slot 1 so far; the reference is
                // dropped at once, the audit tag stays behind.
                let _ = unsafe { slots.get_mut(1) };
                tx.send(()).unwrap();
            });
            rx.recv().unwrap();
            // SAFETY: never reached past the audit panic.
            unsafe { slots.receive(1, |_, _| {}) };
        });
    }

    /// Only its home worker receives for an LP. An event for node 0 (LP 0, home
    /// worker 0) sent as if it were LP 1's travels in column 1; draining that
    /// column must not deliver it.
    #[test]
    fn delivery_out_of_a_foreign_column_panics() {
        let slots = two_slots();
        send_then_next_phase(&slots, 1, 0);
        let forged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: single-threaded; the audit panics before the insertion.
            unsafe { slots.receive(1, |_, _| {}) }
        }));
        let msg = *forged.unwrap_err().downcast::<String>().unwrap();
        for part in ["LP slot 0", "column of worker 1", "home is worker 0"] {
            assert!(msg.contains(part), "`{part}` missing from: {msg}");
        }
    }

    /// The kernel pattern: send under the source claim in one generation,
    /// deliver out of the destination's home column in the next. Any pair of
    /// LPs has a lane — an LP can even send to itself.
    #[test]
    fn claimed_send_then_home_drain_delivers() {
        let slots = two_slots();
        slots.begin_phase();
        // SAFETY: single-threaded; trivially exclusive.
        let _ = unsafe { slots.get_mut(0) };
        // SAFETY: LP 0 is stamped by this thread in this generation.
        unsafe {
            slots.send(LpId(0), 0, LpId(1), ev(1));
            slots.send(LpId(0), 1, LpId(1), ev(1));
            slots.send(LpId(0), 0, LpId(0), ev(0));
        }
        slots.begin_phase();
        let mut got = Vec::new();
        // SAFETY: single-threaded; trivially exclusive.
        let n = unsafe { slots.receive(1, |dst, ev| got.push((dst, ev.node))) };
        assert_eq!((n, got), (2, vec![(LpId(1), NodeId(1)); 2]));
        // SAFETY: as above.
        let rest = unsafe { slots.receive_all() };
        assert_eq!(rest, 1, "column 0 was not drained");
        let (lps, _) = slots.into_inner();
        for (lp, recv) in lps.iter().zip([1, 2]) {
            assert_eq!((lp.fel.len() as u64, lp.round_recv), (recv, recv));
            assert_eq!(lp.next_ts, Time(1), "push keeps the cache current");
        }
    }
}
