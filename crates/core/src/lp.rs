//! Logical-process state and the shared LP slot table.
//!
//! Each LP exclusively owns a set of nodes and a future event list. During
//! the parallel phases of a round, worker threads claim LPs through an
//! atomic cursor (each LP is claimed by exactly one thread per phase), so
//! mutable access to the slots is race-free even though the container is
//! shared. [`LpSlots`] encapsulates that pattern behind a small unsafe
//! surface with the claim discipline documented at every call site. The
//! same claims own the run's cross-LP channels ([`PhasedChannels`]): the
//! claim on a source LP covers writing its outgoing channels, the claim on
//! a destination LP covers draining its incoming ones.

use std::cell::UnsafeCell;

use crate::sync_shim::CachePadded;

use crate::event::{Event, LpId};
use crate::fel::Fel;
use crate::global::GlobalFn;
use crate::mailbox::PhasedChannels;
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
    /// Cross-LP events without a pre-allocated channel (routed by the main
    /// thread between phases).
    pub outflow: Vec<Event<N::Payload>>,
    /// Global events scheduled by this LP's nodes during the current round.
    pub pending_globals: Vec<PendingGlobal<N>>,
    /// Cached timestamp of the next local event (refreshed in the receive
    /// phase; input to the window computation).
    pub next_ts: Time,
    /// Measured processing cost of the last *timed* round, in nanoseconds
    /// (the default `ByLastRoundTime` scheduling metric). The Unison kernel
    /// reads the clock only in rounds whose cost something consumes (the
    /// round before an LJF re-sort, per-round profiles, telemetry).
    pub last_cost_ns: u64,
    /// Events processed by this LP in the current round (metrics).
    pub round_events: u64,
    /// Events received from other LPs in the current round (metrics).
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
    /// Creates an empty LP with the default FEL implementation.
    pub fn new(id: LpId) -> Self {
        Self::with_fel(id, crate::fel::FelImpl::default())
    }

    /// Creates an empty LP whose FEL is backed by `fel_impl`
    /// (`RunConfig::fel`).
    pub fn with_fel(id: LpId, fel_impl: crate::fel::FelImpl) -> Self {
        LpState {
            id,
            nodes: Vec::new(),
            fel: Fel::with_impl(fel_impl),
            seq: 0,
            outflow: Vec::new(),
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
}

/// A shared table of LP slots with phase-disciplined mutable access.
///
/// # Access discipline
///
/// During a parallel phase, each slot index is claimed by exactly one worker
/// (via an atomic cursor over a permutation of indices), giving that worker
/// exclusive access. Between phases — separated by barriers that establish
/// happens-before — only the main thread touches slots. All mutable access
/// funnels through [`LpSlots::get_mut`], whose safety contract states this
/// invariant.
///
/// # Claim auditing (`claim-audit` feature, on by default)
///
/// Each slot carries an owner tag `(generation << 8) | owner_id` in a
/// parallel atomic array. `get_mut` stamps the tag with the calling thread's
/// owner id and the current phase generation (a swap, unless a load finds
/// the caller's own current stamp already in place) and panics
/// deterministically if a *different* thread already claimed the slot in
/// the *same* generation — the double claim that would make the `unsafe`
/// contract a lie. Kernels
/// bump the generation with [`LpSlots::begin_phase`] at every phase
/// boundary (from inside the main-exclusive window, so the bump itself
/// cannot race with claims). The tags are diagnostic metadata, not part of
/// the synchronization protocol: they use plain `std` atomics with
/// `Relaxed` ordering and never establish happens-before edges, so enabling
/// the audit cannot mask a real race, and simulation results are
/// bit-identical with the feature on or off.
///
/// Channel accesses ([`LpSlots::send`], [`LpSlots::receive`]) do not stamp:
/// they only *check* that the calling thread's current-generation stamp is
/// on the LP whose claim covers the channel — one relaxed load, so the
/// event path carries no second read-modify-write.
pub struct LpSlots<N: SimNode> {
    slots: Vec<CachePadded<UnsafeCell<LpState<N>>>>,
    directory: NodeDirectory,
    channels: PhasedChannels<N::Payload>,
    // Padded: with the audit on, every claimant swaps its LP's owner
    // word each phase — unpadded they'd false-share across workers.
    #[cfg(feature = "claim-audit")]
    owners: Vec<CachePadded<std::sync::atomic::AtomicU32>>,
    #[cfg(feature = "claim-audit")]
    phase: std::sync::atomic::AtomicU32,
}

/// Per-thread auditor identity: 0 is "free", claimants get 1..=255.
/// Ids recycle modulo 255, so with >255 live threads two threads could
/// share an id and a double claim between them would go unreported — an
/// accepted diagnostic limitation (the kernels spawn at most one thread
/// per core).
#[cfg(feature = "claim-audit")]
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
// cursor during parallel phases, main-thread exclusivity between barriers).
// `LpState<N>: Send` because `N: Send` and payloads are `Send`.
unsafe impl<N: SimNode> Sync for LpSlots<N> {}

impl<N: SimNode> LpSlots<N> {
    /// Wraps LP states into a shared slot table without cross-LP channels
    /// (every [`LpSlots::send`] hands its event back).
    pub fn new(lps: Vec<LpState<N>>, directory: NodeDirectory) -> Self {
        Self::with_channels(lps, directory, &[])
    }

    /// Wraps LP states into a shared slot table with one channel per
    /// direction of every undirected LP pair in `channels`.
    pub fn with_channels(
        lps: Vec<LpState<N>>,
        directory: NodeDirectory,
        channels: &[(u32, u32)],
    ) -> Self {
        let channels = PhasedChannels::new(lps.len(), channels);
        #[cfg(feature = "claim-audit")]
        let owners = (0..lps.len())
            .map(|_| CachePadded::new(std::sync::atomic::AtomicU32::new(0)))
            .collect();
        LpSlots {
            slots: lps
                .into_iter()
                .map(|lp| CachePadded::new(UnsafeCell::new(lp)))
                .collect(),
            directory,
            channels,
            #[cfg(feature = "claim-audit")]
            owners,
            #[cfg(feature = "claim-audit")]
            phase: std::sync::atomic::AtomicU32::new(0),
        }
    }

    /// Advances the claim-audit phase generation. Call from a context that
    /// is exclusive with respect to all claimants (the main thread between
    /// barriers); claims stamped with an older generation are thereby
    /// released. No-op with the `claim-audit` feature disabled.
    #[inline]
    pub fn begin_phase(&self) {
        #[cfg(feature = "claim-audit")]
        self.phase
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// The calling thread's claim in the current phase generation:
    /// `(generation, owner id)`; the tag is `(generation << 8) | owner`.
    #[cfg(feature = "claim-audit")]
    fn current_claim(&self) -> (u32, u32) {
        // 24 bits of generation: wraps after ~16.7M phase boundaries, at
        // which point a slot untouched for exactly 2^24 generations could
        // alias — an accepted diagnostic limitation.
        let generation = self.phase.load(std::sync::atomic::Ordering::Relaxed) & 0x00FF_FFFF;
        (generation, claim_owner_id())
    }

    /// Stamps the claim tag for `idx` and panics on a double claim.
    #[cfg(feature = "claim-audit")]
    fn audit_claim(&self, idx: usize) {
        use std::sync::atomic::Ordering;
        let (generation, me) = self.current_claim();
        let tag = (generation << 8) | me;
        // The caller's own stamp is already there (the sequential kernel
        // touches one slot per event): nothing to write. Another thread
        // stamping this generation still swaps, reads this tag and panics,
        // and this thread's next touch then reads a foreign tag and swaps.
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
    #[cfg(feature = "claim-audit")]
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

    /// Sends `ev` from LP `src` to LP `dst` through their channel. Returns
    /// the event back when the pair has none (the caller then uses the
    /// control-thread `outflow` lane).
    ///
    /// # Safety
    ///
    /// The caller must hold the process-phase claim on `src` (see
    /// [`LpSlots::get_mut`]); `dst` is drained only after the next barrier.
    #[inline]
    pub unsafe fn send(
        &self,
        src: LpId,
        dst: LpId,
        ev: Event<N::Payload>,
    ) -> Result<(), Event<N::Payload>> {
        #[cfg(feature = "claim-audit")]
        self.audit_held(src.index(), "channel push");
        // SAFETY: forwarded to the caller — it holds the claim on `src`.
        unsafe { self.channels.push(src.0, dst.0, ev) }
    }

    /// Drains the channels feeding LP `dst`: `f` gets each non-empty
    /// channel's source LP and events, ascending source, FIFO per source.
    /// Returns the number of events delivered.
    ///
    /// # Safety
    ///
    /// The caller must hold the receive-phase claim on `dst`, or be the
    /// control thread while every worker is parked or joined.
    #[inline]
    pub unsafe fn receive(
        &self,
        dst: usize,
        f: impl FnMut(u32, std::vec::Drain<'_, Event<N::Payload>>),
    ) -> u64 {
        #[cfg(feature = "claim-audit")]
        self.audit_held(dst, "channel drain");
        // SAFETY: forwarded to the caller — it holds the claim on `dst`.
        unsafe { self.channels.drain(dst as u32, f) }
    }

    /// Number of LPs.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
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
    /// `idx` from the phase's atomic work cursor (each index is handed out
    /// at most once per phase and phases are separated by barriers), or it
    /// is the main thread executing between barriers while all workers wait.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, idx: usize) -> &mut LpState<N> {
        #[cfg(feature = "claim-audit")]
        self.audit_claim(idx);
        // SAFETY: forwarded to the caller — the function's contract requires
        // an exclusive claim on `idx`, making this the only live reference.
        unsafe { &mut *self.slots[idx].get() }
    }

    /// The channels' `(hits, misses)` allocation profile
    /// ([`PhasedChannels::pool_stats`]).
    pub fn channel_pool_stats(&mut self) -> (u64, u64) {
        self.channels.pool_stats()
    }

    /// Consumes the table, returning the LP states (after all threads have
    /// been joined). Events still in a channel are dropped: drain with
    /// [`LpSlots::receive`] first where they matter.
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
    use super::*;
    use crate::event::NodeId;
    use crate::world::{SimCtx, SimNode};

    struct Nop;
    impl SimNode for Nop {
        type Payload = ();
        fn handle(&mut self, _p: (), _ctx: &mut dyn SimCtx<Self>) {}
    }

    #[test]
    fn slots_roundtrip() {
        let mut lp0 = LpState::<Nop>::new(LpId(0));
        lp0.nodes.push(Nop);
        let lp1 = LpState::<Nop>::new(LpId(1));
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
}
