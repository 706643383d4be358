//! Cross-LP event transfer (§5.1): two transports, one per synchronisation
//! style.
//!
//! Before the simulation starts, a channel is created for every *directed*
//! LP pair joined by at least one link. During the processing phase,
//! inter-LP events are appended to the channel of the (source, destination)
//! pair; during the receive phase the destination LP drains its channels —
//! in ascending source-LP order — and inserts the events into its FEL.
//!
//! [`PhasedChannels`] is the transport of the round-based kernels (Unison,
//! hybrid). A round's phases already separate every channel's writer (the
//! thread holding the source LP's process-phase claim) from its reader (the
//! thread holding the destination LP's receive-phase claim), and the phase
//! barriers are the happens-before edge between them — so a channel is a
//! plain `Vec` with no atomics on the event path, and its retained capacity
//! is the pool: steady-state sends allocate nothing (DESIGN.md §4.4).
//!
//! [`Mailboxes`] is the lock-free transport over [`MpscQueue`], kept for the
//! asynchronous conservative kernel, whose producers and consumer really
//! do run concurrently (DESIGN.md §4.8). [`Mailboxes::try_push`] reuses
//! nodes that earlier drains retired onto the queue's freelist.

use std::cell::UnsafeCell;

use crate::event::Event;
use crate::queue::MpscQueue;

/// One directed channel: the in-flight events plus its allocation profile.
struct Channel<P> {
    buf: Vec<Event<P>>,
    /// Pushes that found `buf` full and had to grow it.
    grows: u64,
    /// Events handed to the destination so far.
    delivered: u64,
}

/// Phase-owned channels: one plain buffer per directed LP pair.
///
/// # Access discipline
///
/// The channel `src -> dst` is written only by the thread that holds the
/// claim on LP `src` during a process phase, and drained only by the thread
/// that holds the claim on LP `dst` during a receive phase, or by the
/// control thread while every worker is parked (checkpoint and abort
/// drains). A barrier separates the two phases and carries the
/// happens-before edge (loom model `phased_channel_handoff_happens_before`).
/// [`crate::lp::LpSlots`] owns the channels of a run and audits both sides
/// against its claim tags.
pub struct PhasedChannels<P> {
    /// Grouped by destination, ascending source within a group.
    cells: Vec<UnsafeCell<Channel<P>>>,
    /// Source LP of each cell.
    cell_src: Vec<u32>,
    /// `inbox_start[dst]..inbox_start[dst + 1]` = cells feeding `dst`.
    inbox_start: Vec<u32>,
    /// `out_start[src]..out_start[src + 1]` = `src`'s row of `out`.
    out_start: Vec<u32>,
    /// Per-source neighbour rows: `(dst, cell index)`.
    out: Vec<(u32, u32)>,
}

// SAFETY: a cell is only reached through `push`/`drain`, whose contracts
// give each cell one accessor at a time with a barrier between accessors;
// events move between threads, hence `P: Send`. The tables are read-only.
unsafe impl<P: Send> Sync for PhasedChannels<P> {}

impl<P> PhasedChannels<P> {
    /// Builds channels from the undirected LP channel list (both directions
    /// are created for every pair; duplicates collapse).
    pub fn new(lp_count: usize, channels: &[(u32, u32)]) -> Self {
        let mut pairs: Vec<(u32, u32)> = channels
            .iter()
            .flat_map(|&(a, b)| [(b, a), (a, b)])
            .collect();
        // (dst, src) order: grouped by destination, ascending source.
        pairs.sort_unstable();
        pairs.dedup();
        let mut inbox_start = vec![0u32; lp_count + 1];
        let mut out_start = vec![0u32; lp_count + 1];
        for &(dst, src) in &pairs {
            inbox_start[dst as usize + 1] += 1;
            out_start[src as usize + 1] += 1;
        }
        for i in 0..lp_count {
            inbox_start[i + 1] += inbox_start[i];
            out_start[i + 1] += out_start[i];
        }
        let mut fill = out_start.clone();
        let mut out = vec![(0u32, 0u32); pairs.len()];
        for (cell, &(dst, src)) in pairs.iter().enumerate() {
            let at = &mut fill[src as usize];
            out[*at as usize] = (dst, cell as u32);
            *at += 1;
        }
        PhasedChannels {
            cells: pairs
                .iter()
                .map(|_| {
                    UnsafeCell::new(Channel {
                        buf: Vec::new(),
                        grows: 0,
                        delivered: 0,
                    })
                })
                .collect(),
            cell_src: pairs.iter().map(|&(_, src)| src).collect(),
            inbox_start,
            out_start,
            out,
        }
    }

    /// Appends `ev` to the channel `src -> dst`. Returns the event back
    /// when no channel exists for the pair (the caller then uses the
    /// control-thread `outflow` lane).
    ///
    /// The channel is found in `src`'s own neighbour row — as long as the
    /// LP's fan-out, built once — not by searching `dst`'s inbox.
    ///
    /// # Safety
    ///
    /// The caller must hold the process-phase claim on LP `src`, and no
    /// drain of `dst` may run before the next barrier.
    #[inline]
    pub unsafe fn push(&self, src: u32, dst: u32, ev: Event<P>) -> Result<(), Event<P>> {
        let row = &self.out
            [self.out_start[src as usize] as usize..self.out_start[src as usize + 1] as usize];
        let Some(&(_, cell)) = row.iter().find(|&&(d, _)| d == dst) else {
            return Err(ev);
        };
        // SAFETY: only `src`'s claimant writes this cell during a process
        // phase (caller contract), so this is the only live reference.
        let ch = unsafe { &mut *self.cells[cell as usize].get() };
        if ch.buf.len() == ch.buf.capacity() {
            ch.grows += 1;
        }
        ch.buf.push(ev);
        Ok(())
    }

    /// Drains every channel feeding `dst` in ascending source order,
    /// handing `f` each non-empty channel's source LP and its events in
    /// FIFO (send) order. Buffers keep their capacity. Returns the number
    /// of events delivered.
    ///
    /// # Safety
    ///
    /// The caller must hold the receive-phase claim on LP `dst`, or be the
    /// control thread while all workers are parked; a barrier (or join)
    /// must separate this call from every push into these channels.
    #[inline]
    pub unsafe fn drain(
        &self,
        dst: u32,
        mut f: impl FnMut(u32, std::vec::Drain<'_, Event<P>>),
    ) -> u64 {
        let mut total = 0;
        for cell in self.inbox_start[dst as usize]..self.inbox_start[dst as usize + 1] {
            // SAFETY: only `dst`'s claimant (or the exclusive control
            // thread) reaches this cell outside a process phase (caller
            // contract), so this is the only live reference.
            let ch = unsafe { &mut *self.cells[cell as usize].get() };
            if ch.buf.is_empty() {
                continue;
            }
            let n = ch.buf.len() as u64;
            ch.delivered += n;
            total += n;
            f(self.cell_src[cell as usize], ch.buf.drain(..));
        }
        total
    }

    /// Aggregate `(hits, misses)` over every channel: pushes served from
    /// retained capacity, and pushes that had to grow the buffer — the
    /// steady-state allocation profile of cross-LP traffic, reported as
    /// `RunReport::engine`.
    pub fn pool_stats(&mut self) -> (u64, u64) {
        let (mut pushes, mut grows) = (0, 0);
        for cell in &mut self.cells {
            let ch = cell.get_mut();
            pushes += ch.delivered + ch.buf.len() as u64;
            grows += ch.grows;
        }
        (pushes - grows, grows)
    }
}

/// All mailboxes of a run, indexed by destination LP.
pub struct Mailboxes<P> {
    /// `inboxes[dst]` = mailboxes feeding LP `dst`, sorted by source LP id.
    inboxes: Vec<Vec<(u32, MpscQueue<Event<P>>)>>,
}

impl<P> Mailboxes<P> {
    /// Builds mailboxes from the undirected LP channel list (both directions
    /// are created for every channel).
    pub fn new(lp_count: usize, channels: &[(u32, u32)]) -> Self {
        let mut inboxes: Vec<Vec<(u32, MpscQueue<Event<P>>)>> =
            (0..lp_count).map(|_| Vec::new()).collect();
        for &(a, b) in channels {
            inboxes[b as usize].push((a, MpscQueue::new()));
            inboxes[a as usize].push((b, MpscQueue::new()));
        }
        for inbox in &mut inboxes {
            inbox.sort_unstable_by_key(|(src, _)| *src);
            inbox.dedup_by_key(|(src, _)| *src);
        }
        Mailboxes { inboxes }
    }

    /// Attempts to deliver `ev` into the `(src, dst)` mailbox, reusing a
    /// pooled node when the destination's earlier drains retired one.
    /// Returns the event back when no mailbox exists for the pair (the
    /// caller then uses the main-thread overflow lane).
    #[inline]
    pub fn try_push(&self, src: u32, dst: u32, ev: Event<P>) -> Result<(), Event<P>> {
        let inbox = &self.inboxes[dst as usize];
        match inbox.binary_search_by_key(&src, |(s, _)| *s) {
            Ok(i) => {
                inbox[i].1.push_pooled(ev);
                Ok(())
            }
            Err(_) => Err(ev),
        }
    }

    /// Drains every mailbox of `dst` in ascending source order, invoking `f`
    /// for each event in FIFO (per source) order and recycling the nodes.
    ///
    /// Must only be called by the thread holding the exclusive claim on LP
    /// `dst` during the receive phase.
    pub fn drain(&self, dst: u32, mut f: impl FnMut(Event<P>)) {
        for (_, q) in &self.inboxes[dst as usize] {
            q.drain_recycle(&mut f);
        }
    }

    /// Batched drain: appends every pending event of `dst` to `out` —
    /// ascending source order, FIFO within each source, i.e. exactly the
    /// order [`Mailboxes::drain`] would visit — recycling the nodes, and
    /// returns how many events were appended.
    ///
    /// The receive phase pairs this with `Fel::extend`, turning per-event
    /// closure dispatch + heap sifts into one contiguous append that the FEL
    /// ingests in bulk. Same claim requirement as [`Mailboxes::drain`].
    pub fn drain_batch(&self, dst: u32, out: &mut Vec<Event<P>>) -> usize {
        let start = out.len();
        for (_, q) in &self.inboxes[dst as usize] {
            q.drain_into(out);
        }
        out.len() - start
    }

    /// Drains the single directed channel `src -> dst`, appending its
    /// pending events to `out` in FIFO (send) order and recycling the
    /// nodes. Returns how many events were appended; 0 when no such
    /// channel exists.
    ///
    /// The async-conservative kernel uses this to keep per-channel
    /// deliveries separate for the deterministic k-way merge. Same claim
    /// requirement as [`Mailboxes::drain`].
    pub fn drain_channel(&self, src: u32, dst: u32, out: &mut Vec<Event<P>>) -> usize {
        let inbox = &self.inboxes[dst as usize];
        match inbox.binary_search_by_key(&src, |(s, _)| *s) {
            Ok(i) => inbox[i].1.drain_into(out),
            Err(_) => 0,
        }
    }

    /// Inbox slot of the directed channel `src -> dst`, for use with
    /// [`Mailboxes::drain_slot`]. `None` when no such channel exists.
    pub fn channel_slot(&self, src: u32, dst: u32) -> Option<usize> {
        self.inboxes[dst as usize]
            .binary_search_by_key(&src, |(s, _)| *s)
            .ok()
    }

    /// [`Mailboxes::drain_channel`] with the binary search hoisted out:
    /// `slot` must come from [`Mailboxes::channel_slot`] for the same
    /// `dst`. The async-conservative kernel resolves every channel's slot
    /// once at set-up and probes it on every sweep, where a repeated
    /// search would dominate the cost of probing an empty queue.
    pub fn drain_slot(&self, dst: u32, slot: usize, out: &mut Vec<Event<P>>) -> usize {
        self.inboxes[dst as usize][slot].1.drain_into(out)
    }

    /// Aggregate `(pool_hits, pool_misses)` over every mailbox — the
    /// steady-state allocation profile of cross-LP traffic, reported as
    /// `RunReport::engine`.
    pub fn pool_stats(&self) -> (usize, usize) {
        let (mut hits, mut misses) = (0, 0);
        for inbox in &self.inboxes {
            for (_, q) in inbox {
                let (h, m) = q.pool_stats();
                hits += h;
                misses += m;
            }
        }
        (hits, misses)
    }

    /// Number of LPs covered.
    pub fn lp_count(&self) -> usize {
        self.inboxes.len()
    }

    /// Number of mailboxes feeding `dst`.
    pub fn fan_in(&self, dst: u32) -> usize {
        self.inboxes[dst as usize].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKey, NodeId};
    use crate::time::Time;

    fn ev(ts: u64, seq: u64) -> Event<u32> {
        Event {
            key: EventKey::external(Time(ts), seq),
            node: NodeId(0),
            payload: seq as u32,
        }
    }

    /// Drains `dst` into `(source, payload)` pairs.
    fn drained(c: &PhasedChannels<u32>, dst: u32) -> Vec<(u32, u32)> {
        let mut got = Vec::new();
        // SAFETY: single-threaded test; trivially exclusive.
        unsafe {
            c.drain(dst, |src, batch| {
                got.extend(batch.map(|e| (src, e.payload)))
            })
        };
        got
    }

    #[test]
    fn channels_drain_ascending_source_fifo_per_source() {
        let c: PhasedChannels<u32> = PhasedChannels::new(4, &[(3, 2), (0, 2), (1, 2)]);
        // SAFETY: single-threaded test; trivially exclusive.
        unsafe {
            c.push(3, 2, ev(1, 30)).unwrap();
            c.push(1, 2, ev(5, 10)).unwrap();
            c.push(0, 2, ev(9, 20)).unwrap();
            c.push(0, 2, ev(1, 21)).unwrap();
            // The other direction of a pair is a channel of its own.
            c.push(2, 0, ev(1, 40)).unwrap();
        }
        assert_eq!(drained(&c, 2), vec![(0, 20), (0, 21), (1, 10), (3, 30)]);
        assert_eq!(drained(&c, 2), vec![], "a drain empties the channels");
        assert_eq!(drained(&c, 0), vec![(2, 40)]);
    }

    #[test]
    fn channel_missing_pair_returns_event_for_the_outflow_lane() {
        let c: PhasedChannels<u32> = PhasedChannels::new(3, &[(0, 1)]);
        // SAFETY: single-threaded test; trivially exclusive.
        let back = unsafe { c.push(0, 2, ev(1, 7)) }.unwrap_err();
        assert_eq!(back.payload, 7);
        // No channels at all: every pair is missing.
        let none: PhasedChannels<u32> = PhasedChannels::new(2, &[]);
        // SAFETY: as above.
        assert!(unsafe { none.push(0, 1, ev(1, 0)) }.is_err());
        assert_eq!(drained(&none, 1), vec![]);
    }

    #[test]
    fn channel_duplicates_deduped() {
        let c: PhasedChannels<u32> = PhasedChannels::new(2, &[(0, 1), (0, 1), (1, 0)]);
        // SAFETY: single-threaded test; trivially exclusive.
        unsafe {
            c.push(0, 1, ev(1, 10)).unwrap();
            c.push(0, 1, ev(2, 11)).unwrap();
            c.push(1, 0, ev(3, 12)).unwrap();
        }
        // One channel per direction: one batch each, nothing left behind.
        let mut batches = Vec::new();
        // SAFETY: as above.
        unsafe { c.drain(1, |src, batch| batches.push((src, batch.len()))) };
        assert_eq!(batches, vec![(0, 2)]);
        assert_eq!(drained(&c, 0), vec![(1, 12)]);
    }

    #[test]
    fn channel_capacity_is_retained_across_rounds() {
        let mut c: PhasedChannels<u32> = PhasedChannels::new(2, &[(0, 1)]);
        let mut first_round_misses = 0;
        for round in 0..5 {
            for s in 0..8 {
                // SAFETY: single-threaded test; trivially exclusive.
                unsafe { c.push(0, 1, ev(round * 10, s)) }.unwrap();
            }
            assert_eq!(drained(&c, 1).len(), 8);
            if round == 0 {
                first_round_misses = c.pool_stats().1;
                assert!(first_round_misses >= 1, "an empty buffer has to grow");
            }
        }
        let (hits, misses) = c.pool_stats();
        assert_eq!(misses, first_round_misses, "only the first round grows");
        assert_eq!(hits + misses, 40);
        // Undelivered events count as pushes too.
        // SAFETY: as above.
        unsafe { c.push(0, 1, ev(99, 0)) }.unwrap();
        assert_eq!(c.pool_stats(), (hits + 1, misses));
    }

    #[test]
    fn push_and_drain_in_source_order() {
        let m: Mailboxes<u32> = Mailboxes::new(3, &[(0, 2), (1, 2)]);
        m.try_push(1, 2, ev(5, 10)).unwrap();
        m.try_push(0, 2, ev(9, 20)).unwrap();
        m.try_push(0, 2, ev(1, 21)).unwrap();
        let mut got = Vec::new();
        m.drain(2, |e| got.push(e.payload));
        // Source 0 first (FIFO within source), then source 1.
        assert_eq!(got, vec![20, 21, 10]);
    }

    #[test]
    fn missing_pair_returns_event() {
        let m: Mailboxes<u32> = Mailboxes::new(3, &[(0, 1)]);
        assert!(m.try_push(0, 2, ev(1, 0)).is_err());
        assert!(m.try_push(0, 1, ev(1, 0)).is_ok());
        // Channels are bidirectional.
        assert!(m.try_push(1, 0, ev(1, 1)).is_ok());
    }

    #[test]
    fn drain_batch_matches_drain_order() {
        let m: Mailboxes<u32> = Mailboxes::new(3, &[(0, 2), (1, 2)]);
        m.try_push(1, 2, ev(5, 10)).unwrap();
        m.try_push(0, 2, ev(9, 20)).unwrap();
        m.try_push(0, 2, ev(1, 21)).unwrap();
        let mut out = Vec::new();
        assert_eq!(m.drain_batch(2, &mut out), 3);
        let got: Vec<u32> = out.iter().map(|e| e.payload).collect();
        assert_eq!(got, vec![20, 21, 10]);
        assert_eq!(m.drain_batch(2, &mut out), 0);
    }

    #[test]
    fn steady_state_rounds_reuse_nodes() {
        let m: Mailboxes<u32> = Mailboxes::new(2, &[(0, 1)]);
        for round in 0..5 {
            for s in 0..8 {
                m.try_push(0, 1, ev(round * 10, s)).unwrap();
            }
            let mut out = Vec::new();
            assert_eq!(m.drain_batch(1, &mut out), 8);
        }
        let (hits, misses) = m.pool_stats();
        assert_eq!(misses, 8, "only the first round allocates");
        assert_eq!(hits, 32);
    }

    #[test]
    fn duplicate_channels_deduped() {
        let m: Mailboxes<u32> = Mailboxes::new(2, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(m.fan_in(0), 1);
        assert_eq!(m.fan_in(1), 1);
    }
}
