//! Cross-LP event transfer for the asynchronous conservative kernel (§5.1
//! of the paper, kept in its per-LP-pair shape).
//!
//! Before the simulation starts, a mailbox is created for every *directed*
//! LP pair joined by at least one link. A sender pushes inter-LP events
//! into the mailbox of the (source, destination) pair; the destination LP
//! drains its mailboxes — in ascending source-LP order — whenever its
//! channel clocks allow.
//!
//! [`Mailboxes`] is a lock-free transport over [`MpscQueue`], because this
//! kernel's producers and consumer really do run concurrently (DESIGN.md
//! §4.8). [`Mailboxes::try_push`] reuses nodes that earlier drains retired
//! onto the queue's freelist.
//!
//! The round-based kernels (Unison, hybrid) do not use this module: their
//! phases already separate every writer from every reader, so their
//! transport is the plain per-worker-pair outbox table owned by
//! [`crate::lp::LpSlots`] (DESIGN.md §4.4).

use crate::event::Event;
use crate::queue::MpscQueue;

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
