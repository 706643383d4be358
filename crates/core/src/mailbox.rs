//! Per-LP-pair mailboxes over [`MpscQueue`] (§5.1 of the paper, in its
//! lock-free per-pair shape).
//!
//! Kept for the frozen benchmark: no kernel uses this module. It was the
//! transport of the asynchronous conservative kernel (deleted, DESIGN.md
//! §7); what is left — [`Mailboxes::new`], [`Mailboxes::try_push`] and
//! [`Mailboxes::drain_batch`] — is what `benchmark/src/micro.rs:84–126`
//! times as `mailbox.*`, and goes when the benchmark is re-cut (ROADMAP
//! item 1). The round-based kernels' phases already separate every writer
//! from every reader, so their transport is the plain per-worker-pair
//! outbox table owned by [`crate::lp::LpSlots`] (DESIGN.md §4.4); the
//! null-message kernel keeps one [`MpscQueue`] per destination LP.

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
    /// Returns the event back when no mailbox exists for the pair.
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

    /// Batched drain: appends every pending event of `dst` to `out` —
    /// ascending source order, FIFO within each source — recycling the
    /// nodes, and returns how many events were appended.
    ///
    /// Must only be called by one thread per `dst` at a time (the queues
    /// are single-consumer).
    pub fn drain_batch(&self, dst: u32, out: &mut Vec<Event<P>>) -> usize {
        let start = out.len();
        for (_, q) in &self.inboxes[dst as usize] {
            q.drain_into(out);
        }
        out.len() - start
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
    fn missing_pair_returns_event() {
        let m: Mailboxes<u32> = Mailboxes::new(3, &[(0, 1)]);
        assert!(m.try_push(0, 2, ev(1, 0)).is_err());
        assert!(m.try_push(0, 1, ev(1, 0)).is_ok());
        // Channels are bidirectional.
        assert!(m.try_push(1, 0, ev(1, 1)).is_ok());
    }

    #[test]
    fn drain_batch_visits_sources_in_order() {
        let m: Mailboxes<u32> = Mailboxes::new(3, &[(0, 2), (1, 2)]);
        m.try_push(1, 2, ev(5, 10)).unwrap();
        m.try_push(0, 2, ev(9, 20)).unwrap();
        m.try_push(0, 2, ev(1, 21)).unwrap();
        let mut out = Vec::new();
        assert_eq!(m.drain_batch(2, &mut out), 3);
        let got: Vec<u32> = out.iter().map(|e| e.payload).collect();
        // Source 0 first (FIFO within source), then source 1.
        assert_eq!(got, vec![20, 21, 10]);
        assert_eq!(m.drain_batch(2, &mut out), 0);
    }

    #[test]
    fn duplicate_channels_deduped() {
        let m: Mailboxes<u32> = Mailboxes::new(2, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(m.fan_in(0), 1);
        assert_eq!(m.fan_in(1), 1);
    }
}
