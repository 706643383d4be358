//! Locked per-LP-pair mailboxes, kept for the frozen benchmark only.
//!
//! No kernel uses this module. The Unison kernel needs no lock — its phases
//! already separate every writer from every reader, so its transport is the
//! plain per-worker-pair outbox table owned by [`crate::lp::LpSlots`]
//! (DESIGN.md §4.4). [`Mailboxes`] — [`Mailboxes::new`],
//! [`Mailboxes::try_push`] and [`Mailboxes::drain_batch`] — is what
//! `benchmark/src/micro.rs:84–162` times as `mailbox.*`; it goes when the
//! benchmark is re-cut (ROADMAP item 1).
//!
//! Each directed LP pair has one `Vec` behind a mutex. A sender appends
//! under the lock and the receiver moves the whole batch out under it; the
//! lock's release/acquire pair is the happens-before edge from a send to
//! the drain that receives it.

use std::sync::{Mutex, MutexGuard};

use crate::event::Event;

/// One directed LP pair's mailbox.
type Inbox<P> = Mutex<Vec<Event<P>>>;

/// Per-LP-pair mailboxes, indexed by destination LP (see module docs).
pub struct Mailboxes<P> {
    /// `inboxes[dst]` = mailboxes feeding LP `dst`, sorted by source LP id.
    inboxes: Vec<Vec<(u32, Inbox<P>)>>,
}

/// Locks one mailbox. A poisoned lock (a producer panicked mid-push) still
/// guards a valid `Vec`.
fn lock<T>(inbox: &Mutex<Vec<T>>) -> MutexGuard<'_, Vec<T>> {
    inbox.lock().unwrap_or_else(|e| e.into_inner())
}

impl<P> Mailboxes<P> {
    /// Builds mailboxes from the undirected LP channel list (both directions
    /// are created for every channel).
    pub fn new(lp_count: usize, channels: &[(u32, u32)]) -> Self {
        let mut inboxes: Vec<Vec<(u32, Inbox<P>)>> = (0..lp_count).map(|_| Vec::new()).collect();
        for &(a, b) in channels {
            inboxes[b as usize].push((a, Mutex::default()));
            inboxes[a as usize].push((b, Mutex::default()));
        }
        for inbox in &mut inboxes {
            inbox.sort_unstable_by_key(|(src, _)| *src);
            inbox.dedup_by_key(|(src, _)| *src);
        }
        Mailboxes { inboxes }
    }

    /// Attempts to deliver `ev` into the `(src, dst)` mailbox. Returns the
    /// event back when no mailbox exists for the pair.
    #[inline]
    pub fn try_push(&self, src: u32, dst: u32, ev: Event<P>) -> Result<(), Event<P>> {
        let inbox = &self.inboxes[dst as usize];
        match inbox.binary_search_by_key(&src, |(s, _)| *s) {
            Ok(i) => {
                lock(&inbox[i].1).push(ev);
                Ok(())
            }
            Err(_) => Err(ev),
        }
    }

    /// Batched drain: appends every pending event of `dst` to `out` —
    /// ascending source order, FIFO within each source — and returns how
    /// many events were appended.
    pub fn drain_batch(&self, dst: u32, out: &mut Vec<Event<P>>) -> usize {
        let start = out.len();
        for (_, inbox) in &self.inboxes[dst as usize] {
            out.append(&mut lock(inbox));
        }
        out.len() - start
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
    fn concurrent_producers_lose_nothing() {
        // The consumer drains while the producers push: every event arrives
        // exactly once, each producer's in order.
        const PRODUCERS: u32 = 4;
        const PER: u64 = 1_000;
        let chans: Vec<(u32, u32)> = (0..PRODUCERS).map(|p| (p, PRODUCERS)).collect();
        let m: Mailboxes<u32> = Mailboxes::new(PRODUCERS as usize + 1, &chans);
        let mut got = Vec::new();
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let m = &m;
                s.spawn(move || {
                    for seq in 0..PER {
                        m.try_push(p, PRODUCERS, ev(u64::from(p), seq)).unwrap();
                    }
                });
            }
            while got.len() < (u64::from(PRODUCERS) * PER) as usize {
                m.drain_batch(PRODUCERS, &mut got);
            }
        });
        assert_eq!(m.drain_batch(PRODUCERS, &mut got), 0);
        for p in 0..PRODUCERS {
            let seq: Vec<u64> = got
                .iter()
                .filter(|e| e.key.ts == Time(u64::from(p)))
                .map(|e| e.key.seq)
                .collect();
            assert_eq!(seq, (0..PER).collect::<Vec<_>>());
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
        // A channel listed twice (either direction) delivers each event once.
        let m: Mailboxes<u32> = Mailboxes::new(3, &[(0, 2), (1, 2), (2, 0)]);
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
}
