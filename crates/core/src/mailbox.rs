//! Locked inboxes: the cross-LP transport of the LP-pinned baselines.
//!
//! The barrier and null-message kernels pin one thread to each LP and give
//! every LP one `Inbox`: a `Vec` behind a mutex. A sender appends under
//! the lock; the destination's thread swaps the whole batch out for a spare
//! buffer it owns (`Inbox::swap`), so in steady state neither side
//! allocates. The lock's release/acquire pair is the happens-before edge
//! from a send to the drain that receives it — and, in the null-message
//! kernel, the reason an event is visible to any receiver that has seen a
//! promise its sender raised after sending it (DESIGN.md §4.2). Events from
//! different senders arrive in the order the senders took the lock, which
//! is real-time interleaving: the baselines are nondeterministic by design.
//! The round kernels need no lock — their phases already separate every
//! writer from every reader, so their transport is the plain per-worker-pair
//! outbox table owned by [`crate::lp::LpSlots`] (DESIGN.md §4.4).
//!
//! [`Mailboxes`] is kept for the frozen benchmark: no kernel uses it. What
//! is left of it — [`Mailboxes::new`], [`Mailboxes::try_push`] and
//! [`Mailboxes::drain_batch`] — is what `benchmark/src/micro.rs:84–126`
//! times as `mailbox.*`, and goes when the benchmark is re-cut (ROADMAP
//! item 1).

use std::sync::{Mutex, MutexGuard};

use crate::event::Event;

/// A multi-producer inbox drained whole by one consumer (see module docs).
pub(crate) struct Inbox<T>(Mutex<Vec<T>>);

impl<T> Default for Inbox<T> {
    fn default() -> Self {
        Inbox(Mutex::new(Vec::new()))
    }
}

impl<T> Inbox<T> {
    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        // A poisoned lock (a producer panicked mid-push) still guards a
        // valid `Vec`; containment must not take the drain down with it.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `value`. Callable from any thread.
    pub fn push(&self, value: T) {
        self.lock().push(value);
    }

    /// Exchanges everything pushed so far, in arrival order, for `spare`,
    /// which must be empty: its capacity becomes the inbox's next buffer.
    pub fn swap(&self, spare: &mut Vec<T>) {
        debug_assert!(spare.is_empty(), "swapping a non-empty spare buffer");
        std::mem::swap(&mut *self.lock(), spare);
    }

    /// Moves everything pushed so far, in arrival order, to the end of
    /// `out`; the inbox keeps its capacity.
    pub fn append_to(&self, out: &mut Vec<T>) {
        out.append(&mut self.lock());
    }

    /// Whether nothing is pending, read under the lock.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

/// Per-LP-pair mailboxes, indexed by destination LP (kept for the frozen
/// benchmark, see module docs).
pub struct Mailboxes<P> {
    /// `inboxes[dst]` = mailboxes feeding LP `dst`, sorted by source LP id.
    inboxes: Vec<Vec<(u32, Inbox<Event<P>>)>>,
}

impl<P> Mailboxes<P> {
    /// Builds mailboxes from the undirected LP channel list (both directions
    /// are created for every channel).
    pub fn new(lp_count: usize, channels: &[(u32, u32)]) -> Self {
        let mut inboxes: Vec<Vec<(u32, Inbox<Event<P>>)>> =
            (0..lp_count).map(|_| Vec::new()).collect();
        for &(a, b) in channels {
            inboxes[b as usize].push((a, Inbox::default()));
            inboxes[a as usize].push((b, Inbox::default()));
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
                inbox[i].1.push(ev);
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
            inbox.append_to(out);
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
        // The consumer drains while the producers push, as an LP thread
        // does: every value arrives exactly once, each producer's in order.
        const PRODUCERS: u64 = 4;
        const PER: u64 = 1_000;
        let inbox = Inbox::default();
        let mut got = Vec::new();
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let inbox = &inbox;
                s.spawn(move || (p * PER..(p + 1) * PER).for_each(|v| inbox.push(v)));
            }
            let mut batch = Vec::new();
            while got.len() < (PRODUCERS * PER) as usize {
                inbox.swap(&mut batch);
                got.append(&mut batch);
            }
        });
        assert!(inbox.is_empty());
        for p in 0..PRODUCERS {
            let seq: Vec<u64> = got.iter().copied().filter(|v| v / PER == p).collect();
            assert_eq!(seq, (p * PER..(p + 1) * PER).collect::<Vec<_>>());
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
