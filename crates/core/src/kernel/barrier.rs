//! The barrier-synchronization PDES baseline (ns-3's distributed simulator).
//!
//! One OS thread is pinned to each LP of a *static* partition. Execution
//! proceeds in rounds: all threads compute the LBTS (Eq. 1), process their
//! events inside the window, then meet at a global barrier before exchanging
//! cross-LP events and starting the next round.
//!
//! Faithful to the baseline it models:
//!
//! - simultaneous events run in *insertion order* (ns-3 semantics), and the
//!   insertion order of cross-LP events depends on real-time arrival
//!   interleaving — so repeated parallel runs are **not deterministic**
//!   (reproducing Fig. 11's observation);
//! - global events are not supported (only stopping at a fixed time);
//! - the partition is fixed: LP count = thread count, chosen by the user.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::error::SimError;
use crate::event::{Event, EventKey, LpId, NodeId};
use crate::fel::Fel;
use crate::global::GlobalFn;
use crate::lp::LpState;
use crate::mailbox::Inbox;
use crate::metrics::RunReport;
use crate::sync::SpinBarrier;
use crate::telemetry::SpanKind;
use crate::time::Time;
use crate::world::{NodeDirectory, SimCtx, SimNode, World};

use super::harness::{
    finish, join_contained, prepare, spawn_contained, Outcome, Setup, Site, Worker,
};
use super::RunConfig;

/// [`SimCtx`] for the LP-pinned baselines: ns-3 insertion-order keys.
struct PinnedCtx<'a, N: SimNode> {
    now: Time,
    self_node: NodeId,
    lp_id: LpId,
    fel: &'a mut Fel<N::Payload>,
    /// Local insertion counter (FIFO among simultaneous events).
    insert_seq: &'a mut u64,
    dir: &'a NodeDirectory,
    /// One shared inbox per LP; arrival order is real-time interleaved.
    inboxes: &'a [Inbox<Event<N::Payload>>],
    kernel_name: &'static str,
}

impl<N: SimNode> SimCtx<N> for PinnedCtx<'_, N> {
    fn now(&self) -> Time {
        self.now
    }

    fn self_node(&self) -> NodeId {
        self.self_node
    }

    fn schedule(&mut self, delay: Time, target: NodeId, payload: N::Payload) {
        let ts = self.now.saturating_add(delay);
        let dst = self.dir.lp_of(target);
        if dst == self.lp_id {
            let key = EventKey {
                ts,
                sender_ts: Time::ZERO,
                sender_lp: LpId(0),
                seq: *self.insert_seq,
            };
            *self.insert_seq += 1;
            self.fel.push(Event {
                key,
                node: target,
                payload,
            });
        } else {
            // The receiver assigns the insertion sequence when it drains its
            // inbox; only the timestamp travels.
            self.inboxes[dst.index()].push(Event {
                key: EventKey {
                    ts,
                    sender_ts: Time::ZERO,
                    sender_lp: LpId(0),
                    seq: 0,
                },
                node: target,
                payload,
            });
        }
    }

    fn schedule_global(&mut self, _delay: Time, _f: GlobalFn<N>) {
        panic!(
            "kernel `{}` does not support global events scheduled from \
             node handlers; use the Unison kernel",
            self.kernel_name
        );
    }
}

/// One LP as the thread pinned to it runs it (shared with the null-message
/// kernel): its state, the FIFO insertion counter, the buffer its inbox is
/// swapped into and the thread's accounts.
pub(super) struct PinnedLp<N: SimNode> {
    pub lp: LpState<N>,
    insert_seq: u64,
    /// Empty between receives; its capacity is the inbox's next buffer.
    batch: Vec<Event<N::Payload>>,
    pub worker: Worker,
}

impl<N: SimNode> PinnedLp<N> {
    pub fn new(lp: LpState<N>, worker: Worker) -> Self {
        PinnedLp {
            insert_seq: lp.fel.len() as u64,
            lp,
            batch: Vec::new(),
            worker,
        }
    }

    /// Drains the shared inbox into the FEL in arrival order; returns the
    /// number of events received.
    pub fn receive(&mut self, inbox: &Inbox<Event<N::Payload>>) -> u64 {
        inbox.swap(&mut self.batch);
        let recv = self.batch.len() as u64;
        for mut ev in self.batch.drain(..) {
            ev.key.seq = self.insert_seq;
            self.insert_seq += 1;
            self.lp.fel.push(ev);
        }
        recv
    }

    /// Executes every event strictly below `limit`; returns their number.
    pub fn process_below(
        &mut self,
        limit: Time,
        dir: &NodeDirectory,
        inboxes: &[Inbox<Event<N::Payload>>],
        kernel_name: &'static str,
        site: &Site,
    ) -> u64 {
        let lp = &mut self.lp;
        let mut processed: u64 = 0;
        while let Some(ev) = lp.fel.pop_below(limit) {
            if ev.node.0 != lp.last_node {
                lp.node_switches += 1;
                lp.last_node = ev.node.0;
            }
            self.worker.end_time = self.worker.end_time.max(ev.key.ts);
            site.at.set((Some(lp.id), ev.key.ts));
            let (owner, local) = dir.locate(ev.node);
            debug_assert_eq!(owner, lp.id);
            let node = &mut lp.nodes[local as usize];
            let mut ctx = PinnedCtx::<N> {
                now: ev.key.ts,
                self_node: ev.node,
                lp_id: lp.id,
                fel: &mut lp.fel,
                insert_seq: &mut self.insert_seq,
                dir,
                inboxes,
                kernel_name,
            };
            node.handle(ev.payload, &mut ctx);
            processed += 1;
        }
        lp.total_events += processed;
        processed
    }
}

pub(super) fn run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
) -> Result<(World<N>, RunReport), SimError> {
    let Setup {
        env,
        shell,
        lps,
        dir,
        ..
    } = prepare(world, cfg)?;
    let lp_count = lps.len();
    let lookahead = shell.partition.lookahead;
    let bound = shell.horizon();

    let inboxes: Vec<Inbox<Event<N::Payload>>> = (0..lp_count).map(|_| Inbox::default()).collect();
    // PADDING: the lock-step kernel is the deliberately naive baseline the
    // paper compares against; each word has a single writer per round.
    let next_ts: Vec<AtomicU64> = lps.iter().map(|lp| AtomicU64::new(lp.next_ts.0)).collect();
    let barrier = SpinBarrier::new(lp_count);
    let started = Instant::now();

    // Abort (contained panic or watchdog): stop the round loops and poison
    // the barrier so every survivor drains out.
    let abort = || {
        env.halt();
        barrier.poison();
    };
    let results = std::thread::scope(|scope| {
        env.spawn_monitor(scope, abort);
        let mut handles = Vec::new();
        for (idx, lp) in lps.into_iter().enumerate() {
            let (env, inboxes, next_ts, barrier, dir) = (&env, &inboxes, &next_ts, &barrier, &dir);
            let body = move |site: &Site| {
                // Telemetry: one sink per LP thread (DESIGN.md §4.3), so
                // spans carry the LP id. This kernel has no scheduler, so
                // the decision log stays empty; inbox events do not carry
                // their sender (ns-3 semantics zero it), so no traffic
                // matrix.
                let mut me = PinnedLp::new(lp, Worker::new(env, idx));
                let lp_id = idx as u32;
                let mut rounds: u64 = 0;
                let mut last_window = Time::ZERO;
                loop {
                    // LBTS: min over all LPs' next timestamps + lookahead.
                    let mut min = Time::MAX;
                    for a in next_ts.iter() {
                        min = min.min(Time(a.load(Ordering::Acquire)));
                    }
                    let window_end = min.saturating_add(lookahead).min(bound);
                    let (last, next) = (last_window.0, window_end.0);
                    me.worker
                        .lap(SpanKind::WindowUpdate, rounds, lp_id, last, next);
                    if min >= bound || min == Time::MAX || env.halted() {
                        break;
                    }
                    rounds += 1;
                    site.round.set(rounds);

                    // Process.
                    let events = me.process_below(window_end, dir, inboxes, env.kernel, site);
                    me.worker.lap(SpanKind::Process, rounds, lp_id, events, 0);

                    // Watchdog: a round only counts as progress when it
                    // executed events or moved the window — an empty
                    // zero-lookahead round loop must trip the deadline,
                    // not feed it.
                    if events > 0 || window_end > last_window {
                        env.wd.tick();
                    }
                    last_window = window_end;

                    // Synchronize: everyone must finish sending first.
                    barrier.wait();
                    me.worker.lap(SpanKind::BarrierWait, rounds, lp_id, 0, 0);

                    // Receive: drain the shared inbox in arrival order.
                    let recv = me.receive(&inboxes[idx]);
                    next_ts[idx].store(me.lp.fel.next_ts().0, Ordering::Release);
                    me.worker.lap(SpanKind::Receive, rounds, lp_id, recv, 0);

                    // Second barrier: next timestamps are published.
                    barrier.wait();
                    me.worker.lap(SpanKind::BarrierWait, rounds, lp_id, 1, 0);
                }
                (me.lp, me.worker, rounds)
            };
            // The panicking LP's state is lost (mid-event), so the world is
            // not reassembled. Its `next_ts` would still bound the peers'
            // LBTS loop: lift it.
            let on_panic = move || {
                abort();
                next_ts[idx].store(Time::MAX.0, Ordering::Release);
            };
            let lp_id = Some(LpId(idx as u32));
            handles.push(spawn_contained(scope, env, idx, lp_id, body, on_panic));
        }
        let results = join_contained(&env, handles, 0, abort);
        env.wd.finish();
        results
    });

    let wall = started.elapsed();
    let mut lps = Vec::with_capacity(lp_count);
    let mut rounds = None;
    let workers = results
        .into_iter()
        .map(|res| {
            res.map(|(lp, worker, n)| {
                lps.push(lp);
                rounds.get_or_insert(n);
                worker
            })
        })
        .collect();
    let rounds = rounds.unwrap_or(0);
    let out = Outcome {
        psm_per_lp: true,
        rounds,
        stall_round: rounds,
        stall_bound: bound,
        ..Outcome::new(&env, wall, lps, workers)
    };
    finish(env, shell, out, None)
}
