//! The null-message (Chandy–Misra–Bryant) PDES baseline.
//!
//! One OS thread is pinned to each LP of a static partition. Instead of
//! global barriers, neighbor LPs exchange *channel clock* promises ("no
//! event earlier than t will ever arrive from this neighbor"): an LP may
//! safely process events up to the minimum of its input channel clocks.
//! After each processing step an LP eagerly refreshes its output promises —
//! the null messages — to `min(next local event, input safety) + channel
//! lookahead`, which is monotonically non-decreasing, so simulations with
//! positive lookahead on every channel never deadlock.
//!
//! Cross-LP events are delivered through a per-destination inbox and merged
//! into the destination FEL whenever the destination iterates; the channel
//! clocks alone bound what may be *processed*, so early delivery is safe
//! (every event's timestamp is at least the promise its sender had already
//! published).
//!
//! As with the barrier baseline, cross-LP arrival interleaving makes
//! repeated parallel runs nondeterministic, and global events are not
//! supported.

use std::time::Instant;

use crate::error::SimError;
use crate::event::{Event, LpId};
use crate::metrics::RunReport;
use crate::queue::MpscQueue;
use crate::telemetry::SpanKind;
use crate::time::Time;
use crate::world::{SimNode, World};

use super::barrier::PinnedLp;
use super::harness::{
    finish, join_contained, prepare, spawn_contained, ChannelClocks, Outcome, Setup, Site, Worker,
};
use super::RunConfig;

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
    let bound = shell.horizon();

    // One thread — and so one waker — per LP.
    let channels = shell.partition.lp_channels(&shell.graph);
    let clocks = ChannelClocks::new(&channels, lp_count);
    // Per-destination inboxes (arrival order is real-time interleaved).
    let inboxes: Vec<MpscQueue<Event<N::Payload>>> =
        (0..lp_count).map(|_| MpscQueue::new()).collect();
    let started = Instant::now();

    // Abort (contained panic or watchdog): raise the halt flag and bump
    // every waker so sleeping LPs re-check it.
    let abort = || {
        env.halt();
        clocks.wake_all();
    };
    let results = std::thread::scope(|scope| {
        env.spawn_monitor(scope, || {
            clocks.snapshot();
            abort();
        });
        let mut handles = Vec::new();
        for (idx, lp) in lps.into_iter().enumerate() {
            let (env, clocks, inboxes, dir) = (&env, &clocks, &inboxes, &dir);
            let body = move |site: &Site| {
                // Telemetry: one sink per LP thread (DESIGN.md §4.3). No
                // scheduler → empty decision log; inbox events do not carry
                // their sender (ns-3 semantics zero it), so no traffic
                // matrix. The CMB iteration maps to the span `round` field.
                let mut me = PinnedLp::new(lp, Worker::new(env, idx));
                let lp_id = idx as u32;
                let outs = &clocks.outs[idx];
                let mut iterations: u64 = 0;
                loop {
                    iterations += 1;
                    site.round.set(iterations);
                    // Safety bound: min over input channel clocks. Read
                    // *before* the inbox is drained: a sender pushes its
                    // events, then raises its promise, so every event below
                    // an observed promise is in the drain that follows. (On
                    // a real CMB channel null messages and events share one
                    // FIFO; read the other way round, a promise could
                    // overtake an event it covers.)
                    let safe = clocks.safe(idx);

                    // Receive every delivered event (messaging time).
                    let lap = me.worker.start();
                    let recv = me.receive(&inboxes[idx]);
                    let span = (recv > 0).then_some(recv);
                    me.worker
                        .end(lap, SpanKind::MailboxFlush, iterations, lp_id, span);

                    // Abort drain: exit *before* processing anything further,
                    // so a watchdog/panic abort leaves every FEL (and hence
                    // the stall diagnosis) intact.
                    if env.halted() {
                        clocks.release_outs(idx);
                        break;
                    }

                    // Process events strictly below the limit.
                    let lap = me.worker.start();
                    let processed =
                        me.process_below(safe.min(bound), dir, inboxes, env.kernel, site);
                    let span = (processed > 0).then_some(processed);
                    me.worker
                        .end(lap, SpanKind::Process, iterations, lp_id, span);

                    // Null messages: refresh output promises. `lb` is a lower
                    // bound on the timestamp of anything this LP may still
                    // process, hence `lb + lookahead` bounds future sends.
                    let lap = me.worker.start();
                    let next = me.lp.fel.next_ts();
                    let lb = next.min(safe);
                    let finished = safe >= bound && next >= bound;
                    let mut wake: Vec<u32> = Vec::with_capacity(outs.len());
                    let mut progressed = processed > 0;
                    for &c in outs {
                        let promise = if finished {
                            Time::MAX
                        } else {
                            lb.saturating_add(clocks.lookahead(c))
                        };
                        let rose = clocks.promise(c, promise);
                        progressed |= rose;
                        // A neighbor must re-check when our promise rose or
                        // when we may have sent it events.
                        if (rose || processed > 0) && !wake.contains(&clocks.dst[c]) {
                            wake.push(clocks.dst[c]);
                        }
                    }
                    for dst in wake {
                        clocks.wakers[dst as usize].bump();
                    }
                    // Watchdog: executed events or a rising promise is
                    // progress; a conservative deadlock (zero-lookahead
                    // cycle) produces neither and trips the deadline.
                    if progressed {
                        env.wd.tick();
                    }
                    me.worker.end(lap, SpanKind::Grant, iterations, lp_id, None);

                    if finished || env.halted() {
                        clocks.release_outs(idx);
                        break;
                    }

                    if processed == 0 {
                        // No progress: sleep until an input changes. The
                        // re-check runs under the waker's lock every writer
                        // bumps under, so wake-ups are never lost. The CMB
                        // analogue of a barrier wait: blocked on neighbor
                        // promises.
                        let lap = me.worker.start();
                        clocks.wakers[idx].sleep_if(|| {
                            clocks.safe(idx) <= safe && inboxes[idx].is_empty() && !env.halted()
                        });
                        me.worker
                            .end(lap, SpanKind::BarrierWait, iterations, lp_id, Some(0));
                    }
                }
                (me.lp, me.worker, iterations)
            };
            // A dead LP will never advance its promises again: release its
            // output channels so neighbors' bounds are not pinned by it.
            let on_panic = move || {
                env.halt();
                clocks.release_outs(idx);
                clocks.wake_all();
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
    let mut rounds: u64 = 0;
    let workers = results
        .into_iter()
        .map(|res| {
            res.map(|(lp, worker, iterations)| {
                lps.push(lp);
                rounds = rounds.max(iterations);
                worker
            })
        })
        .collect();
    // Shared inboxes (multiple concurrent producers): no pool to report.
    let out = Outcome {
        psm_per_lp: true,
        rounds,
        stall_round: rounds,
        stall_bound: bound,
        ..Outcome::new(&env, wall, lps, workers)
    };
    finish(env, shell, out, Some(&clocks))
}
