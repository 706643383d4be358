//! The asynchronous conservative kernel (`KernelKind::AsyncCons`):
//! barrier-free PDES with channel clocks, time-advance grants and a
//! deterministic k-way merge (DESIGN.md §4.8).
//!
//! Unlike the Unison kernel there is **no round barrier**: a fixed pool of
//! `threads` workers each owns a static set of LPs and advances every owned
//! LP to the bound implied by its in-neighbors' *channel clocks* (the last
//! granted timestamp on each directed channel). A worker that can make no
//! progress parks on a per-worker condvar until a neighbor's grant or event
//! delivery wakes it — null-message-style grants are published lazily
//! (`fetch_max` no-ops unless the promise actually rose) and a wake-up is
//! only issued when a channel would otherwise keep its receiver stalled.
//!
//! Determinism (DESIGN.md §4.8): cross-LP events travel through the pooled
//! per-channel [`Mailboxes`] queues **with their original tie-break keys**
//! (assigned from the sender's per-LP monotone counter, exactly as the
//! Unison and compat-keys sequential kernels assign them). Each LP merges
//! its in-channel deliveries through a deterministic k-way [`Merger`] keyed
//! by the §5.2 `(timestamp, sender-time, sender-LP, seq)` order and pops
//! its FEL in full-key order, so every LP processes the *same event
//! sequence in the same order* at any thread count — digests are
//! bit-identical to the 1-thread sequential reference.
//!
//! Global events (including checkpoint writes) execute on the main thread
//! at *quiesced virtual-time fronts*: `gate_ts` holds the timestamp of the
//! next pending global; workers treat it as a hard processing bound, and
//! once every worker has advanced all of its LPs to the gate they
//! rendezvous on a condvar. The main thread then has exclusive world
//! access (every worker is parked), executes all due globals, republishes
//! the gate and releases the workers. Between gates there is no global
//! synchronization of any kind.
//!
//! A zero-lookahead cycle with pending events below the gate can neither
//! progress nor reach the gate; the round-progress watchdog converts that
//! silence into [`SimError::Stalled`] with a cycle walk over the channel
//! clocks captured at abort time (same diagnosis as the null-message
//! kernel). A worker panic is contained: the failing worker releases its
//! out-channels to `u64::MAX`, raises the halt flag and wakes everyone, so
//! the run drains out with [`SimError::WorkerPanic`] diagnostics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::error::{RunPhase, SimError};
use crate::event::{Event, EventKey, LpId, NodeId};
use crate::fel::Fel;
use crate::global::GlobalFn;
use crate::lp::LpSlots;
use crate::mailbox::Mailboxes;
use crate::metrics::{AsyncStats, RunReport};
use crate::telemetry::{SpanKind, NO_LP};
use crate::time::Time;
use crate::world::{NodeDirectory, SimCtx, SimNode, World};

use super::harness::{
    contained, finish, join_contained, prepare, spawn_contained, ChannelClocks, Outcome, Setup,
    Site, Worker,
};
use super::RunConfig;

/// Rendezvous state for the quiesced virtual-time front.
struct GateState {
    /// Incremented by the main thread each time it republishes the gate;
    /// workers wait for the epoch to move past their arrival.
    epoch: u64,
    /// Workers that have arrived at the current gate in this epoch.
    arrived: usize,
}

/// The gate condvar: workers arrive when every owned LP has quiesced at
/// `gate_ts`; the main thread waits for `arrived == threads`, then holds
/// the state lock through its entire exclusive global window (arrived
/// workers are parked in `cond` waits, so they cannot touch the world
/// until the lock is released).
struct Gate {
    state: Mutex<GateState>,
    cond: Condvar,
}

// ---------------------------------------------------------------------------
// Deterministic k-way merge
// ---------------------------------------------------------------------------

/// Deterministic k-way merger for in-channel event deliveries.
///
/// Each in-channel drains into its own run; `merge_into` produces the runs'
/// union in ascending full §5.2 event-key order. Keys are globally unique
/// (sender LP + per-sender monotone sequence), so the merged order is a
/// pure function of the event set — independent of arrival interleaving,
/// channel order and thread count.
pub(crate) struct Merger<P> {
    runs: Vec<Vec<Event<P>>>,
    k: usize,
}

impl<P> Merger<P> {
    pub(crate) fn new() -> Self {
        Merger {
            runs: Vec::new(),
            k: 0,
        }
    }

    /// Starts a merge over `k` runs (buffers are reused across calls).
    pub(crate) fn begin(&mut self, k: usize) {
        if self.runs.len() < k {
            self.runs.resize_with(k, Vec::new);
        }
        for r in &mut self.runs[..k] {
            r.clear();
        }
        self.k = k;
    }

    /// The input buffer for run `j` (one per in-channel).
    pub(crate) fn run_mut(&mut self, j: usize) -> &mut Vec<Event<P>> {
        &mut self.runs[j]
    }

    /// Total events across all runs.
    pub(crate) fn total(&self) -> usize {
        self.runs[..self.k].iter().map(|r| r.len()).sum()
    }

    /// Merges all runs into `out` in ascending full-key order, draining the
    /// run buffers (their capacity is retained for reuse).
    ///
    /// Keys are globally unique (sender LP + per-sender monotone sequence),
    /// so the sorted order of the runs' union *is* the k-way merged order —
    /// the merge is one concatenation plus one sort by the full key. On the
    /// hot path this beats k per-run sorts followed by a cursor min-scan:
    /// within one channel a sender's deliveries arrive FIFO in *send* order
    /// (each send's delay differs), so per-run pre-sorting buys nothing the
    /// final sort does not already do.
    pub(crate) fn merge_into(&mut self, out: &mut Vec<Event<P>>) {
        for r in &mut self.runs[..self.k] {
            out.append(r);
        }
        out.sort_unstable_by_key(|e| e.key);
    }
}

// ---------------------------------------------------------------------------
// Scheduling context
// ---------------------------------------------------------------------------

/// [`SimCtx`] for the asynchronous conservative kernel.
///
/// Keys are assigned exactly as the Unison kernel's `RoundCtx` assigns them
/// (per-LP monotone `seq`, §5.2 tie-break fields) and travel unmodified, so
/// the merged processing order matches the sequential reference. Cross-LP
/// sends must follow a topology channel and respect its lookahead; there is
/// no overflow path (no main-thread routing phase exists to forward one),
/// so an off-channel send is a model error and panics (contained).
struct AsyncCtx<'a, N: SimNode> {
    now: Time,
    self_node: NodeId,
    lp_id: LpId,
    fel: &'a mut Fel<N::Payload>,
    seq: &'a mut u64,
    dir: &'a NodeDirectory,
    mailboxes: &'a Mailboxes<N::Payload>,
    /// This LP's out-channels as `(dst LP, channel index)`, sorted by dst.
    out_pair: &'a [(u32, usize)],
    clocks: &'a ChannelClocks,
    /// Destination LPs sent to while processing this LP (for wake-ups).
    touched: &'a mut Vec<u32>,
}

impl<N: SimNode> SimCtx<N> for AsyncCtx<'_, N> {
    fn now(&self) -> Time {
        self.now
    }

    fn self_node(&self) -> NodeId {
        self.self_node
    }

    fn schedule(&mut self, delay: Time, target: NodeId, payload: N::Payload) {
        let ts = self.now.saturating_add(delay);
        let key = EventKey {
            ts,
            sender_ts: self.now,
            sender_lp: self.lp_id,
            seq: *self.seq,
        };
        *self.seq += 1;
        let ev = Event {
            key,
            node: target,
            payload,
        };
        let dst = self.dir.lp_of(target);
        if dst == self.lp_id {
            self.fel.push(ev);
            return;
        }
        let i = match self.out_pair.binary_search_by_key(&dst.0, |&(d, _)| d) {
            Ok(i) => i,
            Err(_) => panic!(
                "async_cons: no channel between LP {} and LP {}; cross-LP \
                 events must follow topology links",
                self.lp_id.0, dst.0
            ),
        };
        // Causality: the send may not undercut this channel's published
        // promise — guaranteed when the delay covers the link lookahead.
        debug_assert!(
            ts >= self
                .now
                .saturating_add(self.clocks.lookahead(self.out_pair[i].1)),
            "cross-LP event at {ts:?} undercuts the channel lookahead \
             (sent from {:?}); the scheduling delay must be >= the link delay",
            self.now
        );
        if self.mailboxes.try_push(self.lp_id.0, dst.0, ev).is_err() {
            // INVARIANT: mailboxes are built from the same channel list as
            // `out_pair`, so a present pair always has a queue.
            panic!(
                "async_cons: mailbox missing for channel {} -> {}",
                self.lp_id.0, dst.0
            );
        }
        if !self.touched.contains(&dst.0) {
            self.touched.push(dst.0);
        }
    }

    fn schedule_global(&mut self, _delay: Time, _f: GlobalFn<N>) {
        panic!(
            "async_cons does not support global events scheduled from node \
             handlers (no per-round routing phase exists to collect them); \
             schedule globals before the run or from other globals, or use \
             the Unison kernel"
        );
    }
}

/// Per-worker progress counters.
#[derive(Default)]
struct WorkerStats {
    iterations: u64,
    grants: u64,
    stalls: u64,
    stall_wait_ns: u64,
}

// ---------------------------------------------------------------------------
// The kernel
// ---------------------------------------------------------------------------

pub(super) fn run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
    threads: usize,
) -> Result<(World<N>, RunReport), SimError> {
    let Setup {
        env,
        mut shell,
        lps,
        dir,
        mut public,
    } = prepare(world, cfg)?;
    let lp_count = lps.len();

    // Static LP ownership: contiguous blocks. Ownership is
    // config-deterministic; results do not depend on it.
    let owner: Vec<usize> = (0..lp_count).map(|lp| lp * threads / lp_count).collect();
    let mut mine: Vec<Vec<usize>> = vec![Vec::new(); threads];
    for (lp, &w) in owner.iter().enumerate() {
        mine[w].push(lp);
    }

    // Channel clocks are written by the sender and polled by the receiver —
    // the hottest cross-worker words in this kernel. One waker per worker.
    let channels = shell.partition.lp_channels(&shell.graph);
    let clocks = ChannelClocks::new(&channels, owner, threads);
    let pairs: Vec<(u32, u32)> = channels.iter().map(|(a, b, _)| (a.0, b.0)).collect();
    let mailboxes: Mailboxes<N::Payload> = Mailboxes::new(lp_count, &pairs);
    // Each LP's out-channels as `(dst LP, channel)`, sorted by dst, and the
    // inbox slot of each channel at its destination — resolved once so the
    // send path is one binary search and the per-sweep drain probe a direct
    // index.
    let mut out_pair: Vec<Vec<(u32, usize)>> = vec![Vec::new(); lp_count];
    let mut chan_slot: Vec<usize> = vec![0; clocks.dst.len()];
    for (lp, pairs_of_lp) in out_pair.iter_mut().enumerate() {
        for &c in &clocks.outs[lp] {
            pairs_of_lp.push((clocks.dst[c], c));
            chan_slot[c] = mailboxes
                .channel_slot(lp as u32, clocks.dst[c])
                // INVARIANT: `mailboxes` and `clocks` were built from the
                // same channel list, so every directed channel has a slot.
                .expect("mailboxes are built from the same channel list");
        }
        pairs_of_lp.sort_unstable_by_key(|&(d, _)| d);
    }

    let slots = LpSlots::new(lps, dir);

    // The gate: timestamp of the next pending global. The stop global is
    // always queued, so while the run is live the gate is finite and the
    // promise lower bound `min(next, safe, gate)` can never creep past a
    // global that later injects events (grant soundness).
    let gate_ts = AtomicU64::new(public.next_ts().0);
    let gate = Gate {
        state: Mutex::new(GateState {
            epoch: 0,
            arrived: 0,
        }),
        cond: Condvar::new(),
    };

    let started = Instant::now();

    // Telemetry: the main (control) thread is sink 0, workers 1..=threads.
    let mut main = Worker::new(&env, 0);
    let mut gates_run: u64 = 0;
    let ckpt = env.ckpt(Some(&mailboxes), shell.stop_at);

    // Abort (contained panic, or the watchdog when neither events, grants
    // nor gates progress within the deadline): raise the halt flag, then
    // wake every sleeper — on its waker or at the gate — to observe it.
    let abort = || {
        env.halt();
        clocks.wake_all();
        let _st = gate.state.lock().unwrap_or_else(|e| e.into_inner());
        gate.cond.notify_all();
    };

    let results = std::thread::scope(|scope| {
        env.spawn_monitor(scope, || {
            clocks.snapshot();
            abort();
        });

        let mut handles = Vec::new();
        for w in 0..threads {
            let mine = &mine[w];
            let (env, clocks, chan_slot, out_pair) = (&env, &clocks, &chan_slot, &out_pair);
            let (gate, gate_ts, mailboxes, slots) = (&gate, &gate_ts, &mailboxes, &slots);
            // A worker that stops granting — dead or draining — releases
            // its out-channels so no neighbor stays pinned by it.
            let release = move || {
                for &lp in mine {
                    clocks.release_outs(lp);
                }
                abort();
            };
            let body = move |site: &Site| {
                let dir = slots.directory();
                let mut me = Worker::new(env, w + 1);
                let mut merger: Merger<N::Payload> = Merger::new();
                let mut batch: Vec<Event<N::Payload>> = Vec::new();
                // Highest promise this worker has published per owned
                // out-channel (clocks start at 0 and only rise).
                let mut pub_cache: Vec<u64> = vec![0; clocks.dst.len()];
                let mut touched: Vec<u32> = Vec::new();
                let mut wake_list: Vec<usize> = Vec::new();
                let mut stats = WorkerStats::default();
                let mut arrived_epoch: Option<u64> = None;
                loop {
                    stats.iterations += 1;
                    let iterations = stats.iterations;
                    site.round.set(iterations);
                    #[cfg(feature = "fault-inject")]
                    {
                        cfg.fault.fire_phase(iterations, RunPhase::Process, w);
                        cfg.fault.fire_stall(iterations, w);
                    }
                    // Waker version snapshot, taken *before* any input
                    // is read: a bump between this read and the sleep
                    // decision aborts the sleep, so an input change is
                    // either observed by this sweep or wakes us.
                    let v0 = clocks.wakers[w].version();
                    // Abort drain: exit before touching any FEL so a
                    // watchdog/panic abort leaves the stall diagnosis
                    // intact.
                    if env.halted() {
                        release();
                        break;
                    }
                    let gate_now = Time(gate_ts.load(Ordering::Acquire));
                    let mut progressed = false;
                    let mut all_at_gate = true;
                    for &lp_idx in mine {
                        // SAFETY: ownership is a static disjoint
                        // partition of the LP set; the main thread only
                        // touches slots inside its exclusive gate window
                        // (all workers parked). Claim-audited.
                        let lp = unsafe { slots.get_mut(lp_idx) };
                        // (1) Safety bound FIRST: the Acquire loads
                        // happen before the drains, so every event below
                        // the observed promise is already visible in the
                        // channel queue (sender pushes, then fetch_max
                        // Release-publishes the promise).
                        let ins = &clocks.ins[lp_idx];
                        let safe = clocks.safe(lp_idx);
                        // (2) Merge in-channel deliveries (k-way,
                        // deterministic) into the FEL, keys preserved.
                        // The drain probes are untimed: most sweeps find
                        // every channel empty, and two clock reads per
                        // idle LP would dominate the probe itself.
                        merger.begin(ins.len());
                        for (j, &c) in ins.iter().enumerate() {
                            mailboxes.drain_slot(lp_idx as u32, chan_slot[c], merger.run_mut(j));
                        }
                        let recv = merger.total() as u64;
                        if recv > 0 {
                            let lap = me.start();
                            debug_assert!(batch.is_empty());
                            merger.merge_into(&mut batch);
                            if me.tel.enabled() {
                                for ev in batch.iter() {
                                    me.tel.edge(ev.key.sender_lp.0, lp_idx as u32, 1);
                                }
                            }
                            lp.fel.extend(batch.drain(..));
                            progressed = true;
                            me.end(lap, SpanKind::Merge, iterations, lp_idx as u32, Some(recv));
                        }
                        // (3) Advance: execute strictly below
                        // min(safe, gate). The gate cap keeps promises
                        // from outrunning globals that may still inject
                        // events at the gate timestamp. `next_ts` is a
                        // lower bound (exact for the heap, tier bound
                        // for the ladder), so the guard never skips a
                        // poppable event — it only skips the clock
                        // reads when the FEL has nothing below the
                        // limit.
                        let limit = safe.min(gate_now);
                        if lp.fel.next_ts() < limit {
                            let lap = me.start();
                            let mut processed: u64 = 0;
                            while let Some(ev) = lp.fel.pop_below(limit) {
                                if ev.node.0 != lp.last_node {
                                    lp.node_switches += 1;
                                    lp.last_node = ev.node.0;
                                }
                                me.end_time = me.end_time.max(ev.key.ts);
                                site.at.set((Some(lp.id), ev.key.ts));
                                let (owner_lp, local) = dir.locate(ev.node);
                                debug_assert_eq!(owner_lp, lp.id);
                                let node = &mut lp.nodes[local as usize];
                                let mut ctx = AsyncCtx::<N> {
                                    now: ev.key.ts,
                                    self_node: ev.node,
                                    lp_id: lp.id,
                                    fel: &mut lp.fel,
                                    seq: &mut lp.seq,
                                    dir,
                                    mailboxes,
                                    out_pair: &out_pair[lp_idx],
                                    clocks,
                                    touched: &mut touched,
                                };
                                node.handle(ev.payload, &mut ctx);
                                processed += 1;
                            }
                            lp.total_events += processed;
                            progressed |= processed > 0;
                            let span = (processed > 0).then_some(processed);
                            me.end(lap, SpanKind::Advance, iterations, lp_idx as u32, span);
                        }
                        // (4) Grants: refresh out-channel promises.
                        // `lb` bounds every event this LP can still
                        // process (FEL, future arrivals, gate), so
                        // `lb + lookahead` bounds its future sends.
                        // `fetch_max` publishes only a rise — the lazy
                        // null message — and is monotone under races.
                        // `pub_cache` floor-bounds the published clock
                        // (this worker is the channel's only writer, and
                        // the clock never decreases), so a promise at or
                        // below the cache would be a fetch_max no-op:
                        // skipping it drops the contended RMW — and the
                        // timing reads — from every idle sweep.
                        let lb = lp.fel.next_ts().min(safe).min(gate_now);
                        let mut rose: u64 = 0;
                        let mut lap = None;
                        for &c in &clocks.outs[lp_idx] {
                            let promise = lb.saturating_add(clocks.lookahead(c));
                            if promise.0 <= pub_cache[c] {
                                continue;
                            }
                            if lap.is_none() {
                                lap = Some(me.start());
                            }
                            pub_cache[c] = promise.0;
                            if clocks.promise(c, promise) {
                                rose += 1;
                                // A neighbor must re-check when our
                                // promise rose.
                                let ow = clocks.owner[clocks.dst[c] as usize];
                                if ow != w && !wake_list.contains(&ow) {
                                    wake_list.push(ow);
                                }
                            }
                        }
                        // ... and when we sent it events (sends land on
                        // out-channels, so every touched LP is a dst).
                        for &t in touched.iter() {
                            let ow = clocks.owner[t as usize];
                            if ow != w && !wake_list.contains(&ow) {
                                wake_list.push(ow);
                            }
                        }
                        touched.clear();
                        if rose > 0 {
                            stats.grants += rose;
                            progressed = true;
                            if let Some(lap) = lap {
                                me.end(lap, SpanKind::Grant, iterations, lp_idx as u32, Some(rose));
                            }
                        }
                        if safe < gate_now || lp.fel.next_ts() < gate_now {
                            all_at_gate = false;
                        }
                    }
                    // Wake-ups are batched per sweep, once per distinct
                    // owner, *after* every publish they cover (a bump
                    // issued before a later publish could be consumed
                    // early and the publish missed — the bump-after-
                    // publish order is what makes the version-snapshot
                    // sleep race-free).
                    for &ow in &wake_list {
                        clocks.wakers[ow].bump();
                    }
                    wake_list.clear();
                    if progressed {
                        // Events, deliveries or rising grants all count
                        // as progress; a zero-lookahead deadlock
                        // produces none and trips the deadline.
                        env.wd.tick();
                        continue;
                    }
                    if all_at_gate {
                        #[cfg(feature = "fault-inject")]
                        cfg.fault.fire_barrier_delay(iterations, w);
                        // Gate rendezvous: count this worker once per
                        // epoch, wake the main thread when the count
                        // completes, park until the gate moves.
                        let lap = me.start();
                        let mut st = gate.state.lock().unwrap_or_else(|e| e.into_inner());
                        if Time(gate_ts.load(Ordering::Acquire)) == gate_now && !env.halted() {
                            let epoch0 = st.epoch;
                            if arrived_epoch != Some(epoch0) {
                                arrived_epoch = Some(epoch0);
                                st.arrived += 1;
                                if st.arrived == threads {
                                    gate.cond.notify_all();
                                }
                            }
                            while st.epoch == epoch0 && !env.halted() {
                                st = gate.cond.wait(st).unwrap_or_else(|e| e.into_inner());
                            }
                        }
                        drop(st);
                        me.end(lap, SpanKind::BarrierWait, iterations, NO_LP, Some(0));
                        continue;
                    }
                    // (5) Stall: below the gate but blocked on neighbor
                    // promises. Sleep unless an input changed since the
                    // version snapshot (the bump-under-lock discipline
                    // makes this race-free).
                    stats.stalls += 1;
                    let lap = me.start();
                    clocks.wakers[w].sleep_if(|v| v == v0 && !env.halted());
                    stats.stall_wait_ns +=
                        me.end(lap, SpanKind::StallWait, iterations, NO_LP, Some(0));
                }
                (me, stats)
            };
            handles.push(spawn_contained(scope, env, w, None, body, release));
        }

        // Main thread: the gate loop. Exclusive world access holds for the
        // whole window because every worker is parked in a `gate.cond` wait
        // and the state lock is held until the gate is republished.
        let site = Site::new(None);
        site.phase.set(RunPhase::Global);
        loop {
            let lap = main.start();
            let mut st = gate.state.lock().unwrap_or_else(|e| e.into_inner());
            while !env.halted() && st.arrived != threads {
                st = gate.cond.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            main.end(lap, SpanKind::BarrierWait, gates_run + 1, NO_LP, Some(0));
            if env.halted() {
                // Abort (panic or watchdog): release parked workers so they
                // drain out through the halt check.
                st.epoch += 1;
                st.arrived = 0;
                gate.cond.notify_all();
                break;
            }
            gates_run += 1;
            site.round.set(gates_run);
            let gate_now = Time(gate_ts.load(Ordering::Acquire));
            // Invalidate the workers' claim generation for the exclusive
            // window, and again after it for the workers' next sweeps.
            slots.begin_phase();
            let lap = main.start();
            let ctl_end = &mut main.end_time;
            let due = contained(&env, &site, 0, || {
                #[cfg(feature = "fault-inject")]
                cfg.fault.fire_phase(gates_run, RunPhase::Global, 0);
                // SAFETY: every worker is parked on `gate.cond` under the
                // held state lock — the main thread has exclusive access to
                // all LP slots.
                let due = unsafe {
                    public.run_due(gate_now, &slots, &mut shell, Some(&ckpt), |now| {
                        *ctl_end = (*ctl_end).max(now);
                        site.at.set((None, *ctl_end));
                    })
                };
                if due.topology_changed {
                    // The gate rendezvous orders the rewrite against every
                    // worker read.
                    clocks.set_lookaheads(&shell.partition.lp_channels(&shell.graph));
                }
                due
            });
            let span = due.as_ref().map(|d| d.ran);
            main.end(lap, SpanKind::Global, gates_run, NO_LP, span);
            // A contained panic in a global ends the run like a stop.
            let stopped = due.is_none_or(|d| d.stopped);
            slots.begin_phase();
            if stopped {
                env.halt();
            }
            // Republish the gate and release the workers.
            st.epoch += 1;
            st.arrived = 0;
            let next_gate = if stopped {
                u64::MAX
            } else {
                public.next_ts().0
            };
            gate_ts.store(next_gate, Ordering::Release);
            gate.cond.notify_all();
            drop(st);
            if stopped {
                break;
            }
            env.wd.tick();
        }

        env.wd.finish();
        join_contained(&env, handles, 1, abort)
    });

    let wall = started.elapsed();
    let (mut lps, _) = slots.into_inner();
    // An abort can leave cross-LP events undelivered in their channel
    // queues. Deliver them now so the stall diagnosis sees every LP that
    // still has work; on a completed run the mailboxes are already empty.
    for lp in lps.iter_mut() {
        let id = lp.id.0;
        mailboxes.drain(id, |ev| lp.fel.push(ev));
    }

    let mut workers = vec![Some(main)];
    let mut async_stats = AsyncStats {
        gates: gates_run,
        ..AsyncStats::default()
    };
    let mut iterations: u64 = 0;
    for res in results {
        // A dead worker leaves an empty record.
        let (worker, stats) = res.unzip();
        let stats: WorkerStats = stats.unwrap_or_default();
        async_stats.grants += stats.grants;
        async_stats.stalls += stats.stalls;
        async_stats.stall_wait_ns.push(stats.stall_wait_ns);
        iterations = iterations.max(stats.iterations);
        workers.push(worker);
    }
    let (pool_hits, pool_misses) = mailboxes.pool_stats();
    // No synchronization rounds exist (`rounds` stays 0); `async_stats`
    // carries the kernel's own progress counters.
    let out = Outcome {
        label: format!("async_cons({threads})"),
        threads,
        global_events: public.executed,
        pool: (pool_hits as u64, pool_misses as u64),
        async_stats: Some(async_stats),
        stall_round: iterations,
        stall_bound: shell.horizon(),
        ..Outcome::new(&env, wall, lps, workers)
    };
    finish(env, shell, out, Some(&clocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKey, LpId};
    use crate::time::Time;

    fn ev(ts: u64, lp: u32, seq: u64) -> Event<u32> {
        Event {
            key: EventKey {
                ts: Time(ts),
                sender_ts: Time(ts.saturating_sub(1)),
                sender_lp: LpId(lp),
                seq,
            },
            node: crate::event::NodeId(0),
            payload: 0,
        }
    }

    #[test]
    fn merger_orders_by_full_key_across_runs() {
        let mut m: Merger<u32> = Merger::new();
        m.begin(3);
        // Runs arrive unsorted (per-channel FIFO is send-order, not key
        // order) and interleaved in time.
        m.run_mut(0).push(ev(30, 0, 2));
        m.run_mut(0).push(ev(10, 0, 1));
        m.run_mut(1).push(ev(20, 1, 5));
        m.run_mut(1).push(ev(10, 1, 9));
        // Run 2 stays empty (a channel that delivered nothing).
        assert_eq!(m.total(), 4);
        let mut out = Vec::new();
        m.merge_into(&mut out);
        let keys: Vec<(u64, u32, u64)> = out
            .iter()
            .map(|e| (e.key.ts.0, e.key.sender_lp.0, e.key.seq))
            .collect();
        assert_eq!(keys, vec![(10, 0, 1), (10, 1, 9), (20, 1, 5), (30, 0, 2)]);
    }

    #[test]
    fn merger_is_permutation_invariant() {
        // The same event set split differently across runs merges to the
        // same sequence — the determinism argument of DESIGN.md §4.8.
        // (`Event` is intentionally not `Clone`, so both splits rebuild
        // the set from the same parameters.)
        let params = [(5, 2, 0), (5, 1, 0), (7, 1, 1), (3, 2, 1)];
        let mut a: Merger<u32> = Merger::new();
        a.begin(2);
        a.run_mut(0)
            .extend(params[..2].iter().map(|&(t, l, s)| ev(t, l, s)));
        a.run_mut(1)
            .extend(params[2..].iter().map(|&(t, l, s)| ev(t, l, s)));
        let mut out_a = Vec::new();
        a.merge_into(&mut out_a);

        let mut b: Merger<u32> = Merger::new();
        b.begin(4);
        for (i, &(t, l, s)) in params.iter().rev().enumerate() {
            b.run_mut(i).push(ev(t, l, s));
        }
        let mut out_b = Vec::new();
        b.merge_into(&mut out_b);

        let ka: Vec<EventKey> = out_a.iter().map(|e| e.key).collect();
        let kb: Vec<EventKey> = out_b.iter().map(|e| e.key).collect();
        assert_eq!(ka, kb);
        assert!(ka.windows(2).all(|w| w[0] < w[1]), "strictly key-sorted");
    }

    #[test]
    fn merger_buffers_are_reusable() {
        let mut m: Merger<u32> = Merger::new();
        m.begin(2);
        m.run_mut(0).push(ev(1, 0, 0));
        let mut out = Vec::new();
        m.merge_into(&mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        // Second cycle with fewer runs: stale buffers must not leak in.
        m.begin(1);
        m.run_mut(0).push(ev(2, 0, 1));
        m.merge_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key.ts, Time(2));
    }
}
