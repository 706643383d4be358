//! The Unison kernel (§4–§5 of the paper).
//!
//! Fine-grained LPs are scheduled onto a pool of worker threads each round.
//! A round has four phases separated by atomic barriers (Fig. 7):
//!
//! 1. **Process events** — workers claim LPs through the [`LjfCursor`],
//!    their own *home* segment of the order first, and
//!    execute each claimed LP's events inside the window. A cross-LP event
//!    is appended to the executing worker's outbox for the destination
//!    LP's home worker ([`LpSlots::send`]). Each worker folds the visited
//!    LPs' next-event timestamps, event counts and largest per-LP count
//!    into a [`RoundFold`].
//! 2. **Handle global events** — the main thread merges node-scheduled
//!    globals into the public LP (only when a process phase flagged any),
//!    then executes due global events (which may mutate the topology →
//!    lookahead recompute).
//! 3. **Receive events** — each worker drains its own column of outboxes —
//!    one buffer per sending worker — straight into the destination FELs
//!    ([`LpSlots::receive`]) and folds the delivered events' timestamps
//!    into its [`RoundFold`]. No LP is claimed: an LP's home is static, cut
//!    by the same [`home_range`] as the claim cursor, and an LP that
//!    receives nothing is not touched.
//! 4. **Update window** — the main thread reduces the workers' folds into
//!    the next LBTS (Eq. 2), re-orders the LPs every scheduling period of
//!    parallel rounds — heavy LPs first, the rest by LP id
//!    ([`order_home`]) — and records metrics.
//!
//! A round visits each LP once, in phase 1, and again in phase 3 only per
//! event delivered to it. The control thread walks all LPs only in the
//! periods whose order has or had a heavy LP, for per-round profiles,
//! when a process phase flagged pending globals, and to re-derive the
//! minimum after a global event ran. Whether spans are recorded changes
//! none of these walks.
//!
//! Determinism: event keys are assigned from per-LP monotone counters and
//! ordered by the §5.2 tie-breaking rule, so results are identical for any
//! worker count (including 1) and identical to the compat-keys sequential
//! kernel.

use std::cell::UnsafeCell;
use std::time::Instant;

use crate::error::{RunPhase, SimError};
use crate::event::LpId;
use crate::lp::LpSlots;
use crate::metrics::{MetricsLevel, RoundRecord, RunReport, SchedStats};
use crate::sched::{auto_period, heavy_above, home_range, order_home, LjfCursor, FUSION_THRESHOLD};
use crate::sync::{TreeBarrier, TreeWaiter};
use crate::sync_shim::{AtomicBool, AtomicU64, CachePadded, Ordering};
use crate::telemetry::{SpanKind, WorkerTel, NO_LP};
use crate::time::Time;
use crate::world::{SimNode, World};

use super::harness::{
    contained, finish, join_contained, prepare, spawn_contained, Outcome, PublicLp, RunEnv, Setup,
    Site, Worker,
};
use super::{RoundCtx, RunConfig};

/// Round plan published by the main thread between rounds.
struct RoundPlan {
    /// LP visit order for the processing phase: each home segment of the
    /// LPs, its heavy LPs first and the rest by LP id ([`order_home`]).
    order: Vec<u32>,
    /// Start of the current window.
    window_start: Time,
    /// End of the current window (the LBTS).
    window_end: Time,
    /// The round number workers are released into. Published (instead of
    /// counted locally by each worker) because fused rounds advance the
    /// main thread's round counter while the workers stay parked at B0 —
    /// a local counter would drift from the authoritative one.
    round: u64,
    /// Set when the simulation is complete.
    done: bool,
    /// Whether the process phase measures each LP's cost
    /// (`LpState::last_cost_ns`): above `MetricsLevel::Summary` only, for
    /// per-round profiles and `lp-task` spans. The scheduler estimates from
    /// event counts, so a `Summary` run reads no per-LP clock.
    timed: bool,
}

/// Shared cell for the round plan.
///
/// Mutated exclusively by the main thread between the round's last barrier
/// and the next round's first barrier (while all workers wait); read-only
/// during parallel phases. The barriers provide the happens-before edges.
struct PlanCell(UnsafeCell<RoundPlan>);

// SAFETY: see the access discipline above — main-thread writes and worker
// reads are separated by `TreeBarrier::wait`, which performs an acquire/
// release handshake.
unsafe impl Sync for PlanCell {}

/// What one thread learned in a round: from the LPs it visited in the
/// process phase (their next-event timestamps once processed, their event
/// counts) and from the events it delivered in the receive phase. Phase 4
/// reduces one fold per thread instead of visiting every LP.
#[derive(Clone, Copy)]
struct RoundFold {
    /// Minimum next-event timestamp (`Time::MAX` when none): over the
    /// visited LPs and the delivered events.
    min_next: Time,
    /// Events processed plus events received this round.
    load: u64,
    /// Events received this round.
    recv: u64,
    /// The most events one visited LP processed this round: phase 4 skips
    /// the re-order's LP walk when even this LP is not heavy.
    max_lp: u64,
}

impl RoundFold {
    const EMPTY: RoundFold = RoundFold {
        min_next: Time::MAX,
        load: 0,
        recv: 0,
        max_lp: 0,
    };

    fn merge(&mut self, other: RoundFold) {
        self.min_next = self.min_next.min(other.min_next);
        self.load += other.load;
        self.recv += other.recv;
        self.max_lp = self.max_lp.max(other.max_lp);
    }
}

/// A worker's published [`RoundFold`] — both phases' — stored after its
/// receive phase, read by the main thread after B3 (the barrier orders the
/// two).
struct FoldSlot {
    // PADDING: the four words are one worker's and the enclosing
    // `CachePadded<FoldSlot>` keeps workers apart.
    min_next: AtomicU64,
    // PADDING: as above.
    round_load: AtomicU64,
    // PADDING: as above.
    round_recv: AtomicU64,
    // PADDING: as above.
    round_max_lp: AtomicU64,
}

impl FoldSlot {
    fn new() -> Self {
        FoldSlot {
            min_next: AtomicU64::new(Time::MAX.0),
            round_load: AtomicU64::new(0),
            round_recv: AtomicU64::new(0),
            round_max_lp: AtomicU64::new(0),
        }
    }

    fn publish(&self, fold: RoundFold) {
        self.min_next.store(fold.min_next.0, Ordering::Relaxed);
        self.round_load.store(fold.load, Ordering::Relaxed);
        self.round_recv.store(fold.recv, Ordering::Relaxed);
        self.round_max_lp.store(fold.max_lp, Ordering::Relaxed);
    }

    fn read(&self) -> RoundFold {
        RoundFold {
            min_next: Time(self.min_next.load(Ordering::Relaxed)),
            load: self.round_load.load(Ordering::Relaxed),
            recv: self.round_recv.load(Ordering::Relaxed),
            max_lp: self.round_max_lp.load(Ordering::Relaxed),
        }
    }
}

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

    // The claim cursor over the initial (identity) order, cut into one home
    // per worker and seeded before any worker threads exist. An LP's home
    // worker — the column its deliveries travel in — is the owner of the
    // segment it starts in: the phase-4 re-order never moves an LP out of
    // its segment.
    let initial_order: Vec<u32> = (0..lp_count as u32).collect();
    let mut lp_home = vec![0u32; lp_count];
    for w in 0..threads {
        lp_home[home_range(lp_count, threads, w)].fill(w as u32);
    }
    let cursor = LjfCursor::new(threads);
    cursor.publish(&initial_order, &[]);
    let mut slots = LpSlots::with_homes(lps, dir, lp_home, threads);

    // Initial window.
    let initial_min = {
        let mut m = Time::MAX;
        for i in 0..lp_count {
            // SAFETY: no worker threads exist yet.
            m = m.min(unsafe { slots.get_mut(i) }.next_ts);
        }
        m
    };
    let initial_window = public
        .next_ts()
        .min(initial_min.saturating_add(shell.partition.lookahead));

    // Round fusion (DESIGN.md §4.9), with its oversubscription clause: when
    // the run asks for more workers than the machine has cores, parallel
    // rounds only time-slice — serializing them on the control thread is
    // strictly cheaper, so lift the load threshold entirely. Deterministic
    // per machine and digest-neutral: fusion never changes the event order,
    // only who runs the phases (pinned by the fusion on/off digest matrix).
    let effective_threshold =
        if std::thread::available_parallelism().is_ok_and(|c| threads > c.get()) {
            u64::MAX
        } else {
            FUSION_THRESHOLD
        };
    // Entry-predicate seed for round 1: the pending event count below the
    // initial window stands in for "the previous round's load".
    let mut last_load: u64 = 0;
    for i in 0..lp_count {
        // SAFETY: no worker threads exist yet.
        last_load += unsafe { slots.get_mut(i) }.fel.count_below(initial_window) as u64;
    }
    let mut fused_rounds: u64 = 0;
    // Whether the round after one of `load` events runs fused — with one
    // thread there is no worker to release, so every round does.
    let fuses = |load: u64| cfg.fusion && (threads == 1 || load <= effective_threshold);

    // Load-adaptive scheduling only pays in a *parallel* round: unfused,
    // with more than one worker. The re-order period counts parallel
    // rounds, and a run that has none keeps LP-id order.
    let balances = threads > 1;
    let mut parallel_rounds: u64 = 0;
    let sched_period = auto_period(lp_count) as u64;
    // Whether the published order puts any heavy LP first. While it does
    // not, it is LP-id order, and a period with no heavy LP leaves it so
    // without walking the LPs.
    let mut heavy_first = false;

    let plan = PlanCell(UnsafeCell::new(RoundPlan {
        order: initial_order,
        window_start: Time::ZERO,
        window_end: initial_window,
        round: 1,
        done: initial_min == Time::MAX && public.next_ts() == Time::MAX,
        timed: cfg.metrics != MetricsLevel::Summary,
    }));

    let barrier = TreeBarrier::new(threads);
    // Raised by a process phase that left pending globals on an LP; phase
    // 2 walks the LPs only when it is up.
    let side_output = CachePadded::new(AtomicBool::new(false));
    // One published fold per spawned worker (index `w - 1`).
    let folds: Vec<CachePadded<FoldSlot>> = (1..threads)
        .map(|_| CachePadded::new(FoldSlot::new()))
        .collect();

    let mut rounds_profile: Option<Vec<RoundRecord>> =
        (cfg.metrics == MetricsLevel::PerRound).then(Vec::new);
    let mut rounds: u64 = 0;
    let mut end_time = Time::ZERO;
    let started = Instant::now();

    // Abort (contained panic or watchdog): poisoning the barrier makes
    // every thread drain out at its next synchronization point.
    let abort = || barrier.poison();

    let workers = std::thread::scope(|scope| {
        // Fires when the main thread stops ticking for a whole deadline.
        env.spawn_monitor(scope, abort);

        // Spawn `threads - 1` workers; the main thread is worker 0 and also
        // runs the serial phases.
        let mut handles = Vec::new();
        for w in 1..threads {
            let (env, slots, plan, barrier) = (&env, &slots, &plan, &barrier);
            let (cursor, side_output) = (&cursor, &*side_output);
            let fold_slot = &*folds[w - 1];
            let body = move |site: &Site| {
                let mut lane = Lane::new(env, barrier, site, w);
                let mut round: u64 = 0;
                loop {
                    // B0: plan published
                    if !lane.wait(round + 1, 0) {
                        break;
                    }
                    // SAFETY: read-only access during parallel phases.
                    let p = unsafe { &*plan.0.get() };
                    if p.done {
                        break;
                    }
                    // Authoritative round number: fused rounds advance it
                    // while workers are parked, so it may jump.
                    round = p.round;
                    let process = |tel: &mut WorkerTel| {
                        let claims = std::iter::from_fn(|| cursor.claim(w));
                        process_phase(slots, claims, w, p, side_output, site, tel, round)
                    };
                    let Some(mut fold) =
                        lane.run(RunPhase::Process, round, p.window_start, process, |f| {
                            f.load
                        })
                    else {
                        break;
                    };
                    // B1, then B2 (main ran globals in between)
                    if !lane.wait(round, 1) || !lane.wait(round, 2) {
                        break;
                    }
                    let receive =
                        |tel: &mut WorkerTel| receive_phase(slots, w..w + 1, site, tel, round);
                    match lane.run(RunPhase::Receive, round, p.window_end, receive, |f| f.recv) {
                        Some(received) => fold.merge(received),
                        None => break,
                    }
                    fold_slot.publish(fold);
                    // B3
                    if !lane.wait(round, 3) {
                        break;
                    }
                }
                lane.done(Time::ZERO)
            };
            handles.push(spawn_contained(scope, env, w, body, abort));
        }

        // Main thread control loop. Claim-audit generations are bumped by
        // the main thread inside its exclusive windows, always *before* the
        // barrier that releases workers into the phase the bump covers —
        // four per unfused round. A fused span is one generation: only
        // this thread claims in it, so its stamps stay current.
        //
        // Persistent scratch: the phase-4 re-order's estimate buffer, reused
        // every period so the steady-state control loop stays off the
        // allocator (DESIGN.md §4.4).
        let mut estimates: Vec<u64> = Vec::new();
        let site = Site::new();
        let mut lane = Lane::new(&env, &barrier, &site, 0);
        loop {
            // SAFETY: the main thread is exclusive until its B0 arrival —
            // workers are parked inside the B0 wait (it cannot complete
            // without main) and only read the plan after it does.
            let p = unsafe { &*plan.0.get() };
            // Round fusion (DESIGN.md §4.9): when the previous round's
            // load was below the threshold, the four barrier crossings
            // cost more than this round's events — run the round serially
            // right here while the workers stay parked at B0. The load
            // predicate alone ends a fused span when work grows.
            let fuse = !p.done && !barrier.is_poisoned() && fuses(last_load);
            let parallel_round = balances && !fuse;
            let round = rounds + 1;
            let window_start = p.window_start;
            let window_end = p.window_end;
            let round_t0 = lane.me.last;
            if !fuse {
                slots.begin_phase(); // covers phase 1 (released by B0)
            }
            // B0
            if !fuse && (!lane.wait(round, 0) || p.done) {
                break;
            }
            let process = |tel: &mut WorkerTel| {
                // Fused round: this thread claims the whole order at once;
                // the parked workers never contend.
                if fuse {
                    let claims = cursor.claim_rest();
                    process_phase(&slots, claims, 0, p, &side_output, &site, tel, round)
                } else {
                    let claims = std::iter::from_fn(|| cursor.claim(0));
                    process_phase(&slots, claims, 0, p, &side_output, &site, tel, round)
                }
            };
            let Some(mut fold) =
                lane.run(RunPhase::Process, round, window_start, process, |f| f.load)
            else {
                break;
            };
            // B1
            if !fuse && !lane.wait(round, 1) {
                break;
            }

            // ---- Phase 2: global events (main thread only) ----
            if !fuse {
                slots.begin_phase(); // covers phase 2 (workers idle until B2)
            }
            let globals = |_: &mut WorkerTel| {
                // Merge node-scheduled globals: the LPs are walked only
                // when some process phase reported any.
                if side_output.load(Ordering::Relaxed) {
                    side_output.store(false, Ordering::Relaxed);
                    // SAFETY: workers wait at B2; main is exclusive.
                    unsafe { merge_pending_globals(&slots, &mut public, window_end) };
                }
                // SAFETY: workers wait at B2; the main thread holds
                // exclusive access to every LP slot.
                unsafe {
                    public.run_due(window_end, &slots, &mut shell, |now| {
                        end_time = end_time.max(now);
                        site.at.set((None, now));
                    })
                }
            };
            let Some(due) = lane.run(RunPhase::Global, round, window_end, globals, |due| due.ran)
            else {
                break;
            };
            if !fuse {
                slots.begin_phase(); // covers phase 3 (released by B2)
                if !lane.wait(round, 2) {
                    break;
                }
            }

            // ---- Phase 3: receive (parallel; fused rounds drain every
            // column serially on the main thread) ----
            let receive = |tel: &mut WorkerTel| {
                let columns = if fuse { 0..threads } else { 0..1 };
                receive_phase(&slots, columns, &site, tel, round)
            };
            match lane.run(RunPhase::Receive, round, window_end, receive, |f| f.recv) {
                Some(received) => fold.merge(received),
                None => break,
            }
            if !fuse {
                // B3
                if !lane.wait(round, 3) {
                    break;
                }
                // Every worker published its fold before arriving at B3.
                for slot in &folds {
                    fold.merge(slot.read());
                }
            }

            // ---- Phase 4: update window + schedule (main thread only) ----
            if !fuse {
                slots.begin_phase(); // covers phase 4 (workers idle until B0)
            }
            rounds += 1;
            if fuse {
                fused_rounds += 1;
            }
            if parallel_round {
                parallel_rounds += 1;
            }
            if due.ran > 0 {
                // A global event may have scheduled into any LP after its
                // process-phase visit folded it: re-derive the minimum from
                // the LPs' caches, which every insertion keeps current.
                fold.min_next = Time::MAX;
                for i in 0..lp_count {
                    // SAFETY: workers are between B3 and B0 (fused rounds:
                    // still parked at B0); main is exclusive.
                    fold.min_next = fold.min_next.min(unsafe { slots.get_mut(i) }.next_ts);
                }
            }
            let RoundFold {
                min_next,
                load,
                recv: recv_total,
                max_lp,
            } = fold;
            let n_pub = public.next_ts();
            let next_window = n_pub.min(min_next.saturating_add(shell.partition.lookahead));
            let done = due.stopped || (min_next == Time::MAX && n_pub == Time::MAX);

            // Record this round's profile.
            if let Some(profile) = rounds_profile.as_mut() {
                let mut rec = RoundRecord {
                    window_start,
                    window_end,
                    fused: fuse,
                    lp_cost_ns: Vec::with_capacity(lp_count),
                    lp_events: Vec::with_capacity(lp_count),
                    lp_recv: Vec::with_capacity(lp_count),
                };
                for i in 0..lp_count {
                    // SAFETY: workers are between B3 and B0 (fused rounds:
                    // still parked at B0); main is exclusive.
                    let lp = unsafe { slots.get_mut(i) };
                    rec.lp_cost_ns.push(lp.last_cost_ns as f32);
                    rec.lp_events.push(lp.round_events as u32);
                    rec.lp_recv.push(lp.round_recv as u32);
                }
                profile.push(rec);
            }

            // Load-adaptive scheduling: re-order the LPs every period of
            // parallel rounds — in each home its heavy LPs first, the rest
            // by LP id, estimated by last parallel round's event counts
            // (DESIGN.md §4.5). The round's processed total and its largest
            // per-LP count are in the fold: with no heavy LP now or in the
            // published order, that order already is LP-id order and no LP
            // is walked.
            if !done
                && parallel_round
                && parallel_rounds.is_multiple_of(sched_period)
                && (heavy_first || max_lp > heavy_above(load - recv_total, threads))
            {
                estimates.clear();
                // SAFETY: main-thread exclusivity between B3 and B0.
                estimates.extend((0..lp_count).map(|i| unsafe { slots.get_mut(i) }.round_events));
                let bound = heavy_above(estimates.iter().sum(), threads);
                heavy_first = estimates.iter().any(|&e| e > bound);
                // SAFETY: main-thread exclusivity between B3 and B0.
                let plan_mut = unsafe { &mut *plan.0.get() };
                // In place within each home segment, so an LP never leaves
                // its home and the cursor's bounds stand.
                let order = &mut plan_mut.order;
                for home in 0..threads {
                    let segment = home_range(order.len(), threads, home);
                    order_home(&mut order[segment], &estimates, bound);
                }
            }

            if !done {
                end_time = end_time.max(window_end);
            }
            // Publish the next round's plan.
            {
                // SAFETY: main-thread exclusivity between B3 and B0.
                let plan_mut = unsafe { &mut *plan.0.get() };
                plan_mut.window_start = window_end;
                plan_mut.window_end = next_window;
                plan_mut.done = done;
                // Fused rounds advance `rounds` while the workers stay parked
                // at B0, so the plan carries the authoritative round number.
                plan_mut.round = rounds + 1;
            }
            cursor.begin_round();
            let (end, next) = (window_end.0, next_window.0);
            lane.me
                .lap(SpanKind::WindowUpdate, rounds, NO_LP, end, next);
            if fuse && lane.me.tel.enabled() {
                // A whole-round envelope marking that every phase of this
                // round ran on the main thread with no barrier crossing:
                // from the lap boundary the round opened at to the one that
                // just closed its last phase — no clock read of its own.
                // `arg` is the round's total load, `arg2` the cross-LP
                // events it drained.
                let ns = lane.me.last.duration_since(round_t0).as_nanos() as u64;
                let tel = &mut lane.me.tel;
                tel.record(
                    SpanKind::FusedRound,
                    rounds,
                    NO_LP,
                    round_t0,
                    ns,
                    load,
                    recv_total,
                );
            }
            // Feed the fusion predictor for the next round.
            last_load = load;
            // Watchdog: a round only counts as progress when it moved events
            // or globals, or moved the window — an empty zero-lookahead
            // round loop must trip the deadline, not feed it.
            if load > 0 || due.ran > 0 || next_window > window_end {
                env.wd.tick();
            }
        }

        // Unblock the monitor thread (if any) before joining workers, so a
        // clean shutdown never waits out the deadline.
        env.wd.finish();
        let mut workers = vec![Some(lane.done(end_time))];
        workers.extend(join_contained(&env, handles, 1, abort));
        workers
    });

    let wall = started.elapsed();
    // An abort can leave cross-LP events sent in the aborted round's process
    // phase undelivered (the receive phase never ran). Deliver them now so
    // the stall diagnosis sees every LP that still has work; on a completed
    // run the outboxes are already empty.
    slots.begin_phase();
    // SAFETY: every worker has been joined; this thread is alone.
    unsafe { slots.receive_all() };
    let pool = slots.outbox_stats();
    let (lps, _) = slots.into_inner();
    let out = Outcome {
        label: format!("{}({threads})", env.kernel),
        rounds,
        fused_rounds,
        global_events: public.executed,
        pool,
        sched: SchedStats {
            claims: cursor.claims(),
        },
        rounds_profile,
        stall_round: rounds,
        ..Outcome::new(&env, wall, lps, workers)
    };
    finish(env, shell, out)
}

/// Phase 2's LP walk: merges each LP's node-scheduled globals into the
/// public LP (none earlier than `window_end`, the end of the window that
/// scheduled them).
///
/// # Safety
///
/// The caller must hold exclusive access to every LP slot (workers parked
/// at a barrier).
unsafe fn merge_pending_globals<N: SimNode>(
    slots: &LpSlots<N>,
    public: &mut PublicLp<N>,
    window_end: Time,
) {
    for i in 0..slots.len() {
        // SAFETY: exclusive per this function's contract.
        let lp = unsafe { slots.get_mut(i) };
        if !lp.pending_globals.is_empty() {
            public.merge(LpId(i as u32), window_end, lp.pending_globals.drain(..));
        }
    }
}

/// One thread's way through the rounds: its barrier seat, failure site and
/// accounts. Every phase boundary is one lap of the thread's [`Worker`].
struct Lane<'a> {
    env: &'a RunEnv<'a>,
    barrier: &'a TreeBarrier,
    waiter: TreeWaiter,
    site: &'a Site,
    worker: usize,
    me: Worker,
}

impl<'a> Lane<'a> {
    fn new(env: &'a RunEnv<'a>, barrier: &'a TreeBarrier, site: &'a Site, worker: usize) -> Self {
        Lane {
            env,
            barrier,
            waiter: barrier.waiter(worker),
            site,
            worker,
            me: Worker::new(env, worker),
        }
    }

    /// Crosses barrier `which` (0–3) of `round`; the lap it closes is
    /// recorded as a `barrier-wait` span. Returns `false` once the barrier
    /// is poisoned: the run is aborting.
    #[inline]
    fn wait(&mut self, round: u64, which: u64) -> bool {
        self.barrier.wait(&mut self.waiter);
        self.me.lap(SpanKind::BarrierWait, round, NO_LP, which, 0);
        !self.barrier.is_poisoned()
    }

    /// Runs `phase` of `round` contained. The lap it closes is recorded as
    /// the phase's span, carrying `arg` of its result (0 for a panic, which
    /// is recorded at the thread's site — it starts the phase at
    /// `virtual_time`, no LP — and poisons the barrier).
    #[inline]
    fn run<T>(
        &mut self,
        phase: RunPhase,
        round: u64,
        virtual_time: Time,
        body: impl FnOnce(&mut WorkerTel) -> T,
        arg: impl FnOnce(&T) -> u64,
    ) -> Option<T> {
        let kind = match phase {
            RunPhase::Process => SpanKind::Process,
            RunPhase::Global => SpanKind::Global,
            RunPhase::Receive | RunPhase::Control => SpanKind::Receive,
        };
        self.site.round.set(round);
        self.site.phase.set(phase);
        self.site.at.set((None, virtual_time));
        let tel = &mut self.me.tel;
        let out = contained(self.env, self.site, self.worker, || body(tel));
        self.me
            .lap(kind, round, NO_LP, out.as_ref().map_or(0, arg), 0);
        if out.is_none() {
            self.barrier.poison();
        }
        out
    }

    fn done(mut self, end_time: Time) -> Worker {
        self.me.end_time = end_time;
        self.me
    }
}

/// Phase 1, on worker `worker`: execute the window events of the LPs at
/// the claimed `positions` of the plan's order (each position is handed to
/// exactly one thread per round). Returns the fold of the visited LPs: the
/// minimum of their next-event timestamps once processed, and the events
/// executed.
#[allow(clippy::too_many_arguments)]
fn process_phase<N: SimNode>(
    slots: &LpSlots<N>,
    positions: impl Iterator<Item = usize>,
    worker: usize,
    plan: &RoundPlan,
    side_output: &AtomicBool,
    site: &Site,
    tel: &mut WorkerTel,
    round: u64,
) -> RoundFold {
    let dir = slots.directory();
    let mut fold = RoundFold::EMPTY;
    for i in positions {
        let lp_idx = plan.order[i] as usize;
        // SAFETY: the claim cursor hands each position to exactly one
        // worker per round (its exactly-once contract); phases are
        // separated by barriers.
        let lp = unsafe { slots.get_mut(lp_idx) };
        // The cache is exact here: it was refreshed after the LP's last
        // pop, and every insertion since — a delivery, a global event's —
        // went through `LpState::push`. Probing the cache instead of the
        // FEL keeps the idle-LP skip O(1) under the ladder backend, whose
        // `next_ts` may scan a rung bucket.
        debug_assert_eq!(lp.next_ts, lp.fel.next_ts(), "stale next_ts cache");
        // Phase 4 has read what the last receive phase counted.
        lp.round_recv = 0;
        if lp.next_ts >= plan.window_end {
            // Idle this round: no clock calls, so in a timed round idle
            // LPs record zero cost (and cost nothing).
            lp.round_events = 0;
            if plan.timed {
                lp.last_cost_ns = 0;
            }
            fold.min_next = fold.min_next.min(lp.next_ts);
            continue;
        }
        let t0 = plan.timed.then(Instant::now);
        let mut round_events: u64 = 0;
        // Per-LP virtual time is monotone: nothing an LP pops in this
        // visit precedes the window or the event popped before it.
        let mut prev = None;
        while let Some(ev) = lp.fel.pop_below(plan.window_end) {
            debug_assert!(
                ev.key.ts >= plan.window_start && prev.is_none_or(|k| ev.key > k),
                "LP {} popped {:?} after {prev:?} in the window from {:?}",
                lp.id.0,
                ev.key,
                plan.window_start
            );
            prev = Some(ev.key);
            if ev.node.0 != lp.last_node {
                lp.node_switches += 1;
                lp.last_node = ev.node.0;
            }
            let (owner, local) = dir.locate(ev.node);
            debug_assert_eq!(owner, lp.id, "event routed to wrong LP");
            site.at.set((Some(lp.id), ev.key.ts));
            let node = &mut lp.nodes[local as usize];
            let mut ctx = RoundCtx::<N> {
                now: ev.key.ts,
                self_node: ev.node,
                lp_id: lp.id,
                worker,
                window_end: plan.window_end,
                fel: &mut lp.fel,
                seq: &mut lp.seq,
                pending_globals: &mut lp.pending_globals,
                slots,
            };
            node.handle(ev.payload, &mut ctx);
            round_events += 1;
        }
        lp.refresh_next_ts();
        lp.round_events = round_events;
        lp.total_events += round_events;
        fold.min_next = fold.min_next.min(lp.next_ts);
        fold.load += round_events;
        fold.max_lp = fold.max_lp.max(round_events);
        if !lp.pending_globals.is_empty() {
            side_output.store(true, Ordering::Relaxed);
        }
        if let Some(t0) = t0 {
            lp.last_cost_ns = t0.elapsed().as_nanos() as u64;
            // Recording spans makes every round timed, so every LP visit
            // that did work leaves an `lp-task` span of the measured cost.
            let (lp_id, cost) = (lp_idx as u32, lp.last_cost_ns);
            tel.record(SpanKind::LpTask, round, lp_id, t0, cost, round_events, 0);
        }
    }
    fold
}

/// Phase 3: deliver the events of `columns` — a worker's own; every one in
/// a fused round — straight into their destination FELs, and fold what
/// phase 4 needs from the events themselves: the earliest timestamp and
/// the count. Cost is proportional to the events received, not to the LPs.
fn receive_phase<N: SimNode>(
    slots: &LpSlots<N>,
    columns: std::ops::Range<usize>,
    site: &Site,
    tel: &mut WorkerTel,
    round: u64,
) -> RoundFold {
    let mut fold = RoundFold::EMPTY;
    // Nested inside the receive lap: timed only for its span.
    let t0 = tel.enabled().then(Instant::now);
    // The traffic matrix counts runs of one `(source, destination)` pair.
    let mut run = (0u32, 0u32, 0u64);
    for home in columns {
        // SAFETY: `home` is this worker's own column inside a receive
        // phase, or the control thread drains every column of a fused round
        // while the workers are parked at B0; B1/B2 (fused: program order)
        // separate the drain from every send.
        fold.recv += unsafe {
            slots.receive(home, |dst, ev| {
                site.at.set((Some(dst), ev.key.ts));
                fold.min_next = fold.min_next.min(ev.key.ts);
                if t0.is_some() {
                    let pair = (ev.key.sender_lp.0, dst.0);
                    if pair != (run.0, run.1) {
                        tel.edge(run.0, run.1, run.2);
                        run = (pair.0, pair.1, 0);
                    }
                    run.2 += 1;
                }
            })
        };
    }
    fold.load = fold.recv;
    if let Some(t0) = t0.filter(|_| fold.recv > 0) {
        tel.edge(run.0, run.1, run.2);
        let ns = t0.elapsed().as_nanos() as u64;
        tel.record(SpanKind::MailboxFlush, round, NO_LP, t0, ns, fold.recv, 0);
    }
    fold
}
