//! The Unison kernel (§4–§5 of the paper).
//!
//! Fine-grained LPs are scheduled onto a pool of worker threads each round.
//! A round has four phases separated by atomic barriers (Fig. 7):
//!
//! 1. **Process events** — workers claim LPs through their group's
//!    [`LjfCursor`], their own *home* segment of the order first, and
//!    execute each claimed LP's events inside the window. A cross-LP event
//!    is appended to the executing worker's outbox for the destination
//!    LP's home worker ([`LpSlots::send`]). Each worker folds the visited
//!    LPs' next-event timestamps and event counts into a [`RoundFold`].
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
//!    the next LBTS (Eq. 2), re-sorts the LP schedule every scheduling
//!    period, and records metrics.
//!
//! A round visits each LP once, in phase 1, and again in phase 3 only per
//! event delivered to it. The control thread walks all LPs only in re-sort
//! rounds, for per-round profiles, when a process phase flagged pending
//! globals, and to re-derive the minimum after a global event ran.
//!
//! Determinism: event keys are assigned from per-LP monotone counters and
//! ordered by the §5.2 tie-breaking rule, so results are identical for any
//! worker count (including 1) and identical to the compat-keys sequential
//! kernel.
//!
//! The same machinery also powers the *hybrid* kernel (§5.2): LPs are
//! grouped into simulated hosts and each host's workers only claim LPs of
//! their own group, modeling the cluster deployment where load balancing
//! happens within a host and only the window all-reduce is global.

use std::cell::UnsafeCell;
use std::time::Instant;

use crate::error::{RunPhase, SimError};
use crate::event::LpId;
use crate::lp::LpSlots;
use crate::metrics::{MetricsLevel, RoundRecord, RunReport, SchedStats};
use crate::partition::Partition;
use crate::sched::{home_range, sort_by_estimate, LjfCursor, SchedMetric};
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

/// How LPs and workers are grouped (single group = plain Unison; one group
/// per simulated host = hybrid kernel).
pub(super) struct Grouping {
    /// Group of each LP.
    pub lp_group: Vec<u32>,
    /// Group of each worker thread (worker 0 is the main thread).
    pub worker_group: Vec<u32>,
    /// Number of groups.
    pub groups: usize,
}

impl Grouping {
    /// Everything in one group with `threads` workers.
    pub fn single(lp_count: usize, threads: usize) -> Self {
        Grouping {
            lp_group: vec![0; lp_count],
            worker_group: vec![0; threads],
            groups: 1,
        }
    }
}

/// Round plan published by the main thread between rounds.
struct RoundPlan {
    /// Per-group LP visit order for the processing phase: each home
    /// segment of the group's LPs, longest estimated job first.
    order: Vec<Vec<u32>>,
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
    /// Whether this round's process phase measures each LP's cost
    /// (`LpState::last_cost_ns`): set for the round a `ByLastRoundTime`
    /// re-sort consumes, and every round above `MetricsLevel::Summary`.
    /// Other rounds read no per-LP clock.
    timed: bool,
    /// Per-LP cost estimates behind the current `order`, published only
    /// when telemetry records (empty otherwise) so `lp-task` spans can
    /// carry estimate-vs-actual data.
    est: Vec<u64>,
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
}

impl RoundFold {
    const EMPTY: RoundFold = RoundFold {
        min_next: Time::MAX,
        load: 0,
        recv: 0,
    };

    fn merge(&mut self, other: RoundFold) {
        self.min_next = self.min_next.min(other.min_next);
        self.load += other.load;
        self.recv += other.recv;
    }
}

/// A worker's published [`RoundFold`] — both phases' — stored after its
/// receive phase, read by the main thread after B3 (the barrier orders the
/// two).
struct FoldSlot {
    // PADDING: the three words are one worker's and the enclosing
    // `CachePadded<FoldSlot>` keeps workers apart.
    min_next: AtomicU64,
    // PADDING: as above.
    round_load: AtomicU64,
    // PADDING: as above.
    round_recv: AtomicU64,
}

impl FoldSlot {
    fn new() -> Self {
        FoldSlot {
            min_next: AtomicU64::new(Time::MAX.0),
            round_load: AtomicU64::new(0),
            round_recv: AtomicU64::new(0),
        }
    }

    fn publish(&self, fold: RoundFold) {
        self.min_next.store(fold.min_next.0, Ordering::Relaxed);
        self.round_load.store(fold.load, Ordering::Relaxed);
        self.round_recv.store(fold.recv, Ordering::Relaxed);
    }

    fn read(&self) -> RoundFold {
        RoundFold {
            min_next: Time(self.min_next.load(Ordering::Relaxed)),
            load: self.round_load.load(Ordering::Relaxed),
            recv: self.round_recv.load(Ordering::Relaxed),
        }
    }
}

pub(super) fn run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
    threads: usize,
) -> Result<(World<N>, RunReport), SimError> {
    run_grouped(world, cfg, |p| {
        Grouping::single(p.lp_count as usize, threads)
    })
}

/// Shared implementation for the Unison and hybrid kernels: `group` maps
/// the partition to the worker/LP grouping (and so to the thread count).
pub(super) fn run_grouped<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
    group: impl FnOnce(&Partition) -> Grouping,
) -> Result<(World<N>, RunReport), SimError> {
    let Setup {
        env,
        mut shell,
        lps,
        dir,
        mut public,
    } = prepare(world, cfg)?;
    let lp_count = lps.len();
    let grouping = group(&shell.partition);
    let threads = grouping.worker_group.len();
    debug_assert_eq!(grouping.lp_group.len(), lp_count);
    let groups = grouping.groups;

    // Initial (identity) per-group orders: each group's LPs, ascending.
    let mut initial_order: Vec<Vec<u32>> = vec![Vec::new(); groups];
    for (lp, &g) in grouping.lp_group.iter().enumerate() {
        initial_order[g as usize].push(lp as u32);
    }

    // A worker's home is its index among its group's workers.
    let mut group_workers: Vec<Vec<u32>> = vec![Vec::new(); groups];
    let worker_home: Vec<usize> = grouping
        .worker_group
        .iter()
        .enumerate()
        .map(|(w, &g)| {
            group_workers[g as usize].push(w as u32);
            group_workers[g as usize].len() - 1
        })
        .collect();

    // One claim cursor per group, cut into one home per worker and seeded
    // before any worker threads exist. An LP's home worker — the column
    // its deliveries travel in — is the owner of the segment it starts in:
    // the phase-4 re-sort never moves an LP out of its segment.
    let mut lp_home = vec![0u32; lp_count];
    let cursors: Vec<LjfCursor> = initial_order
        .iter()
        .zip(&group_workers)
        .map(|(lps_of_g, workers_of_g)| {
            for (v, &w) in workers_of_g.iter().enumerate() {
                for &lp in &lps_of_g[home_range(lps_of_g.len(), workers_of_g.len(), v)] {
                    lp_home[lp as usize] = w;
                }
            }
            let cursor = LjfCursor::new(workers_of_g.len());
            cursor.publish(lps_of_g, &[]);
            cursor
        })
        .collect();
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

    // Telemetry sinks: one per worker (sole writer: that worker), plus the
    // scheduler-decision log written only by the main thread in phase 4.
    // All no-ops below `MetricsLevel::Spans` (see DESIGN.md §4.3).
    let mut sched_log = env.telctx.sched_log();

    // Which rounds measure per-LP cost: the one an LJF re-sort by measured
    // time consumes (phase 4 of round `r` re-sorts when `r` is a multiple
    // of the period), and every round when profiles or spans record it.
    let sched_period = cfg.sched.effective_period(lp_count) as u64;
    let timed_always = cfg.metrics != MetricsLevel::Summary;
    let resort_by_time = cfg.sched.metric == SchedMetric::ByLastRoundTime;
    let timed_round =
        |round: u64| timed_always || (resort_by_time && round.is_multiple_of(sched_period));

    let plan = PlanCell(UnsafeCell::new(RoundPlan {
        order: initial_order,
        window_start: Time::ZERO,
        window_end: initial_window,
        round: 1,
        done: initial_min == Time::MAX && public.next_ts() == Time::MAX,
        timed: timed_round(1),
        est: Vec::new(),
    }));

    // Round fusion (DESIGN.md §4.9): disabled while a fault plan is armed,
    // so execution-point faults land on the configured worker and phase
    // (fused rounds run every phase on the main thread).
    let fusion = cfg.sched.fusion;
    let fusion_on = fusion.enabled && cfg.fault.is_empty();
    // Oversubscription clause (DESIGN.md §4.9): when the run asks for more
    // workers than the machine has cores, parallel rounds only time-slice —
    // serializing them on the control thread is strictly cheaper, so lift
    // the load threshold entirely. Deterministic per machine and
    // digest-neutral: fusion never changes the event order, only who runs
    // the phases (pinned by the fusion on/off digest matrix).
    let fusion_threshold = if std::thread::available_parallelism().is_ok_and(|c| threads > c.get())
    {
        u64::MAX
    } else {
        fusion.threshold
    };
    // Entry-predicate seed for round 1: the pending event count below the
    // initial window stands in for "the previous round's load".
    let mut last_load: u64 = 0;
    for i in 0..lp_count {
        // SAFETY: no worker threads exist yet.
        last_load += unsafe { slots.get_mut(i) }.fel.count_below(initial_window) as u64;
    }
    let mut fused_rounds: u64 = 0;

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
    let main_group = grouping.worker_group[0] as usize;
    let ckpt = env.ckpt(shell.stop_at);

    // Abort (contained panic or watchdog): poisoning the barrier makes
    // every thread drain out at its next synchronization point.
    let abort = || barrier.poison();

    let workers = std::thread::scope(|scope| {
        // Fires when the main thread stops ticking for a whole deadline.
        env.spawn_monitor(scope, abort);

        // Spawn `threads - 1` workers; the main thread is worker 0 and also
        // runs the serial phases.
        let mut handles = Vec::new();
        for (w, &g) in grouping.worker_group.iter().enumerate().skip(1) {
            let (g, home) = (g as usize, worker_home[w]);
            let (env, slots, plan, barrier) = (&env, &slots, &plan, &barrier);
            let (cursors, side_output) = (&cursors, &*side_output);
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
                        #[cfg(feature = "fault-inject")]
                        cfg.fault.fire_phase(round, RunPhase::Process, w);
                        let claims = std::iter::from_fn(|| cursors[g].claim(home));
                        let order = &p.order[g];
                        process_phase(slots, claims, order, w, p, side_output, site, tel, round)
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
                    let receive = |tel: &mut WorkerTel| {
                        #[cfg(feature = "fault-inject")]
                        {
                            cfg.fault.fire_phase(round, RunPhase::Receive, w);
                            cfg.fault.fire_stall(round, w);
                        }
                        receive_phase(slots, w..w + 1, site, tel, round)
                    };
                    match lane.run(RunPhase::Receive, round, p.window_end, receive, |f| f.recv) {
                        Some(received) => fold.merge(received),
                        None => break,
                    }
                    fold_slot.publish(fold);
                    #[cfg(feature = "fault-inject")]
                    cfg.fault.fire_barrier_delay(round, w);
                    // B3
                    if !lane.wait(round, 3) {
                        break;
                    }
                }
                lane.done(Time::ZERO)
            };
            handles.push(spawn_contained(scope, env, w, None, body, abort));
        }

        // Main thread control loop. Claim-audit generations are bumped by
        // the main thread inside its exclusive windows, always *before* the
        // barrier that releases workers into the phase the bump covers.
        //
        // Persistent scratch: the phase-4 LJF re-sort buffer, reused every
        // period so the steady-state control loop stays off the allocator
        // (DESIGN.md §4.4).
        let mut estimates: Vec<u64> = Vec::new();
        let site = Site::new(None);
        let mut lane = Lane::new(&env, &barrier, &site, 0);
        slots.begin_phase(); // covers phase 1 of round 1
        loop {
            // SAFETY: the main thread is exclusive until its B0 arrival —
            // workers are parked inside the B0 wait (it cannot complete
            // without main) and only read the plan after it does.
            let p = unsafe { &*plan.0.get() };
            // Round fusion (DESIGN.md §4.9): when the previous round's
            // load was below the threshold, the four barrier crossings
            // cost more than this round's events — run the round serially
            // right here while the workers stay parked at B0. The load
            // predicate alone ends a fused span when work grows. With one
            // thread there is no worker to release, so every round takes
            // the no-barrier path.
            let fuse = fusion_on
                && !p.done
                && !barrier.is_poisoned()
                && (threads == 1 || last_load <= fusion_threshold);
            let round = rounds + 1;
            let window_start = p.window_start;
            let window_end = p.window_end;
            let round_t0 = lane.last;
            // B0
            if !fuse && (!lane.wait(round, 0) || p.done) {
                break;
            }
            let process = |tel: &mut WorkerTel| {
                #[cfg(feature = "fault-inject")]
                cfg.fault.fire_phase(round, RunPhase::Process, 0);
                if fuse {
                    // Fused round: this thread claims every group's whole
                    // order at once; the parked workers never contend.
                    let mut fold = RoundFold::EMPTY;
                    for (cursor, order) in cursors.iter().zip(&p.order) {
                        let claims = cursor.claim_rest();
                        fold.merge(process_phase(
                            &slots,
                            claims,
                            order,
                            0,
                            p,
                            &side_output,
                            &site,
                            tel,
                            round,
                        ));
                    }
                    fold
                } else {
                    let claims = std::iter::from_fn(|| cursors[main_group].claim(0));
                    let order = &p.order[main_group];
                    process_phase(&slots, claims, order, 0, p, &side_output, &site, tel, round)
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
            slots.begin_phase(); // covers phase 2 (workers idle until B2)
            let globals = |_: &mut WorkerTel| {
                #[cfg(feature = "fault-inject")]
                cfg.fault.fire_phase(round, RunPhase::Global, 0);
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
                    public.run_due(window_end, &slots, &mut shell, Some(&ckpt), |now| {
                        end_time = end_time.max(now);
                        site.at.set((None, now));
                    })
                }
            };
            let Some(due) = lane.run(RunPhase::Global, round, window_end, globals, |due| due.ran)
            else {
                break;
            };
            slots.begin_phase(); // covers phase 3 (released by B2)
            if !fuse && !lane.wait(round, 2) {
                break;
            }

            // ---- Phase 3: receive (parallel; fused rounds drain every
            // column serially on the main thread) ----
            let receive = |tel: &mut WorkerTel| {
                #[cfg(feature = "fault-inject")]
                {
                    cfg.fault.fire_phase(round, RunPhase::Receive, 0);
                    cfg.fault.fire_stall(round, 0);
                }
                let columns = if fuse { 0..threads } else { 0..1 };
                receive_phase(&slots, columns, &site, tel, round)
            };
            match lane.run(RunPhase::Receive, round, window_end, receive, |f| f.recv) {
                Some(received) => fold.merge(received),
                None => break,
            }
            if !fuse {
                #[cfg(feature = "fault-inject")]
                cfg.fault.fire_barrier_delay(round, 0);
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
            slots.begin_phase(); // covers phase 4 (workers idle until B0)
            rounds += 1;
            if fuse {
                fused_rounds += 1;
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

            // Load-adaptive scheduling: re-sort the LP order every period.
            if !done && cfg.sched.metric != SchedMetric::None && rounds.is_multiple_of(sched_period)
            {
                estimates.clear();
                estimates.resize(lp_count, 0);
                match cfg.sched.metric {
                    SchedMetric::ByLastRoundTime => {
                        debug_assert!(p.timed, "re-sort round was not timed");
                        for (i, e) in estimates.iter_mut().enumerate() {
                            // SAFETY: main-thread exclusivity.
                            *e = unsafe { slots.get_mut(i) }.last_cost_ns;
                        }
                    }
                    SchedMetric::ByPendingEvents => {
                        for (i, e) in estimates.iter_mut().enumerate() {
                            // SAFETY: main-thread exclusivity.
                            let lp = unsafe { slots.get_mut(i) };
                            *e = lp.fel.count_below(next_window) as u64;
                        }
                    }
                    SchedMetric::None => unreachable!(),
                }
                // SAFETY: main-thread exclusivity between B3 and B0.
                let plan_mut = unsafe { &mut *plan.0.get() };
                // Allocation-free LJF within each home: every home segment
                // of a group's order is sorted by estimate in place, so an
                // LP never leaves its home and the cursors' bounds stand.
                for (out, workers_of_g) in plan_mut.order.iter_mut().zip(&group_workers) {
                    let homes = workers_of_g.len();
                    for home in 0..homes {
                        let segment = home_range(out.len(), homes, home);
                        sort_by_estimate(&mut out[segment], &estimates);
                    }
                }
                if sched_log.enabled() {
                    // Log the LJF decision per group: the order applies
                    // from the next round (`rounds + 1`) until the next
                    // re-sort. Estimates ride along for regret analysis.
                    for (g, order_g) in plan_mut.order.iter().enumerate() {
                        sched_log.record(
                            rounds + 1,
                            g as u32,
                            cfg.sched.metric.name(),
                            order_g.clone(),
                            order_g.iter().map(|&l| estimates[l as usize]).collect(),
                        );
                    }
                    // Publish the estimates so phase-1 `lp-task` spans can
                    // carry estimate-vs-actual arguments.
                    plan_mut.est.clear();
                    plan_mut.est.extend_from_slice(&estimates);
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
                plan_mut.timed = timed_round(rounds + 1);
            }
            for cursor in cursors.iter() {
                cursor.begin_round();
            }
            slots.begin_phase(); // covers the next round's phase 1
            lane.lap(SpanKind::WindowUpdate, rounds, window_end.0, next_window.0);
            if fuse && lane.me.tel.enabled() {
                // A whole-round envelope marking that every phase of this
                // round ran on the main thread with no barrier crossing:
                // from the lap boundary the round opened at to the one that
                // just closed its last phase — no clock read of its own.
                // `arg` is the round's total load, `arg2` the cross-LP
                // events it drained.
                let ns = lane.last.duration_since(round_t0).as_nanos() as u64;
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
            // One round completed: feed the watchdog.
            env.wd.tick();
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
            claims: cursors.iter().map(LjfCursor::claims).sum(),
        },
        sched_log,
        rounds_profile,
        stall_round: rounds,
        ..Outcome::new(&env, wall, lps, workers)
    };
    finish(env, shell, out, None)
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
/// accounts. Wall time is measured in chained laps: every phase boundary
/// reads the clock once, and that reading both closes the phase before it
/// and opens the one after — so a thread's top-level spans tile its
/// timeline and sum to its P/S/M total.
struct Lane<'a> {
    env: &'a RunEnv<'a>,
    barrier: &'a TreeBarrier,
    waiter: TreeWaiter,
    site: &'a Site,
    worker: usize,
    me: Worker,
    last: Instant,
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
            last: Instant::now(),
        }
    }

    /// Closes the lap open since the previous one (or the start): charged
    /// as `kind` and recorded as that span of `round`.
    #[inline]
    fn lap(&mut self, kind: SpanKind, round: u64, arg: u64, arg2: u64) {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.me
            .account(kind, round, NO_LP, self.last, ns, Some((arg, arg2)));
        self.last = now;
    }

    /// Crosses barrier `which` (0–3) of `round`; the lap it closes is
    /// recorded as a `barrier-wait` span. Returns `false` once the barrier
    /// is poisoned: the run is aborting.
    #[inline]
    fn wait(&mut self, round: u64, which: u64) -> bool {
        self.barrier.wait(&mut self.waiter);
        self.lap(SpanKind::BarrierWait, round, which, 0);
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
        self.lap(kind, round, out.as_ref().map_or(0, arg), 0);
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
/// the claimed `positions` of `order` (each position is handed to exactly
/// one thread per round). Returns the fold of the visited LPs: the minimum
/// of their next-event timestamps once processed, and the events executed.
#[allow(clippy::too_many_arguments)]
fn process_phase<N: SimNode>(
    slots: &LpSlots<N>,
    positions: impl Iterator<Item = usize>,
    order: &[u32],
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
        let lp_idx = order[i] as usize;
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
        while let Some(ev) = lp.fel.pop_below(plan.window_end) {
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
        if !lp.pending_globals.is_empty() {
            side_output.store(true, Ordering::Relaxed);
        }
        if let Some(t0) = t0 {
            lp.last_cost_ns = t0.elapsed().as_nanos() as u64;
            // Recording spans makes every round timed, so every LP visit
            // that did work leaves an `lp-task` span of the measured cost.
            // `plan.est` is only published when telemetry records; 0 means
            // "no estimate" (before the first re-sort, or metric None).
            let est = plan.est.get(lp_idx).copied().unwrap_or(0);
            let (lp_id, cost) = (lp_idx as u32, lp.last_cost_ns);
            tel.record(SpanKind::LpTask, round, lp_id, t0, cost, round_events, est);
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
