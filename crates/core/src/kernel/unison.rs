//! The Unison kernel (§4–§5 of the paper).
//!
//! Fine-grained LPs are scheduled onto a pool of worker threads each round.
//! A round has four phases separated by atomic barriers (Fig. 7):
//!
//! 1. **Process events** — workers claim LPs through their group's shared
//!    [`LjfCursor`] and execute each claimed LP's events inside the window.
//!    Cross-LP events go to the source LP's phase-owned channels.
//! 2. **Handle global events** — the main thread routes overflow events
//!    and merges node-scheduled globals into the public LP (only when a
//!    process phase flagged such side output), then executes due global
//!    events (which may mutate the topology → lookahead recompute).
//! 3. **Receive events** — workers claim LPs again, drain their incoming
//!    channels into their FELs (ascending source order) and fold the
//!    claimed LPs' next-event timestamps and load into one [`RoundFold`]
//!    per worker.
//! 4. **Update window** — the main thread reduces the workers' folds into
//!    the next LBTS (Eq. 2), re-sorts the LP schedule every scheduling
//!    period, and records metrics.
//!
//! A round touches each LP twice, both times through its claimant: once in
//! phase 1 and once in phase 3. The control thread walks all LPs only in
//! re-sort rounds, for per-round profiles and when side output was flagged.
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

use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use crate::error::{
    panic_message, record_failure, FailureDiagnostics, RunPhase, SimError, StallDiagnostics,
};
use crate::event::{Event, EventKey, LpId, NodeId};
use crate::fel::Fel;
use crate::global::{CkptEnv, GlobalFn, WorldAccess};
use crate::lp::LpSlots;
use crate::metrics::{
    EngineStats, LpTotals, MetricsLevel, Psm, RoundRecord, RunReport, SchedStats,
};
use crate::partition::Partition;
use crate::sched::{order_by_estimate_into, LjfCursor, SchedMetric};
use crate::sync::{TreeBarrier, TreeWaiter};
use crate::sync_shim::{AtomicBool, AtomicU64, AtomicUsize, CachePadded, Ordering};
use crate::telemetry::{SpanKind, TelContext, WorkerTel, NO_LP};
use crate::time::Time;
use crate::world::{SimNode, World};

use super::watchdog::Watchdog;
use super::{build_lps, build_partition, reassemble_world, KernelError, RoundCtx, RunConfig};

/// Failure site updated by the processing phase just before each handler
/// runs, so a contained panic can be attributed to an LP and virtual time.
type Site = Cell<(Option<LpId>, Time)>;

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
    /// Per-group LP visit order for the processing phase.
    order: Vec<Vec<u32>>,
    /// Per-group LP list for the receive phase (static).
    group_lps: Vec<Vec<u32>>,
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
    /// re-sort consumes, and always under per-round metrics or recording
    /// telemetry. Other rounds read no per-LP clock.
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

/// What one thread's receive phase learned about the LPs it claimed. Phase
/// 4 reduces one fold per thread instead of visiting every LP.
#[derive(Clone, Copy)]
struct RoundFold {
    /// Minimum next-event timestamp (`Time::MAX` when none).
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

/// A worker's published [`RoundFold`]: stored after its receive phase, read
/// by the main thread after B3 (the barrier orders the two).
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
    if threads == 0 {
        return Err(KernelError::InvalidConfig("threads must be >= 1".into()).into());
    }
    let partition = build_partition(&world, &cfg.partition)?;
    run_grouped(world, cfg, threads, partition, None, "unison")
}

/// Shared implementation for the Unison and hybrid kernels.
pub(super) fn run_grouped<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
    threads: usize,
    mut partition: Partition,
    grouping: Option<Grouping>,
    kernel_name: &'static str,
) -> Result<(World<N>, RunReport), SimError> {
    let (lps, dir, mut graph, init_globals, stop_at, restored_ext_seq) =
        build_lps(world, &partition, cfg.fel);
    let lp_count = lps.len();
    if lp_count == 0 {
        return Err(KernelError::InvalidPartition("world has no nodes".into()).into());
    }
    let grouping = grouping.unwrap_or_else(|| Grouping::single(lp_count, threads));
    if grouping.worker_group.len() != threads || grouping.lp_group.len() != lp_count {
        return Err(
            KernelError::InvalidConfig("grouping does not match thread/LP counts".into()).into(),
        );
    }
    let groups = grouping.groups;

    let channels: Vec<(u32, u32)> = partition
        .lp_channels(&graph)
        .into_iter()
        .map(|(a, b, _)| (a.0, b.0))
        .collect();
    let mut slots = LpSlots::with_channels(lps, dir, &channels);

    // Public LP. The external sequence counter continues from a restored
    // checkpoint's value (0 for a fresh world).
    let mut public: Fel<GlobalFn<N>> = Fel::with_impl(cfg.fel);
    let mut ext_seq: u64 = restored_ext_seq;
    for (ts, f) in init_globals {
        public.push(Event {
            key: EventKey::external(ts, ext_seq),
            node: NodeId(u32::MAX),
            payload: f,
        });
        ext_seq += 1;
    }
    if let Some(stop) = stop_at {
        public.push(Event {
            key: EventKey::external(stop, ext_seq),
            node: NodeId(u32::MAX),
            payload: Box::new(|wa: &mut WorldAccess<'_, N>| wa.stop()),
        });
        ext_seq += 1;
    }

    // Static per-group LP lists and initial (identity) orders.
    let mut group_lps: Vec<Vec<u32>> = vec![Vec::new(); groups];
    for (lp, &g) in grouping.lp_group.iter().enumerate() {
        group_lps[g as usize].push(lp as u32);
    }
    let initial_order = group_lps.clone();

    // One claim cursor per group, seeded with the initial (identity)
    // orders before any worker threads exist.
    let cursors: Vec<LjfCursor> = (0..groups).map(|_| LjfCursor::new()).collect();
    for (cursor, order_g) in cursors.iter().zip(&initial_order) {
        cursor.publish(order_g, &[]);
    }

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
        .min(initial_min.saturating_add(partition.lookahead));

    // Telemetry sinks: one per worker (sole writer: that worker), plus the
    // scheduler-decision log written only by the main thread in phase 4.
    // All no-ops unless `cfg.telemetry.enabled` (see DESIGN.md §4.3).
    let telctx = TelContext::new(&cfg.telemetry);
    let mut main_tel = telctx.worker(0);
    let mut sched_log = telctx.sched_log();
    let mut worker_tels: Vec<WorkerTel> = Vec::new();

    // Which rounds measure per-LP cost: the one an LJF re-sort by measured
    // time consumes (phase 4 of round `r` re-sorts when `r` is a multiple
    // of the period), and every round when profiles or spans record it.
    let sched_period = cfg.sched.effective_period(lp_count) as u64;
    let timed_always = cfg.metrics == MetricsLevel::PerRound || telctx.is_enabled();
    let resort_by_time = cfg.sched.metric == SchedMetric::ByLastRoundTime;
    let timed_round =
        |round: u64| timed_always || (resort_by_time && round.is_multiple_of(sched_period));

    let plan = PlanCell(UnsafeCell::new(RoundPlan {
        order: initial_order,
        group_lps,
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
    let cursor_recv: Vec<CachePadded<AtomicUsize>> = (0..groups)
        .map(|_| CachePadded::new(AtomicUsize::new(0)))
        .collect();
    let stop_flag = AtomicBool::new(false);
    // Raised by a process phase that left `outflow` events or pending
    // globals on an LP; phase 2 walks the LPs only when it is up.
    let side_output = CachePadded::new(AtomicBool::new(false));
    // One published receive-phase fold per spawned worker (index `w - 1`).
    let folds: Vec<CachePadded<FoldSlot>> = (1..threads)
        .map(|_| CachePadded::new(FoldSlot::new()))
        .collect();

    let mut rounds_profile: Option<Vec<RoundRecord>> = match cfg.metrics {
        MetricsLevel::PerRound => Some(Vec::new()),
        MetricsLevel::Summary => None,
    };
    let mut rounds: u64 = 0;
    let mut global_events: u64 = 0;
    let mut end_time = Time::ZERO;
    let started = Instant::now();

    let mut worker_psm: Vec<Psm> = Vec::new();
    // The main thread's P/S/M laps.
    let mut clock = PhaseClock::start();
    let main_group = grouping.worker_group[0] as usize;

    // Crash-safety plumbing (DESIGN.md §4.2): the first contained panic
    // wins the diagnostics slot; the watchdog aborts rounds that exceed
    // their wall-clock deadline. Both abort paths poison the barrier so
    // every thread drains out at its next synchronization point.
    let failure: Mutex<Option<FailureDiagnostics>> = Mutex::new(None);
    let wd = Watchdog::new();

    std::thread::scope(|scope| {
        // Round-progress monitor (opt-in): fires when the main thread stops
        // ticking for longer than the deadline.
        if let Some(deadline) = cfg.watchdog.round_deadline {
            let wd = &wd;
            let barrier = &barrier;
            scope.spawn(move || {
                wd.monitor(deadline, || barrier.poison());
            });
        }

        // Spawn `threads - 1` workers; the main thread is worker 0 and also
        // runs the serial phases.
        let mut handles = Vec::new();
        for (w, &g) in grouping.worker_group.iter().enumerate().skip(1) {
            let g = g as usize;
            let slots = &slots;
            let plan = &plan;
            let barrier = &barrier;
            let cursors = &cursors;
            let cursor_recv = &cursor_recv;
            let stop_flag = &stop_flag;
            let side_output = &*side_output;
            let fold_slot = &*folds[w - 1];
            let failure = &failure;
            let telctx = &telctx;
            handles.push(scope.spawn(move || {
                let mut tel = telctx.worker(w as u32);
                let mut waiter = barrier.waiter(w);
                let mut clock = PhaseClock::start();
                let mut round: u64 = 0;
                loop {
                    // B0: plan published
                    wait_lap(barrier, &mut waiter, &mut clock, &mut tel, round + 1, 0);
                    if barrier.is_poisoned() {
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
                    let site: Site = Cell::new((None, p.window_start));
                    let tel_start = tel.start();
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(feature = "fault-inject")]
                        cfg.fault.fire_phase(round, RunPhase::Process, w);
                        process_phase(
                            slots,
                            std::iter::from_fn(|| cursors[g].claim(0)),
                            &p.order[g],
                            p,
                            stop_flag,
                            side_output,
                            &site,
                            &mut tel,
                            round,
                        )
                    }));
                    let p_dur = clock.lap(|psm| &mut psm.p_ns);
                    match r {
                        Ok(events) => tel.span_dur(
                            SpanKind::Process,
                            round,
                            NO_LP,
                            tel_start,
                            p_dur,
                            events,
                            0,
                        ),
                        Err(payload) => {
                            contain(
                                failure,
                                barrier,
                                kernel_name,
                                round,
                                RunPhase::Process,
                                &site,
                                w,
                                payload,
                            );
                            break;
                        }
                    }
                    // B1
                    wait_lap(barrier, &mut waiter, &mut clock, &mut tel, round, 1);
                    if barrier.is_poisoned() {
                        break;
                    }
                    // B2 (main ran globals)
                    wait_lap(barrier, &mut waiter, &mut clock, &mut tel, round, 2);
                    if barrier.is_poisoned() {
                        break;
                    }
                    let site: Site = Cell::new((None, p.window_end));
                    let tel_start = tel.start();
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(feature = "fault-inject")]
                        {
                            cfg.fault.fire_phase(round, RunPhase::Receive, w);
                            cfg.fault.fire_stall(round, w);
                        }
                        receive_phase(
                            slots,
                            claim_positions(&cursor_recv[g], p.group_lps[g].len()),
                            &p.group_lps[g],
                            &site,
                            &mut tel,
                            round,
                        )
                    }));
                    let m_dur = clock.lap(|psm| &mut psm.m_ns);
                    match r {
                        Ok(fold) => {
                            fold_slot.publish(fold);
                            tel.span_dur(
                                SpanKind::Receive,
                                round,
                                NO_LP,
                                tel_start,
                                m_dur,
                                fold.recv,
                                0,
                            )
                        }
                        Err(payload) => {
                            contain(
                                failure,
                                barrier,
                                kernel_name,
                                round,
                                RunPhase::Receive,
                                &site,
                                w,
                                payload,
                            );
                            break;
                        }
                    }
                    #[cfg(feature = "fault-inject")]
                    cfg.fault.fire_barrier_delay(round, w);
                    // B3
                    wait_lap(barrier, &mut waiter, &mut clock, &mut tel, round, 3);
                    if barrier.is_poisoned() {
                        break;
                    }
                }
                (clock.psm, tel)
            }));
        }

        // Main thread control loop. Claim-audit generations are bumped by
        // the main thread inside its exclusive windows, always *before* the
        // barrier that releases workers into the phase the bump covers.
        //
        // Persistent scratch: the phase-4 LJF re-sort buffers, reused every
        // period so the steady-state control loop stays off the allocator
        // (DESIGN.md §4.4).
        let mut estimates: Vec<u64> = Vec::new();
        let mut group_est: Vec<u64> = Vec::new();
        let mut group_order: Vec<u32> = Vec::new();
        let mut waiter0 = barrier.waiter(0);
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
            let round_tel_start = main_tel.start();
            if !fuse {
                // B0
                wait_lap(&barrier, &mut waiter0, &mut clock, &mut main_tel, round, 0);
                if barrier.is_poisoned() {
                    break;
                }
                if p.done {
                    break;
                }
            }
            let site: Site = Cell::new((None, window_start));
            let tel_start = main_tel.start();
            let r = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                cfg.fault.fire_phase(round, RunPhase::Process, 0);
                if fuse {
                    // Fused round: this thread claims every group's whole
                    // order at once; the parked workers never contend.
                    let mut events = 0;
                    for (cursor, order) in cursors.iter().zip(&p.order) {
                        events += process_phase(
                            &slots,
                            cursor.claim_rest(),
                            order,
                            p,
                            &stop_flag,
                            &side_output,
                            &site,
                            &mut main_tel,
                            round,
                        );
                    }
                    events
                } else {
                    process_phase(
                        &slots,
                        std::iter::from_fn(|| cursors[main_group].claim(0)),
                        &p.order[main_group],
                        p,
                        &stop_flag,
                        &side_output,
                        &site,
                        &mut main_tel,
                        round,
                    )
                }
            }));
            let p_dur = clock.lap(|psm| &mut psm.p_ns);
            match r {
                Ok(events) => {
                    main_tel.span_dur(SpanKind::Process, round, NO_LP, tel_start, p_dur, events, 0)
                }
                Err(payload) => {
                    contain(
                        &failure,
                        &barrier,
                        kernel_name,
                        round,
                        RunPhase::Process,
                        &site,
                        0,
                        payload,
                    );
                    break;
                }
            }
            if !fuse {
                // B1
                wait_lap(&barrier, &mut waiter0, &mut clock, &mut main_tel, round, 1);
                if barrier.is_poisoned() {
                    break;
                }
            }

            // ---- Phase 2: global events (main thread only) ----
            slots.begin_phase(); // covers phase 2 (workers idle until B2)
            let tel_start = main_tel.start();
            let globals_before = global_events;
            let mut stopped = stop_flag.load(Ordering::Acquire);
            let site: Site = Cell::new((None, window_end));
            let r = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                cfg.fault.fire_phase(round, RunPhase::Global, 0);
                let mut topology_dirty = false;
                for c in cursor_recv.iter() {
                    c.store(0, Ordering::Relaxed);
                }
                // Route overflow events and merge node-scheduled globals:
                // the LPs are walked only when some process phase reported
                // either.
                let walk = if side_output.load(Ordering::Relaxed) {
                    side_output.store(false, Ordering::Relaxed);
                    lp_count
                } else {
                    0
                };
                for i in 0..walk {
                    let (outflow, pending) = {
                        // SAFETY: workers wait at B2; main is exclusive. The
                        // borrow ends inside this block, before any other slot
                        // is touched.
                        let lp = unsafe { slots.get_mut(i) };
                        if lp.outflow.is_empty() && lp.pending_globals.is_empty() {
                            continue;
                        }
                        (
                            std::mem::take(&mut lp.outflow),
                            std::mem::take(&mut lp.pending_globals),
                        )
                    };
                    for ev in outflow {
                        let dst = slots.directory().lp_of(ev.node);
                        // SAFETY: main-thread exclusivity; the source LP borrow
                        // above has already ended.
                        let dst_lp = unsafe { slots.get_mut(dst.index()) };
                        dst_lp.fel.push(ev);
                    }
                    for pg in pending {
                        public.push(Event {
                            key: EventKey {
                                // Clamp: globals cannot precede the end of the
                                // window that scheduled them.
                                ts: pg.ts.max(window_end),
                                sender_ts: pg.sender_ts,
                                sender_lp: LpId(i as u32),
                                seq: ext_seq,
                            },
                            node: NodeId(u32::MAX),
                            payload: pg.f,
                        });
                        ext_seq += 1;
                    }
                }
                // Execute due global events.
                // `Time::MAX` means "no global event" — it must not satisfy the
                // bound even when the window itself is unbounded (linkless
                // worlds have an infinite lookahead).
                while !stopped && public.next_ts() != Time::MAX && public.next_ts() <= window_end {
                    // INVARIANT: `next_ts != Time::MAX` implies non-empty.
                    let g = public.pop().expect("public FEL non-empty");
                    let now = g.key.ts;
                    end_time = end_time.max(now);
                    site.set((None, now));
                    let mut stop = false;
                    let mut new_globals: Vec<(Time, GlobalFn<N>)> = Vec::new();
                    {
                        // SAFETY: workers wait at B2; the main thread holds
                        // exclusive access to every LP slot.
                        let mut wa = unsafe {
                            WorldAccess::new(
                                now,
                                &slots,
                                &mut graph,
                                &mut partition,
                                &mut topology_dirty,
                                &mut stop,
                                &mut new_globals,
                                &mut ext_seq,
                                Some(CkptEnv {
                                    mailboxes: None,
                                    stop_at,
                                    wd: &wd,
                                    fault: &cfg.fault,
                                }),
                            )
                        };
                        (g.payload)(&mut wa);
                    }
                    global_events += 1;
                    for (ts, f) in new_globals {
                        public.push(Event {
                            key: EventKey::external(ts, ext_seq),
                            node: NodeId(u32::MAX),
                            payload: f,
                        });
                        ext_seq += 1;
                    }
                    if stop {
                        stopped = true;
                    }
                }
                if topology_dirty {
                    partition.recompute_lookahead(&graph);
                }
            }));
            let g_dur = clock.lap(|psm| &mut psm.p_ns);
            if let Err(payload) = r {
                contain(
                    &failure,
                    &barrier,
                    kernel_name,
                    round,
                    RunPhase::Global,
                    &site,
                    0,
                    payload,
                );
                break;
            }
            main_tel.span_dur(
                SpanKind::Global,
                round,
                NO_LP,
                tel_start,
                g_dur,
                global_events - globals_before,
                0,
            );
            slots.begin_phase(); // covers phase 3 (released by B2)
            if !fuse {
                // B2
                wait_lap(&barrier, &mut waiter0, &mut clock, &mut main_tel, round, 2);
                if barrier.is_poisoned() {
                    break;
                }
            }

            // ---- Phase 3: receive (parallel; fused rounds drain every
            // group serially on the main thread) ----
            let site: Site = Cell::new((None, window_end));
            let tel_start = main_tel.start();
            let r = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                {
                    cfg.fault.fire_phase(round, RunPhase::Receive, 0);
                    cfg.fault.fire_stall(round, 0);
                }
                if fuse {
                    let mut fold = RoundFold::EMPTY;
                    for lps_of_g in &p.group_lps {
                        fold.merge(receive_phase(
                            &slots,
                            0..lps_of_g.len(),
                            lps_of_g,
                            &site,
                            &mut main_tel,
                            round,
                        ));
                    }
                    fold
                } else {
                    receive_phase(
                        &slots,
                        claim_positions(&cursor_recv[main_group], p.group_lps[main_group].len()),
                        &p.group_lps[main_group],
                        &site,
                        &mut main_tel,
                        round,
                    )
                }
            }));
            let m_dur = clock.lap(|psm| &mut psm.m_ns);
            let mut fold = match r {
                Ok(fold) => {
                    main_tel.span_dur(
                        SpanKind::Receive,
                        round,
                        NO_LP,
                        tel_start,
                        m_dur,
                        fold.recv,
                        0,
                    );
                    fold
                }
                Err(payload) => {
                    contain(
                        &failure,
                        &barrier,
                        kernel_name,
                        round,
                        RunPhase::Receive,
                        &site,
                        0,
                        payload,
                    );
                    break;
                }
            };
            if !fuse {
                #[cfg(feature = "fault-inject")]
                cfg.fault.fire_barrier_delay(round, 0);
                // B3
                wait_lap(&barrier, &mut waiter0, &mut clock, &mut main_tel, round, 3);
                if barrier.is_poisoned() {
                    break;
                }
                // Every worker published its fold before arriving at B3.
                for slot in &folds {
                    fold.merge(slot.read());
                }
            }

            // ---- Phase 4: update window + schedule (main thread only) ----
            slots.begin_phase(); // covers phase 4 (workers idle until B0)
            let tel_start = main_tel.start();
            rounds += 1;
            if fuse {
                fused_rounds += 1;
            }
            let RoundFold {
                min_next,
                load,
                recv: recv_total,
            } = fold;
            let n_pub = public.next_ts();
            let next_window = n_pub.min(min_next.saturating_add(partition.lookahead));
            let done = stopped || (min_next == Time::MAX && n_pub == Time::MAX);

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
                // Allocation-free LJF: gather each group's estimates and
                // sort into the group's published order slot, all through
                // reused scratch buffers.
                for (g, lps_of_g) in plan_mut.group_lps.iter().enumerate() {
                    group_est.clear();
                    group_est.extend(lps_of_g.iter().map(|&l| estimates[l as usize]));
                    order_by_estimate_into(&group_est, &mut group_order);
                    let out = &mut plan_mut.order[g];
                    out.clear();
                    out.extend(group_order.iter().map(|&i| lps_of_g[i as usize]));
                }
                // Re-seed each group's cursor with its new order (the
                // unconditional `begin_round` below is then a no-op for
                // this round).
                for (cursor, order_g) in cursors.iter().zip(&plan_mut.order) {
                    cursor.publish(order_g, &[]);
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
            let w_dur = clock.lap(|psm| &mut psm.m_ns);
            main_tel.span_dur(
                SpanKind::WindowUpdate,
                rounds,
                NO_LP,
                tel_start,
                w_dur,
                window_end.0,
                next_window.0,
            );
            if fuse {
                // A whole-round span marking that every phase of this round
                // ran on the main thread with no barrier crossing. `a` is
                // the round's total load, `b` the cross-LP events it
                // drained. Timed off the telemetry clock alone, so a run
                // that records nothing reads nothing.
                main_tel.span_dur(
                    SpanKind::FusedRound,
                    rounds,
                    NO_LP,
                    round_tel_start,
                    main_tel.start().saturating_sub(round_tel_start),
                    load,
                    recv_total,
                );
            }
            // Feed the fusion predictor for the next round.
            last_load = load;
            // One round completed: feed the watchdog.
            wd.tick();
        }

        // Unblock the monitor thread (if any) before joining workers, so a
        // clean shutdown never waits out the deadline.
        wd.finish();
        for (i, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok((psm, tel)) => {
                    worker_psm.push(psm);
                    worker_tels.push(tel);
                }
                // Workers contain their own panics, so a join error means
                // the containment machinery itself died (e.g. a panic in
                // barrier bookkeeping). Record it instead of propagating —
                // `try_run` must not panic.
                Err(payload) => {
                    barrier.poison();
                    record_failure(
                        &failure,
                        FailureDiagnostics {
                            kernel: kernel_name,
                            round: rounds,
                            phase: RunPhase::Control,
                            lp: None,
                            virtual_time: end_time,
                            worker: i + 1,
                            panic_message: panic_message(payload.as_ref()),
                        },
                    );
                }
            }
        }
    });

    let wall = started.elapsed();
    let stalled = wd.stalled();
    // An abort can leave cross-LP events sent in the aborted round's process
    // phase undelivered (the receive phase never ran). Deliver them now so
    // the stall diagnosis sees every LP that still has work; on a completed
    // run the channels are already empty.
    slots.begin_phase();
    for i in 0..lp_count {
        // SAFETY: every worker has been joined; this thread is alone.
        let lp = unsafe { slots.get_mut(i) };
        // SAFETY: as above — no push can race this drain.
        unsafe { slots.receive(i, |_, batch| lp.fel.extend(batch)) };
    }
    let (pool_hits, pool_misses) = slots.channel_pool_stats();
    let (lps, _) = slots.into_inner();
    let lp_totals = LpTotals {
        events: lps.iter().map(|lp| lp.total_events).collect(),
        node_switches: lps.iter().map(|lp| lp.node_switches).collect(),
    };
    let events: u64 = lp_totals.events.iter().sum();
    let mut psm = vec![clock.psm];
    psm.extend(worker_psm);
    let mut tels = vec![main_tel];
    tels.extend(worker_tels);
    let sched_stats = SchedStats {
        claims: cursors.iter().map(LjfCursor::claims).sum(),
    };
    let report = RunReport {
        kernel: format!("{kernel_name}({threads})"),
        wall,
        events,
        global_events,
        rounds,
        fused_rounds,
        lp_count: lp_count as u32,
        threads: threads as u32,
        lookahead: partition.lookahead,
        end_time,
        psm,
        psm_per_lp: false,
        lp_totals,
        engine: EngineStats {
            fel_impl: cfg.fel,
            pool_hits,
            pool_misses,
        },
        sched: sched_stats,
        rounds_profile,
        telemetry: telctx.collect(tels, sched_log),
        recovery: None,
        async_stats: None,
    };
    if let Some(diag) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(SimError::WorkerPanic {
            diag,
            partial: Box::new(report),
        });
    }
    if stalled {
        let blocked: Vec<LpId> = lps
            .iter()
            .filter(|lp| lp.fel.next_ts() != Time::MAX || !lp.outflow.is_empty())
            .map(|lp| lp.id)
            .collect();
        let diag = StallDiagnostics {
            kernel: kernel_name,
            round: rounds,
            deadline: cfg.watchdog.round_deadline.unwrap_or_default(),
            virtual_time: end_time,
            blocked,
            cycle: Vec::new(),
        };
        return Err(SimError::Stalled {
            diag,
            partial: Box::new(report),
        });
    }
    let world = reassemble_world(lps, &partition, graph, stop_at);
    Ok((world, report))
}

/// Records a contained panic's diagnostics (first failure wins) and poisons
/// the barrier so every other thread drains out of the round loop.
#[allow(clippy::too_many_arguments)]
fn contain(
    failure: &Mutex<Option<FailureDiagnostics>>,
    barrier: &TreeBarrier,
    kernel: &'static str,
    round: u64,
    phase: RunPhase,
    site: &Site,
    worker: usize,
    payload: Box<dyn std::any::Any + Send>,
) {
    let (lp, virtual_time) = site.get();
    record_failure(
        failure,
        FailureDiagnostics {
            kernel,
            round,
            phase,
            lp,
            virtual_time,
            worker,
            panic_message: panic_message(payload.as_ref()),
        },
    );
    barrier.poison();
}

/// One thread's P/S/M accumulators over chained wall-clock laps: every
/// phase boundary reads the clock once, and that reading both closes the
/// phase before it and opens the one after.
struct PhaseClock {
    last: Instant,
    psm: Psm,
}

impl PhaseClock {
    fn start() -> Self {
        PhaseClock {
            last: Instant::now(),
            psm: Psm::default(),
        }
    }

    /// Nanoseconds since the previous lap (or the start), added to the
    /// accumulator `into` selects.
    #[inline]
    fn lap(&mut self, into: fn(&mut Psm) -> &mut u64) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        *into(&mut self.psm) += ns;
        ns
    }
}

/// Barrier wait, with the lap it closes charged to `S` and recorded as a
/// `barrier-wait` span (`arg` = barrier index 0–3 within `round`).
#[inline]
fn wait_lap(
    barrier: &TreeBarrier,
    waiter: &mut TreeWaiter,
    clock: &mut PhaseClock,
    tel: &mut WorkerTel,
    round: u64,
    which: u64,
) {
    let tel_start = tel.start();
    barrier.wait(waiter);
    let waited = clock.lap(|psm| &mut psm.s_ns);
    tel.span_dur(
        SpanKind::BarrierWait,
        round,
        NO_LP,
        tel_start,
        waited,
        which,
        0,
    );
}

/// The receive phase's shared claim: each position in `0..len` goes to
/// exactly one caller.
fn claim_positions(cursor: &AtomicUsize, len: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::from_fn(move || {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        (i < len).then_some(i)
    })
}

/// Phase 1: execute the window events of the LPs at the claimed
/// `positions` of `order` (each position is handed to exactly one thread
/// per round). Returns the number of events this worker executed.
#[allow(clippy::too_many_arguments)]
fn process_phase<N: SimNode>(
    slots: &LpSlots<N>,
    positions: impl Iterator<Item = usize>,
    order: &[u32],
    plan: &RoundPlan,
    stop_flag: &AtomicBool,
    side_output: &AtomicBool,
    site: &Site,
    tel: &mut WorkerTel,
    round: u64,
) -> u64 {
    let dir = slots.directory();
    let mut total_events: u64 = 0;
    for i in positions {
        let lp_idx = order[i] as usize;
        // SAFETY: the claim cursor hands each position to exactly one
        // worker per round (its exactly-once contract); phases are
        // separated by barriers.
        let lp = unsafe { slots.get_mut(lp_idx) };
        // The cache is exact here: it was refreshed at the end of the last
        // receive phase (after outflow routing), and the window-planning
        // phase between never touches LP FELs. Probing the cache instead of
        // the FEL keeps the idle-LP skip O(1) under the ladder backend,
        // whose `next_ts` may scan a rung bucket.
        debug_assert_eq!(lp.next_ts, lp.fel.next_ts(), "stale next_ts cache");
        if lp.next_ts >= plan.window_end {
            // Idle this round: no clock calls, so in a timed round idle
            // LPs record zero cost (and cost nothing).
            lp.round_events = 0;
            if plan.timed {
                lp.last_cost_ns = 0;
            }
            continue;
        }
        let tel_start = tel.start();
        let t0 = plan.timed.then(Instant::now);
        let mut round_events: u64 = 0;
        while let Some(ev) = lp.fel.pop_below(plan.window_end) {
            if ev.node.0 != lp.last_node {
                lp.node_switches += 1;
                lp.last_node = ev.node.0;
            }
            let (owner, local) = dir.locate(ev.node);
            debug_assert_eq!(owner, lp.id, "event routed to wrong LP");
            site.set((Some(lp.id), ev.key.ts));
            let node = &mut lp.nodes[local as usize];
            let mut ctx = RoundCtx::<N> {
                now: ev.key.ts,
                self_node: ev.node,
                lp_id: lp.id,
                window_end: plan.window_end,
                fel: &mut lp.fel,
                seq: &mut lp.seq,
                outflow: &mut lp.outflow,
                pending_globals: &mut lp.pending_globals,
                slots,
                stop_flag,
            };
            node.handle(ev.payload, &mut ctx);
            round_events += 1;
        }
        lp.round_events = round_events;
        lp.total_events += round_events;
        total_events += round_events;
        if !lp.outflow.is_empty() || !lp.pending_globals.is_empty() {
            side_output.store(true, Ordering::Relaxed);
        }
        if let Some(t0) = t0 {
            lp.last_cost_ns = t0.elapsed().as_nanos() as u64;
            // Recording telemetry makes every round timed. `plan.est` is
            // only published when telemetry records; 0 means "no estimate"
            // (before the first re-sort, or metric None).
            let est = plan.est.get(lp_idx).copied().unwrap_or(0);
            tel.span_dur(
                SpanKind::LpTask,
                round,
                lp_idx as u32,
                tel_start,
                lp.last_cost_ns,
                round_events,
                est,
            );
        }
    }
    total_events
}

/// Phase 3: claim LPs, drain their incoming channels straight into their
/// FELs (`Fel::extend` per non-empty channel, ascending source) and fold
/// what phase 4 needs from each claimed LP — its next-event timestamp, its
/// load and its receive count — so the control thread never has to visit
/// the LPs itself.
fn receive_phase<N: SimNode>(
    slots: &LpSlots<N>,
    positions: impl Iterator<Item = usize>,
    group_lps: &[u32],
    site: &Site,
    tel: &mut WorkerTel,
    round: u64,
) -> RoundFold {
    let mut fold = RoundFold::EMPTY;
    for i in positions {
        let lp_idx = group_lps[i] as usize;
        site.set((Some(LpId(lp_idx as u32)), site.get().1));
        // SAFETY: unique claim via the cursor, as in `process_phase`.
        let lp = unsafe { slots.get_mut(lp_idx) };
        let tel_start = tel.start();
        let fel = &mut lp.fel;
        // SAFETY: the claim on `lp_idx` covers its incoming channels, and
        // B1/B2 separate this drain from every push into them.
        let recv = unsafe {
            slots.receive(lp_idx, |src, batch| {
                tel.edge(src, lp_idx as u32, batch.len() as u64);
                fel.extend(batch);
            })
        };
        lp.round_recv = recv;
        lp.refresh_next_ts();
        fold.min_next = fold.min_next.min(lp.next_ts);
        fold.load += lp.round_events + recv;
        fold.recv += recv;
        if recv > 0 {
            tel.span(
                SpanKind::MailboxFlush,
                round,
                lp_idx as u32,
                tel_start,
                recv,
            );
        }
    }
    fold
}
