//! The kernel harness: everything a kernel does that is *not* its
//! synchronization protocol, written once (DESIGN.md §4.2).
//!
//! Every kernel is a caller of these four pieces and keeps only how it
//! computes the safe bound, how it maps LPs to threads, and its `SimCtx`:
//!
//! 1. [`prepare`] — the preamble: configuration checks, partition, LP build,
//!    the seeded [`PublicLp`] and the [`RunEnv`] (telemetry context, failure
//!    slot, watchdog).
//! 2. [`PublicLp`] — the public FEL and the external sequence counter;
//!    [`PublicLp::run_due`] is the one place a [`WorldAccess`] is built.
//! 3. [`spawn_contained`] / [`join_contained`] / [`contained`] — the one
//!    `catch_unwind`, the one place a [`FailureDiagnostics`] is recorded.
//! 4. [`Worker`] and [`finish`] — per-thread P/S/M and span accounting (one
//!    chain of laps per thread), and the epilogue: per-LP totals, the
//!    [`RunReport`], error precedence (a contained panic outranks a
//!    watchdog stall) and world reassembly.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use crate::error::{panic_message, FailureDiagnostics, RunPhase, SimError, StallDiagnostics};
use crate::event::{Event, EventKey, LpId, NodeId};
use crate::fel::Fel;
use crate::global::{GlobalFn, WorldAccess};
use crate::graph::LinkGraph;
use crate::lp::{LpSlots, LpState, PendingGlobal};
use crate::metrics::{EngineStats, MetricsLevel, Psm, RoundRecord, RunReport, SchedStats};
use crate::partition::Partition;
use crate::telemetry::{SpanKind, TelContext, WorkerTel};
use crate::time::Time;
use crate::world::{NodeDirectory, SimNode, World};

use super::watchdog::Watchdog;
use super::{
    build_lps, build_partition, reassemble_world, KernelError, KernelKind, RunConfig, MAX_WORKERS,
};

// ---------------------------------------------------------------------------
// 1. Preamble
// ---------------------------------------------------------------------------

/// The parts of a dismantled world its control thread keeps.
pub(super) struct Shell {
    pub partition: Partition,
    pub graph: LinkGraph,
    pub stop_at: Option<Time>,
}

/// Everything [`prepare`] hands a kernel.
pub(super) struct Setup<'c, N: SimNode> {
    pub env: RunEnv<'c>,
    pub shell: Shell,
    pub lps: Vec<LpState<N>>,
    pub dir: NodeDirectory,
    pub public: PublicLp<N>,
}

/// Run-wide state shared by every thread of one kernel run.
pub(super) struct RunEnv<'c> {
    pub cfg: &'c RunConfig,
    pub kernel: &'static str,
    pub telctx: TelContext,
    pub wd: Watchdog,
    /// First contained panic (later ones during the same abort are
    /// secondary — usually claim-audit fallout of the drain — and would
    /// bury the root cause).
    failure: Mutex<Option<FailureDiagnostics>>,
}

impl RunEnv<'_> {
    /// Spawns the round-progress monitor when the watchdog is enabled; it
    /// calls `abort` once if no [`Watchdog::tick`] arrives for a deadline.
    pub fn spawn_monitor<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        abort: impl FnOnce() + Send + 'scope,
    ) {
        if let Some(deadline) = self.cfg.watchdog {
            scope.spawn(move || self.wd.monitor(deadline, abort));
        }
    }

    fn record(&self, diag: FailureDiagnostics) {
        let mut slot = self.failure.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(diag);
        }
    }
}

/// The shared preamble: rejects what the configured kernel cannot run,
/// partitions the world and distributes it into LPs.
pub(super) fn prepare<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
) -> Result<Setup<'_, N>, KernelError> {
    let threads = match cfg.kernel {
        KernelKind::Sequential { .. } => 1,
        KernelKind::Unison { threads } => threads,
    };
    let kernel = cfg.kernel.name();
    if threads == 0 {
        return Err(KernelError::InvalidConfig(format!(
            "kernel `{kernel}` needs at least one worker thread"
        )));
    }
    // The count is outside input and sizes the W × W outbox table.
    if threads > MAX_WORKERS {
        return Err(KernelError::InvalidConfig(format!(
            "kernel `{kernel}` is configured with {threads} worker threads; \
             at most {MAX_WORKERS} are supported"
        )));
    }
    if world.nodes.is_empty() {
        return Err(KernelError::InvalidPartition("world has no nodes".into()));
    }
    let partition = build_partition(&world.graph, &cfg.partition)?;
    let (lps, dir, graph, init_globals, stop_at) = build_lps(world, &partition, cfg.fel);
    let mut public = PublicLp {
        fel: Fel::with_impl(cfg.fel),
        ext_seq: 0,
        executed: 0,
    };
    for (ts, f) in init_globals {
        public.push(EventKey::external(ts, public.ext_seq), f);
    }
    if let Some(stop) = stop_at {
        let key = EventKey::external(stop, public.ext_seq);
        public.push(key, Box::new(|wa: &mut WorldAccess<'_, N>| wa.stop()));
    }
    Ok(Setup {
        env: RunEnv {
            cfg,
            kernel,
            telctx: TelContext::new(cfg.metrics == MetricsLevel::Spans),
            wd: Watchdog::new(),
            failure: Mutex::new(None),
        },
        shell: Shell {
            partition,
            graph,
            stop_at,
        },
        lps,
        dir,
        public,
    })
}

// ---------------------------------------------------------------------------
// 2. The public LP
// ---------------------------------------------------------------------------

/// The public LP (§4.2 of the paper): the FEL of global events and the
/// external sequence counter their keys — and the keys of the events they
/// inject — are drawn from. Seeded by [`prepare`] with the world's initial
/// globals and a stop event at the stop time.
pub(super) struct PublicLp<N: SimNode> {
    fel: Fel<GlobalFn<N>>,
    ext_seq: u64,
    /// Global events executed so far. Kept current inside
    /// [`PublicLp::run_due`], so a contained panic leaves the partial count.
    pub executed: u64,
}

/// What one [`PublicLp::run_due`] call did.
pub(super) struct Due {
    /// Global events executed.
    pub ran: u64,
    /// A global called [`WorldAccess::stop`].
    pub stopped: bool,
    /// A global mutated the topology (the partition lookahead has already
    /// been recomputed).
    pub topology_changed: bool,
}

impl<N: SimNode> PublicLp<N> {
    fn push(&mut self, key: EventKey, f: GlobalFn<N>) {
        debug_assert_eq!(key.seq, self.ext_seq);
        self.ext_seq += 1;
        self.fel.push(Event {
            key,
            node: NodeId(u32::MAX),
            payload: f,
        });
    }

    /// Timestamp of the next global event (`Time::MAX` when none).
    #[inline]
    pub fn next_ts(&self) -> Time {
        self.fel.next_ts()
    }

    /// Merges the globals node handlers of `lp` scheduled, none earlier
    /// than `floor` (a windowed kernel cannot run a global before the end
    /// of the window that scheduled it).
    pub fn merge(
        &mut self,
        lp: LpId,
        floor: Time,
        pending: impl IntoIterator<Item = PendingGlobal<N>>,
    ) {
        for pg in pending {
            let key = EventKey {
                ts: pg.ts.max(floor),
                sender_ts: pg.sender_ts,
                sender_lp: lp,
                seq: self.ext_seq,
            };
            self.push(key, pg.f);
        }
    }

    /// Executes every global event due at or before `bound`, in key order,
    /// until one stops the run. `on_global` sees each event's timestamp
    /// just before its body runs (the kernel's failure site and clock).
    ///
    /// `Time::MAX` means "no global event": it never satisfies the bound,
    /// even when the window itself is unbounded (a linkless world has an
    /// infinite lookahead).
    ///
    /// # Safety
    ///
    /// The caller must hold exclusive access to every LP in `slots` for
    /// the whole call: no other thread may touch a slot until it returns.
    pub unsafe fn run_due(
        &mut self,
        bound: Time,
        slots: &LpSlots<N>,
        shell: &mut Shell,
        mut on_global: impl FnMut(Time),
    ) -> Due {
        let mut due = Due {
            ran: 0,
            stopped: false,
            topology_changed: false,
        };
        while !due.stopped && self.fel.next_ts() != Time::MAX && self.fel.next_ts() <= bound {
            // INVARIANT: `next_ts != Time::MAX` implies the FEL is non-empty.
            let g = self.fel.pop().expect("public FEL non-empty");
            let now = g.key.ts;
            on_global(now);
            let mut new_globals: Vec<(Time, GlobalFn<N>)> = Vec::new();
            {
                // SAFETY: exclusive access to every slot is this function's
                // own contract, passed on unchanged.
                let mut wa = unsafe {
                    WorldAccess::new(
                        now,
                        slots,
                        &mut shell.graph,
                        &mut shell.partition,
                        &mut due.topology_changed,
                        &mut due.stopped,
                        &mut new_globals,
                        &mut self.ext_seq,
                    )
                };
                (g.payload)(&mut wa);
            }
            self.executed += 1;
            due.ran += 1;
            for (ts, f) in new_globals {
                self.push(EventKey::external(ts, self.ext_seq), f);
            }
        }
        if due.topology_changed {
            shell.partition.recompute_lookahead(&shell.graph);
        }
        due
    }
}

// ---------------------------------------------------------------------------
// 3. Containment
// ---------------------------------------------------------------------------

/// Where a thread is, kept current so a contained panic can say where it
/// happened: the round, the phase, and the LP and virtual
/// time of the event being executed.
pub(super) struct Site {
    pub round: Cell<u64>,
    pub phase: Cell<RunPhase>,
    pub at: Cell<(Option<LpId>, Time)>,
}

impl Site {
    pub fn new() -> Self {
        Site {
            round: Cell::new(0),
            phase: Cell::new(RunPhase::Process),
            at: Cell::new((None, Time::ZERO)),
        }
    }
}

/// Runs `body`, turning a panic into the run's [`FailureDiagnostics`]
/// (first failure wins) and `None`. The caller aborts the run.
#[inline]
pub(super) fn contained<T>(
    env: &RunEnv<'_>,
    site: &Site,
    worker: usize,
    body: impl FnOnce() -> T,
) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(out) => Some(out),
        Err(payload) => {
            let (lp, virtual_time) = site.at.get();
            env.record(FailureDiagnostics {
                kernel: env.kernel,
                round: site.round.get(),
                phase: site.phase.get(),
                lp,
                virtual_time,
                worker,
                panic_message: panic_message(payload.as_ref()),
            });
            None
        }
    }
}

/// Spawns worker `worker` with its body contained. A panicking body
/// records its [`Site`], runs `on_panic` — the
/// kernel's abort hook: release whatever peers could block on — and joins
/// as `None`.
pub(super) fn spawn_contained<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    env: &'scope RunEnv<'_>,
    worker: usize,
    body: impl FnOnce(&Site) -> T + Send + 'scope,
    on_panic: impl FnOnce() + Send + 'scope,
) -> ScopedJoinHandle<'scope, Option<T>> {
    scope.spawn(move || {
        let site = Site::new();
        let out = contained(env, &site, worker, || body(&site));
        if out.is_none() {
            on_panic();
        }
        out
    })
}

/// Joins workers `first_worker..` in spawn order. Bodies are contained, so
/// a join error means the containment itself died; it is recorded, not
/// propagated — `try_run` must not panic — after `abort` releases the
/// threads still running.
pub(super) fn join_contained<T>(
    env: &RunEnv<'_>,
    handles: Vec<ScopedJoinHandle<'_, Option<T>>>,
    first_worker: usize,
    abort: impl Fn(),
) -> Vec<Option<T>> {
    let mut results = Vec::with_capacity(handles.len());
    for (i, h) in handles.into_iter().enumerate() {
        results.push(h.join().unwrap_or_else(|payload| {
            abort();
            env.record(FailureDiagnostics {
                kernel: env.kernel,
                round: 0,
                phase: RunPhase::Control,
                lp: None,
                virtual_time: Time::ZERO,
                worker: first_worker + i,
                panic_message: panic_message(payload.as_ref()),
            });
            None
        }));
    }
    results
}

// ---------------------------------------------------------------------------
// 4. Epilogue
// ---------------------------------------------------------------------------

/// One thread's accounts: its P/S/M accumulators (§3.2 of the paper), its
/// telemetry sink and how far it got. Handed back when the thread is done.
///
/// Wall time is measured in one chain of laps: every boundary reads the
/// clock once, and that reading closes the lap before it and opens the one
/// after ([`Worker::lap`]). So a thread's laps tile its timeline from the
/// worker's creation to its last boundary and sum to its [`Psm`].
pub(super) struct Worker {
    psm: Psm,
    pub tel: WorkerTel,
    /// Latest virtual time this thread executed.
    pub end_time: Time,
    /// The reading that closed the last lap and opened the current one.
    pub last: Instant,
}

impl Worker {
    /// The accounts of the thread that records into telemetry sink `id`;
    /// its first lap opens now.
    pub fn new(env: &RunEnv<'_>, id: usize) -> Self {
        Worker {
            psm: Psm::default(),
            tel: env.telctx.worker(id as u32),
            end_time: Time::ZERO,
            last: Instant::now(),
        }
    }

    /// Closes the open lap and opens the next: charges it to the P/S/M
    /// accumulator its `kind` counts towards — executing events is
    /// processing, waiting on other threads is synchronization, moving
    /// events and bounds between LPs is messaging — and records it as that
    /// span of `round` on `lp`. A span nested inside a lap is recorded on
    /// [`Worker::tel`] directly and charges nothing.
    #[inline]
    pub fn lap(&mut self, kind: SpanKind, round: u64, lp: u32, arg: u64, arg2: u64) {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        match kind {
            SpanKind::Process | SpanKind::Global => self.psm.p_ns += ns,
            SpanKind::BarrierWait => self.psm.s_ns += ns,
            SpanKind::Receive | SpanKind::WindowUpdate => self.psm.m_ns += ns,
            SpanKind::LpTask | SpanKind::MailboxFlush | SpanKind::FusedRound => {
                debug_assert!(false, "{kind:?} only nests inside a lap")
            }
        }
        self.tel.record(kind, round, lp, self.last, ns, arg, arg2);
        self.last = now;
    }
}

/// What a kernel knows when its threads are done. [`Outcome::new`] sets
/// every kernel-specific field to its "none" value.
pub(super) struct Outcome<N: SimNode> {
    /// Display label ([`RunReport::kernel`]); the kernel's name unless set.
    pub label: String,
    pub wall: Duration,
    /// The surviving LPs, in id order.
    pub lps: Vec<LpState<N>>,
    /// One record per thread, by telemetry sink id; `None` for a thread
    /// that died.
    pub workers: Vec<Option<Worker>>,
    pub threads: usize,
    pub rounds: u64,
    pub fused_rounds: u64,
    pub global_events: u64,
    /// Virtual time reached by the control thread.
    pub end_time: Time,
    /// Cross-LP sends served without / with an allocation.
    pub pool: (u64, u64),
    pub sched: SchedStats,
    pub rounds_profile: Option<Vec<RoundRecord>>,
    /// Round a stall diagnosis reports.
    pub stall_round: u64,
}

impl<N: SimNode> Outcome<N> {
    pub fn new(
        env: &RunEnv<'_>,
        wall: Duration,
        lps: Vec<LpState<N>>,
        workers: Vec<Option<Worker>>,
    ) -> Self {
        Outcome {
            label: env.kernel.into(),
            wall,
            lps,
            threads: workers.len(),
            workers,
            rounds: 0,
            fused_rounds: 0,
            global_events: 0,
            end_time: Time::ZERO,
            pool: (0, 0),
            sched: SchedStats::default(),
            rounds_profile: None,
            stall_round: 0,
        }
    }
}

/// The shared epilogue. Builds the [`RunReport`] (per-thread vectors stay
/// rectangular: a dead thread contributes an empty record), then returns
/// [`SimError::WorkerPanic`] if a panic was contained — even when the
/// watchdog also fired, since a stall that follows a panic is its fallout —
/// [`SimError::Stalled`] with the blocked LPs — those with a pending event —
/// if the watchdog fired, and the reassembled world otherwise.
pub(super) fn finish<N: SimNode>(
    env: RunEnv<'_>,
    shell: Shell,
    out: Outcome<N>,
) -> Result<(World<N>, RunReport), SimError> {
    let stalled = env.wd.stalled();
    let mut end_time = out.end_time;
    let mut psm = Vec::with_capacity(out.workers.len());
    let mut tels = Vec::with_capacity(out.workers.len());
    for (id, worker) in out.workers.into_iter().enumerate() {
        let worker = worker.unwrap_or_else(|| Worker::new(&env, id));
        end_time = end_time.max(worker.end_time);
        psm.push(worker.psm);
        tels.push(worker.tel);
    }
    let mut lp_neighbors = vec![Vec::new(); shell.partition.lp_count as usize];
    for (a, b, _) in shell.partition.lp_channels(&shell.graph) {
        lp_neighbors[a.index()].push(b.0);
        lp_neighbors[b.index()].push(a.0);
    }
    let report = RunReport {
        kernel: out.label,
        wall: out.wall,
        events: out.lps.iter().map(|lp| lp.total_events).sum(),
        global_events: out.global_events,
        rounds: out.rounds,
        fused_rounds: out.fused_rounds,
        lp_count: shell.partition.lp_count,
        threads: out.threads as u32,
        lookahead: shell.partition.lookahead,
        end_time,
        psm,
        node_switches: out.lps.iter().map(|lp| lp.node_switches).sum(),
        engine: EngineStats {
            pool_hits: out.pool.0,
            pool_misses: out.pool.1,
        },
        sched: out.sched,
        rounds_profile: out.rounds_profile,
        lp_neighbors,
        telemetry: env.telctx.collect(tels),
    };
    let partial = Box::new(report);
    if let Some(diag) = env.failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(SimError::WorkerPanic { diag, partial });
    }
    if stalled {
        let blocked = out
            .lps
            .iter()
            .filter(|lp| lp.fel.next_ts() != Time::MAX)
            .map(|lp| lp.id)
            .collect();
        // How far the windows got.
        let diag = StallDiagnostics {
            kernel: env.kernel,
            round: out.stall_round,
            deadline: env.cfg.watchdog.unwrap_or_default(),
            virtual_time: end_time,
            blocked,
        };
        return Err(SimError::Stalled { diag, partial });
    }
    let world = reassemble_world(out.lps, &shell.partition, shell.graph, shell.stop_at);
    Ok((world, *partial))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{SimCtx, WorldBuilder};

    struct Idle;

    impl SimNode for Idle {
        type Payload = ();
        fn handle(&mut self, _: (), _: &mut dyn SimCtx<Self>) {}
    }

    /// Three nodes on a zero-delay ring, each with an event at t=5 and a
    /// stop at t=1000 — prepared, not run.
    fn ring(cfg: &RunConfig) -> Setup<'_, Idle> {
        let mut b = WorldBuilder::new();
        for _ in 0..3 {
            b.add_node(Idle);
        }
        for i in 0..3 {
            b.add_link(NodeId(i), NodeId((i + 1) % 3), Time::ZERO);
            b.schedule(Time(5), NodeId(i), ());
        }
        b.stop_at(Time(1_000));
        prepare(b.build(), cfg).expect("a valid world")
    }

    /// Lets the watchdog fire, as it does when nothing ticks for a deadline.
    fn stall(env: &RunEnv<'_>, abort: impl FnOnce()) {
        assert!(env.wd.monitor(Duration::from_millis(1), abort));
    }

    #[test]
    fn panic_outranks_stall_and_a_dead_worker_leaves_an_empty_record() {
        let cfg = RunConfig::unison(3).with_telemetry();
        let Setup {
            env, shell, lps, ..
        } = ring(&cfg);
        let site = Site::new();
        site.at.set((Some(LpId(1)), Time::ZERO));
        site.round.set(4);
        assert!(contained(&env, &site, 1, || panic!("boom")).is_none());
        stall(&env, || {});

        let workers = vec![Some(Worker::new(&env, 0)), None, Some(Worker::new(&env, 2))];
        let out = Outcome::new(&env, Duration::ZERO, lps, workers);
        match finish(env, shell, out) {
            Err(SimError::WorkerPanic { diag, partial }) => {
                assert_eq!((diag.worker, diag.round, diag.lp), (1, 4, Some(LpId(1))));
                assert_eq!(diag.panic_message, "boom");
                assert_eq!(partial.psm.len(), 3);
                if let Some(tel) = &partial.telemetry {
                    assert_eq!(tel.workers.len(), 3);
                }
            }
            other => panic!("expected WorkerPanic, got {:?}", other.map(|(_, r)| r)),
        }
    }

    #[test]
    fn run_due_never_treats_time_max_as_due() {
        // No stop time and one global: after it ran, the public FEL is
        // empty and reports `Time::MAX` — which an unbounded window must
        // not mistake for a due event.
        let mut b = WorldBuilder::new();
        b.add_node(Idle);
        b.schedule_global(Time(7), Box::new(|_| {}));
        let cfg = RunConfig::unison(1);
        let Setup {
            mut shell,
            lps,
            dir,
            mut public,
            ..
        } = prepare(b.build(), &cfg).expect("a valid world");
        let slots = LpSlots::new(lps, dir);
        let mut seen = Vec::new();
        for expect in [1, 0] {
            // SAFETY: no other thread exists.
            let due = unsafe { public.run_due(Time::MAX, &slots, &mut shell, |t| seen.push(t)) };
            assert_eq!((due.ran, due.stopped), (expect, false));
        }
        assert_eq!((seen, public.next_ts()), (vec![Time(7)], Time::MAX));
    }
}
