//! The kernel harness: everything a kernel does that is *not* its
//! synchronization protocol, written once (DESIGN.md §4.2).
//!
//! Every kernel is a caller of these five pieces and keeps only how it
//! computes the safe bound, how it maps LPs to threads, and its `SimCtx`:
//!
//! 1. [`prepare`] — the preamble: configuration checks, partition, LP build,
//!    the seeded [`PublicLp`] and the [`RunEnv`] (telemetry context, failure
//!    slot, watchdog, halt flag).
//! 2. [`PublicLp`] — the public FEL and the external sequence counter;
//!    [`PublicLp::run_due`] is the one place a [`WorldAccess`] is built.
//! 3. [`ChannelClocks`] — the CMB channel table of the null-message
//!    kernel: clocks, lookaheads, wakers, the abort-time snapshot and the
//!    blocked-LP cycle walk.
//! 4. [`spawn_contained`] / [`join_contained`] / [`contained`] — the one
//!    `catch_unwind`, the one place a [`FailureDiagnostics`] is recorded.
//! 5. [`Worker`] and [`finish`] — per-thread P/S/M and span accounting, and
//!    the epilogue: per-LP totals, the [`RunReport`], error precedence (a
//!    contained panic outranks a watchdog stall) and world reassembly.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use crate::error::{panic_message, FailureDiagnostics, RunPhase, SimError, StallDiagnostics};
use crate::event::{Event, EventKey, LpId, NodeId};
use crate::fel::Fel;
use crate::global::{CkptEnv, GlobalFn, WorldAccess};
use crate::graph::LinkGraph;
use crate::lp::{LpSlots, LpState, PendingGlobal};
use crate::metrics::{
    EngineStats, LpTotals, MetricsLevel, Psm, RoundRecord, RunReport, SchedStats,
};
use crate::partition::Partition;
use crate::sync_shim::CachePadded;
use crate::telemetry::{SchedLog, SpanKind, TelContext, WorkerTel};
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

impl Shell {
    /// The stop time as an exclusive processing bound.
    pub fn horizon(&self) -> Time {
        self.stop_at.unwrap_or(Time::MAX)
    }
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
    /// "Every thread drains out now": raised by the abort paths of the
    /// barrier and null-message kernels. Padded: LP threads poll it every
    /// iteration, next to the watchdog's progress word.
    stop_flag: CachePadded<AtomicBool>,
}

impl RunEnv<'_> {
    /// Tells every thread to drain out.
    pub fn halt(&self) {
        self.stop_flag.store(true, Ordering::Release);
    }

    /// Whether [`RunEnv::halt`] was called.
    #[inline]
    pub fn halted(&self) -> bool {
        self.stop_flag.load(Ordering::Acquire)
    }

    /// Spawns the round-progress monitor when the watchdog is enabled; it
    /// calls `abort` once if no [`Watchdog::tick`] arrives for a deadline.
    pub fn spawn_monitor<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        abort: impl FnOnce() + Send + 'scope,
    ) {
        if let Some(deadline) = self.cfg.watchdog.round_deadline {
            scope.spawn(move || self.wd.monitor(deadline, abort));
        }
    }

    /// What a checkpoint needs from the kernel (DESIGN.md §4.7).
    pub fn ckpt(&self, stop_at: Option<Time>) -> CkptEnv<'_> {
        CkptEnv {
            stop_at,
            wd: &self.wd,
            fault: &self.cfg.fault,
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
    // Per kernel: configured worker count (1 where the LP count decides;
    // hybrid's before its hosts are clamped to the LP count), whether it
    // executes global events, whether it needs a stop time.
    let (threads, globals, needs_stop) = match cfg.kernel {
        KernelKind::Sequential { .. } => (1, true, false),
        KernelKind::Barrier => (1, false, false),
        KernelKind::NullMessage => (1, false, true),
        KernelKind::Unison { threads } => (threads, true, false),
        KernelKind::Hybrid {
            hosts,
            threads_per_host,
        } => (hosts.saturating_mul(threads_per_host), true, false),
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
    if !globals && !world.init_globals.is_empty() {
        return Err(KernelError::GlobalEventsUnsupported(kernel));
    }
    if world.nodes.is_empty() {
        return Err(KernelError::InvalidPartition("world has no nodes".into()));
    }
    let partition = build_partition(&world, &cfg.partition)?;
    // Without a horizon, channel promises on drained FELs creep forward by
    // one lookahead per exchange and the run never terminates (ns-3's
    // null-message simulator has the same requirement).
    if needs_stop && world.stop_at.is_none() {
        return Err(KernelError::InvalidConfig(format!(
            "kernel `{kernel}` requires a stop time"
        )));
    }
    let (lps, dir, graph, init_globals, stop_at, ext_seq) = build_lps(world, &partition, cfg.fel);
    let mut public = PublicLp {
        fel: Fel::with_impl(cfg.fel),
        ext_seq,
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
            stop_flag: CachePadded::new(AtomicBool::new(false)),
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
/// globals and a stop event at the stop time; the counter continues a
/// restored checkpoint's value.
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
        ckpt: Option<&CkptEnv<'_>>,
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
                        ckpt,
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
// 3. Channel clocks
// ---------------------------------------------------------------------------

/// Wake-up channel for one thread: lock + condvar. A bump follows the
/// input change it publishes and takes the lock a sleeper re-checks under,
/// so wake-ups are never lost.
pub(super) struct Waker {
    lock: Mutex<()>,
    cond: Condvar,
}

impl Waker {
    /// Signals the owner that some input changed.
    pub fn bump(&self) {
        // A poisoned lock (a bumper panicked mid-bump) must not take the
        // containment path down with it: the lock guards no data.
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.cond.notify_all();
    }

    /// Parks the owner once if `blocked` — evaluated under the lock — says
    /// nothing changed.
    pub fn sleep_if(&self, blocked: impl FnOnce() -> bool) {
        let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        if blocked() {
            let _guard = self.cond.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The directed channel table of the Chandy–Misra–Bryant kernel (one
/// thread per LP): two channels per connected LP pair, each with the
/// source's *promise* ("no event earlier than t will ever arrive on this
/// channel") and the link lookahead that bounds how far a promise may run
/// ahead of its source.
pub(super) struct ChannelClocks {
    src: Vec<u32>,
    /// Destination LP of each channel.
    pub dst: Vec<u32>,
    /// Per-channel lookahead (the kernel runs no topology globals, so it
    /// never changes).
    chan_la: Vec<Time>,
    /// Cache-padded: each clock is written by exactly one thread (its
    /// source's) and polled by its receiver's; packed 8-to-a-line they
    /// would false-share every grant.
    chan_clock: Vec<CachePadded<AtomicU64>>,
    /// The promises as they stood when the watchdog fired: the abort drain
    /// overwrites the live clocks with `u64::MAX`, so the stall diagnosis
    /// walks this snapshot instead.
    // PADDING: written only by the watchdog's abort hook — a cold path.
    stall_clocks: Vec<AtomicU64>,
    /// Channels arriving at each LP.
    pub ins: Vec<Vec<usize>>,
    /// Channels leaving each LP.
    pub outs: Vec<Vec<usize>>,
    /// One waker per LP (thread).
    pub wakers: Vec<Waker>,
}

impl ChannelClocks {
    /// Builds the table of `lp_count` LPs for `channels` (one entry per
    /// connected LP pair).
    pub fn new(channels: &[(LpId, LpId, Time)], lp_count: usize) -> Self {
        let mut c = ChannelClocks {
            src: Vec::new(),
            dst: Vec::new(),
            chan_la: Vec::new(),
            chan_clock: Vec::new(),
            stall_clocks: Vec::new(),
            ins: vec![Vec::new(); lp_count],
            outs: vec![Vec::new(); lp_count],
            wakers: Vec::new(),
        };
        for &(a, b, la) in channels {
            for (s, d) in [(a.0, b.0), (b.0, a.0)] {
                c.outs[s as usize].push(c.src.len());
                c.ins[d as usize].push(c.src.len());
                c.src.push(s);
                c.dst.push(d);
                c.chan_la.push(la);
                c.chan_clock.push(CachePadded::new(AtomicU64::new(0)));
                c.stall_clocks.push(AtomicU64::new(u64::MAX));
            }
        }
        c.wakers.resize_with(lp_count, || Waker {
            lock: Mutex::new(()),
            cond: Condvar::new(),
        });
        c
    }

    pub fn wake_all(&self) {
        for w in &self.wakers {
            w.bump();
        }
    }

    #[inline]
    pub fn lookahead(&self, c: usize) -> Time {
        self.chan_la[c]
    }

    /// The safe bound of `lp`: the minimum promise over its in-channels.
    /// Read *before* draining: every event below an observed promise is
    /// then already visible in its queue (a sender pushes, then publishes).
    #[inline]
    pub fn safe(&self, lp: usize) -> Time {
        let mut safe = Time::MAX;
        for &c in &self.ins[lp] {
            safe = safe.min(Time(self.chan_clock[c].load(Ordering::Acquire)));
        }
        safe
    }

    /// Publishes `promise` on channel `c` — the null message. Monotone
    /// under races; returns whether the clock rose.
    #[inline]
    pub fn promise(&self, c: usize, promise: Time) -> bool {
        self.chan_clock[c].fetch_max(promise.0, Ordering::AcqRel) < promise.0
    }

    /// Releases the out-channels of an LP that will never promise again
    /// (finished, draining, or dead) so no neighbor's bound stays pinned
    /// by it, and wakes their receivers.
    pub fn release_outs(&self, lp: usize) {
        for &c in &self.outs[lp] {
            self.chan_clock[c].store(u64::MAX, Ordering::Release);
        }
        for &c in &self.outs[lp] {
            self.wakers[self.dst[c] as usize].bump();
        }
    }

    /// Copies the live promises aside for the stall diagnosis. Called by
    /// the watchdog's abort hook, before the drain releases them.
    pub fn snapshot(&self) {
        for (snap, live) in self.stall_clocks.iter().zip(&self.chan_clock) {
            snap.store(live.load(Ordering::Acquire), Ordering::Release);
        }
    }

    /// Walks from the first blocked LP along each LP's *binding* input
    /// channel (the minimal promise in the abort-time snapshot) back to its
    /// source until an LP repeats: with zero lookahead on a cycle, every
    /// LP on it pins its successor's bound. Empty when the walk dead-ends.
    fn stall_cycle(&self, blocked: &[LpId]) -> Vec<LpId> {
        let Some(start) = blocked.first() else {
            return Vec::new();
        };
        let mut path: Vec<u32> = Vec::new();
        let mut cur = start.0;
        loop {
            if let Some(pos) = path.iter().position(|&l| l == cur) {
                let mut cycle: Vec<LpId> = path[pos..].iter().map(|&l| LpId(l)).collect();
                cycle.push(LpId(cur));
                return cycle;
            }
            path.push(cur);
            let mut best: Option<(u64, usize)> = None;
            for &c in &self.ins[cur as usize] {
                let clk = self.stall_clocks[c].load(Ordering::Acquire);
                if clk != u64::MAX && best.is_none_or(|(b, _)| clk < b) {
                    best = Some((clk, c));
                }
            }
            match best {
                Some((_, c)) => cur = self.src[c],
                None => return Vec::new(),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Containment
// ---------------------------------------------------------------------------

/// Where a thread is, kept current so a contained panic can say where it
/// happened: the round (or iteration), the phase, and the LP and virtual
/// time of the event being executed.
pub(super) struct Site {
    pub round: Cell<u64>,
    pub phase: Cell<RunPhase>,
    pub at: Cell<(Option<LpId>, Time)>,
}

impl Site {
    pub fn new(lp: Option<LpId>) -> Self {
        Site {
            round: Cell::new(0),
            phase: Cell::new(RunPhase::Process),
            at: Cell::new((lp, Time::ZERO)),
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
/// records its [`Site`] (which starts at `lp`), runs `on_panic` — the
/// kernel's abort hook: release whatever peers could block on — and joins
/// as `None`.
pub(super) fn spawn_contained<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    env: &'scope RunEnv<'_>,
    worker: usize,
    lp: Option<LpId>,
    body: impl FnOnce(&Site) -> T + Send + 'scope,
    on_panic: impl FnOnce() + Send + 'scope,
) -> ScopedJoinHandle<'scope, Option<T>> {
    scope.spawn(move || {
        let site = Site::new(lp);
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
// 5. Epilogue
// ---------------------------------------------------------------------------

/// One thread's accounts: its P/S/M accumulators (§3.2 of the paper), its
/// telemetry sink and how far it got. Handed back when the thread is done.
pub(super) struct Worker {
    pub psm: Psm,
    pub tel: WorkerTel,
    /// Latest virtual time this thread executed.
    pub end_time: Time,
}

/// A stretch of wall time being measured: the clock reading that opened
/// it ([`Worker::start`]).
pub(super) struct Lap(Instant);

impl Worker {
    /// The accounts of the thread that records into telemetry sink `id`.
    pub fn new(env: &RunEnv<'_>, id: usize) -> Self {
        Worker {
            psm: Psm::default(),
            tel: env.telctx.worker(id as u32),
            end_time: Time::ZERO,
        }
    }

    #[inline]
    pub fn start(&self) -> Lap {
        Lap(Instant::now())
    }

    /// Ends `lap`: charges it as `kind` and, given its `arg`, records it
    /// as a span of `round` on `lp`. Returns its length in nanoseconds.
    #[inline]
    pub fn end(&mut self, lap: Lap, kind: SpanKind, round: u64, lp: u32, arg: Option<u64>) -> u64 {
        let ns = lap.0.elapsed().as_nanos() as u64;
        self.account(kind, round, lp, lap.0, ns, arg.map(|arg| (arg, 0)));
        ns
    }

    /// Charges the `ns` measured from `t0` to the P/S/M accumulator spans
    /// of `kind` count towards — executing events is processing, waiting on
    /// other threads is synchronization, moving events and bounds between
    /// LPs is messaging — and, given its arguments, records the same
    /// stretch as a span. Every lap a thread charges goes through here, so
    /// its charged laps sum to [`Psm::total_ns`]; a span nested inside a
    /// lap is recorded on [`Worker::tel`] directly and charges nothing.
    #[inline]
    pub fn account(
        &mut self,
        kind: SpanKind,
        round: u64,
        lp: u32,
        t0: Instant,
        ns: u64,
        args: Option<(u64, u64)>,
    ) {
        match kind {
            SpanKind::Process | SpanKind::Global => self.psm.p_ns += ns,
            SpanKind::BarrierWait => self.psm.s_ns += ns,
            SpanKind::Receive
            | SpanKind::MailboxFlush
            | SpanKind::Grant
            | SpanKind::WindowUpdate => self.psm.m_ns += ns,
            SpanKind::LpTask | SpanKind::FusedRound => {
                debug_assert!(false, "{kind:?} only nests inside a charged lap")
            }
        }
        if let Some((arg, arg2)) = args {
            self.tel.record(kind, round, lp, t0, ns, arg, arg2);
        }
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
    pub psm_per_lp: bool,
    pub threads: usize,
    pub rounds: u64,
    pub fused_rounds: u64,
    pub global_events: u64,
    /// Virtual time reached by the control thread.
    pub end_time: Time,
    /// Cross-LP sends served without / with an allocation.
    pub pool: (u64, u64),
    pub sched: SchedStats,
    pub sched_log: SchedLog,
    pub rounds_profile: Option<Vec<RoundRecord>>,
    /// Round a stall diagnosis reports.
    pub stall_round: u64,
    /// An LP with an event below this bound is blocked when the run stalls.
    pub stall_bound: Time,
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
            psm_per_lp: false,
            rounds: 0,
            fused_rounds: 0,
            global_events: 0,
            end_time: Time::ZERO,
            pool: (0, 0),
            sched: SchedStats::default(),
            sched_log: env.telctx.sched_log(),
            rounds_profile: None,
            stall_round: 0,
            stall_bound: Time::MAX,
        }
    }
}

/// The shared epilogue. Builds the [`RunReport`] (per-thread vectors stay
/// rectangular: a dead thread contributes an empty record), then returns
/// [`SimError::WorkerPanic`] if a panic was contained — even when the
/// watchdog also fired, since a stall that follows a panic is its fallout —
/// [`SimError::Stalled`] with the blocked LPs (and, given `clocks`, their
/// dependency cycle) if the watchdog fired, and the reassembled world
/// otherwise.
pub(super) fn finish<N: SimNode>(
    env: RunEnv<'_>,
    shell: Shell,
    out: Outcome<N>,
    clocks: Option<&ChannelClocks>,
) -> Result<(World<N>, RunReport), SimError> {
    let stalled = env.wd.stalled();
    let lp_totals = LpTotals {
        events: out.lps.iter().map(|lp| lp.total_events).collect(),
        node_switches: out.lps.iter().map(|lp| lp.node_switches).collect(),
    };
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
        events: lp_totals.events.iter().sum(),
        global_events: out.global_events,
        rounds: out.rounds,
        fused_rounds: out.fused_rounds,
        lp_count: shell.partition.lp_count,
        threads: out.threads as u32,
        lookahead: shell.partition.lookahead,
        end_time,
        psm,
        psm_per_lp: out.psm_per_lp,
        lp_totals,
        engine: EngineStats {
            fel_impl: env.cfg.fel,
            pool_hits: out.pool.0,
            pool_misses: out.pool.1,
        },
        sched: out.sched,
        rounds_profile: out.rounds_profile,
        lp_neighbors,
        telemetry: env.telctx.collect(tels, out.sched_log),
        recovery: None,
    };
    let partial = Box::new(report);
    if let Some(diag) = env.failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(SimError::WorkerPanic { diag, partial });
    }
    if stalled {
        let stuck: Vec<&LpState<N>> = out
            .lps
            .iter()
            .filter(|lp| lp.fel.next_ts() < out.stall_bound)
            .collect();
        let blocked: Vec<LpId> = stuck.iter().map(|lp| lp.id).collect();
        // Channel-clock kernels stall *at* an event nobody may process;
        // the round kernels report how far the windows got.
        let next = stuck.iter().map(|lp| lp.fel.next_ts()).min();
        let virtual_time = match (clocks, next) {
            (Some(_), Some(ts)) if ts != Time::MAX => ts,
            _ => end_time,
        };
        let diag = StallDiagnostics {
            kernel: env.kernel,
            round: out.stall_round,
            deadline: env.cfg.watchdog.round_deadline.unwrap_or_default(),
            virtual_time,
            cycle: clocks.map_or_else(Vec::new, |c| c.stall_cycle(&blocked)),
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

    /// Three nodes on a zero-delay ring, one LP each, each with an event at
    /// t=5 and a stop at t=1000 — prepared, not run.
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
    fn stall_diagnosis_names_the_blocked_lps_and_their_cycle() {
        let cfg = RunConfig::nullmsg(vec![0, 1, 2]);
        let Setup {
            env, shell, lps, ..
        } = ring(&cfg);
        let channels = shell.partition.lp_channels(&shell.graph);
        let clocks = ChannelClocks::new(&channels, 3);
        let chan = |s: usize, d: u32| {
            let found = clocks.outs[s].iter().find(|&&c| clocks.dst[c] == d);
            *found.expect("ring neighbors share a channel")
        };
        // With zero lookahead no promise can rise past 0 and nobody may
        // process t=5. Raise one in-channel of each LP so the binding one
        // is unambiguous: 0 waits on 2, 2 on 1, 1 on 0.
        for (s, d) in [(1, 0), (0, 2), (2, 1)] {
            assert!(clocks.promise(chan(s, d), Time(7)));
        }
        assert!((0..3).all(|lp| clocks.safe(lp) == Time::ZERO));
        stall(&env, || clocks.snapshot());
        // The drain releases the live clocks; the walk uses the snapshot.
        (0..3).for_each(|lp| clocks.release_outs(lp));

        let workers = (0..3).map(|id| Some(Worker::new(&env, id))).collect();
        let out = Outcome {
            stall_bound: shell.horizon(),
            ..Outcome::new(&env, Duration::ZERO, lps, workers)
        };
        match finish(env, shell, out, Some(&clocks)) {
            Err(SimError::Stalled { diag, .. }) => {
                assert_eq!(diag.blocked, [LpId(0), LpId(1), LpId(2)]);
                assert_eq!(diag.cycle, [LpId(0), LpId(2), LpId(1), LpId(0)]);
                assert_eq!(diag.virtual_time, Time(5));
            }
            other => panic!("expected Stalled, got {:?}", other.map(|(_, r)| r)),
        }
    }

    #[test]
    fn panic_outranks_stall_and_a_dead_worker_leaves_an_empty_record() {
        let cfg = RunConfig::unison(3).with_telemetry();
        let Setup {
            env, shell, lps, ..
        } = ring(&cfg);
        let site = Site::new(Some(LpId(1)));
        site.round.set(4);
        assert!(contained(&env, &site, 1, || panic!("boom")).is_none());
        stall(&env, || {});

        let workers = vec![Some(Worker::new(&env, 0)), None, Some(Worker::new(&env, 2))];
        let out = Outcome::new(&env, Duration::ZERO, lps, workers);
        match finish(env, shell, out, None) {
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
            let due = unsafe {
                public.run_due(Time::MAX, &slots, &mut shell, None, |now| seen.push(now))
            };
            assert_eq!((due.ran, due.stopped), (expect, false));
        }
        assert_eq!((seen, public.next_ts()), (vec![Time(7)], Time::MAX));
    }
}
