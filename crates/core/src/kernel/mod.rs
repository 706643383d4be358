//! Simulation kernels.
//!
//! Five interchangeable kernels execute a [`World`]:
//!
//! - [`sequential`]: classic single-threaded DES (the ns-3 default kernel in
//!   the paper's comparisons);
//! - [`barrier`]: conservative PDES with a static partition, one thread per
//!   LP, and global barrier synchronization per window (ns-3's distributed
//!   simulator);
//! - [`nullmsg`]: conservative PDES with Chandy–Misra–Bryant null messages
//!   between neighbor LPs;
//! - [`unison`]: the paper's kernel — automatic fine-grained partition,
//!   load-adaptive LP scheduling on a thread pool, lock-free four-phase
//!   rounds, deterministic tie-breaking, and public-LP global events;
//! - [`hybrid`]: Unison inside each simulated cluster host, one global
//!   window across hosts (§5.2).
//!
//! The model code is identical for all kernels (*user transparency*): pick a
//! kernel by configuration only.
//!
//! Each kernel file holds its synchronization protocol — how the safe bound
//! is computed, how LPs map to threads — and its [`SimCtx`]. Everything else
//! exists once, in the crate-private `harness`: the preamble (checks,
//! partition, LP build), the public LP and global-event execution, the
//! channel-clock table, panic containment and the watchdog hookup, and the
//! epilogue (run report, error precedence, world reassembly).

pub mod barrier;
mod harness;
pub mod hybrid;
pub mod nullmsg;
pub mod sequential;
pub mod unison;
pub(crate) mod watchdog;

use crate::error::SimError;

use crate::event::{Event, EventKey, LpId, NodeId};
use crate::fault::FaultPlan;
use crate::fel::{Fel, FelImpl};
use crate::global::GlobalFn;
use crate::lp::{LpSlots, LpState, PendingGlobal};
use crate::metrics::{MetricsLevel, RunReport};
use crate::partition::{
    check_manual_assignment, fine_grained_partition, manual_partition, partition_below_bound,
    single_lp_partition, Partition,
};
use crate::sched::SchedConfig;
use crate::time::Time;
use crate::world::{NodeDirectory, SimCtx, SimNode, World};

/// Largest worker-thread count a run accepts (hybrid: hosts × threads per
/// host). A configured count is outside input, and the round kernels size a
/// W × W outbox table by it; no machine this runs on has more cores.
pub const MAX_WORKERS: usize = 1024;

/// Which kernel executes the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Single-threaded DES. `compat_keys = false` reproduces ns-3's
    /// insertion-order tie-breaking; `true` uses Unison's deterministic
    /// tie-break keys, making results bit-identical to the Unison kernel.
    Sequential {
        /// Use Unison-compatible tie-break keys.
        compat_keys: bool,
    },
    /// Barrier-synchronized PDES, one thread pinned per LP.
    Barrier,
    /// Null-message (CMB) PDES, one thread pinned per LP.
    NullMessage,
    /// The Unison kernel with a worker pool of `threads`.
    Unison {
        /// Worker thread count (≥ 1). LPs are scheduled onto these threads
        /// adaptively each round.
        threads: usize,
    },
    /// The hybrid distributed kernel (§5.2): the topology is first divided
    /// into `hosts` coarse partitions synchronized with the barrier
    /// algorithm; inside each host a Unison instance runs `threads_per_host`
    /// workers over a fine-grained sub-partition.
    Hybrid {
        /// Number of simulated cluster hosts.
        hosts: usize,
        /// Unison worker threads per host.
        threads_per_host: usize,
    },
}

impl KernelKind {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Sequential { compat_keys: false } => "sequential",
            KernelKind::Sequential { compat_keys: true } => "sequential(compat)",
            KernelKind::Barrier => "barrier",
            KernelKind::NullMessage => "nullmsg",
            KernelKind::Unison { .. } => "unison",
            KernelKind::Hybrid { .. } => "hybrid",
        }
    }
}

/// How the topology is split into LPs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionMode {
    /// The paper's Algorithm 1 (median-delay fine-grained partition).
    Auto,
    /// Flood across links with delay strictly below the bound (granularity
    /// sweeps, Fig. 12a).
    Bound(Time),
    /// Explicit node → LP assignment (the baselines' manual schemes).
    Manual(Vec<u32>),
    /// Everything in one LP.
    SingleLp,
}

/// Round-progress watchdog configuration.
///
/// When `round_deadline` is set, the parallel kernels spawn a monitor
/// thread that aborts the run (via barrier poisoning / waker bumping) when
/// no synchronization round completes — and no null-message progress is
/// made — within the deadline, returning [`SimError::Stalled`] with a
/// diagnosis instead of hanging. Disabled by default: a deadline turns
/// wall-clock pauses (e.g. a suspended laptop) into run failures, so it is
/// opt-in. The sequential kernel ignores the watchdog (a single thread
/// cannot be preempted between events; see DESIGN.md §4.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Maximum wall-clock time a synchronization round may take before the
    /// run is aborted as stalled. `None` disables the watchdog.
    pub round_deadline: Option<std::time::Duration>,
}

impl WatchdogConfig {
    /// A watchdog with the given per-round deadline.
    pub fn deadline(d: std::time::Duration) -> Self {
        WatchdogConfig {
            round_deadline: Some(d),
        }
    }
}

/// Full run configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Kernel selection.
    pub kernel: KernelKind,
    /// Partitioning scheme.
    pub partition: PartitionMode,
    /// Scheduling heuristics: LJF metric and period, round fusion (Unison
    /// and hybrid kernels; the others have no scheduler).
    pub sched: SchedConfig,
    /// What the run records beside its totals: nothing, the per-round
    /// profile, or the span timeline (DESIGN.md §4.3).
    pub metrics: MetricsLevel,
    /// Round-progress watchdog (disabled by default).
    pub watchdog: WatchdogConfig,
    /// FEL implementation (default: the ladder queue). Pop order — and
    /// therefore every digest — is identical for all implementations; the
    /// field is the axis on which `phold_sparse`, `sched_matrix` and
    /// `checkpoint_restore` hold the ladder to the binary-heap *reference*
    /// (DESIGN.md §4.4), not a user-facing choice.
    pub fel: FelImpl,
    /// Deterministic fault-injection plan (default: empty). Inert unless
    /// the `fault-inject` cargo feature compiled the kernel hooks in; see
    /// DESIGN.md §4.7.
    pub fault: FaultPlan,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::sequential()
    }
}

impl RunConfig {
    /// The shared defaults every constructor starts from.
    fn base(kernel: KernelKind, partition: PartitionMode) -> Self {
        RunConfig {
            kernel,
            partition,
            sched: SchedConfig::default(),
            metrics: MetricsLevel::Summary,
            watchdog: WatchdogConfig::default(),
            fel: FelImpl::default(),
            fault: FaultPlan::default(),
        }
    }

    /// A sequential run with ns-3-style insertion-order tie-breaking.
    pub fn sequential() -> Self {
        RunConfig::base(
            KernelKind::Sequential { compat_keys: false },
            PartitionMode::SingleLp,
        )
    }

    /// A Unison run with `threads` workers and automatic partitioning.
    pub fn unison(threads: usize) -> Self {
        RunConfig::base(KernelKind::Unison { threads }, PartitionMode::Auto)
    }

    // Benchmark compatibility: `benchmark/src/child.rs:293` and
    // `phold.rs:267` (frozen; a PR may not edit `benchmark/`) still ask for
    // the asynchronous conservative kernel, which was deleted after losing
    // its trial (DESIGN.md §7). The name exists only to keep those call
    // sites compiling; the next benchmark PR deletes it.
    /// [`RunConfig::unison`] under the deleted kernel's name.
    pub fn async_cons(threads: usize) -> Self {
        RunConfig::unison(threads)
    }

    /// A barrier-PDES run over a manual partition.
    pub fn barrier(assignment: Vec<u32>) -> Self {
        RunConfig::base(KernelKind::Barrier, PartitionMode::Manual(assignment))
    }

    /// A null-message-PDES run over a manual partition.
    pub fn nullmsg(assignment: Vec<u32>) -> Self {
        RunConfig::base(KernelKind::NullMessage, PartitionMode::Manual(assignment))
    }

    /// Records the per-round profile ([`MetricsLevel::PerRound`], input to
    /// the virtual-core model).
    pub fn with_per_round_metrics(mut self) -> Self {
        self.metrics = MetricsLevel::PerRound;
        self
    }

    /// Overrides the scheduling configuration.
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Overrides the round-fusion configuration (Unison/hybrid kernels;
    /// DESIGN.md §4.9). Results are bit-identical with fusion on or off —
    /// only barrier-crossing counts and wall-clock change.
    pub fn with_fusion(mut self, fusion: crate::sched::FusionConfig) -> Self {
        self.sched.fusion = fusion;
        self
    }

    /// Disables round fusion (every round crosses the phase barriers).
    pub fn without_fusion(mut self) -> Self {
        self.sched.fusion = crate::sched::FusionConfig::off();
        self
    }

    /// Enables the round-progress watchdog with the given per-round
    /// wall-clock deadline.
    pub fn with_watchdog(mut self, round_deadline: std::time::Duration) -> Self {
        self.watchdog = WatchdogConfig::deadline(round_deadline);
        self
    }

    /// Records the span timeline, scheduler-decision log and traffic
    /// matrix ([`MetricsLevel::Spans`]; provably non-perturbing, see
    /// DESIGN.md §4.3).
    pub fn with_telemetry(mut self) -> Self {
        self.metrics = MetricsLevel::Spans;
        self
    }

    /// Selects the FEL implementation — how tests run the binary-heap
    /// reference against the ladder; results are bit-identical either way.
    pub fn with_fel(mut self, fel: FelImpl) -> Self {
        self.fel = fel;
        self
    }

    /// Attaches a deterministic fault-injection plan (DESIGN.md §4.7).
    /// Without the `fault-inject` cargo feature the plan is carried but
    /// never consulted — the kernel hooks are compiled out.
    pub fn with_faults(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

/// Errors surfaced before a run starts.
#[derive(Debug, PartialEq, Eq)]
pub enum KernelError {
    /// The chosen baseline kernel cannot execute global events (topology
    /// changes etc.); only Unison and the sequential kernel support them.
    GlobalEventsUnsupported(&'static str),
    /// A partition parameter is inconsistent with the world.
    InvalidPartition(String),
    /// A kernel parameter is out of range.
    InvalidConfig(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::GlobalEventsUnsupported(k) => {
                write!(f, "kernel `{k}` does not support global events; use Unison")
            }
            KernelError::InvalidPartition(m) => write!(f, "invalid partition: {m}"),
            KernelError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Runs `world` under `cfg`, returning the final world (with all node state,
/// e.g. statistics) and a [`RunReport`].
///
/// This is the legacy infallible entry point: configuration errors are
/// reported as [`KernelError`], but a contained worker panic or a watchdog
/// abort (see [`try_run`]) re-panics on the calling thread, carrying the
/// full diagnostic string. Use [`try_run`] to receive those as values.
pub fn run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
) -> Result<(World<N>, RunReport), KernelError> {
    match try_run(world, cfg) {
        Ok(out) => Ok(out),
        Err(SimError::Config(e)) => Err(e),
        Err(e) => panic!("{e}"),
    }
}

/// Runs `world` under `cfg`, returning every failure — including contained
/// worker panics and watchdog aborts — as a structured [`SimError`].
///
/// On [`SimError::WorkerPanic`] and [`SimError::Stalled`] the surviving
/// workers have been drained via barrier poisoning and joined; the error
/// carries the diagnostics plus the partial [`RunReport`] accumulated up to
/// the abort. The world is consumed (its node state may be mid-event and is
/// not returned).
pub fn try_run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
) -> Result<(World<N>, RunReport), SimError> {
    match &cfg.kernel {
        KernelKind::Sequential { compat_keys } => sequential::run(world, cfg, *compat_keys),
        KernelKind::Barrier => barrier::run(world, cfg),
        KernelKind::NullMessage => nullmsg::run(world, cfg),
        KernelKind::Unison { threads } => unison::run(world, cfg, *threads),
        KernelKind::Hybrid {
            hosts,
            threads_per_host,
        } => hybrid::run(world, cfg, *hosts, *threads_per_host),
    }
}

/// Builds the configured partition for a world.
pub(crate) fn build_partition<N: SimNode>(
    world: &World<N>,
    mode: &PartitionMode,
) -> Result<Partition, KernelError> {
    let graph = &world.graph;
    let p = match mode {
        PartitionMode::Auto => fine_grained_partition(graph),
        PartitionMode::Bound(bound) => partition_below_bound(graph, *bound),
        PartitionMode::SingleLp => single_lp_partition(graph),
        PartitionMode::Manual(assign) => {
            check_manual_assignment(graph, assign).map_err(KernelError::InvalidPartition)?;
            manual_partition(graph, assign)
        }
    };
    Ok(p)
}

/// Everything a kernel needs from a dismantled world: per-LP states, the
/// node directory, the link graph, pending global events, the stop time,
/// and the starting external sequence number (non-zero after a restore).
pub(crate) type BuiltLps<N> = (
    Vec<LpState<N>>,
    NodeDirectory,
    crate::graph::LinkGraph,
    Vec<(Time, GlobalFn<N>)>,
    Option<Time>,
    u64,
);

/// Distributes a world's nodes and initial events into per-LP states.
pub(crate) fn build_lps<N: SimNode>(
    world: World<N>,
    partition: &Partition,
    fel_impl: FelImpl,
) -> BuiltLps<N> {
    let World {
        nodes,
        graph,
        init_events,
        init_globals,
        stop_at,
        restored_lp_seqs,
        restored_ext_seq,
    } = world;
    let directory = NodeDirectory::from_lp_nodes(nodes.len(), &partition.lp_nodes);
    let mut lps: Vec<LpState<N>> = (0..partition.lp_count)
        .map(|i| LpState::with_fel(LpId(i), fel_impl))
        .collect();
    // Nodes move into their LPs in ascending node order (matching
    // `Partition::lp_nodes` and the directory's local indices).
    for (i, node) in nodes.into_iter().enumerate() {
        let (lp, local) = directory.locate(NodeId(i as u32));
        debug_assert_eq!(lps[lp.index()].nodes.len(), local as usize);
        lps[lp.index()].nodes.push(node);
    }
    for ev in init_events {
        let (lp, _) = directory.locate(ev.node);
        lps[lp.index()].fel.push(ev);
    }
    // Checkpoint restore: sequence counters continue where the saved run
    // stopped, so post-resume events get the same tie-break keys the
    // uninterrupted run would have assigned. The caller is responsible for
    // resuming under the saved partition (LP counts must line up).
    if let Some(seqs) = restored_lp_seqs {
        assert_eq!(
            seqs.len(),
            lps.len(),
            "restored world must run under its original partition \
             (checkpoint had {} LPs, this partition has {})",
            seqs.len(),
            lps.len()
        );
        for (lp, seq) in lps.iter_mut().zip(seqs) {
            lp.seq = seq;
        }
    }
    for lp in &mut lps {
        lp.refresh_next_ts();
    }
    let globals = init_globals.into_iter().map(|g| (g.ts, g.f)).collect();
    (lps, directory, graph, globals, stop_at, restored_ext_seq)
}

/// Reassembles a [`World`] from finished LP states (nodes return to their
/// original ascending-id order; event lists are dropped).
pub(crate) fn reassemble_world<N: SimNode>(
    lps: Vec<LpState<N>>,
    partition: &Partition,
    graph: crate::graph::LinkGraph,
    stop_at: Option<Time>,
) -> World<N> {
    let node_count: usize = partition.lp_nodes.iter().map(|v| v.len()).sum();
    let mut slots: Vec<Option<N>> = (0..node_count).map(|_| None).collect();
    for (lp_idx, lp) in lps.into_iter().enumerate() {
        for (local, node) in lp.nodes.into_iter().enumerate() {
            let id = partition.lp_nodes[lp_idx][local];
            slots[id.index()] = Some(node);
        }
    }
    World {
        nodes: slots
            .into_iter()
            // INVARIANT: `partition.lp_nodes` covers every node id exactly
            // once (checked when the partition is built), so the loop above
            // filled each slot.
            .map(|n| n.expect("every node slot filled"))
            .collect(),
        graph,
        init_events: Vec::new(),
        init_globals: Vec::new(),
        stop_at,
        restored_lp_seqs: None,
        restored_ext_seq: 0,
    }
}

/// The [`SimCtx`] implementation used by the round-based kernels (Unison,
/// hybrid). Borrows disjoint fields of the current [`LpState`] so the
/// executing node and the scheduler can coexist.
///
/// Built only by the process phase, by worker `worker` for the LP `lp_id`
/// whose claim it holds — which is what lets `schedule` append to that
/// worker's row of outboxes.
pub(crate) struct RoundCtx<'a, N: SimNode> {
    pub now: Time,
    pub self_node: NodeId,
    pub lp_id: LpId,
    /// The executing worker: the outbox row cross-LP events are written to.
    pub worker: usize,
    pub window_end: Time,
    pub fel: &'a mut Fel<N::Payload>,
    pub seq: &'a mut u64,
    pub pending_globals: &'a mut Vec<PendingGlobal<N>>,
    pub slots: &'a LpSlots<N>,
}

impl<N: SimNode> SimCtx<N> for RoundCtx<'_, N> {
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
        let dst = self.slots.directory().lp_of(target);
        if dst == self.lp_id {
            self.fel.push(ev);
            return;
        }
        // Causality: a cross-LP event may not land inside the current
        // window — guaranteed when the model routes packets across cut
        // links with at least the link's propagation delay (≥ lookahead).
        debug_assert!(
            ts >= self.window_end,
            "cross-LP event at {ts:?} lands inside the current window \
             (ends {:?}); the scheduling delay must be >= the lookahead",
            self.window_end
        );
        // SAFETY: this context exists only on worker `worker`, under its
        // process-phase claim on `lp_id` (see the type's docs); `dst` owns
        // `target`, and the row is drained only after the next barrier.
        unsafe { self.slots.send(self.lp_id, self.worker, dst, ev) };
    }

    fn schedule_global(&mut self, delay: Time, f: GlobalFn<N>) {
        // Global events run on the public LP no earlier than the end of the
        // current window; the kernel clamps the timestamp accordingly (the
        // paper's model only creates globals before the run or from other
        // globals, where no clamping ever applies).
        let ts = self.now.saturating_add(delay);
        self.pending_globals.push(PendingGlobal {
            ts,
            sender_ts: self.now,
            f,
        });
    }
}
