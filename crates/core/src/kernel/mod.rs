//! Simulation kernels.
//!
//! Two interchangeable kernels execute a [`World`]:
//!
//! - `sequential`: classic single-threaded DES (the ns-3 default kernel in
//!   the paper's comparisons), and the bit-exact reference of the other;
//! - `unison`: the paper's kernel — automatic fine-grained partition,
//!   load-adaptive LP scheduling on a thread pool, lock-free four-phase
//!   rounds, deterministic tie-breaking, and public-LP global events.
//!
//! The paper's PDES baselines (ns-3's barrier and null-message simulators)
//! are not kernels here: their numbers come from the virtual-core model,
//! [`PerfModel::barrier`](crate::PerfModel::barrier) and
//! [`PerfModel::nullmsg`](crate::PerfModel::nullmsg), replayed over a
//! Unison profile of the baseline partition (DESIGN.md §1).
//!
//! The model code is identical for both kernels (*user transparency*): pick
//! a kernel by configuration only.
//!
//! Each kernel file holds its synchronization protocol — how the safe bound
//! is computed, how LPs map to threads — and its [`SimCtx`]. Everything else
//! exists once, in the crate-private `harness`: the preamble (checks,
//! partition, LP build), the public LP and global-event execution, panic
//! containment and the watchdog hookup, and the epilogue (run report, error
//! precedence, world reassembly).

mod harness;
mod sequential;
mod unison;
pub(crate) mod watchdog;

use std::time::Duration;

use crate::error::SimError;
use crate::event::{Event, EventKey, LpId, NodeId, MAX_LPS};
use crate::fel::{Fel, FelImpl};
use crate::global::GlobalFn;
use crate::graph::LinkGraph;
use crate::lp::{LpSlots, LpState, PendingGlobal};
use crate::metrics::{MetricsLevel, RunReport};
use crate::partition::{
    check_manual_assignment, fine_grained_partition, manual_partition, partition_below_bound,
    single_lp_partition, Partition,
};
use crate::time::Time;
use crate::world::{NodeDirectory, SimCtx, SimNode, World};

/// Largest worker-thread count a run accepts. A configured count is
/// outside input, and the Unison kernel sizes a W × W outbox table by it;
/// no machine this runs on has more cores.
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
    /// The Unison kernel with a worker pool of `threads`.
    Unison {
        /// Worker thread count (≥ 1). LPs are scheduled onto these threads
        /// adaptively each round.
        threads: usize,
    },
}

impl KernelKind {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Sequential { compat_keys: false } => "sequential",
            KernelKind::Sequential { compat_keys: true } => "sequential(compat)",
            KernelKind::Unison { .. } => "unison",
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
    /// Explicit node → LP assignment (the baselines' manual schemes, run on
    /// Unison to profile the partition the model replays).
    Manual(Vec<u32>),
    /// Everything in one LP.
    SingleLp,
}

/// Full run configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Kernel selection.
    pub kernel: KernelKind,
    /// Partitioning scheme.
    pub partition: PartitionMode,
    /// Round fusion (the Unison kernel; default on): a round after one of
    /// at most [`FUSION_THRESHOLD`](crate::sched::FUSION_THRESHOLD) events
    /// runs on the control thread with no barrier crossing (DESIGN.md
    /// §4.9). Results are bit-identical with fusion on or off — only
    /// barrier-crossing counts and wall-clock change.
    pub fusion: bool,
    /// What the run records beside its totals: nothing, the per-round
    /// profile, or the span timeline (DESIGN.md §4.3).
    pub metrics: MetricsLevel,
    /// Round-progress watchdog: the wall-clock time a synchronization round
    /// may take before the Unison kernel aborts the run as stalled, with
    /// [`SimError::Stalled`] and a diagnosis instead of a hang (DESIGN.md
    /// §4.2). `None`, the default, disables it: a deadline turns
    /// wall-clock pauses (a suspended laptop) into run failures. The
    /// sequential kernel ignores it.
    pub watchdog: Option<Duration>,
    /// FEL implementation (default: the ladder queue). Pop order — and
    /// therefore every digest — is identical for all implementations; the
    /// field is the axis on which `phold_sparse` and `sched_matrix` hold
    /// the ladder to the binary-heap *reference*
    /// (DESIGN.md §4.4), not a user-facing choice.
    pub fel: FelImpl,
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
            fusion: true,
            metrics: MetricsLevel::Summary,
            watchdog: None,
            fel: FelImpl::default(),
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

    /// Records the per-round profile ([`MetricsLevel::PerRound`], input to
    /// the virtual-core model).
    pub fn with_per_round_metrics(mut self) -> Self {
        self.metrics = MetricsLevel::PerRound;
        self
    }

    /// Disables round fusion (every round crosses the phase barriers).
    pub fn without_fusion(mut self) -> Self {
        self.fusion = false;
        self
    }

    /// Enables the round-progress watchdog with the given per-round
    /// wall-clock deadline.
    pub fn with_watchdog(mut self, round_deadline: Duration) -> Self {
        self.watchdog = Some(round_deadline);
        self
    }

    /// Records the span timeline and traffic matrix
    /// ([`MetricsLevel::Spans`]; provably non-perturbing, see DESIGN.md
    /// §4.3).
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
}

/// Errors surfaced before a run starts.
#[derive(Debug, PartialEq, Eq)]
pub enum KernelError {
    /// A partition parameter is inconsistent with the world.
    InvalidPartition(String),
    /// A kernel parameter is out of range.
    InvalidConfig(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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
        KernelKind::Unison { threads } => unison::run(world, cfg, *threads),
    }
}

/// Builds the partition `mode` selects for a world's link graph — the one a
/// run under that mode executes on.
pub fn build_partition(graph: &LinkGraph, mode: &PartitionMode) -> Result<Partition, KernelError> {
    let p = match mode {
        PartitionMode::Auto => fine_grained_partition(graph),
        PartitionMode::Bound(bound) => partition_below_bound(graph, *bound),
        PartitionMode::SingleLp => single_lp_partition(graph),
        PartitionMode::Manual(assign) => {
            check_manual_assignment(graph, assign).map_err(KernelError::InvalidPartition)?;
            manual_partition(graph, assign)
        }
    };
    check_lp_count(p.lp_count as usize)?;
    Ok(p)
}

/// An event key names its sender LP in 24 bits (DESIGN.md §4.4), so a
/// partition into more LPs than [`EventKey`] can name is refused before
/// the run rather than wrapping inside it.
fn check_lp_count(lps: usize) -> Result<(), KernelError> {
    if lps > MAX_LPS {
        return Err(KernelError::InvalidPartition(format!(
            "{lps} LPs; event keys name at most {MAX_LPS}"
        )));
    }
    Ok(())
}

/// Everything a kernel needs from a dismantled world: per-LP states, the
/// node directory, the link graph, pending global events and the stop
/// time.
pub(crate) type BuiltLps<N> = (
    Vec<LpState<N>>,
    NodeDirectory,
    crate::graph::LinkGraph,
    Vec<(Time, GlobalFn<N>)>,
    Option<Time>,
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
    for lp in &mut lps {
        lp.refresh_next_ts();
    }
    let globals = init_globals.into_iter().map(|g| (g.ts, g.f)).collect();
    (lps, directory, graph, globals, stop_at)
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
    }
}

/// The [`SimCtx`] implementation used by the Unison kernel. Borrows disjoint fields of the current [`LpState`] so the
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
        let key = EventKey::new(ts, self.now, self.lp_id, *self.seq);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lp_bound_is_enforced_at_the_boundary() {
        assert_eq!(check_lp_count(MAX_LPS), Ok(()));
        assert_eq!(
            check_lp_count(MAX_LPS + 1),
            Err(KernelError::InvalidPartition(
                "16777216 LPs; event keys name at most 16777215".into()
            ))
        );
    }
}
