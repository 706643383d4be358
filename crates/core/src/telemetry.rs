//! Run telemetry: per-worker phase timelines, per-LP task spans, and the
//! scheduler-decision log (DESIGN.md §4.3).
//!
//! The recording side lives in `unison-core` so the kernels can write spans
//! from their hot loops; merging, analysis, and Chrome-trace export live in
//! the `unison-telemetry` crate. The discipline mirrors `netsim::trace`:
//! **one writer per worker**, bounded buffers, no shared mutation. A worker
//! only ever touches its own [`WorkerTel`], which the kernel moves back to
//! the control thread after the final barrier; the scheduler-decision log is
//! written exclusively by the control thread inside its serial phase-4
//! window. Telemetry therefore introduces no new synchronization edges and
//! cannot perturb simulation results — the observer-effect test in
//! `crates/core/tests/telemetry_observer.rs` proves runs are bit-identical
//! with telemetry on and off.
//!
//! Cheap when disabled: below [`MetricsLevel::Spans`](crate::MetricsLevel)
//! the kernels install disabled sinks — every recording method checks one
//! `bool` and returns; no memory is written, and after the run's origin
//! the recorder reads no clock at any level. What recording costs when it
//! is on is the repository benchmark's `telemetry.recording_ratio_2t` row.
//!
//! One clock: a span is cut from the `Instant` pair the kernel already read
//! to charge the same stretch to its P/S/M accumulators — `start_ns` is the
//! first reading's distance from the run's origin (the construction of the
//! [`TelContext`]), `dur_ns` the charged nanoseconds. Spans are pushed at
//! close, so within a sink the end timestamps follow push order. Virtual
//! time never appears in a span's clock fields, only in its arguments.

use std::collections::BTreeMap;
use std::time::Instant;

/// Maximum spans retained per worker; later spans are counted in
/// [`WorkerSpans::truncated`] and dropped (bounded memory, the same policy
/// as `netsim::trace`).
pub const SPAN_CAPACITY: usize = 1 << 16;

/// Maximum scheduler decisions retained by the control thread.
pub const SCHED_CAPACITY: usize = 1 << 12;

/// `lp` value of a span that is not attributed to a single LP.
pub const NO_LP: u32 = u32::MAX;

/// What a [`Span`] measures. The `arg`/`arg2` fields are kind-specific.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// Phase 1 (claim + execute window events) as seen by one worker.
    /// `arg` = events executed by this worker.
    Process,
    /// Phase 2 (global events), control thread only. `arg` = global events
    /// executed this round.
    Global,
    /// Phase 3 (outbox drain) as seen by one worker. `arg` = events
    /// delivered by this worker.
    Receive,
    /// Phase 4 (window reduction + scheduling), control thread only.
    /// `arg` = this round's window end, `arg2` = the next window end
    /// (virtual-time nanoseconds).
    WindowUpdate,
    /// Time blocked in a phase barrier (or the null-message kernel's
    /// neighbor wait). `arg` = barrier index within the round.
    BarrierWait,
    /// Moving received events into FELs. Unison/hybrid: one span per
    /// worker and round, nested in its `Receive` span, for the drain of the
    /// worker's outbox column (no LP; absent when nothing arrived);
    /// barrier/null-message: one LP's mailbox drain. `arg` = events
    /// received.
    MailboxFlush,
    /// One LP's execution in phase 1. `arg` = events executed, `arg2` = the
    /// scheduler's cost estimate for this LP (0 when no estimate existed).
    LpTask,
    /// Null-message kernel: one LP's refresh of its out-channel promises
    /// (the null messages). Charged as messaging time; the kernel records
    /// no span for it.
    Grant,
    /// Unison kernel: a whole round that *fused* — every phase ran on the
    /// main thread with no barrier crossing (DESIGN.md §4.9). Control
    /// thread only; `arg` = the round's total load (events + cross-LP
    /// receives), `arg2` = cross-LP events drained (a non-zero value is
    /// what forces the next round back through the barrier path).
    FusedRound,
}

impl SpanKind {
    /// Every kind, for report iteration.
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Process,
        SpanKind::Global,
        SpanKind::Receive,
        SpanKind::WindowUpdate,
        SpanKind::BarrierWait,
        SpanKind::MailboxFlush,
        SpanKind::LpTask,
        SpanKind::Grant,
        SpanKind::FusedRound,
    ];

    /// Short display name (also the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Process => "process",
            SpanKind::Global => "global",
            SpanKind::Receive => "receive",
            SpanKind::WindowUpdate => "window-update",
            SpanKind::BarrierWait => "barrier-wait",
            SpanKind::MailboxFlush => "mailbox-flush",
            SpanKind::LpTask => "lp-task",
            SpanKind::Grant => "grant",
            SpanKind::FusedRound => "fused-round",
        }
    }
}

/// One recorded wall-clock span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was measured.
    pub kind: SpanKind,
    /// Synchronization round (1-based; 0 when the kernel has no rounds).
    pub round: u64,
    /// LP attribution, or [`NO_LP`] for whole-phase spans.
    pub lp: u32,
    /// Start, nanoseconds since the run origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Kind-specific argument (see [`SpanKind`]).
    pub arg: u64,
    /// Kind-specific argument (see [`SpanKind`]).
    pub arg2: u64,
}

/// All spans recorded by one worker, plus its cross-LP traffic counts.
#[derive(Clone, Debug, Default)]
pub struct WorkerSpans {
    /// Worker id (0 = the control thread).
    pub worker: u32,
    /// Recorded spans in recording order (monotone end, `start_ns + dur_ns`).
    pub spans: Vec<Span>,
    /// Spans dropped after [`SPAN_CAPACITY`] was reached.
    pub truncated: u64,
    /// Mailbox traffic observed by this worker while draining in phase 3:
    /// `(src_lp, dst_lp, events)`, sorted by `(src, dst)`.
    pub traffic: Vec<(u32, u32, u64)>,
}

/// One scheduler decision: the LJF order published for a group.
#[derive(Clone, Debug)]
pub struct SchedDecision {
    /// First round the order applies to.
    pub round: u64,
    /// Scheduling group (0 for plain Unison; host id for the hybrid kernel).
    pub group: u32,
    /// Name of the estimate heuristic ([`crate::SchedMetric::name`]).
    pub metric: &'static str,
    /// LP visit order, longest estimate first.
    pub order: Vec<u32>,
    /// Estimates aligned with `order` (`estimates[i]` is the estimate of LP
    /// `order[i]`, in the metric's unit: ns or pending events).
    pub estimates: Vec<u64>,
}

/// Everything a run recorded, attached to [`crate::RunReport::telemetry`].
#[derive(Clone, Debug, Default)]
pub struct RunTelemetry {
    /// Per-worker span buffers (index = worker id).
    pub workers: Vec<WorkerSpans>,
    /// Scheduler decisions in publication order.
    pub sched: Vec<SchedDecision>,
    /// Decisions dropped after [`SCHED_CAPACITY`] was reached.
    pub sched_truncated: u64,
}

impl RunTelemetry {
    /// Total spans across all workers.
    pub fn span_count(&self) -> usize {
        self.workers.iter().map(|w| w.spans.len()).sum()
    }

    /// Merged cross-worker traffic matrix entries, sorted by `(src, dst)`.
    pub fn traffic(&self) -> Vec<(u32, u32, u64)> {
        let mut merged: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for w in &self.workers {
            for &(s, d, n) in &w.traffic {
                *merged.entry((s, d)).or_insert(0) += n;
            }
        }
        merged.into_iter().map(|((s, d), n)| (s, d, n)).collect()
    }
}

/// Per-run recording context: the shared wall-clock origin plus the
/// switch. Created once at kernel start; hands one [`WorkerTel`] to each
/// worker and one [`SchedLog`] to the control thread.
pub struct TelContext {
    origin: Instant,
    enabled: bool,
    span_capacity: usize,
    sched_capacity: usize,
}

impl TelContext {
    /// Captures the run origin; sinks record iff `enabled`
    /// ([`MetricsLevel::Spans`](crate::MetricsLevel)).
    pub fn new(enabled: bool) -> Self {
        Self::with_capacities(enabled, SPAN_CAPACITY, SCHED_CAPACITY)
    }

    fn with_capacities(enabled: bool, span_capacity: usize, sched_capacity: usize) -> Self {
        TelContext {
            origin: Instant::now(),
            enabled,
            span_capacity,
            sched_capacity,
        }
    }

    /// Whether sinks created by this context record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A recording sink for `worker` (sole writer: that worker).
    pub fn worker(&self, worker: u32) -> WorkerTel {
        WorkerTel {
            worker,
            origin: self.origin,
            enabled: self.enabled,
            capacity: self.span_capacity,
            spans: Vec::new(),
            truncated: 0,
            traffic: BTreeMap::new(),
        }
    }

    /// The scheduler-decision sink (sole writer: the control thread).
    pub fn sched_log(&self) -> SchedLog {
        SchedLog {
            enabled: self.enabled,
            capacity: self.sched_capacity,
            decisions: Vec::new(),
            truncated: 0,
        }
    }

    /// Merges the per-worker sinks into the run's telemetry (`None`
    /// when recording was disabled).
    pub fn collect(self, workers: Vec<WorkerTel>, sched: SchedLog) -> Option<RunTelemetry> {
        if !self.enabled {
            return None;
        }
        Some(RunTelemetry {
            workers: workers.into_iter().map(WorkerTel::into_spans).collect(),
            sched: sched.decisions,
            sched_truncated: sched.truncated,
        })
    }
}

/// One worker's span sink. Exactly one thread writes to it (it is moved
/// into the worker and moved back out at join), so recording is
/// lock-free by construction.
pub struct WorkerTel {
    worker: u32,
    origin: Instant,
    enabled: bool,
    capacity: usize,
    spans: Vec<Span>,
    truncated: u64,
    traffic: BTreeMap<(u32, u32), u64>,
}

impl WorkerTel {
    /// Whether this sink records (callers skip clock reads and argument
    /// computation that only a span would use when it does not).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records the stretch the kernel measured from `t0` for `dur_ns`
    /// (capacity-bounded). The sink reads no clock of its own.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        kind: SpanKind,
        round: u64,
        lp: u32,
        t0: Instant,
        dur_ns: u64,
        arg: u64,
        arg2: u64,
    ) {
        if !self.enabled {
            return;
        }
        if self.spans.len() < self.capacity {
            self.spans.push(Span {
                kind,
                round,
                lp,
                start_ns: t0.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns,
                arg,
                arg2,
            });
        } else {
            self.truncated += 1;
        }
    }

    /// Counts `n` cross-LP events `src → dst` in the traffic matrix (an
    /// empty run leaves no entry).
    #[inline]
    pub fn edge(&mut self, src: u32, dst: u32, n: u64) {
        if !self.enabled || n == 0 {
            return;
        }
        *self.traffic.entry((src, dst)).or_insert(0) += n;
    }

    fn into_spans(self) -> WorkerSpans {
        WorkerSpans {
            worker: self.worker,
            spans: self.spans,
            truncated: self.truncated,
            traffic: self
                .traffic
                .into_iter()
                .map(|((s, d), n)| (s, d, n))
                .collect(),
        }
    }
}

/// The scheduler-decision sink (control thread only).
pub struct SchedLog {
    enabled: bool,
    capacity: usize,
    decisions: Vec<SchedDecision>,
    truncated: u64,
}

impl SchedLog {
    /// Whether this sink records.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends one group's decision (capacity-bounded).
    pub fn record(
        &mut self,
        round: u64,
        group: u32,
        metric: &'static str,
        order: Vec<u32>,
        estimates: Vec<u64>,
    ) {
        if !self.enabled {
            return;
        }
        if self.decisions.len() < self.capacity {
            self.decisions.push(SchedDecision {
                round,
                group,
                metric,
                order,
                estimates,
            });
        } else {
            self.truncated += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let ctx = TelContext::new(false);
        assert!(!ctx.is_enabled());
        let mut tel = ctx.worker(0);
        assert!(!tel.enabled());
        tel.record(SpanKind::LpTask, 1, 3, Instant::now(), 10, 5, 2);
        tel.edge(0, 1, 1);
        let mut log = ctx.sched_log();
        log.record(1, 0, "by-last-round-time", vec![0], vec![1]);
        assert!(ctx.collect(vec![tel], log).is_none());
    }

    #[test]
    fn enabled_sink_records_and_collects() {
        let ctx = TelContext::new(true);
        let mut tel = ctx.worker(2);
        let t0 = Instant::now();
        tel.record(SpanKind::Receive, 4, NO_LP, t0, 7, 7, 0);
        tel.record(SpanKind::LpTask, 4, 9, t0, 123, 7, 100);
        tel.edge(1, 9, 2);
        tel.edge(0, 9, 1);
        let mut log = ctx.sched_log();
        log.record(5, 0, "by-pending-events", vec![1, 0], vec![9, 3]);
        let origin = ctx.origin;
        let t = ctx.collect(vec![tel], log).expect("enabled run collects");
        assert_eq!(t.workers.len(), 1);
        assert_eq!(t.workers[0].worker, 2);
        assert_eq!(t.span_count(), 2);
        // One clock: the start is the kernel's own reading, re-based.
        let start = t0.duration_since(origin).as_nanos() as u64;
        assert_eq!(t.workers[0].spans[0].start_ns, start);
        assert_eq!(t.workers[0].spans[1].dur_ns, 123);
        assert_eq!(t.workers[0].spans[1].arg2, 100);
        assert_eq!(t.workers[0].traffic, vec![(0, 9, 1), (1, 9, 2)]);
        assert_eq!(t.traffic(), vec![(0, 9, 1), (1, 9, 2)]);
        assert_eq!(t.sched.len(), 1);
        assert_eq!(t.sched[0].order, vec![1, 0]);
        assert_eq!(t.sched_truncated, 0);
    }

    #[test]
    fn span_capacity_truncates_and_counts() {
        let ctx = TelContext::with_capacities(true, 2, 1);
        let mut tel = ctx.worker(0);
        for r in 0..5 {
            tel.record(SpanKind::Process, r, NO_LP, Instant::now(), 1, 0, 0);
        }
        let mut log = ctx.sched_log();
        log.record(1, 0, "none", vec![], vec![]);
        log.record(2, 0, "none", vec![], vec![]);
        let t = ctx.collect(vec![tel], log).expect("enabled");
        assert_eq!(t.workers[0].spans.len(), 2);
        assert_eq!(t.workers[0].truncated, 3);
        assert_eq!(t.sched.len(), 1);
        assert_eq!(t.sched_truncated, 1);
    }

    #[test]
    fn kind_names_are_stable() {
        for k in SpanKind::ALL {
            assert!(!k.name().is_empty());
            assert!(!k.name().contains(' '));
        }
    }
}
