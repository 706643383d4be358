//! Run metrics: the P/S/M decomposition and per-round load profiles.
//!
//! Following §3.2 of the paper, the running time of an LP (or thread) is
//! decomposed into *processing* time `P` (executing events), *synchronization*
//! time `S` (waiting for other LPs/threads at window boundaries), and
//! *messaging* time `M` (receiving cross-LP events). Kernels record these
//! per thread at every [`MetricsLevel`]; the level selects what is kept
//! beside them.

use std::time::Duration;

use crate::telemetry::RunTelemetry;
use crate::time::Time;

/// How much a run records — the one recording switch of a
/// [`RunConfig`](crate::RunConfig) (DESIGN.md §4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MetricsLevel {
    /// Totals only: P/S/M per thread, event and round counts.
    #[default]
    Summary,
    /// Totals plus [`RunReport::rounds_profile`]: the dense per-round,
    /// per-LP cost/event matrix the virtual-core replay (`perfmodel`)
    /// consumes. It grows with rounds × LPs, unbounded. The Unison kernel
    /// only: the others have no round to profile and record totals only.
    PerRound,
    /// Totals plus [`RunReport::telemetry`]: the bounded span timeline,
    /// scheduler-decision log and traffic matrix the profiler reads
    /// (`unison-run --explain`, Chrome-trace export). Every kernel.
    Spans,
}

/// P/S/M accumulators for one thread (or one LP in LP-pinned kernels).
#[derive(Clone, Copy, Debug, Default)]
pub struct Psm {
    /// Nanoseconds spent processing events (phases 1–2).
    pub p_ns: u64,
    /// Nanoseconds spent waiting at synchronization points.
    pub s_ns: u64,
    /// Nanoseconds spent receiving events / updating the window (phases 3–4).
    pub m_ns: u64,
}

impl Psm {
    /// Total accounted time.
    pub fn total_ns(&self) -> u64 {
        self.p_ns + self.s_ns + self.m_ns
    }

    /// Fraction of total time spent synchronizing (0 when idle).
    pub fn s_ratio(&self) -> f64 {
        let t = self.total_ns();
        if t == 0 {
            0.0
        } else {
            self.s_ns as f64 / t as f64
        }
    }
}

impl std::iter::Sum for Psm {
    fn sum<I: Iterator<Item = Psm>>(iter: I) -> Psm {
        iter.fold(Psm::default(), |a, b| Psm {
            p_ns: a.p_ns + b.p_ns,
            s_ns: a.s_ns + b.s_ns,
            m_ns: a.m_ns + b.m_ns,
        })
    }
}

/// One round's load profile across LPs.
#[derive(Clone, Debug)]
pub struct RoundRecord {
    /// Window start (virtual time).
    pub window_start: Time,
    /// Window end (the LBTS of this round).
    pub window_end: Time,
    /// Whether the round was *fused*: executed end-to-end on the main
    /// thread with no barrier crossing (unison kernel round fusion,
    /// DESIGN.md §4.9). Always `false` for kernels without fusion.
    pub fused: bool,
    /// Measured (or modeled) processing cost per LP, nanoseconds.
    pub lp_cost_ns: Vec<f32>,
    /// Events processed per LP.
    pub lp_events: Vec<u32>,
    /// Events received from other LPs, per LP.
    pub lp_recv: Vec<u32>,
}

impl RoundRecord {
    /// Sum of per-LP costs (the sequential cost of this round).
    pub fn total_cost_ns(&self) -> f64 {
        self.lp_cost_ns.iter().map(|&c| c as f64).sum()
    }
}

/// Per-LP totals over a run.
#[derive(Clone, Debug, Default)]
pub struct LpTotals {
    /// Events processed per LP.
    pub events: Vec<u64>,
    /// Locality proxy: consecutive-event node switches per LP.
    pub node_switches: Vec<u64>,
}

/// Memory behaviour of a run's event engine (DESIGN.md §4.4): how much of
/// the cross-LP traffic was sent without allocating.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Cross-LP sends that did not allocate (Unison; 0 elsewhere):
    /// pushes served from an outbox's retained capacity.
    pub pool_hits: u64,
    /// Cross-LP sends that allocated (Unison; 0 elsewhere): pushes
    /// that had to grow the outbox's buffer — there is one outbox per
    /// (sending worker, receiving home), so the count depends on the thread
    /// count and on who stole what, while `pool_hits + pool_misses`, the
    /// number of cross-LP sends, does not.
    pub pool_misses: u64,
}

impl EngineStats {
    /// Fraction of cross-LP sends that did not allocate (0 when there was
    /// no cross-LP traffic). Steady-state parallel runs should sit well
    /// above 0.99 — `tests/kernels.rs` asserts it on a ring, and the
    /// repository benchmark reports it as `engine.pool_hit_rate`.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// Claim-loop activity of a run (DESIGN.md §4.5). Zero for kernels without
/// a claim loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Positions handed out by the claim cursors over the run (one per LP
    /// per round).
    pub claims: u64,
}

/// The result of one kernel run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Kernel that produced the run (for display).
    pub kernel: String,
    /// Real wall-clock duration of the run.
    pub wall: Duration,
    /// Total events executed (node events; global events counted separately).
    pub events: u64,
    /// Global events executed.
    pub global_events: u64,
    /// Synchronization rounds executed by the round-based kernels (1 for
    /// the sequential kernel; the null-message kernel reports its busiest
    /// LP's iteration count).
    pub rounds: u64,
    /// Rounds that *fused* — ran every phase on the main thread without a
    /// barrier crossing (unison round fusion, DESIGN.md §4.9). Always
    /// `<= rounds`; 0 for kernels without fusion or with fusion disabled.
    pub fused_rounds: u64,
    /// Number of LPs.
    pub lp_count: u32,
    /// Number of worker threads used.
    pub threads: u32,
    /// Partition lookahead.
    pub lookahead: Time,
    /// Virtual time reached when the run ended.
    pub end_time: Time,
    /// P/S/M per thread (index = thread id) — or per LP for LP-pinned
    /// kernels (barrier, null message), matching the paper's methodology.
    /// [`RunReport::psm_per_lp`] says which indexing applies.
    pub psm: Vec<Psm>,
    /// `true` when [`RunReport::psm`] is indexed by LP (the LP-pinned
    /// barrier and null-message kernels); `false` when it is indexed by
    /// worker thread (sequential, Unison).
    pub psm_per_lp: bool,
    /// Per-LP totals.
    pub lp_totals: LpTotals,
    /// Event-engine configuration and cross-LP allocation profile.
    pub engine: EngineStats,
    /// Claim-loop activity (DESIGN.md §4.5).
    pub sched: SchedStats,
    /// Per-round profile, at [`MetricsLevel::PerRound`].
    pub rounds_profile: Option<Vec<RoundRecord>>,
    /// LP adjacency of the partition the run used, over the links live
    /// when it ended: `lp_neighbors[i]` lists the LPs that share a link
    /// with LP `i`, ascending. Filled once per run; it is what
    /// [`PerfModel::nullmsg`](crate::PerfModel::nullmsg) replays the
    /// profile over, so nobody has to rebuild the kernel's partition.
    pub lp_neighbors: Vec<Vec<u32>>,
    /// Phase/LP span timelines, the scheduler-decision log and the traffic
    /// matrix, at [`MetricsLevel::Spans`]. `None` otherwise.
    pub telemetry: Option<RunTelemetry>,
}

impl RunReport {
    /// Events per wall-clock second (the headline throughput number).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.events as f64 / secs
        }
    }

    /// Aggregate P/S/M over all threads.
    pub fn psm_total(&self) -> Psm {
        self.psm.iter().copied().sum()
    }

    /// Total node switches (locality proxy) over all LPs.
    pub fn node_switches(&self) -> u64 {
        self.lp_totals.node_switches.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psm_ratios() {
        let psm = Psm {
            p_ns: 70,
            s_ns: 20,
            m_ns: 10,
        };
        assert_eq!(psm.total_ns(), 100);
        assert!((psm.s_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(Psm::default().s_ratio(), 0.0);
    }

    #[test]
    fn round_record_aggregates() {
        let r = RoundRecord {
            window_start: Time(0),
            window_end: Time(10),
            fused: false,
            lp_cost_ns: vec![1.0, 5.0, 2.0],
            lp_events: vec![1, 5, 2],
            lp_recv: vec![0, 0, 0],
        };
        assert_eq!(r.total_cost_ns(), 8.0);
    }

    #[test]
    fn report_totals() {
        let mut rep = RunReport::default();
        rep.psm.push(Psm {
            p_ns: 5,
            s_ns: 1,
            m_ns: 0,
        });
        rep.psm.push(Psm {
            p_ns: 3,
            s_ns: 2,
            m_ns: 1,
        });
        let total = rep.psm_total();
        assert_eq!(total.p_ns, 8);
        assert_eq!(total.s_ns, 3);
        assert_eq!(total.m_ns, 1);
    }
}
