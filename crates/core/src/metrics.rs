//! Run metrics: the P/S/M decomposition and per-round load profiles.
//!
//! Following §3.2 of the paper, the running time of an LP (or thread) is
//! decomposed into *processing* time `P` (executing events), *synchronization*
//! time `S` (waiting for other LPs/threads at window boundaries), and
//! *messaging* time `M` (receiving cross-LP events). Kernels record these
//! per thread; with [`MetricsLevel::PerRound`] they additionally record each
//! LP's processing cost per round, the input to the virtual-core performance
//! model (`perfmodel`).

use std::time::Duration;

use crate::fel::FelImpl;
use crate::telemetry::RunTelemetry;
use crate::time::Time;

/// How much instrumentation a run records.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MetricsLevel {
    /// No per-round data; only totals.
    #[default]
    Summary,
    /// Totals plus a per-round, per-LP cost/event profile (needed by the
    /// virtual-core replay and Figs. 5b, 9b, 13).
    PerRound,
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

    /// Maximum per-LP cost (the barrier-kernel critical path).
    pub fn max_cost_ns(&self) -> f64 {
        self.lp_cost_ns.iter().fold(0.0f64, |m, &c| m.max(c as f64))
    }

    /// Load imbalance of this round: max per-LP cost over mean per-LP cost
    /// (≥ 1). `1.0` means a perfectly balanced round; it is also returned
    /// for degenerate rounds (no LPs, or an all-idle round with zero total
    /// cost), which carry no imbalance information.
    pub fn imbalance(&self) -> f64 {
        let n = self.lp_cost_ns.len();
        let total = self.total_cost_ns();
        if n == 0 || total == 0.0 {
            return 1.0;
        }
        self.max_cost_ns() * n as f64 / total
    }

    /// Total idle time a one-thread-per-LP barrier synchronization would
    /// induce this round: `Σ_i (max_cost − cost_i)`, nanoseconds. This is
    /// the slack the Unison scheduler reclaims by packing LPs onto fewer
    /// threads (§3.2's S component, per round).
    pub fn barrier_slack_ns(&self) -> f64 {
        let n = self.lp_cost_ns.len() as f64;
        n * self.max_cost_ns() - self.total_cost_ns()
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

/// Event-engine configuration and memory behaviour of a run (DESIGN.md
/// §4.4): which FEL implementation executed it and how much of the
/// cross-LP traffic was sent without allocating.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// FEL implementation the run was configured with.
    pub fel_impl: FelImpl,
    /// Cross-LP sends that did not allocate. Unison/hybrid: pushes served
    /// from a channel's retained capacity; async_cons: pushes that reused
    /// a pooled mailbox node.
    pub pool_hits: u64,
    /// Cross-LP sends that allocated. Unison/hybrid: pushes that had to
    /// grow the channel's buffer; async_cons: pushes that allocated a
    /// fresh node.
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
    /// the sequential kernel). The asynchronous conservative kernel has no
    /// rounds and reports 0 here; its progress counters (grants, stalls,
    /// gates, per-worker stall wait) live in [`RunReport::async_stats`].
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
    /// [`RunReport::psm_is_per_lp`] says which indexing applies.
    pub psm: Vec<Psm>,
    /// `true` when [`RunReport::psm`] is indexed by LP (the LP-pinned
    /// barrier and null-message kernels); `false` when it is indexed by
    /// worker thread (sequential, Unison, hybrid).
    pub psm_per_lp: bool,
    /// Per-LP totals.
    pub lp_totals: LpTotals,
    /// Event-engine configuration and cross-LP allocation profile.
    pub engine: EngineStats,
    /// Claim-loop activity (DESIGN.md §4.5).
    pub sched: SchedStats,
    /// Per-round profile, when requested.
    pub rounds_profile: Option<Vec<RoundRecord>>,
    /// Phase/LP span timelines and the scheduler-decision log, when the run
    /// was configured with `TelemetryConfig::enabled` (and the `telemetry`
    /// cargo feature is on). `None` otherwise.
    pub telemetry: Option<RunTelemetry>,
    /// Rollback/retry history, when the run went through
    /// [`fault::run_resilient`](crate::fault::run_resilient). `None` for
    /// plain [`kernel::try_run`](crate::kernel::try_run) runs; `Some` with
    /// an empty record list for a resilient run that never had to recover.
    pub recovery: Option<crate::fault::RecoveryLog>,
    /// Progress counters of the asynchronous conservative kernel, which
    /// replaces `rounds` with grant/stall accounting. `None` for every
    /// other kernel.
    pub async_stats: Option<AsyncStats>,
}

/// Progress counters of the barrier-free asynchronous conservative kernel
/// (DESIGN.md §4.8). These replace the `rounds` notion: the kernel has no
/// global synchronization rounds, only channel-clock grants, stall waits
/// and gate rendezvous for global events.
#[derive(Clone, Debug, Default)]
pub struct AsyncStats {
    /// Time-advance grants published (out-channel promise rises — the lazy
    /// null messages actually sent).
    pub grants: u64,
    /// Times a worker found no runnable work and parked on its waker.
    pub stalls: u64,
    /// Quiesced virtual-time fronts reached (global-event windows run by
    /// the control thread).
    pub gates: u64,
    /// Wall nanoseconds each worker spent parked in stall waits (indexed
    /// by worker; gate-rendezvous waits are counted in `Psm::s_ns`, not
    /// here).
    pub stall_wait_ns: Vec<u64>,
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
        let mut total = Psm::default();
        for p in &self.psm {
            total.p_ns += p.p_ns;
            total.s_ns += p.s_ns;
            total.m_ns += p.m_ns;
        }
        total
    }

    /// Total node switches (locality proxy) over all LPs.
    pub fn node_switches(&self) -> u64 {
        self.lp_totals.node_switches.iter().sum()
    }

    /// Whether [`RunReport::psm`] entries are per-LP (barrier and
    /// null-message kernels pin one thread to each LP, so thread and LP
    /// coincide) rather than per worker thread (sequential, Unison,
    /// hybrid — a worker executes many LPs per round).
    pub fn psm_is_per_lp(&self) -> bool {
        self.psm_per_lp
    }

    /// Mean per-round load imbalance (max/mean LP cost, ≥ 1).
    ///
    /// With a per-round profile ([`MetricsLevel::PerRound`]), this is the
    /// mean of [`RoundRecord::imbalance`] over rounds that did work.
    /// Without one, it falls back to the whole-run event totals per LP — a
    /// coarser proxy (temporal imbalance within the run averages out).
    /// Returns `1.0` when there is no usable signal at all.
    pub fn imbalance(&self) -> f64 {
        if let Some(profile) = &self.rounds_profile {
            let mut sum = 0.0;
            let mut n = 0u64;
            for rec in profile {
                if rec.total_cost_ns() > 0.0 {
                    sum += rec.imbalance();
                    n += 1;
                }
            }
            if n > 0 {
                return sum / n as f64;
            }
        }
        let total: u64 = self.lp_totals.events.iter().sum();
        let max = self.lp_totals.events.iter().copied().max().unwrap_or(0);
        let n = self.lp_totals.events.len();
        if n == 0 || total == 0 {
            return 1.0;
        }
        max as f64 * n as f64 / total as f64
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
        assert_eq!(r.max_cost_ns(), 5.0);
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

    fn rec(costs: &[f32]) -> RoundRecord {
        RoundRecord {
            window_start: Time(0),
            window_end: Time(10),
            fused: false,
            lp_cost_ns: costs.to_vec(),
            lp_events: vec![0; costs.len()],
            lp_recv: vec![0; costs.len()],
        }
    }

    #[test]
    fn round_imbalance_is_max_over_mean() {
        // max 6, mean 3 → 2.0.
        assert_eq!(rec(&[6.0, 3.0, 0.0]).imbalance(), 2.0);
        // Perfectly balanced round.
        assert_eq!(rec(&[4.0, 4.0]).imbalance(), 1.0);
        // Degenerate rounds carry no signal.
        assert_eq!(rec(&[]).imbalance(), 1.0);
        assert_eq!(rec(&[0.0, 0.0]).imbalance(), 1.0);
    }

    #[test]
    fn barrier_slack_is_total_idle_under_lp_pinning() {
        // max 6: slack = (6-6) + (6-3) + (6-0) = 9.
        assert_eq!(rec(&[6.0, 3.0, 0.0]).barrier_slack_ns(), 9.0);
        // A balanced round has no slack.
        assert_eq!(rec(&[4.0, 4.0]).barrier_slack_ns(), 0.0);
        assert_eq!(rec(&[]).barrier_slack_ns(), 0.0);
    }

    #[test]
    fn report_imbalance_prefers_profile_and_falls_back_to_totals() {
        let mut rep = RunReport::default();
        // No signal at all.
        assert_eq!(rep.imbalance(), 1.0);
        // Totals fallback: events 9,3,0 → max 9, mean 4 → 2.25.
        rep.lp_totals.events = vec![9, 3, 0];
        assert!((rep.imbalance() - 2.25).abs() < 1e-12);
        // Profile takes precedence: rounds with imbalance 2.0 and 1.0
        // (all-idle rounds are skipped).
        rep.rounds_profile = Some(vec![rec(&[6.0, 3.0, 0.0]), rec(&[4.0, 4.0]), rec(&[0.0])]);
        assert!((rep.imbalance() - 1.5).abs() < 1e-12);
        // An all-idle profile falls back to totals.
        rep.rounds_profile = Some(vec![rec(&[0.0, 0.0])]);
        assert!((rep.imbalance() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn psm_per_lp_accessor_reflects_field() {
        let mut rep = RunReport::default();
        assert!(!rep.psm_is_per_lp());
        rep.psm_per_lp = true;
        assert!(rep.psm_is_per_lp());
    }
}
