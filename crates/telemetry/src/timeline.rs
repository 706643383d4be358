//! The merged analysis view over a run's telemetry.
//!
//! [`Timeline`] borrows the [`RunTelemetry`] a kernel attached to its
//! [`RunReport`] and answers what only spans can: what each LP actually
//! cost per round (and so each round's imbalance), how much makespan the
//! scheduler's stale estimates lost against perfect knowledge (the
//! *regret*), and who sent how much to whom. Where a thread's wall time
//! went is not re-derived here: that is [`RunReport::psm`], charged from
//! the same clock readings the spans were cut from.

use std::collections::BTreeMap;

use unison_core::telemetry::{RunTelemetry, SpanKind, NO_LP};
use unison_core::{scheduling_regret, RunReport};

/// Analysis view over one run's telemetry.
pub struct Timeline<'a> {
    tel: &'a RunTelemetry,
}

/// One round's load across LPs, from its `lp-task` spans (LPs without
/// one were idle: cost 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundLoad {
    /// Synchronization round (1-based).
    pub round: u64,
    /// Largest per-LP cost (the barrier-kernel critical path).
    pub max_ns: u64,
    /// Sum of per-LP costs (the sequential cost of this round).
    pub total_ns: u64,
}

impl RoundLoad {
    /// Max per-LP cost over mean per-LP cost across `lp_count` LPs (≥ 1;
    /// `1.0` is a perfectly balanced round).
    pub fn imbalance(&self, lp_count: u32) -> f64 {
        self.max_ns as f64 * f64::from(lp_count) / self.total_ns as f64
    }

    /// Total idle time a one-thread-per-LP barrier synchronization would
    /// induce this round: `Σ_i (max − cost_i)`, nanoseconds. This is the
    /// slack the Unison scheduler reclaims by packing LPs onto fewer
    /// threads (§3.2's S component, per round).
    pub fn barrier_slack_ns(&self, lp_count: u32) -> u64 {
        self.max_ns * u64::from(lp_count) - self.total_ns
    }
}

/// Scheduling regret of one round (see [`scheduling_regret`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundRegret {
    /// Synchronization round (1-based).
    pub round: u64,
    /// Makespan of the order the kernel used over the ideal makespan.
    pub regret: f64,
}

impl<'a> Timeline<'a> {
    /// Wraps a run's telemetry.
    pub fn new(tel: &'a RunTelemetry) -> Self {
        Timeline { tel }
    }

    /// The timeline of a report, when the run recorded telemetry.
    pub fn from_report(report: &'a RunReport) -> Option<Self> {
        report.telemetry.as_ref().map(Timeline::new)
    }

    /// The underlying telemetry.
    pub fn telemetry(&self) -> &'a RunTelemetry {
        self.tel
    }

    /// Measured per-LP cost by round, merged across workers:
    /// `round → (lp → cost_ns)`. LPs without a task span in a round did
    /// not run (their cost is 0, not unknown — idle LPs are skipped).
    pub fn lp_costs_by_round(&self) -> BTreeMap<u64, BTreeMap<u32, u64>> {
        let mut rounds: BTreeMap<u64, BTreeMap<u32, u64>> = BTreeMap::new();
        for w in &self.tel.workers {
            for s in &w.spans {
                if s.kind == SpanKind::LpTask && s.lp != NO_LP {
                    *rounds.entry(s.round).or_default().entry(s.lp).or_insert(0) += s.dur_ns;
                }
            }
        }
        rounds
    }

    /// Per-round load, for the rounds in which some LP did work.
    pub fn round_loads(&self) -> Vec<RoundLoad> {
        self.lp_costs_by_round()
            .into_iter()
            .map(|(round, costs)| RoundLoad {
                round,
                max_ns: costs.values().copied().max().unwrap_or(0),
                total_ns: costs.values().sum(),
            })
            .filter(|r| r.total_ns > 0)
            .collect()
    }

    /// Estimate-vs-actual scheduling regret per round, for rounds covered
    /// by a logged decision (the kernel's pre-decision static order is not
    /// in the log, so earlier rounds are skipped).
    ///
    /// A round replays the latest decision at or before it against the
    /// measured costs the way the kernel claims it — home first — on
    /// `threads` workers.
    pub fn regret_by_round(&self, threads: usize) -> Vec<RoundRegret> {
        let lp_ceiling = self
            .tel
            .sched
            .iter()
            .flat_map(|d| d.order.iter().copied())
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0);
        let mut out = Vec::new();
        for (round, costs) in self.lp_costs_by_round() {
            let Some(decision) = self.tel.sched.iter().rfind(|d| d.round <= round) else {
                continue;
            };
            let size = lp_ceiling.max(costs.keys().map(|&l| l as usize + 1).max().unwrap_or(0));
            let mut actual = vec![0.0f64; size];
            let mut total = 0.0;
            for &lp in &decision.order {
                let c = costs.get(&lp).copied().unwrap_or(0) as f64;
                actual[lp as usize] = c;
                total += c;
            }
            if total > 0.0 {
                out.push(RoundRegret {
                    round,
                    regret: scheduling_regret(&decision.order, &actual, threads.max(1)),
                });
            }
        }
        out
    }

    /// Merged mailbox traffic matrix `(src_lp, dst_lp, events)`, heaviest
    /// edges first (ties by `(src, dst)` for determinism).
    pub fn traffic_heaviest_first(&self) -> Vec<(u32, u32, u64)> {
        let mut t = self.tel.traffic();
        t.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_core::telemetry::{SchedDecision, Span, WorkerSpans};

    fn span(kind: SpanKind, round: u64, lp: u32, dur: u64) -> Span {
        Span {
            kind,
            round,
            lp,
            start_ns: 0,
            dur_ns: dur,
            arg: 0,
            arg2: 0,
        }
    }

    fn tel() -> RunTelemetry {
        RunTelemetry {
            workers: vec![WorkerSpans {
                worker: 1,
                spans: vec![
                    span(SpanKind::Process, 1, NO_LP, 80),
                    span(SpanKind::LpTask, 1, 0, 60),
                    span(SpanKind::LpTask, 1, 1, 20),
                    span(SpanKind::BarrierWait, 1, NO_LP, 20),
                    span(SpanKind::LpTask, 2, 0, 10),
                    span(SpanKind::LpTask, 2, 1, 70),
                ],
                truncated: 0,
                traffic: vec![(0, 1, 5), (1, 0, 9)],
            }],
            sched: vec![
                SchedDecision {
                    round: 1,
                    order: vec![0, 1],
                    estimates: vec![60, 20],
                },
                SchedDecision {
                    round: 3,
                    order: vec![1, 0],
                    estimates: vec![10, 70],
                },
            ],
            sched_truncated: 0,
        }
    }

    #[test]
    fn round_loads_give_imbalance_and_slack() {
        let t = tel();
        let loads = Timeline::new(&t).round_loads();
        // Round 1: costs 60, 20 (a third LP idle) → max 60, mean 80/3.
        assert_eq!(
            (loads[0].round, loads[0].max_ns, loads[0].total_ns),
            (1, 60, 80)
        );
        assert!((loads[0].imbalance(3) - 2.25).abs() < 1e-12);
        // Slack = (60-60) + (60-20) + (60-0).
        assert_eq!(loads[0].barrier_slack_ns(3), 100);
        // A balanced round has imbalance 1 and no slack.
        let even = RoundLoad {
            round: 9,
            max_ns: 4,
            total_ns: 8,
        };
        assert_eq!((even.imbalance(2), even.barrier_slack_ns(2)), (1.0, 0));
    }

    #[test]
    fn lp_costs_merge_by_round() {
        let t = tel();
        let costs = Timeline::new(&t).lp_costs_by_round();
        assert_eq!(costs[&1][&0], 60);
        assert_eq!(costs[&2][&1], 70);
    }

    #[test]
    fn regret_follows_the_logged_order() {
        let t = tel();
        let regrets = Timeline::new(&t).regret_by_round(2);
        assert_eq!(regrets.len(), 2);
        // Round 1: estimates match actual order (60 ≥ 20) → regret 1.
        assert_eq!(regrets[0].round, 1);
        assert!((regrets[0].regret - 1.0).abs() < 1e-12);
        // Round 2: costs inverted (10, 70); the stale order [0, 1] puts
        // them on separate workers anyway → still 1 with 2 threads.
        assert!((regrets[1].regret - 1.0).abs() < 1e-12);
        // With 1 thread everything serializes: regret stays 1 trivially.
        let serial = Timeline::new(&t).regret_by_round(1);
        assert!((serial[0].regret - 1.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_sorts_heaviest_first() {
        let t = tel();
        assert_eq!(
            Timeline::new(&t).traffic_heaviest_first(),
            vec![(1, 0, 9), (0, 1, 5)]
        );
    }
}
