//! The textual run report (what `unison-run --explain` prints).
//!
//! Every printed quantity has one source (DESIGN.md §4.3): where each
//! thread's wall time went is the [`RunReport`]'s own P/S/M, the header is
//! its counters, and only what the report does not hold — per-round LP
//! costs and the traffic matrix — comes from the spans. Everything printed
//! is measured; what-ifs are the performance model's.

use std::collections::BTreeMap;
use std::io::{self, Write};

use unison_core::sched::home_range;
use unison_core::telemetry::{RunTelemetry, SpanKind};
use unison_core::{Psm, RunReport};

fn ms(ns: f64) -> String {
    format!("{:.3} ms", ns / 1e6)
}

/// Writes the full profile report for one run.
pub fn write_report(report: &RunReport, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "== run report: {} ==", report.kernel)?;
    writeln!(
        out,
        "threads {}   lps {}   rounds {} ({} fused)   events {}   wall {:.3} s",
        report.threads,
        report.lp_count,
        report.rounds,
        report.fused_rounds,
        report.events,
        report.wall.as_secs_f64()
    )?;

    // Where each thread's wall time went: the kernel's own accumulators,
    // charged lap by lap from the clock readings the spans are cut from.
    writeln!(out)?;
    writeln!(
        out,
        "-- P/S/M per worker (processing / synchronization / messaging) --"
    )?;
    let row = |psm: &Psm| {
        format!(
            "P {:>12}   S {:>12}   M {:>12}   sync {:>6.2}%",
            ms(psm.p_ns as f64),
            ms(psm.s_ns as f64),
            ms(psm.m_ns as f64),
            psm.s_ratio() * 100.0
        )
    };
    for (i, psm) in report.psm.iter().enumerate() {
        writeln!(out, "worker {i:>3}: {}", row(psm))?;
    }
    writeln!(out, "     total: {}", row(&report.psm_total()))?;

    let Some(tel) = &report.telemetry else {
        writeln!(out)?;
        writeln!(
            out,
            "(no spans recorded: run at MetricsLevel::Spans — `unison-run --explain` — \
             for the imbalance and traffic sections)"
        )?;
        return Ok(());
    };
    let truncated: u64 = tel.workers.iter().map(|w| w.truncated).sum();
    writeln!(out)?;
    writeln!(
        out,
        "spans: {} across {} workers ({} truncated)",
        tel.span_count(),
        tel.workers.len(),
        truncated
    )?;

    writeln!(out)?;
    writeln!(
        out,
        "-- load imbalance (max/mean LP cost per round, >= 1) --"
    )?;
    let loads = round_loads(tel);
    if loads.is_empty() {
        writeln!(
            out,
            "(no lp-task spans: only the Unison kernel times each LP each round)"
        )?;
    } else {
        let n = report.lp_count;
        let (mut sum, mut max, mut max_round) = (0.0, 1.0f64, 0);
        for r in &loads {
            let imbalance = r.imbalance(n);
            sum += imbalance;
            if imbalance > max {
                (max, max_round) = (imbalance, r.round);
            }
        }
        writeln!(out, "mean over rounds: {:.3}", sum / loads.len() as f64)?;
        writeln!(out, "max round:        {max:.3} (round {max_round})")?;
        writeln!(out, "rounds with work: {}/{}", loads.len(), report.rounds)?;
    }

    writeln!(out)?;
    writeln!(
        out,
        "-- mailbox traffic (events src -> dst, heaviest 10) --"
    )?;
    let traffic = traffic_heaviest_first(tel);
    if traffic.is_empty() {
        writeln!(
            out,
            "(no cross-LP traffic recorded: single LP, or the sequential kernel)"
        )?;
    } else {
        let total: u64 = traffic.iter().map(|&(_, _, n)| n).sum();
        for &(src, dst, n) in traffic.iter().take(10) {
            writeln!(out, "lp {src:>4} -> lp {dst:>4}: {n}")?;
        }
        if traffic.len() > 10 {
            writeln!(out, "... {} more edges", traffic.len() - 10)?;
        }
        writeln!(out, "total cross-LP events: {total}")?;
    }

    // The receive phase cannot steal: each worker drains its own column,
    // the events bound for the LPs of its home.
    if report.threads > 1 && !traffic.is_empty() {
        writeln!(out)?;
        writeln!(
            out,
            "-- receive columns (events delivered per home column; no stealing) --"
        )?;
        let columns = receive_columns(&traffic, report.lp_count as usize, report.threads as usize);
        for (w, n) in columns.iter().enumerate() {
            writeln!(out, "column {w:>3}: {n}")?;
        }
        let max = columns.iter().copied().max().unwrap_or(0);
        let mean = columns.iter().sum::<u64>() as f64 / columns.len() as f64;
        writeln!(out, "max/mean: {:.3}", max as f64 / mean)?;
    }
    Ok(())
}

/// One round's load across LPs, from its `lp-task` spans (LPs without
/// one were idle: cost 0).
#[derive(Debug, PartialEq, Eq)]
struct RoundLoad {
    round: u64,
    /// Largest per-LP cost.
    max_ns: u64,
    /// Sum of per-LP costs (the sequential cost of this round).
    total_ns: u64,
}

impl RoundLoad {
    /// Max per-LP cost over mean per-LP cost across `lp_count` LPs (≥ 1;
    /// `1.0` is a perfectly balanced round).
    fn imbalance(&self, lp_count: u32) -> f64 {
        self.max_ns as f64 * f64::from(lp_count) / self.total_ns as f64
    }
}

/// Per-round load across all workers' `lp-task` spans (one per LP that
/// ran in the round), for the rounds in which some LP took measurable time.
fn round_loads(tel: &RunTelemetry) -> Vec<RoundLoad> {
    let mut rounds: BTreeMap<u64, RoundLoad> = BTreeMap::new();
    for s in tel.workers.iter().flat_map(|w| &w.spans) {
        if s.kind == SpanKind::LpTask {
            let r = rounds.entry(s.round).or_insert(RoundLoad {
                round: s.round,
                max_ns: 0,
                total_ns: 0,
            });
            r.max_ns = r.max_ns.max(s.dur_ns);
            r.total_ns += s.dur_ns;
        }
    }
    rounds.into_values().filter(|r| r.total_ns > 0).collect()
}

/// The merged mailbox traffic matrix `(src_lp, dst_lp, events)`, heaviest
/// edges first (ties by `(src, dst)` for determinism).
fn traffic_heaviest_first(tel: &RunTelemetry) -> Vec<(u32, u32, u64)> {
    let mut t = tel.traffic();
    t.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
    t
}

/// Events delivered into each of `threads` home columns: an edge's
/// destination LP belongs to the home [`home_range`] cuts it into.
fn receive_columns(traffic: &[(u32, u32, u64)], lp_count: usize, threads: usize) -> Vec<u64> {
    let mut columns = vec![0u64; threads];
    for &(_, dst, n) in traffic {
        let home =
            (0..threads).find(|&w| home_range(lp_count, threads, w).contains(&(dst as usize)));
        if let Some(w) = home {
            columns[w] += n;
        }
    }
    columns
}

/// [`write_report`] into a string (panics only on formatter failure, which
/// `Vec<u8>` writes cannot produce).
pub fn report_string(report: &RunReport) -> String {
    let mut buf = Vec::new();
    // INVARIANT: writing to a Vec<u8> never fails.
    write_report(report, &mut buf).expect("Vec write");
    String::from_utf8(buf).expect("report is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_core::telemetry::{Span, WorkerSpans};

    fn lp_task(round: u64, lp: u32, dur_ns: u64) -> Span {
        Span {
            kind: SpanKind::LpTask,
            round,
            lp,
            start_ns: 0,
            dur_ns,
            arg: 0,
            arg2: 0,
        }
    }

    fn worker(worker: u32, spans: Vec<Span>, traffic: Vec<(u32, u32, u64)>) -> WorkerSpans {
        WorkerSpans {
            worker,
            spans,
            truncated: 0,
            traffic,
        }
    }

    #[test]
    fn round_loads_merge_workers_and_skip_idle_rounds() {
        let tel = RunTelemetry {
            workers: vec![
                worker(0, vec![lp_task(1, 0, 60), lp_task(2, 0, 0)], vec![]),
                worker(1, vec![lp_task(1, 1, 20)], vec![]),
            ],
        };
        // Round 1: LP 0 cost 60 on one worker, LP 1 cost 20 on the other
        // (a third LP idle) → max 60, mean 80/3. Round 2 took no
        // measurable time.
        let loads = round_loads(&tel);
        assert_eq!(
            loads,
            vec![RoundLoad {
                round: 1,
                max_ns: 60,
                total_ns: 80
            }]
        );
        assert!((loads[0].imbalance(3) - 2.25).abs() < 1e-12);
        let even = RoundLoad {
            round: 9,
            max_ns: 4,
            total_ns: 8,
        };
        assert_eq!(even.imbalance(2), 1.0, "a balanced round");
    }

    #[test]
    fn traffic_merges_workers_and_sorts_heaviest_first() {
        let tel = RunTelemetry {
            workers: vec![
                worker(0, vec![], vec![(0, 1, 5), (2, 0, 12)]),
                worker(1, vec![], vec![(0, 1, 4), (1, 0, 9)]),
            ],
        };
        // (0, 1) sums to 9 across the workers and ties (1, 0) by id.
        assert_eq!(
            traffic_heaviest_first(&tel),
            vec![(2, 0, 12), (0, 1, 9), (1, 0, 9)]
        );
    }

    #[test]
    fn reports_without_spans_render_psm_from_the_report() {
        let rep = RunReport {
            kernel: "unison".into(),
            rounds: 42,
            psm: vec![Psm {
                p_ns: 7_000_000,
                s_ns: 2_000_000,
                m_ns: 1_000_000,
            }],
            ..Default::default()
        };
        let text = report_string(&rep);
        assert!(text.contains("rounds 42 (0 fused)"), "{text}");
        assert!(text.contains("P/S/M per worker"), "{text}");
        let row = "P     7.000 ms   S     2.000 ms   M     1.000 ms   sync  20.00%";
        assert!(text.contains(&format!("worker   0: {row}")), "{text}");
        assert!(text.contains(&format!("     total: {row}")), "{text}");
        assert!(text.contains("no spans recorded"));
        assert!(!text.contains("load imbalance"));
        assert!(!text.contains("receive columns"));
    }

    #[test]
    fn receive_columns_sum_the_traffic_by_destination_home() {
        // Five LPs on two workers: homes {0, 1} and {2, 3, 4}.
        let traffic = vec![(4, 0, 7), (2, 1, 3), (0, 3, 2), (1, 4, 1), (3, 2, 5)];
        let rep = RunReport {
            kernel: "unison(2)".into(),
            threads: 2,
            lp_count: 5,
            telemetry: Some(RunTelemetry {
                workers: vec![worker(0, Vec::new(), traffic)],
            }),
            ..Default::default()
        };
        let text = report_string(&rep);
        assert!(text.contains("column   0: 10\ncolumn   1: 8\n"), "{text}");
        assert!(text.contains("max/mean: 1.111"), "{text}");
        assert_eq!(
            receive_columns(&[(0, 9, 4), (1, 2, 1)], 5, 2),
            vec![0, 1],
            "an LP outside the id range has no column"
        );
    }
}
