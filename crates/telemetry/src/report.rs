//! The textual run report (what `unison-run --explain` prints).
//!
//! Every printed quantity has one source (DESIGN.md §4.3): where each
//! thread's wall time went is the [`RunReport`]'s own P/S/M, the header is
//! its counters, and only what the report does not hold — per-round LP
//! costs, scheduling regret, the traffic matrix — comes from the spans,
//! through [`Timeline`].

use std::io::{self, Write};

use unison_core::sched::home_range;
use unison_core::{Psm, RunReport};

use crate::timeline::Timeline;

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

    let Some(timeline) = Timeline::from_report(report) else {
        writeln!(out)?;
        writeln!(
            out,
            "(no spans recorded: run at MetricsLevel::Spans — `unison-run --explain` — \
             for the imbalance, regret and traffic sections)"
        )?;
        return Ok(());
    };
    let tel = timeline.telemetry();
    let truncated: u64 = tel.workers.iter().map(|w| w.truncated).sum();
    writeln!(out)?;
    writeln!(
        out,
        "spans: {} across {} workers ({} truncated)   sched decisions: {} ({} truncated)",
        tel.span_count(),
        tel.workers.len(),
        truncated,
        tel.sched.len(),
        tel.sched_truncated
    )?;

    writeln!(out)?;
    writeln!(
        out,
        "-- load imbalance (max/mean LP cost per round, >= 1) --"
    )?;
    let loads = timeline.round_loads();
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
        let slack: u64 = loads.iter().map(|r| r.barrier_slack_ns(n)).sum();
        writeln!(out, "mean over rounds: {:.3}", sum / loads.len() as f64)?;
        writeln!(out, "max round:        {max:.3} (round {max_round})")?;
        writeln!(out, "rounds with work: {}/{}", loads.len(), report.rounds)?;
        writeln!(
            out,
            "barrier slack (idle time a one-thread-per-LP barrier would add): {}",
            ms(slack as f64)
        )?;
    }

    writeln!(out)?;
    writeln!(
        out,
        "-- scheduling regret (estimate-vs-actual LPT makespan ratio) --"
    )?;
    let regrets = timeline.regret_by_round(report.threads.max(1) as usize);
    if regrets.is_empty() {
        writeln!(
            out,
            "(no decision log: kernel has no scheduler, or no re-order happened)"
        )?;
    } else {
        let mean = regrets.iter().map(|r| r.regret).sum::<f64>() / regrets.len() as f64;
        let (max_round, max) = regrets
            .iter()
            .map(|r| (r.round, r.regret))
            .fold((0, 0.0f64), |acc, r| if r.1 > acc.1 { r } else { acc });
        writeln!(
            out,
            "mean {:.4}   max {:.4} (round {})   rounds covered: {}",
            mean,
            max,
            max_round,
            regrets.len()
        )?;
    }

    writeln!(out)?;
    writeln!(
        out,
        "-- mailbox traffic (events src -> dst, heaviest 10) --"
    )?;
    let traffic = timeline.traffic_heaviest_first();
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
    use unison_core::telemetry::WorkerSpans;
    use unison_core::RunTelemetry;

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
                workers: vec![WorkerSpans {
                    worker: 0,
                    spans: Vec::new(),
                    truncated: 0,
                    traffic,
                }],
                ..Default::default()
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
