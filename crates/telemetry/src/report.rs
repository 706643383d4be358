//! The textual run report (what `unison-run --explain` prints).
//!
//! Every printed quantity has one source (DESIGN.md §4.3): where each
//! thread's wall time went is the [`RunReport`]'s own P/S/M, the header and
//! the progress/recovery sections are its counters, and only what the
//! report does not hold — per-round LP costs, scheduling regret, the
//! traffic matrix — comes from the spans, through [`Timeline`].

use std::io::{self, Write};

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
    let who = if report.psm_per_lp { "lp" } else { "worker" };
    writeln!(out)?;
    writeln!(
        out,
        "-- P/S/M per {who} (processing / synchronization / messaging) --"
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
        writeln!(out, "{who} {i:>3}: {}", row(psm))?;
    }
    writeln!(
        out,
        "{:>w$}: {}",
        "total",
        row(&report.psm_total()),
        w = who.len() + 4
    )?;

    // Recovery history — only resilient runs (fault::run_resilient)
    // carry a log; a plain run omits the section entirely.
    if let Some(log) = &report.recovery {
        writeln!(out)?;
        writeln!(out, "-- recovery (resilient driver rollbacks) --")?;
        if log.rollbacks.is_empty() {
            writeln!(out, "no failures: the run completed on the first attempt")?;
        } else {
            writeln!(
                out,
                "rollbacks: {}   wall lost to failures: {:.3} s",
                log.rollback_count(),
                log.total_recovery_wall.as_secs_f64()
            )?;
            for (i, rb) in log.rollbacks.iter().enumerate() {
                writeln!(
                    out,
                    "#{i}: {} at round {} ({:?}) -> rolled back to t={}ns \
                     (~{} rounds lost, {} corrupt checkpoint(s) skipped{})",
                    rb.fault,
                    rb.round,
                    rb.phase,
                    rb.rolled_back_to.as_nanos(),
                    rb.rounds_lost,
                    rb.skipped_corrupt,
                    match rb.degraded_threads {
                        Some(t) => format!(", degraded to {t} threads"),
                        None => String::new(),
                    }
                )?;
            }
        }
    }

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
            "(no lp-task spans: only the round kernels time each LP each round)"
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
            "(no decision log: kernel has no scheduler, or no re-sort happened)"
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
            "(no cross-LP traffic recorded: single LP, or kernel without sender attribution)"
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
    Ok(())
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

    #[test]
    fn reports_without_spans_render_psm_from_the_report() {
        let mut rep = RunReport {
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
        // Plain runs carry no recovery log and no recovery section.
        assert!(!text.contains("recovery"));
        // The LP-pinned kernels' rows are LPs.
        rep.psm_per_lp = true;
        assert!(report_string(&rep).contains(&format!("lp   0: {row}")));
    }

    #[test]
    fn recovery_section_renders_rollbacks() {
        use std::time::Duration;
        use unison_core::{RecoveryLog, RollbackRecord, RunPhase, Time};

        let mut rep = RunReport {
            kernel: "unison".into(),
            ..Default::default()
        };
        rep.recovery = Some(RecoveryLog {
            rollbacks: vec![RollbackRecord {
                fault: "worker 1 panicked in round 60 (Process)".into(),
                round: 60,
                phase: RunPhase::Process,
                rolled_back_to: Time(50_000),
                rounds_lost: 10,
                wall_cost: Duration::from_millis(3),
                skipped_corrupt: 1,
                degraded_threads: Some(2),
                backoff: Duration::from_millis(1),
            }],
            total_recovery_wall: Duration::from_millis(4),
        });
        let text = report_string(&rep);
        assert!(text.contains("recovery (resilient driver rollbacks)"));
        assert!(text.contains("rolled back to t=50000ns"));
        assert!(text.contains("1 corrupt checkpoint(s) skipped"));
        assert!(text.contains("degraded to 2 threads"));

        // An untroubled resilient run still gets the section, with the
        // explicit no-failures line.
        rep.recovery = Some(RecoveryLog::default());
        let text = report_string(&rep);
        assert!(text.contains("no failures"));
    }
}
