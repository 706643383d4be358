//! End-to-end export test: run a small scenario at `MetricsLevel::Spans`,
//! export the Chrome trace, and check that the emitted JSON is non-empty,
//! validates as a trace_event array, and round-trips through the crate's
//! own parser bit-identically — and that the run report prints each
//! thread's time from the same laps the spans were cut from.

use unison_core::telemetry::SpanKind;
use unison_core::{DataRate, RunConfig, RunReport, Time};
use unison_netsim::{NetworkBuilder, TransportKind};
use unison_telemetry::{chrome_trace_json, json, report_string, validate_chrome_trace};
use unison_topology::{fat_tree, manual, Topology};
use unison_traffic::TrafficConfig;

fn topo() -> Topology {
    fat_tree(4)
        .with_rate(DataRate::gbps(10))
        .with_delay(Time::from_micros(3))
}

/// A deliberately small fat-tree incast, recorded at `Spans`: big enough
/// to exercise every span kind and the scheduler log, small enough for a
/// test.
fn run_recorded(cfg: RunConfig) -> RunReport {
    let topo = topo();
    let traffic = TrafficConfig::incast(0.3, 0.6)
        .with_seed(7)
        .with_window(Time::ZERO, Time::from_micros(400));
    let sim = NetworkBuilder::new(&topo)
        .transport(TransportKind::NewReno)
        .traffic(&traffic)
        .stop_at(Time::from_micros(600))
        .build();
    sim.run_with(&cfg.with_telemetry())
        .expect("scenario run")
        .kernel
}

fn run_profiled(threads: usize) -> RunReport {
    run_recorded(RunConfig::unison(threads))
}

#[test]
fn exported_trace_is_valid_nonempty_and_round_trips() {
    let report = run_profiled(2);
    let tel = report.telemetry.as_ref().expect("telemetry attached");
    assert!(tel.span_count() > 0, "scenario produced no spans");

    let json_text = chrome_trace_json(tel);
    let summary = validate_chrome_trace(&json_text).expect("exported trace must validate");
    assert_eq!(
        summary.durations as usize,
        tel.span_count(),
        "every recorded span becomes exactly one duration event"
    );
    assert_eq!(
        summary.instants as usize,
        tel.sched.len(),
        "every scheduler decision becomes exactly one instant event"
    );
    // One thread_name metadata record per worker sink.
    assert_eq!(summary.metadata as usize, tel.workers.len());
    assert_eq!(
        summary.events,
        summary.durations + summary.instants + summary.metadata
    );

    // Round-trip: parse → re-serialize → bit-identical. The writer is the
    // canonical form, so one pass through the parser must be a fixpoint.
    let parsed = json::parse(&json_text).expect("own parser accepts own output");
    assert_eq!(parsed.to_json(), json_text, "serializer not a fixpoint");
}

#[test]
fn trace_timestamps_are_monotone_per_worker_within_kind() {
    let report = run_profiled(2);
    let tel = report.telemetry.as_ref().expect("telemetry attached");
    // The recorder is one-writer-per-worker and pushes a span when it
    // *closes*, cut from the clock readings that opened and closed it, so
    // end timestamps never decrease within a sink (start timestamps may:
    // an enclosing phase span starts before the nested LP-task spans it is
    // recorded after).
    for w in &tel.workers {
        let mut last = 0u64;
        for s in &w.spans {
            let end = s.start_ns + s.dur_ns;
            assert!(
                end >= last,
                "worker {} spans out of order: end {end} < {last}",
                w.worker,
            );
            last = end;
        }
    }
}

/// Round fusion's telemetry surface: every fused round emits exactly one
/// `fused-round` envelope span on the control thread, so the trace's span
/// count for that kind equals the report's `fused_rounds` counter — and the
/// envelope carries its load/drain args through the Chrome export.
#[test]
fn fused_round_spans_match_the_report_counter() {
    // Every round of this small incast stays below the fusion threshold.
    let report = run_profiled(2);
    assert!(report.rounds > 0);
    assert!(report.fused_rounds > 0, "no round fused");
    let tel = report.telemetry.as_ref().expect("telemetry attached");
    let fused_spans: usize = tel
        .workers
        .iter()
        .flat_map(|w| &w.spans)
        .filter(|s| s.kind.name() == "fused-round")
        .count();
    assert_eq!(
        fused_spans as u64, report.fused_rounds,
        "one fused-round envelope per fused round"
    );

    // The envelope's args survive the Chrome export, and the trace with
    // the new span kind still validates and round-trips.
    let json_text = chrome_trace_json(tel);
    validate_chrome_trace(&json_text).expect("trace with fused-round spans must validate");
    assert!(json_text.contains("fused-round"), "span kind missing");
    assert!(json_text.contains("cross_lp_recv"), "envelope args missing");
    let parsed = json::parse(&json_text).expect("own parser accepts own output");
    assert_eq!(parsed.to_json(), json_text, "serializer not a fixpoint");

    // Fusion off: no counter, no spans.
    let off = run_recorded(RunConfig::unison(2).without_fusion());
    assert_eq!(off.fused_rounds, 0);
    let off_tel = off.telemetry.as_ref().expect("telemetry attached");
    assert!(off_tel
        .workers
        .iter()
        .flat_map(|w| &w.spans)
        .all(|s| s.kind.name() != "fused-round"));
}

/// One lap, one report, in every kernel: the sync share the report prints
/// for a thread is its `Psm`'s, and the thread's laps — every span but the
/// nested `lp-task`, `mailbox-flush` and `fused-round` — tile its timeline
/// (each starts where the one before it ended) and sum to its P/S/M total
/// to the nanosecond.
#[test]
fn printed_sync_share_is_the_psm_share_and_every_kernels_laps_tile_and_sum_to_it() {
    let pods = manual::by_cluster(&topo());
    for cfg in [
        RunConfig::sequential(),
        RunConfig::unison(2),
        RunConfig::barrier(pods.clone()),
        RunConfig::nullmsg(pods),
    ] {
        let kernel = cfg.kernel.clone();
        let report = run_recorded(cfg);
        let text = report_string(&report);
        let who = if report.psm_per_lp { "lp" } else { "worker" };
        assert!(!report.psm.is_empty());
        for (i, psm) in report.psm.iter().enumerate() {
            let row = text
                .lines()
                .find(|l| l.starts_with(&format!("{who} {i:>3}: P ")))
                .unwrap_or_else(|| panic!("{kernel:?}: no P/S/M row for {who} {i}:\n{text}"));
            let share = psm.s_ns as f64 / psm.total_ns() as f64 * 100.0;
            assert!(
                row.ends_with(&format!("sync {share:>6.2}%")),
                "{kernel:?}: `{row}` does not print {share:.2}%"
            );
        }

        let tel = report.telemetry.as_ref().expect("telemetry attached");
        assert_eq!(tel.workers.len(), report.psm.len(), "{kernel:?}");
        for (w, psm) in tel.workers.iter().zip(&report.psm) {
            let who = format!("{kernel:?} thread {}", w.worker);
            assert_eq!(
                w.truncated, 0,
                "{who}: the scenario must fit the span buffer"
            );
            let laps: Vec<_> = w
                .spans
                .iter()
                .filter(|s| {
                    !matches!(
                        s.kind,
                        SpanKind::LpTask | SpanKind::MailboxFlush | SpanKind::FusedRound
                    )
                })
                .collect();
            assert!(!laps.is_empty(), "{who}: no lap");
            for pair in laps.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                assert_eq!(a.start_ns + a.dur_ns, b.start_ns, "{who}: {a:?} then {b:?}");
            }
            let sum: u64 = laps.iter().map(|s| s.dur_ns).sum();
            assert_eq!(sum, psm.total_ns(), "{who}");
        }
    }
}

#[test]
fn validator_rejects_malformed_traces() {
    for (bad, why) in [
        ("{}", "not an array"),
        ("[]", "empty array"),
        (r#"[{"name":"x"}]"#, "missing ph"),
        (
            r#"[{"ph":"X","name":"x","ts":0,"pid":0,"tid":0}]"#,
            "duration event without dur",
        ),
        (
            r#"[{"ph":"X","name":"x","ts":-1,"dur":1,"pid":0,"tid":0}]"#,
            "negative timestamp",
        ),
    ] {
        assert!(
            validate_chrome_trace(bad).is_err(),
            "validator accepted a malformed trace ({why})"
        );
    }
}
