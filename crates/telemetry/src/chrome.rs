//! Chrome-trace (`trace_event`) export of a run's telemetry.
//!
//! The output is the plain JSON-array flavor of the format, loadable in
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`:
//!
//! - every [`Span`] becomes a complete duration event (`"ph":"X"`) on the
//!   track of its recording worker (`tid` = worker id, `pid` = 0);
//! - every worker gets a `thread_name` metadata event (`"ph":"M"`).
//!
//! Timestamps are microseconds since the run origin (the format's unit),
//! with nanosecond precision kept in the fraction.

use unison_core::telemetry::{RunTelemetry, Span, SpanKind, NO_LP};

use crate::json::{obj, parse, Value};

fn us(ns: u64) -> Value {
    Value::Num(ns as f64 / 1000.0)
}

fn cat(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Process
        | SpanKind::Global
        | SpanKind::Receive
        | SpanKind::WindowUpdate
        | SpanKind::FusedRound => "phase",
        SpanKind::BarrierWait => "sync",
        SpanKind::MailboxFlush => "mailbox",
        SpanKind::LpTask => "lp",
    }
}

/// Kind-specific argument names, so the Perfetto detail pane reads
/// naturally instead of showing raw `arg`/`arg2`.
fn span_args(span: &Span) -> Value {
    let mut pairs: Vec<(&str, Value)> = vec![("round", Value::Num(span.round as f64))];
    if span.lp != NO_LP {
        pairs.push(("lp", Value::Num(span.lp as f64)));
    }
    match span.kind {
        SpanKind::Process | SpanKind::Receive | SpanKind::MailboxFlush => {
            pairs.push(("events", Value::Num(span.arg as f64)));
        }
        SpanKind::Global => pairs.push(("globals", Value::Num(span.arg as f64))),
        SpanKind::WindowUpdate => {
            pairs.push(("window_end_ns", Value::Num(span.arg as f64)));
            pairs.push(("next_window_end_ns", Value::Num(span.arg2 as f64)));
        }
        SpanKind::BarrierWait => pairs.push(("barrier", Value::Num(span.arg as f64))),
        SpanKind::FusedRound => {
            pairs.push(("load", Value::Num(span.arg as f64)));
            pairs.push(("cross_lp_recv", Value::Num(span.arg2 as f64)));
        }
        SpanKind::LpTask => pairs.push(("events", Value::Num(span.arg as f64))),
    }
    obj(pairs)
}

/// Builds the trace_event array as a [`Value`], which
/// [`chrome_trace_json`] serializes.
fn chrome_trace_value(tel: &RunTelemetry) -> Value {
    let mut events = Vec::new();
    for w in &tel.workers {
        let name = if w.worker == 0 {
            "worker-0 (control)".to_string()
        } else {
            format!("worker-{}", w.worker)
        };
        events.push(obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::Num(0.0)),
            ("tid", Value::Num(w.worker as f64)),
            ("args", obj(vec![("name", Value::Str(name))])),
        ]));
        for span in &w.spans {
            events.push(obj(vec![
                ("name", Value::Str(span.kind.name().into())),
                ("cat", Value::Str(cat(span.kind).into())),
                ("ph", Value::Str("X".into())),
                ("ts", us(span.start_ns)),
                ("dur", us(span.dur_ns)),
                ("pid", Value::Num(0.0)),
                ("tid", Value::Num(w.worker as f64)),
                ("args", span_args(span)),
            ]));
        }
    }
    Value::Arr(events)
}

/// Serializes a run's telemetry as a Chrome-trace JSON array.
pub fn chrome_trace_json(tel: &RunTelemetry) -> String {
    chrome_trace_value(tel).to_json()
}

/// What [`validate_chrome_trace`] found in a well-formed trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total trace events (all phases).
    pub events: usize,
    /// Complete duration events (`"ph":"X"`).
    pub durations: usize,
    /// Instant events (`"ph":"i"`).
    pub instants: usize,
    /// Metadata events (`"ph":"M"`).
    pub metadata: usize,
}

/// Parses `json` and checks it is a non-empty trace_event array: every
/// element an object with a string `ph`, and every duration event carrying
/// numeric `ts`/`dur`/`pid`/`tid` and a string `name`.
pub fn validate_chrome_trace(json: &str) -> Result<TraceSummary, String> {
    let doc = parse(json)?;
    let events = doc.as_arr().ok_or("top level is not an array")?;
    if events.is_empty() {
        return Err("trace is empty".into());
    }
    let mut summary = TraceSummary {
        events: events.len(),
        durations: 0,
        instants: 0,
        metadata: 0,
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string \"ph\""))?;
        match ph {
            "X" => {
                for key in ["ts", "dur", "pid", "tid"] {
                    let n = ev
                        .get(key)
                        .and_then(Value::as_num)
                        .ok_or_else(|| format!("event {i}: missing numeric {key:?}"))?;
                    if !n.is_finite() || n < 0.0 {
                        return Err(format!("event {i}: {key:?} = {n} out of range"));
                    }
                }
                ev.get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: missing string \"name\""))?;
                summary.durations += 1;
            }
            "i" => summary.instants += 1,
            "M" => summary.metadata += 1,
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    if summary.durations == 0 {
        return Err("no duration events".into());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_core::telemetry::WorkerSpans;

    fn span(kind: SpanKind, round: u64, lp: u32, start: u64, dur: u64) -> Span {
        Span {
            kind,
            round,
            lp,
            start_ns: start,
            dur_ns: dur,
            arg: 3,
            arg2: 7,
        }
    }

    fn sample() -> RunTelemetry {
        RunTelemetry {
            workers: vec![
                WorkerSpans {
                    worker: 0,
                    spans: vec![
                        span(SpanKind::Global, 1, NO_LP, 10, 5),
                        span(SpanKind::WindowUpdate, 1, NO_LP, 100, 20),
                    ],
                    truncated: 0,
                    traffic: vec![],
                },
                WorkerSpans {
                    worker: 1,
                    spans: vec![
                        span(SpanKind::Process, 1, NO_LP, 0, 50),
                        span(SpanKind::LpTask, 1, 4, 1, 10),
                        span(SpanKind::MailboxFlush, 1, 4, 60, 2),
                        span(SpanKind::BarrierWait, 1, NO_LP, 70, 9),
                        span(SpanKind::Receive, 1, NO_LP, 55, 20),
                    ],
                    truncated: 2,
                    traffic: vec![(0, 4, 11)],
                },
            ],
        }
    }

    #[test]
    fn export_validates_and_counts() {
        let json = chrome_trace_json(&sample());
        let s = validate_chrome_trace(&json).expect("valid trace");
        // 2 metadata + 7 duration, nothing else.
        assert_eq!(s.metadata, 2);
        assert_eq!(s.durations, 7);
        assert_eq!(s.instants, 0);
        assert_eq!(s.events, 9);
    }

    #[test]
    fn timestamps_are_microseconds() {
        let v = chrome_trace_value(&sample());
        let arr = v.as_arr().unwrap();
        let proc = arr
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("process"))
            .unwrap();
        assert_eq!(proc.get("dur").and_then(Value::as_num), Some(0.05));
    }

    #[test]
    fn validation_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("[{\"ph\":\"X\"}]").is_err());
        // Metadata-only traces carry no data.
        assert!(validate_chrome_trace("[{\"ph\":\"M\"}]").is_err());
    }
}
