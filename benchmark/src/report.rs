//! Metric definitions, their computation from a [`Measurement`], and the
//! result file. The names, units, directions and bounds here are the ones
//! `BENCHMARK.json` lists; a test keeps the two in step.

use unison_telemetry::json::{self, Value};

use crate::child::{spans_to_json, ChildOutput};
use crate::driver::Measurement;
use crate::stats::{median, summarize, Summary};
use crate::workloads::{self, Config, PARALLEL_THREADS};
use crate::{reference, spans};

pub const SCHEMA: &str = "unison-benchmark/v1";

/// An end-to-end metric: lower is better for all five. `bound` is the
/// share of the reference median by which it may worsen before that counts
/// as a regression.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEndDef; 5] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEndDef {
        name: "run_s_seq",
        unit: "s",
        bound: 0.25,
    },
    EndToEndDef {
        name: "run_s_1t",
        unit: "s",
        bound: 0.25,
    },
    EndToEndDef {
        name: "run_s_2t",
        unit: "s",
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str, &str); 49] = [
    ("scenario.parse_us", "us", "lower"),
    ("topology.build_us", "us", "lower"),
    ("traffic.generate_us", "us", "lower"),
    ("traffic.flows", "count", "higher"),
    ("netsim.build_us", "us", "lower"),
    ("netsim.route.static_tables_us", "us", "lower"),
    ("partition.auto_us", "us", "lower"),
    ("partition.lp_count", "count", "higher"),
    ("partition.lookahead_ns", "ns", "higher"),
    ("kernel.events", "count", "lower"),
    ("kernel.rounds", "count", "lower"),
    ("kernel.fused_rounds", "count", "higher"),
    ("kernel.events_per_round", "count", "higher"),
    ("kernel.ns_per_event_seq", "ns", "lower"),
    ("kernel.ns_per_event_1t", "ns", "lower"),
    ("kernel.ns_per_event_2t", "ns", "lower"),
    ("kernel.unison1_over_seq", "ratio", "lower"),
    ("kernel.speedup_2t", "ratio", "higher"),
    ("kernel.p_s_2t", "s", "lower"),
    ("kernel.s_s_2t", "s", "lower"),
    ("kernel.m_s_2t", "s", "lower"),
    ("kernel.s_share_2t", "ratio", "lower"),
    ("kernel.cpu_s_2t", "s", "lower"),
    ("kernel.async_cons.run_s_2t", "s", "lower"),
    ("engine.pool_hit_rate", "ratio", "higher"),
    ("fel.ladder.small_ns_per_op", "ns", "lower"),
    ("fel.heap.small_ns_per_op", "ns", "lower"),
    ("fel.ladder.large_ns_per_op", "ns", "lower"),
    ("fel.heap.large_ns_per_op", "ns", "lower"),
    ("mailbox.push_drain_ns_per_ev", "ns", "lower"),
    ("mailbox.cross_thread_ns_per_ev", "ns", "lower"),
    ("sync.tree_barrier_ns_per_crossing_2t", "ns", "lower"),
    ("sync.spin_barrier_ns_per_crossing_2t", "ns", "lower"),
    ("sched.order_1024_us", "us", "lower"),
    ("sched.claim_ns_per_lp", "ns", "lower"),
    ("netsim.queue.droptail_ns_per_pkt", "ns", "lower"),
    ("netsim.queue.dctcp_ns_per_pkt", "ns", "lower"),
    ("netsim.tcp.on_ack_ns", "ns", "lower"),
    ("netsim.tcp.on_data_ns", "ns", "lower"),
    ("netsim.route.static_lookup_ns", "ns", "lower"),
    ("flowmon.collect_ms", "ms", "lower"),
    ("flowmon.completed_flows", "count", "higher"),
    ("flowmon.drops", "count", "lower"),
    ("flowmon.retx", "count", "lower"),
    ("snapshot.digest_ms", "ms", "lower"),
    ("snapshot.digest", "hash48", "lower"),
    ("telemetry.recording_ratio_2t", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.top_level_coverage", "ratio", "higher"),
];

/// One per-layer value; `base` spells out what a ratio was taken of.
pub struct LayerValue {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub base: Option<String>,
}

/// Nominal speed over the speed the reference ran at while the workload
/// was measured: above 1 when the machine was faster than nominal.
pub fn speed_factor(m: &Measurement) -> f64 {
    match median(&m.reference_s) {
        s if s > 0.0 => reference::NOMINAL_S / s,
        _ => 1.0,
    }
}

/// The workload's pinned event count over this run's: seeds draw somewhat
/// more or less traffic, and a run's time is compared at equal work. 1 at
/// the default seed, and for `--smoke` sizes, which have no pinned count.
fn work_factor(m: &Measurement, config: Config, run: &ChildOutput) -> f64 {
    let nominal = match (m.scale == 1.0, workloads::golden(m.workload)) {
        (true, Ok(g)) if config.unison_order() => g.events_unison,
        (true, Ok(g)) => g.events_seq,
        _ => return 1.0,
    };
    nominal as f64 / run.events.max(1) as f64
}

/// One end-to-end metric over its repeats: `value` is what the metric
/// reports, `raw` the same statistics before the speed and work factors.
pub struct EndToEnd {
    pub def: &'static EndToEndDef,
    pub value: Summary,
    pub raw: Summary,
}

/// The five end-to-end metrics. Timings are the measured seconds at the
/// workload's pinned amount of work and the reference's nominal speed; a
/// metric is absent only when every run it needs failed.
pub fn end_to_end(m: &Measurement) -> Vec<EndToEnd> {
    let speed = speed_factor(m);
    let raw_run = |c| m.samples(c, |r| r.span_s("run"));
    let run = |c: Config| m.samples(c, |r| r.span_s("run") * work_factor(m, c, r) * speed);
    let rss = m.samples(Config::Unison2, |r| r.vm_hwm_kb as f64 / 1024.0);
    let setup = m.setup_samples();
    let samples = [
        (setup.iter().map(|s| s * speed).collect(), setup),
        (run(Config::Seq), raw_run(Config::Seq)),
        (run(Config::Unison1), raw_run(Config::Unison1)),
        (run(Config::Unison2), raw_run(Config::Unison2)),
        (rss.clone(), rss),
    ];
    END_TO_END
        .iter()
        .zip(samples)
        .filter_map(|(def, (value, raw)): (_, (Vec<f64>, Vec<f64>))| {
            Some(EndToEnd {
                def,
                value: summarize(&value)?,
                raw: summarize(&raw)?,
            })
        })
        .collect()
}

/// Every per-layer metric of [`PER_LAYER`]. Needs a measurement taken with
/// `Plan::layers` over all five configurations; what a failed run left
/// unmeasured is reported as 0.
pub fn per_layer(m: &Measurement) -> Vec<LayerValue> {
    let run_s = |c| median(&m.samples(c, |r| r.span_s("run")));
    let (seq_s, one_s, two_s) = (
        run_s(Config::Seq),
        run_s(Config::Unison1),
        run_s(Config::Unison2),
    );
    let first = |c: Config| m.runs_of(c).first();
    let events = |c| first(c).map_or(0.0, |r| r.events as f64);
    let div = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let two = first(Config::Unison2);
    let of_two = |f: fn(&ChildOutput) -> f64| two.map_or(0.0, f);
    let med_two = |f: fn(&ChildOutput) -> f64| median(&m.samples(Config::Unison2, f));
    let s_share = |r: &ChildOutput| div(r.s_ns as f64, (r.p_ns + r.s_ns + r.m_ns) as f64);
    // Telemetry pairs are the 2t run and the recording run of one round.
    let recording: Vec<f64> = m
        .runs_of(Config::Unison2Telemetry)
        .iter()
        .zip(m.runs_of(Config::Unison2))
        .map(|(tel, plain)| div(tel.span_s("run"), plain.span_s("run")))
        .collect();
    let traced_run_s = m.traced.as_ref().map_or(0.0, |t| t.span_s("run"));
    let coverage = m.traced.as_ref().map_or(0.0, |t| {
        div(spans::top_level_ns(&t.spans) as f64, t.wall_ns as f64)
    });
    let stage = |f: fn(&crate::driver::Stages) -> f64| m.stages.as_ref().map_or(0.0, f);

    let mut values: Vec<(&str, f64, Option<String>)> = vec![
        ("scenario.parse_us", stage(|s| s.parse_us), None),
        ("topology.build_us", stage(|s| s.topology_us), None),
        ("traffic.generate_us", stage(|s| s.traffic_us), None),
        ("traffic.flows", of_two(|r| r.flows as f64), None),
        ("netsim.build_us", stage(|s| s.build_us), None),
        (
            "netsim.route.static_tables_us",
            stage(|s| s.static_tables_us),
            None,
        ),
        ("partition.auto_us", stage(|s| s.partition_us), None),
        ("partition.lp_count", of_two(|r| r.lp_count as f64), None),
        (
            "partition.lookahead_ns",
            of_two(|r| r.lookahead_ns as f64),
            None,
        ),
        ("kernel.events", events(Config::Unison2), None),
        ("kernel.rounds", of_two(|r| r.rounds as f64), None),
        (
            "kernel.fused_rounds",
            of_two(|r| r.fused_rounds as f64),
            None,
        ),
        (
            "kernel.events_per_round",
            of_two(|r| r.events as f64 / r.rounds.max(1) as f64),
            None,
        ),
        (
            "kernel.ns_per_event_seq",
            div(seq_s * 1e9, events(Config::Seq)),
            None,
        ),
        (
            "kernel.ns_per_event_1t",
            div(one_s * 1e9, events(Config::Unison1)),
            None,
        ),
        (
            "kernel.ns_per_event_2t",
            div(two_s * 1e9, events(Config::Unison2)),
            None,
        ),
        (
            "kernel.unison1_over_seq",
            div(one_s, seq_s),
            Some(format!("run_s_1t {one_s:.4} s / run_s_seq {seq_s:.4} s")),
        ),
        (
            "kernel.speedup_2t",
            div(one_s, two_s),
            Some(format!("run_s_1t {one_s:.4} s / run_s_2t {two_s:.4} s")),
        ),
        ("kernel.p_s_2t", med_two(|r| r.p_ns as f64 / 1e9), None),
        ("kernel.s_s_2t", med_two(|r| r.s_ns as f64 / 1e9), None),
        ("kernel.m_s_2t", med_two(|r| r.m_ns as f64 / 1e9), None),
        (
            "kernel.s_share_2t",
            median(&m.samples(Config::Unison2, s_share)),
            Some(format!(
                "S / (P + S + M) summed over {PARALLEL_THREADS} threads"
            )),
        ),
        ("kernel.cpu_s_2t", med_two(|r| r.run_cpu_s), None),
        ("kernel.async_cons.run_s_2t", run_s(Config::Async2), None),
        (
            "engine.pool_hit_rate",
            of_two(|r| r.pool_hits as f64 / (r.pool_hits + r.pool_misses).max(1) as f64),
            None,
        ),
    ];
    values.extend(m.micro.iter().map(|(name, v)| (*name, *v, None)));
    values.extend([
        (
            "flowmon.collect_ms",
            med_two(|r| r.span_s("collect") * 1e3),
            None,
        ),
        (
            "flowmon.completed_flows",
            of_two(|r| r.completed_flows as f64),
            None,
        ),
        ("flowmon.drops", of_two(|r| r.drops as f64), None),
        ("flowmon.retx", of_two(|r| r.retx as f64), None),
        (
            "snapshot.digest_ms",
            med_two(|r| r.span_s("digest") * 1e3),
            None,
        ),
        // The low 48 bits: exact in a JSON number. The result file also
        // carries the full digests as hex strings.
        (
            "snapshot.digest",
            of_two(|r| (r.digest & 0xFFFF_FFFF_FFFF) as f64),
            None,
        ),
        (
            "telemetry.recording_ratio_2t",
            median(&recording),
            Some(format!(
                "recording run_s / run_s_2t, {} interleaved pairs",
                recording.len()
            )),
        ),
        (
            "trace.overhead_ratio",
            div(traced_run_s, two_s),
            Some(format!(
                "traced run span {traced_run_s:.4} s / run_s_2t {two_s:.4} s"
            )),
        ),
        ("trace.top_level_coverage", coverage, None),
    ]);

    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let found = values.iter().position(|(n, _, _)| *n == name);
            let (value, base) = found.map_or((0.0, None), |i| (values[i].1, values[i].2.take()));
            LayerValue {
                name,
                unit,
                value,
                base,
            }
        })
        .collect()
}

fn summary_json(e: &EndToEnd) -> Value {
    let (def, s) = (e.def, &e.value);
    json::obj(vec![
        ("unit", Value::Str(def.unit.into())),
        ("better", Value::Str("lower".into())),
        ("bound", Value::Num(def.bound)),
        ("raw_median", Value::Num(e.raw.median)),
        ("median", Value::Num(s.median)),
        ("q1", Value::Num(s.q1)),
        ("q3", Value::Num(s.q3)),
        ("min", Value::Num(s.min)),
        ("max", Value::Num(s.max)),
        ("n", Value::Num(s.n as f64)),
    ])
}

/// One workload's section of the result file.
pub fn workload_json(m: &Measurement) -> Value {
    let e2e = end_to_end(m);
    let layers = if m.stages.is_some() {
        per_layer(m)
    } else {
        Vec::new()
    };
    let exact = |c: Config| {
        m.runs_of(c).first().map_or(Value::Null, |r| {
            json::obj(vec![
                ("events", Value::Num(r.events as f64)),
                ("rounds", Value::Num(r.rounds as f64)),
                ("fused_rounds", Value::Num(r.fused_rounds as f64)),
                ("digest", Value::Str(format!("{:016x}", r.digest))),
                ("completed_flows", Value::Num(r.completed_flows as f64)),
                ("drops", Value::Num(r.drops as f64)),
                ("retx", Value::Num(r.retx as f64)),
            ])
        })
    };
    let trace = m.traced.as_ref().map_or(Value::Null, |t| {
        json::obj(vec![
            ("config", Value::Str(Config::Unison2.label().into())),
            ("wall_ns", Value::Num(t.wall_ns as f64)),
            (
                "top_level_ns",
                Value::Num(spans::top_level_ns(&t.spans) as f64),
            ),
            ("spans", spans_to_json(&t.spans, true)),
        ])
    });
    json::obj(vec![
        ("name", Value::Str(m.workload.name().into())),
        ("why", Value::Str(m.workload.why().into())),
        ("seed", Value::Num(m.seed as f64)),
        ("scale", Value::Num(m.scale)),
        ("wall_s", Value::Num(m.wall_s)),
        (
            "reference_s",
            Value::Arr(m.reference_s.iter().map(|s| Value::Num(*s)).collect()),
        ),
        ("speed_factor", Value::Num(speed_factor(m))),
        ("ops_attempted", Value::Num(m.attempted as f64)),
        ("ops_failed", Value::Num(m.failures.len() as f64)),
        (
            "failures",
            Value::Arr(m.failures.iter().map(|f| Value::Str(f.clone())).collect()),
        ),
        (
            "end_to_end",
            Value::Obj(
                e2e.iter()
                    .map(|e| (e.def.name.to_string(), summary_json(e)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Obj(
                layers
                    .iter()
                    .map(|l| {
                        let mut pairs = vec![
                            ("unit", Value::Str(l.unit.into())),
                            ("value", Value::Num(l.value)),
                        ];
                        if let Some(base) = &l.base {
                            pairs.push(("base", Value::Str(base.clone())));
                        }
                        (l.name.to_string(), json::obj(pairs))
                    })
                    .collect(),
            ),
        ),
        (
            "exact",
            Value::Obj(
                m.runs
                    .keys()
                    .map(|c| (c.label().to_string(), exact(*c)))
                    .collect(),
            ),
        ),
        ("trace", trace),
    ])
}

/// Prints one workload's metrics by name, with unit and bound.
pub fn print_workload(m: &Measurement) {
    println!(
        "\n== {} (seed {}, scale {}) — {} operations, {} failed, {:.1} s",
        m.workload.name(),
        m.seed,
        m.scale,
        m.attempted,
        m.failures.len(),
        m.wall_s
    );
    for f in &m.failures {
        println!("   FAILED {f}");
    }
    println!(
        "   reference ran at {:.3} of nominal speed (median {:.4} s over {} runs)",
        speed_factor(m),
        median(&m.reference_s),
        m.reference_s.len()
    );
    println!(
        "   {:<12} {:>12} {:>4} {:>11} {:>11} {:>11} {:>3} {:>5}  {:>12}",
        "end-to-end", "median", "unit", "q1", "q3", "min", "n", "bound", "raw median"
    );
    for EndToEnd { def, value: s, raw } in end_to_end(m) {
        println!(
            "   {:<12} {:>12.6} {:>4} {:>11.6} {:>11.6} {:>11.6} {:>3} {:>3.0} %  {:>12.6}",
            def.name,
            s.median,
            def.unit,
            s.q1,
            s.q3,
            s.min,
            s.n,
            def.bound * 100.0,
            raw.median
        );
    }
    if m.stages.is_none() {
        return;
    }
    println!("   {:<40} {:>16} unit", "per-layer", "value");
    for l in per_layer(m) {
        let base = l.base.map_or(String::new(), |b| format!("  ({b})"));
        println!("   {:<40} {:>16.4} {}{base}", l.name, l.value, l.unit);
    }
    if let Some(t) = &m.traced {
        println!("   traced 2t run: wall {:.4} s", t.wall_ns as f64 / 1e9);
        let own = spans::self_times(&t.spans);
        for (s, own_ns) in t.spans.iter().zip(own) {
            let indent = if s.parent.is_some() { "  " } else { "" };
            println!(
                "     {indent}{:<12} {:>12.6} s   self {:>12.6} s",
                s.name,
                s.dur_ns() as f64 / 1e9,
                own_ns as f64 / 1e9
            );
        }
    }
}

/// The last line the benchmark contract asks for: `correct`, `attempted`,
/// `failed` and either the end-to-end or the per-layer metrics.
pub fn contract_line(m: &Measurement, layers: bool) -> String {
    let metric = |unit: &str, value: f64| {
        json::obj(vec![
            ("value", Value::Num(value)),
            ("unit", Value::Str(unit.into())),
        ])
    };
    let metrics: Vec<(String, Value)> = if layers {
        per_layer(m)
            .iter()
            .map(|l| (l.name.to_string(), metric(l.unit, l.value)))
            .collect()
    } else {
        end_to_end(m)
            .iter()
            .map(|e| (e.def.name.to_string(), metric(e.def.unit, e.value.median)))
            .collect()
    };
    json::obj(vec![
        ("correct", Value::Bool(m.failures.is_empty())),
        ("attempted", Value::Num(m.attempted as f64)),
        ("failed", Value::Num(m.failures.len() as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// workloads and metrics this crate reports.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = format!("{}/../BENCHMARK.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let doc = json::parse(&text).unwrap();
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
        let s = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = crate::workloads::ALL_WORKLOADS
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    s(m, "name"),
                    s(m, "unit"),
                    s(m, "better"),
                    m.get("bound").and_then(Value::as_num).unwrap(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    "lower".to_string(),
                    d.bound,
                )
            })
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layers, expected);
        assert_eq!(
            doc.get("paths").and_then(Value::as_arr).unwrap(),
            [Value::Str("benchmark".into())]
        );
    }
}
