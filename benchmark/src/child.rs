//! One run, in a process of its own: input text on stdin, one JSON object
//! on stdout. A fresh process per run means allocator state never carries
//! over between repeats and `VmHWM` is this run's own peak.
//!
//! The child records a span around each public call into the program
//! (`parse`, `topology`, `traffic`, `build`, `partition` under `setup`,
//! then `run`, `collect`, `digest`, `teardown`). It calls `kernel::run` directly
//! instead of `NetSim::run_with`, so `FlowReport::collect` and
//! `world_digest` get spans of their own. End-to-end timings are read from
//! these spans; the parent keeps the full span list only for the run it
//! designates as the traced one.

use unison_core::{
    fine_grained_partition, kernel, Partition, RunConfig, RunReport, SimNode, Time, World,
};
use unison_netsim::{world_digest, FlowReport, NetNode, NetworkBuilder};
use unison_scenario::{parse_scenario, toml};
use unison_telemetry::json::{self, Value};
use unison_topology::Topology;

use crate::phold::{self, PholdNode, PholdParams};
use crate::spans::{self, Recorder, Span};

/// Everything the parent needs from one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildOutput {
    pub events: u64,
    pub rounds: u64,
    pub fused_rounds: u64,
    pub threads: u64,
    /// LPs and lookahead of the standalone fine-grained partition.
    pub lp_count: u64,
    pub lookahead_ns: u64,
    pub digest: u64,
    pub flows: u64,
    pub completed_flows: u64,
    pub drops: u64,
    pub retx: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    /// Aggregate P/S/M over the run's worker threads, nanoseconds.
    pub p_ns: u64,
    pub s_ns: u64,
    pub m_ns: u64,
    /// `utime + stime` spent inside `kernel::run`, seconds.
    pub run_cpu_s: f64,
    /// Peak resident set of the process at exit, kB (`VmHWM`).
    pub vm_hwm_kb: u64,
    /// Measured wall from the first span's start to the last span's end.
    pub wall_ns: u64,
    pub spans: Vec<Span>,
}

impl ChildOutput {
    pub fn span_s(&self, name: &str) -> f64 {
        spans::dur_of(&self.spans, name) as f64 / 1e9
    }

    pub fn to_json(&self) -> Value {
        let n = |v: u64| Value::Num(v as f64);
        json::obj(vec![
            ("events", n(self.events)),
            ("rounds", n(self.rounds)),
            ("fused_rounds", n(self.fused_rounds)),
            ("threads", n(self.threads)),
            ("lp_count", n(self.lp_count)),
            ("lookahead_ns", n(self.lookahead_ns)),
            // 64-bit digests do not survive a trip through f64.
            ("digest", Value::Str(format!("{:016x}", self.digest))),
            ("flows", n(self.flows)),
            ("completed_flows", n(self.completed_flows)),
            ("drops", n(self.drops)),
            ("retx", n(self.retx)),
            ("pool_hits", n(self.pool_hits)),
            ("pool_misses", n(self.pool_misses)),
            ("p_ns", n(self.p_ns)),
            ("s_ns", n(self.s_ns)),
            ("m_ns", n(self.m_ns)),
            ("run_cpu_s", Value::Num(self.run_cpu_s)),
            ("vm_hwm_kb", n(self.vm_hwm_kb)),
            ("wall_ns", n(self.wall_ns)),
            ("spans", spans_to_json(&self.spans, false)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("child output lacks number `{key}`"))
        };
        let int = |key: &str| num(key).map(|x| x as u64);
        let digest = v
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("child output lacks hex `digest`")?;
        let spans = v
            .get("spans")
            .and_then(Value::as_arr)
            .ok_or("child output lacks `spans`")?
            .iter()
            .map(span_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChildOutput {
            events: int("events")?,
            rounds: int("rounds")?,
            fused_rounds: int("fused_rounds")?,
            threads: int("threads")?,
            lp_count: int("lp_count")?,
            lookahead_ns: int("lookahead_ns")?,
            digest,
            flows: int("flows")?,
            completed_flows: int("completed_flows")?,
            drops: int("drops")?,
            retx: int("retx")?,
            pool_hits: int("pool_hits")?,
            pool_misses: int("pool_misses")?,
            p_ns: int("p_ns")?,
            s_ns: int("s_ns")?,
            m_ns: int("m_ns")?,
            run_cpu_s: num("run_cpu_s")?,
            vm_hwm_kb: int("vm_hwm_kb")?,
            wall_ns: int("wall_ns")?,
            spans,
        })
    }
}

/// The span list as JSON; `with_self` adds each span's self time.
pub fn spans_to_json(spans: &[Span], with_self: bool) -> Value {
    let own = spans::self_times(spans);
    Value::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, own_ns)| {
                let mut pairs = vec![
                    ("name", Value::Str(s.name.clone())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                ];
                if with_self {
                    pairs.push(("self_ns", Value::Num(own_ns as f64)));
                }
                json::obj(pairs)
            })
            .collect(),
    )
}

fn span_from_json(v: &Value) -> Result<Span, String> {
    let num = |key: &str| {
        v.get(key)
            .and_then(Value::as_num)
            .map(|x| x as u64)
            .ok_or_else(|| format!("span lacks `{key}`"))
    };
    Ok(Span {
        name: v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("span lacks `name`")?
            .to_string(),
        start_ns: num("start_ns")?,
        end_ns: num("end_ns")?,
        parent: v.get("parent").and_then(Value::as_num).map(|p| p as usize),
    })
}

/// `utime + stime` of this process in seconds (fields 14 and 15 of
/// `/proc/self/stat`, in clock ticks of 1/100 s on Linux).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set size of this process in kB.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Model-level results of a finished world (no flows for PHOLD).
#[derive(Default)]
struct Collected {
    /// Events the model itself counted, where it counts them.
    handled: Option<u64>,
    flows: u64,
    completed_flows: u64,
    drops: u64,
    retx: u64,
}

/// The `setup` span: `build` turns the input into a runnable world (and
/// records `parse`, `topology`, `traffic` and `build` beneath the span),
/// then comes the standalone fine-grained partition.
fn setup<N: SimNode>(
    rec: &mut Recorder,
    build: impl FnOnce(&mut Recorder) -> Result<(World<N>, RunConfig), String>,
) -> Result<(World<N>, RunConfig, Partition), String> {
    rec.span("setup", |rec| {
        let (world, cfg) = build(rec)?;
        let partition = rec.span("partition", |_| fine_grained_partition(world.graph()));
        Ok((world, cfg, partition))
    })
}

/// The part of a run that is the same for every model: set-up, then
/// `kernel::run`, collect, digest and teardown, each under its own span.
fn execute<N: SimNode>(
    rec: &mut Recorder,
    telemetry: bool,
    build: impl FnOnce(&mut Recorder) -> Result<(World<N>, RunConfig), String>,
    collect: impl FnOnce(&World<N>) -> Collected,
    digest: impl FnOnce(&World<N>) -> u64,
) -> Result<ChildOutput, String> {
    let (world, cfg, partition) = setup(rec, build)?;
    let cfg = if telemetry { cfg.with_telemetry() } else { cfg };
    let cpu_before = cpu_seconds();
    let (world, report): (World<N>, RunReport) = rec
        .span("run", |_| kernel::run(world, &cfg))
        .map_err(|e| e.to_string())?;
    let run_cpu_s = cpu_seconds() - cpu_before;
    let collected = rec.span("collect", |_| collect(&world));
    let digest = rec.span("digest", |_| digest(&world));
    // Freeing a few hundred MB of world takes milliseconds the user also
    // waits for; without a span they would be a hole in the trace.
    rec.span("teardown", |_| drop(world));
    if collected.handled.is_some_and(|h| h != report.events) {
        return Err(format!(
            "the model handled {:?} events, the kernel reports {}",
            collected.handled, report.events
        ));
    }
    let psm = report.psm_total();
    Ok(ChildOutput {
        events: report.events,
        rounds: report.rounds,
        fused_rounds: report.fused_rounds,
        threads: u64::from(report.threads),
        lp_count: u64::from(partition.lp_count),
        lookahead_ns: partition.lookahead.as_nanos(),
        digest,
        flows: collected.flows,
        completed_flows: collected.completed_flows,
        drops: collected.drops,
        retx: collected.retx,
        pool_hits: report.engine.pool_hits,
        pool_misses: report.engine.pool_misses,
        p_ns: psm.p_ns,
        s_ns: psm.s_ns,
        m_ns: psm.m_ns,
        run_cpu_s,
        vm_hwm_kb: 0,
        wall_ns: 0,
        spans: Vec::new(),
    })
}

/// The kernel selection of a PHOLD file's `[run]` table.
fn phold_run_config(run: &toml::Table) -> Result<(RunConfig, Time), String> {
    let stop = run
        .get_int("stop_us")
        .and_then(|v| u64::try_from(v).ok())
        .filter(|v| *v > 0)
        .ok_or("[run] needs a positive `stop_us`")?;
    let threads = || {
        run.get_int("threads")
            .and_then(|v| usize::try_from(v).ok())
            .filter(|t| (1..=64).contains(t))
            .ok_or("[run] needs `threads` in 1..=64")
    };
    let cfg = match run.get_str("kernel") {
        Some("sequential") => RunConfig::sequential(),
        Some("unison") => RunConfig::unison(threads()?),
        Some("async_cons") => RunConfig::async_cons(threads()?),
        other => {
            return Err(format!(
                "[run] kernel {other:?} is not sequential | unison | async_cons"
            ))
        }
    };
    Ok((cfg, Time::from_micros(stop)))
}

/// Parses a PHOLD parameter file: model parameters, kernel, stop time.
fn parse_phold(text: &str) -> Result<(PholdParams, RunConfig, Time), String> {
    let tables = toml::parse(text).map_err(|e| format!("{e:?}"))?;
    let table = |name: &str| {
        tables
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| format!("input lacks a [{name}] table"))
    };
    let params = PholdParams::from_table(table("phold")?)?;
    let (cfg, stop) = phold_run_config(table("run")?)?;
    Ok((params, cfg, stop))
}

fn build_phold(rec: &mut Recorder, text: &str) -> Result<(World<PholdNode>, RunConfig), String> {
    let (params, cfg, stop) = rec.span("parse", |_| parse_phold(text))?;
    let topo = rec.span("topology", |_| params.topology());
    let population = rec.span("traffic", |_| phold::populate(&params));
    let world = rec.span("build", |_| phold::build_world(&topo, population, stop));
    Ok((world, cfg))
}

fn build_scenario(rec: &mut Recorder, text: &str) -> Result<(World<NetNode>, RunConfig), String> {
    let spec = rec
        .span("parse", |_| parse_scenario(text))
        .map_err(|e| e.to_string())?;
    let topo = rec.span("topology", |_| spec.build_topology());
    let builder = rec.span("traffic", |_| NetworkBuilder::from_scenario(&topo, &spec));
    let sim = rec.span("build", |_| builder.build());
    Ok((sim.world, spec.run_config(&topo)))
}

fn collect_flows(world: &World<NetNode>) -> Collected {
    let report = FlowReport::collect(world);
    Collected {
        handled: None,
        flows: report.total_flows(),
        completed_flows: report.completed_flows(),
        drops: report.drops,
        retx: report.retransmits,
    }
}

/// Whether `text` is a PHOLD parameter file rather than a scenario.
pub fn is_phold(text: &str) -> bool {
    text.lines().any(|l| l.trim() == "[phold]")
}

/// Runs the input `text` once and reports what happened.
pub fn run(text: &str, telemetry: bool) -> Result<ChildOutput, String> {
    let mut rec = Recorder::new();
    let mut out = if is_phold(text) {
        let collect = |world: &World<PholdNode>| Collected {
            handled: Some(phold::handled(world)),
            ..Default::default()
        };
        let build = |rec: &mut Recorder| build_phold(rec, text);
        execute(&mut rec, telemetry, build, collect, phold::digest)?
    } else {
        let build = |rec: &mut Recorder| build_scenario(rec, text);
        execute(&mut rec, telemetry, build, collect_flows, world_digest)?
    };
    out.wall_ns = rec.wall_ns();
    out.vm_hwm_kb = vm_hwm_kb();
    out.spans = rec.into_spans();
    Ok(out)
}

/// Sets the world up (the `setup` span and its children) without running
/// it, and returns the spans: one sample of the set-up stages.
pub fn setup_only(text: &str) -> Result<Vec<Span>, String> {
    let mut rec = Recorder::new();
    if is_phold(text) {
        setup(&mut rec, |rec: &mut Recorder| build_phold(rec, text))?;
    } else {
        setup(&mut rec, |rec: &mut Recorder| build_scenario(rec, text))?;
    }
    Ok(rec.into_spans())
}

/// The topology the input describes.
pub fn topology_of(text: &str) -> Result<Topology, String> {
    if is_phold(text) {
        Ok(parse_phold(text)?.0.topology())
    } else {
        Ok(parse_scenario(text)
            .map_err(|e| e.to_string())?
            .build_topology())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, Config, Workload, ALL_WORKLOADS};

    #[test]
    fn output_round_trips_through_json() {
        let out = run(
            &generate(Workload::PholdTorus, 5, 0.02, Config::Unison2),
            false,
        )
        .unwrap();
        assert!(out.events > 0 && out.lp_count == 1024 && out.threads == 2);
        let text = out.to_json().to_json();
        assert_eq!(
            ChildOutput::from_json(&json::parse(&text).unwrap()).unwrap(),
            out
        );
    }

    #[test]
    fn top_level_spans_cover_the_measured_wall() {
        let out = run(
            &generate(Workload::DumbbellDctcp, 5, 0.02, Config::Unison1),
            false,
        )
        .unwrap();
        let names: Vec<&str> = out.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "setup",
                "parse",
                "topology",
                "traffic",
                "build",
                "partition",
                "run",
                "collect",
                "digest",
                "teardown"
            ]
        );
        assert!(out.completed_flows <= out.flows && out.flows == 8);
        let top = spans::top_level_ns(&out.spans);
        assert!(top <= out.wall_ns);
        assert!(
            top as f64 >= 0.99 * out.wall_ns as f64,
            "{top} of {}",
            out.wall_ns
        );
    }

    #[test]
    fn unison_digests_agree_across_thread_counts_on_every_workload() {
        for w in ALL_WORKLOADS {
            let one = run(&generate(w, 9, 0.01, Config::Unison1), false).unwrap();
            let two = run(&generate(w, 9, 0.01, Config::Unison2), false).unwrap();
            let with_telemetry =
                run(&generate(w, 9, 0.01, Config::Unison2Telemetry), true).unwrap();
            assert!(one.events > 0, "{}", w.name());
            assert_eq!(
                (one.events, one.digest),
                (two.events, two.digest),
                "{}",
                w.name()
            );
            assert_eq!(two.digest, with_telemetry.digest, "{}", w.name());
        }
    }
}
