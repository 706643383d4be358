//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! unison-benchmark [--seed N] [--repeats R] [--smoke] [--out FILE]
//!     all four workloads: end-to-end and per-layer metrics, traced run
//! unison-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//!     one workload for S seconds; the last line is the contract's JSON
//! unison-benchmark compare A.json B.json
//! unison-benchmark generate NAME [--seed N]
//! ```

mod child;
mod compare;
mod driver;
mod micro;
mod phold;
mod reference;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use unison_telemetry::json::{self, Value};

use driver::{Budget, Measurement, Plan};
use micro::Effort;
use workloads::{Config, Workload, ALL_WORKLOADS, DEFAULT_SEED, PARALLEL_THREADS};

const E2E_CONFIGS: [Config; 3] = [Config::Seq, Config::Unison1, Config::Unison2];
const ALL_CONFIGS: [Config; 5] = [
    Config::Seq,
    Config::Unison1,
    Config::Unison2,
    Config::Unison2Telemetry,
    Config::Async2,
];

/// Command-line options of the two measuring modes.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeats: usize,
    smoke: bool,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        repeats: 5,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let names: Vec<&str> = ALL_WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (expected {})", names.join(" | "))
                })?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            "--repeats" => {
                o.repeats = value()?.parse().map_err(|e| format!("--repeats: {e}"))?;
                if !(1..=100).contains(&o.repeats) {
                    return Err("--repeats must be in 1..=100".into());
                }
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the numbers were taken: a ratio is never read without its
/// core count.
fn provenance(o: &Options, wall_s: f64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("cpu_model", Value::Str(cpu_model)),
        (
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        (
            "threads",
            json::obj(vec![
                ("seq", Value::Num(1.0)),
                ("1t", Value::Num(1.0)),
                ("2t", Value::Num(PARALLEL_THREADS as f64)),
                ("async_cons_2t", Value::Num(PARALLEL_THREADS as f64)),
            ]),
        ),
        ("seed", Value::Num(o.seed as f64)),
        (
            "budget",
            Value::Str(match o.seconds {
                Some(s) => format!("{s} s per workload"),
                None => format!(
                    "{} rounds per workload",
                    if o.smoke { 1 } else { o.repeats }
                ),
            }),
        ),
        ("smoke", Value::Bool(o.smoke)),
        ("wall_s", Value::Num(wall_s)),
    ])
}

fn write_result(o: &Options, measurements: &[Measurement], wall_s: f64) -> Result<(), String> {
    let Some(path) = &o.out else {
        return Ok(());
    };
    let doc = json::obj(vec![
        ("schema", Value::Str(report::SCHEMA.into())),
        ("provenance", provenance(o, wall_s)),
        (
            "workloads",
            Value::Arr(measurements.iter().map(report::workload_json).collect()),
        ),
    ]);
    std::fs::write(path, doc.to_json() + "\n").map_err(|e| format!("{path}: {e}"))?;
    eprintln!("unison-benchmark: wrote {path}");
    Ok(())
}

/// The two measuring modes; `Ok(true)` when no operation failed.
fn measure(o: &Options) -> Result<bool, String> {
    let started = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    if nproc < PARALLEL_THREADS {
        eprintln!("unison-benchmark: {nproc} core(s) for {PARALLEL_THREADS}-thread runs: 2t numbers are oversubscribed");
    }
    let (scale, effort) = if o.smoke {
        (0.1, Effort::SMOKE)
    } else {
        (1.0, Effort::FULL)
    };
    let layers = o.trace || o.seconds.is_none();
    let micro = if layers {
        micro::run_all(effort)
    } else {
        Vec::new()
    };
    if o.seconds.is_some() && o.workload.is_none() {
        return Err("--seconds needs --workload".into());
    }
    // With `--seconds` (the contract's form) `--trace` picks one kind of
    // metrics; without it a run takes both.
    let measurements: Vec<Measurement> = ALL_WORKLOADS
        .into_iter()
        .filter(|w| o.workload.is_none_or(|only| only == *w))
        .map(|workload| {
            let plan = Plan {
                workload,
                seed: o.seed,
                scale,
                configs: if layers {
                    ALL_CONFIGS.to_vec()
                } else {
                    E2E_CONFIGS.to_vec()
                },
                budget: match o.seconds {
                    Some(seconds) => Budget::Seconds(seconds),
                    None => Budget::Rounds(if o.smoke { 1 } else { o.repeats }),
                },
                layers,
                effort,
            };
            driver::measure(&plan, &micro)
        })
        .collect();
    for m in &measurements {
        report::print_workload(m);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let failed: usize = measurements.iter().map(|m| m.failures.len()).sum();
    let attempted: u64 = measurements.iter().map(|m| m.attempted).sum();
    println!("\nops_attempted {attempted}, ops_failed {failed}, wall {wall_s:.1} s");
    write_result(o, &measurements, wall_s)?;
    if o.seconds.is_some() {
        println!("{}", report::contract_line(&measurements[0], o.trace));
    }
    Ok(failed == 0)
}

/// The child side of the protocol: input on stdin, one JSON line out.
fn run_child(flags: &[String]) -> Result<(), String> {
    let mut text = String::new();
    std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
        .map_err(|e| format!("stdin: {e}"))?;
    let has = |flag: &str| flags.iter().any(|f| f == flag);
    let out = if has("--setup-only") {
        child::ChildOutput {
            spans: child::setup_only(&text)?,
            ..Default::default()
        }
    } else {
        child::run(&text, has("--telemetry"))?
    };
    println!("{}", out.to_json().to_json());
    Ok(())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("--one") => run_child(args).map(|()| true),
        Some("--reference") => {
            println!("{}", reference::run_once());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("generate") => {
            let workload = args
                .get(1)
                .and_then(|name| Workload::from_name(name))
                .ok_or("usage: generate NAME [--seed N]")?;
            let seed = parse_options(&args[2..])?.seed;
            print!(
                "{}",
                workloads::generate(workload, seed, 1.0, Config::Unison2)
            );
            Ok(true)
        }
        _ => measure(&parse_options(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("unison-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
