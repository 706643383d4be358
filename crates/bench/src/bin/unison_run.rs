//! `unison-run`: execute one declarative scenario file (DESIGN.md §4.10).
//!
//! ```sh
//! cargo run --release -p unison-bench --bin unison-run -- scenarios/quickstart.toml
//! ```
//!
//! The scenario file carries the whole experiment — topology, traffic,
//! transport, queues, routing, kernel, partitioning, the model to replay —
//! so two invocations of the same file produce bit-identical final model
//! state; the digest printed at the end is the proof, and the golden
//! corpus test pins it for every committed file under `scenarios/`.
//!
//! A paper figure is such a file with two more tables: `[sweep.<section>]`
//! lists make it several rows, run one after the other in file order, and
//! `[model]` has each row profiled and replayed over virtual cores, the
//! fixed record (`unison_bench::model_records`) printed after its real run.
//!
//! Flags:
//! - `--check` — parse and validate every row, no simulation (CI runs this
//!   over the whole corpus);
//! - `--threads <n>` — override the worker count of the unison kernel in
//!   every row without editing the file;
//! - `--explain` — record spans and print where the wall time went: P/S/M
//!   per worker, per-round imbalance, scheduling regret, traffic
//!   (`unison_telemetry::write_report`, DESIGN.md §4.3);
//! - `--profile <dir>` — record spans and write the run's Chrome-trace JSON
//!   into `<dir>` (open it in ui.perfetto.dev or `chrome://tracing`);
//! - `--json <path>` — additionally write a machine-readable report
//!   (`unison-run/v2`: one object per row under `rows`).

use std::path::PathBuf;
use std::process::ExitCode;

use unison_bench::{model_records, write_records};
use unison_core::KernelKind;
use unison_netsim::{world_digest, NetworkBuilder};
use unison_scenario::{parse_rows, ScenarioRow};
use unison_telemetry::json::{obj, Value};
use unison_telemetry::{chrome_trace_json, write_report};

fn usage() -> ! {
    eprintln!(
        "usage: unison-run <scenario.toml> [--check] [--threads <n>] \
         [--explain] [--profile <dir>] [--json <path>]"
    );
    std::process::exit(2)
}

/// The parsed command line.
struct Cli {
    path: String,
    check: bool,
    threads: Option<usize>,
    explain: bool,
    profile: Option<PathBuf>,
    json: Option<PathBuf>,
}

impl Cli {
    /// The one scan of the process arguments. Anything it does not
    /// understand — an unknown flag, a value flag without its operand, a
    /// thread count that is not a positive integer, a second or missing
    /// scenario file — is a usage error (exit 2).
    fn parse() -> Cli {
        let mut path = None;
        let mut check = false;
        let mut threads = None;
        let mut explain = false;
        let mut profile = None;
        let mut json = None;
        let mut args = std::env::args().skip(1).peekable();
        while let Some(a) = args.next() {
            let mut operand = || {
                args.next_if(|v| !v.starts_with("--")).unwrap_or_else(|| {
                    eprintln!("unison-run: `{a}` expects a value");
                    usage()
                })
            };
            match a.as_str() {
                "--check" => check = true,
                "--threads" => {
                    let v = operand();
                    match v.parse() {
                        Ok(n) if n >= 1 => threads = Some(n),
                        _ => {
                            eprintln!(
                                "unison-run: --threads expects a positive integer, got `{v}`"
                            );
                            usage();
                        }
                    }
                }
                "--explain" => explain = true,
                "--profile" => profile = Some(PathBuf::from(operand())),
                "--json" => json = Some(PathBuf::from(operand())),
                _ if a.starts_with("--") => {
                    eprintln!("unison-run: unknown flag `{a}`");
                    usage();
                }
                _ if path.is_none() => path = Some(a),
                _ => {
                    eprintln!("unison-run: more than one scenario file given");
                    usage();
                }
            }
        }
        Cli {
            path: path.unwrap_or_else(|| usage()),
            check,
            threads,
            explain,
            profile,
            json,
        }
    }
}

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Runs (or, under `--check`, only describes) row `i` of `n` and returns
/// its `--json` object; the exit code on failure.
fn run_row(cli: &Cli, row: &ScenarioRow, i: usize, n: usize) -> Result<Value, ExitCode> {
    let path = &cli.path;
    let spec = &row.spec;
    // A plain file prints exactly what it always did; the rows of a sweep
    // are told apart by their position and swept values.
    let at = if n > 1 {
        format!("row {}/{n} ({}): ", i + 1, row.label)
    } else {
        String::new()
    };
    let topo = spec.build_topology();
    let mut cfg = spec.run_config(&topo);

    if cli.check {
        println!(
            "OK {path}: {at}`{}` on {} ({} nodes, {} links, {} hosts), kernel {:?}, stop {}",
            spec.name,
            topo.name,
            topo.node_count(),
            topo.links.len(),
            topo.hosts().len(),
            cfg.kernel,
            spec.run.stop,
        );
        return Ok(Value::Null);
    }

    if let Some(threads) = cli.threads {
        cfg.kernel = match cfg.kernel {
            KernelKind::Unison { .. } => KernelKind::Unison { threads },
            other => {
                eprintln!(
                    "unison-run: --threads only applies to the unison kernel; \
                     this scenario runs {other:?}"
                );
                return Err(ExitCode::from(2));
            }
        };
    }
    if cli.explain || cli.profile.is_some() {
        cfg = cfg.with_telemetry();
    }
    let fail = |e: &dyn std::fmt::Display| {
        eprintln!("unison-run: {path}: {at}{e}");
        ExitCode::FAILURE
    };

    let sim = NetworkBuilder::from_scenario(&topo, spec).build();
    let res = sim.run_with(&cfg).map_err(|e| fail(&e))?;
    let digest = world_digest(&res.world);

    let r = &res.kernel;
    if n > 1 {
        println!(
            "{}== row {}/{n} ({})",
            if i > 0 { "\n" } else { "" },
            i + 1,
            row.label
        );
    }
    println!("scenario: {} ({path})", spec.name);
    println!(
        "topology: {} ({} nodes, {} links)",
        topo.name,
        topo.node_count(),
        topo.links.len()
    );
    println!(
        "kernel:   {} — {} events, {} rounds, {} LPs, lookahead {}, wall {:?}, {} node switches",
        r.kernel,
        r.events,
        r.rounds,
        r.lp_count,
        r.lookahead,
        r.wall,
        r.node_switches()
    );
    println!("flows:    {}", res.flows.one_line());
    println!("digest:   {digest:016x}");

    let records = model_records(&topo, spec).map_err(|e| fail(&e))?;
    if !records.is_empty() {
        write_records(&records, &mut std::io::stdout().lock()).map_err(|e| fail(&e))?;
    }

    if cli.explain {
        println!();
        write_report(r, &mut std::io::stdout().lock()).map_err(|e| fail(&e))?;
    }
    if let (Some(dir), Some(tel)) = (&cli.profile, &r.telemetry) {
        let row_no = if n > 1 {
            (i + 1).to_string()
        } else {
            String::new()
        };
        let slug: String = format!("{}-{}-{row_no}", spec.name, r.kernel)
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let trace = dir.join(format!("{}.json", slug.trim_end_matches('-')));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&trace, chrome_trace_json(tel)))
            .map_err(|e| fail(&format!("write {}: {e}", trace.display())))?;
        eprintln!("unison-run: wrote {}", trace.display());
    }

    let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
    let model = records.iter().map(|r| {
        let m = &r.result;
        let rounds = r.round_s_ratio();
        obj(vec![
            ("algorithm", text(&m.algorithm)),
            ("partition", text(&r.partition)),
            ("lp_count", num(r.lp_count.into())),
            ("events", num(r.events)),
            ("cores", num(m.cores as u64)),
            ("t_ns", Value::Num(m.total_ns)),
            ("p_ns", Value::Num(m.p_total())),
            ("s_ns", Value::Num(m.s_total())),
            ("m_ns", Value::Num(m.m_total())),
            ("s_ratio", Value::Num(m.s_ratio())),
            ("round_s_ratio_mean", opt(rounds.map(|r| r.0))),
            ("round_s_ratio_min", opt(rounds.map(|r| r.1))),
            ("round_s_ratio_max", opt(rounds.map(|r| r.2))),
            ("alpha", opt(m.alpha)),
            ("sched_cost_ns", opt(m.sched_cost_ns)),
        ])
    });
    Ok(obj(vec![
        ("sweep", text(&row.label)),
        ("scenario", text(&spec.name)),
        ("topology", text(&topo.name)),
        ("kernel", text(&r.kernel)),
        ("threads", num(r.threads.into())),
        ("events", num(r.events)),
        ("rounds", num(r.rounds)),
        ("lp_count", num(r.lp_count.into())),
        ("wall_ns", num(r.wall.as_nanos() as u64)),
        ("end_time_ns", num(r.end_time.as_nanos())),
        ("node_switches", num(r.node_switches())),
        ("completed_flows", num(res.flows.completed_flows())),
        ("digest", text(&format!("{digest:016x}"))),
        ("model", Value::Arr(model.collect())),
    ]))
}

fn main() -> ExitCode {
    let cli = Cli::parse();
    let path = &cli.path;
    let rows = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|src| parse_rows(&src).map_err(|e| e.to_string()))
    {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("unison-run: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reports = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        match run_row(&cli, row, i, rows.len()) {
            Ok(report) => reports.push(report),
            Err(code) => return code,
        }
    }
    if let (Some(json_path), false) = (&cli.json, cli.check) {
        let json = obj(vec![
            ("schema", text("unison-run/v2")),
            ("file", text(path)),
            ("rows", Value::Arr(reports)),
        ])
        .to_json();
        if let Err(e) = std::fs::write(json_path, json + "\n") {
            eprintln!("unison-run: write {}: {e}", json_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("unison-run: wrote {}", json_path.display());
    }
    ExitCode::SUCCESS
}
