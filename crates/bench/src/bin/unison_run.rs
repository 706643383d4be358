//! `unison-run`: execute one declarative scenario file (DESIGN.md §4.10).
//!
//! ```sh
//! cargo run --release -p unison-bench --bin unison-run -- scenarios/quickstart.toml
//! ```
//!
//! The scenario file carries the whole experiment — topology, traffic,
//! transport, queues, routing, kernel, partitioning, scheduling, faults —
//! so two invocations of the same file produce bit-identical final model
//! state; the digest printed at the end is the proof, and the golden
//! corpus test pins it for every committed file under `scenarios/`.
//!
//! Flags:
//! - `--check` — parse and validate only, no simulation (CI runs this over
//!   the whole corpus);
//! - `--threads <n>` — override the worker count of the thread-scalable
//!   kernels (unison, async_cons) without editing the file;
//! - `--explain` — record spans and print where the wall time went: P/S/M
//!   per worker, per-round imbalance, scheduling regret, traffic
//!   (`unison_telemetry::write_report`, DESIGN.md §4.3);
//! - `--profile <dir>` — record spans and write the run's Chrome-trace JSON
//!   into `<dir>` (open it in ui.perfetto.dev or `chrome://tracing`);
//! - `--json <path>` — additionally write a machine-readable report.

use std::path::PathBuf;
use std::process::ExitCode;

use unison_core::KernelKind;
use unison_netsim::{world_digest, NetworkBuilder};
use unison_scenario::parse_scenario;
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

fn main() -> ExitCode {
    let cli = Cli::parse();
    let path = &cli.path;
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("unison-run: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match parse_scenario(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("unison-run: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let topo = spec.build_topology();
    let mut cfg = spec.run_config(&topo);

    if cli.check {
        println!(
            "OK {path}: `{}` on {} ({} nodes, {} links, {} hosts), kernel {:?}, stop {}",
            spec.name,
            topo.name,
            topo.node_count(),
            topo.links.len(),
            topo.hosts().len(),
            cfg.kernel,
            spec.run.stop,
        );
        return ExitCode::SUCCESS;
    }

    if let Some(threads) = cli.threads {
        cfg.kernel = match cfg.kernel {
            KernelKind::Unison { .. } => KernelKind::Unison { threads },
            KernelKind::AsyncCons { .. } => KernelKind::AsyncCons { threads },
            other => {
                eprintln!(
                    "unison-run: --threads only applies to the unison/async_cons \
                     kernels; this scenario runs {other:?}"
                );
                return ExitCode::from(2);
            }
        };
    }
    if cli.explain || cli.profile.is_some() {
        cfg = cfg.with_telemetry();
    }

    let sim = NetworkBuilder::from_scenario(&topo, &spec).build();
    let res = match sim.run_with(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("unison-run: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let digest = world_digest(&res.world);

    let r = &res.kernel;
    println!("scenario: {} ({path})", spec.name);
    println!(
        "topology: {} ({} nodes, {} links)",
        topo.name,
        topo.node_count(),
        topo.links.len()
    );
    println!(
        "kernel:   {} — {} events, {} rounds, {} LPs, lookahead {}, wall {:?}",
        r.kernel, r.events, r.rounds, r.lp_count, r.lookahead, r.wall
    );
    println!("flows:    {}", res.flows.one_line());
    println!("digest:   {digest:016x}");

    if cli.explain {
        println!();
        if let Err(e) = write_report(r, &mut std::io::stdout().lock()) {
            eprintln!("unison-run: write report: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let (Some(dir), Some(tel)) = (&cli.profile, &r.telemetry) {
        let slug: String = format!("{}-{}", spec.name, r.kernel)
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let trace = dir.join(format!("{}.json", slug.trim_end_matches('-')));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&trace, chrome_trace_json(tel)));
        if let Err(e) = written {
            eprintln!("unison-run: write {}: {e}", trace.display());
            return ExitCode::FAILURE;
        }
        eprintln!("unison-run: wrote {}", trace.display());
    }

    if let Some(json_path) = &cli.json {
        let num = |n: u64| Value::Num(n as f64);
        let text = |s: &str| Value::Str(s.to_string());
        let json = obj(vec![
            ("schema", text("unison-run/v1")),
            ("scenario", text(&spec.name)),
            ("file", text(path)),
            ("topology", text(&topo.name)),
            ("kernel", text(&r.kernel)),
            ("threads", num(r.threads.into())),
            ("events", num(r.events)),
            ("rounds", num(r.rounds)),
            ("lp_count", num(r.lp_count.into())),
            ("wall_ns", num(r.wall.as_nanos() as u64)),
            ("end_time_ns", num(r.end_time.as_nanos())),
            ("completed_flows", num(res.flows.completed_flows())),
            ("digest", text(&format!("{digest:016x}"))),
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
