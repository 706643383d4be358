//! The measurement protocol: closed loop, one run at a time, every timed
//! run in a fresh child process of this binary, configurations interleaved
//! round by round (seq, 1t, 2t, seq, 1t, 2t, ...) so slow phases of the
//! machine fall on every configuration alike.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use unison_netsim::route::compute_static_tables;
use unison_telemetry::json;

use crate::child::{self, ChildOutput};
use crate::micro::{self, Effort};
use crate::spans::{self, Span};
use crate::stats::median;
use crate::workloads::{self, Config, Workload, DEFAULT_SEED};

/// A timed run that has not finished by then counts as failed.
const RUN_DEADLINE: Duration = Duration::from_secs(120);
/// Set-up-only children after every timed run: set-up takes about a
/// millisecond, so its median needs many more samples than the runs give.
const SETUP_ONLY_PER_RUN: usize = 3;

/// When to stop starting rounds.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Keep going while another round still fits into this many seconds
    /// (measured from the start of the workload's measurement).
    Seconds(f64),
    /// Exactly this many rounds.
    Rounds(usize),
}

pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// 1 for full-size runs, 0.1 for `--smoke`.
    pub scale: f64,
    /// The configurations of one round, in interleaving order.
    pub configs: Vec<Config>,
    pub budget: Budget,
    /// Also take the per-layer measurements: the traced run, the
    /// in-process set-up stage samples and the micro-timings.
    pub layers: bool,
    pub effort: Effort,
}

/// In-process medians of the set-up stages, microseconds.
pub struct Stages {
    pub parse_us: f64,
    pub topology_us: f64,
    pub traffic_us: f64,
    pub build_us: f64,
    pub partition_us: f64,
    pub static_tables_us: f64,
}

/// Everything measured for one workload.
pub struct Measurement {
    pub workload: Workload,
    pub seed: u64,
    pub scale: f64,
    /// Successful timed runs per configuration, in the order they ran.
    pub runs: BTreeMap<Config, Vec<ChildOutput>>,
    /// `setup` span seconds of the set-up-only children.
    pub setup_only_s: Vec<f64>,
    /// Seconds each reference run took (one before every timed run, one
    /// after the last): the machine's speed while the workload ran.
    pub reference_s: Vec<f64>,
    pub traced: Option<ChildOutput>,
    pub stages: Option<Stages>,
    pub micro: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub wall_s: f64,
}

impl Measurement {
    pub fn runs_of(&self, config: Config) -> &[ChildOutput] {
        self.runs.get(&config).map_or(&[], Vec::as_slice)
    }

    /// One value per successful run of `config`.
    pub fn samples(&self, config: Config, f: impl Fn(&ChildOutput) -> f64) -> Vec<f64> {
        self.runs_of(config).iter().map(f).collect()
    }

    /// `setup` span seconds of every child of the workload.
    pub fn setup_samples(&self) -> Vec<f64> {
        self.runs
            .values()
            .flatten()
            .map(|r| r.span_s("setup"))
            .chain(self.setup_only_s.iter().copied())
            .collect()
    }
}

/// What one child is asked to do.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Run,
    SetupOnly,
}

/// Runs this binary as a child to completion, `input` on its stdin, and
/// returns the last line it printed.
fn run_process(args: &[&str], input: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut proc = Command::new(exe)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    proc.stdin
        .take()
        .expect("stdin was piped")
        .write_all(input.as_bytes())
        .map_err(|e| format!("write input: {e}"))?;
    // The child prints only after its run, a few kB at most, so waiting
    // before reading cannot fill the pipe.
    let started = Instant::now();
    let status = loop {
        match proc.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > RUN_DEADLINE => {
                let _ = proc.kill();
                let _ = proc.wait();
                return Err(format!(
                    "exceeded the {} s deadline",
                    RUN_DEADLINE.as_secs()
                ));
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let mut stdout = String::new();
    std::io::Read::read_to_string(
        &mut proc.stdout.take().expect("stdout was piped"),
        &mut stdout,
    )
    .map_err(|e| format!("read output: {e}"))?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| "child printed nothing".to_string())
}

/// One timed (or set-up-only) run of the input `text` in a fresh process.
fn spawn_child(text: &str, config: Config, mode: Mode) -> Result<ChildOutput, String> {
    let mut args = vec!["--one"];
    if config.telemetry() {
        args.push("--telemetry");
    }
    if mode == Mode::SetupOnly {
        args.push("--setup-only");
    }
    ChildOutput::from_json(&json::parse(&run_process(&args, text)?)?)
}

/// One run of the reference computation in a fresh process, in seconds.
fn spawn_reference() -> Result<f64, String> {
    let line = run_process(&["--reference"], "")?;
    line.parse()
        .map_err(|e| format!("reference printed `{line}`: {e}"))
}

/// Checks one run against the workload's golden (default seed, full scale).
fn check_golden(plan: &Plan, config: Config, out: &ChildOutput) -> Result<(), String> {
    if plan.seed != DEFAULT_SEED || plan.scale != 1.0 {
        return Ok(());
    }
    let g = workloads::golden(plan.workload)?;
    let (events, digest) = if config.unison_order() {
        (g.events_unison, g.digest_unison)
    } else {
        (g.events_seq, g.digest_seq)
    };
    if out.events != events {
        return Err(format!("{} events, golden {events}", out.events));
    }
    if out.digest != digest {
        return Err(format!("digest {:016x}, golden {digest:016x}", out.digest));
    }
    if config.unison_order()
        && (out.completed_flows, out.drops, out.retx) != (g.completed_flows, g.drops, g.retx)
    {
        return Err(format!(
            "completed/drops/retx {}/{}/{}, golden {}/{}/{}",
            out.completed_flows, out.drops, out.retx, g.completed_flows, g.drops, g.retx
        ));
    }
    Ok(())
}

/// Median duration in microseconds of the span `name` over `samples`.
fn stage_us(samples: &[Vec<Span>], name: &str) -> f64 {
    let us: Vec<f64> = samples
        .iter()
        .map(|s| spans::dur_of(s, name) as f64 / 1e3)
        .collect();
    median(&us)
}

/// Sets the workload up in this process `effort.samples` times after a
/// warm-up and takes the median of each stage.
fn measure_stages(text: &str, effort: Effort) -> Result<Stages, String> {
    child::setup_only(text)?;
    let samples = (0..effort.samples)
        .map(|_| child::setup_only(text))
        .collect::<Result<Vec<_>, _>>()?;
    let adjacency = micro::adjacency(&child::topology_of(text)?);
    let tables_us: Vec<f64> = (0..effort.samples)
        .map(|_| micro::timed(|| compute_static_tables(&adjacency)).0 as f64 / 1e3)
        .collect();
    Ok(Stages {
        parse_us: stage_us(&samples, "parse"),
        topology_us: stage_us(&samples, "topology"),
        traffic_us: stage_us(&samples, "traffic"),
        build_us: stage_us(&samples, "build"),
        partition_us: stage_us(&samples, "partition"),
        static_tables_us: median(&tables_us),
    })
}

impl Measurement {
    /// Counts one operation and records its failure, if any.
    fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|e| self.failures.push(format!("{what}: {e}")))
            .ok()
    }

    /// Samples the machine's speed with one reference run.
    fn reference(&mut self) {
        let sample = self.attempt("reference run", spawn_reference());
        self.reference_s.extend(sample);
    }
}

/// Whether a run of `config` must end in the state the unison runs reach.
/// PHOLD never lets different senders tie, so there even the plain
/// sequential kernel must.
fn reaches_unison_state(workload: Workload, config: Config) -> bool {
    config.unison_order() || workload == Workload::PholdTorus
}

/// Measures one workload according to `plan`. `micro` holds the
/// workload-independent micro-timings, taken once per process.
pub fn measure(plan: &Plan, micro: &[(&'static str, f64)]) -> Measurement {
    let started = Instant::now();
    let text = |config| workloads::generate(plan.workload, plan.seed, plan.scale, config);
    let run = |config| {
        spawn_child(&text(config), config, Mode::Run)
            .and_then(|out| check_golden(plan, config, &out).map(|()| out))
    };
    let mut m = Measurement {
        workload: plan.workload,
        seed: plan.seed,
        scale: plan.scale,
        runs: BTreeMap::new(),
        setup_only_s: Vec::new(),
        reference_s: Vec::new(),
        traced: None,
        stages: None,
        micro: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        wall_s: 0.0,
    };

    if plan.layers {
        m.micro = micro.to_vec();
        let stages = measure_stages(&text(Config::Unison2), plan.effort);
        m.stages = m.attempt("in-process set-up", stages);
        // The traced run is an extra 2t run, not one of the timed repeats.
        m.traced = m.attempt("traced 2t run", run(Config::Unison2));
    }

    let mut rounds = 0;
    loop {
        let round_started = Instant::now();
        for &config in &plan.configs {
            m.reference();
            let out = run(config);
            let what = format!("{} run {}", config.label(), rounds + 1);
            if let Some(out) = m.attempt(&what, out) {
                m.runs.entry(config).or_default().push(out);
            }
            for _ in 0..SETUP_ONLY_PER_RUN {
                let out = spawn_child(&text(Config::Unison2), Config::Unison2, Mode::SetupOnly);
                let out = m.attempt("set-up-only child", out);
                m.setup_only_s.extend(out.map(|o| o.span_s("setup")));
            }
        }
        rounds += 1;
        let stop = match plan.budget {
            Budget::Rounds(n) => rounds >= n,
            Budget::Seconds(s) => (started.elapsed() + round_started.elapsed()).as_secs_f64() > s,
        };
        if stop {
            break;
        }
    }
    m.reference();

    // Whatever the seed, simulated results must not depend on the kernel
    // configuration: compare every run with the first 1t (else 2t) run.
    let reference = [Config::Unison1, Config::Unison2]
        .iter()
        .find_map(|c| m.runs_of(*c).first())
        .map(|r| (r.events, r.digest));
    if let Some(reference) = reference {
        let traced = m.traced.iter().map(|r| (Config::Unison2, r));
        let diverged: Vec<String> = m
            .runs
            .iter()
            .flat_map(|(config, runs)| runs.iter().map(move |r| (*config, r)))
            .chain(traced)
            .filter(|(config, r)| {
                reaches_unison_state(plan.workload, *config) && (r.events, r.digest) != reference
            })
            .map(|(config, r)| {
                format!(
                    "a {} run ended with {} events, digest {:016x}; the reference unison run with {} events, digest {:016x}",
                    config.label(), r.events, r.digest, reference.0, reference.1
                )
            })
            .collect();
        m.failures.extend(diverged);
    }
    m.wall_s = started.elapsed().as_secs_f64();
    m
}
