//! Workspace-level integration: the paper's determinism claims (§5.2,
//! Fig. 11) at the full network-stack level.

use unison::core::{KernelKind, RunConfig, SchedConfig, SchedMetric, Time};
use unison::netsim::{world_digest, NetworkBuilder, SimResult, TransportKind};
use unison::scenario::parse_scenario;
use unison::topology::fat_tree;
use unison::traffic::{SizeDist, TrafficConfig};

fn run_sched(kernel: KernelKind, sched: SchedConfig) -> SimResult {
    let topo = fat_tree(4);
    let traffic = TrafficConfig::incast(0.3, 0.3)
        .with_seed(1234)
        .with_sizes(SizeDist::WebSearch)
        .with_window(Time::ZERO, Time::from_millis(1));
    let sim = NetworkBuilder::new(&topo)
        .transport(TransportKind::NewReno)
        .traffic(&traffic)
        .stop_at(Time::from_millis(3))
        .build();
    sim.run_with(&RunConfig {
        kernel,
        sched,
        ..RunConfig::unison(1)
    })
    .expect("run")
}

fn run(kernel: KernelKind) -> SimResult {
    run_sched(kernel, SchedConfig::default())
}

/// Everything observable, bit-exact: events, drops, retransmits, mean-RTT
/// bits, and per-flow completion records.
type Fingerprint = (u64, u64, u64, u64, Vec<(u32, u32, Option<Time>)>);

fn fingerprint(res: &SimResult) -> Fingerprint {
    (
        res.kernel.events,
        res.flows.drops,
        res.flows.retransmits,
        res.flows.rtt_ns.mean().to_bits(),
        res.flows
            .flows
            .iter()
            .map(|f| (f.flow.src, f.flow.dst, f.completed))
            .collect(),
    )
}

#[test]
fn unison_identical_across_thread_counts_and_repetitions() {
    let reference = fingerprint(&run(KernelKind::Unison { threads: 1 }));
    for threads in [2usize, 4, 8] {
        assert_eq!(
            fingerprint(&run(KernelKind::Unison { threads })),
            reference,
            "thread count {threads} changed results"
        );
    }
    // Repetition.
    assert_eq!(
        fingerprint(&run(KernelKind::Unison { threads: 4 })),
        reference
    );
}

/// §3.4 user-transparency at full-stack level: the load-adaptive scheduler
/// only reorders *when* LPs run inside a phase, never *what* they compute.
/// For each scheduling metric, the event-trace digest must be identical
/// across 1/2/4 worker threads — and identical between the metrics, since
/// both must reduce to the same deterministic event order.
#[test]
fn scheduling_metrics_identical_across_thread_counts() {
    let reference = fingerprint(&run(KernelKind::Unison { threads: 1 }));
    for metric in [SchedMetric::ByLastRoundTime, SchedMetric::ByPendingEvents] {
        for threads in [1usize, 2, 4] {
            let sched = SchedConfig {
                metric,
                period: Some(4),
                ..Default::default()
            };
            assert_eq!(
                fingerprint(&run_sched(KernelKind::Unison { threads }, sched)),
                reference,
                "metric {metric:?} with {threads} thread(s) changed results"
            );
        }
    }
}

#[test]
fn compat_sequential_equals_unison() {
    let seq = fingerprint(&run(KernelKind::Sequential { compat_keys: true }));
    let uni = fingerprint(&run(KernelKind::Unison { threads: 3 }));
    assert_eq!(seq, uni);
}

#[test]
fn hybrid_equals_unison() {
    let hy = fingerprint(&run(KernelKind::Hybrid {
        hosts: 2,
        threads_per_host: 2,
    }));
    let uni = fingerprint(&run(KernelKind::Unison { threads: 4 }));
    assert_eq!(hy, uni);
}

/// The two names the frozen benchmark still uses for a deleted kernel
/// (DESIGN.md §7) — `RunConfig::async_cons(n)` and `kernel = "async_cons"`
/// in a scenario — mean `unison(n)`: same digest, a report that says so,
/// and rounds, which that kernel never had. Goes with the aliases when the
/// benchmark is re-cut (ROADMAP item 1).
#[test]
fn the_async_cons_aliases_run_as_unison() {
    let quickstart = include_str!("../scenarios/quickstart.toml");
    let run = |src: &str, cfg: Option<RunConfig>| {
        let spec = parse_scenario(src).expect("parses");
        let topo = spec.build_topology();
        let cfg = cfg.unwrap_or_else(|| spec.run_config(&topo));
        let sim = NetworkBuilder::from_scenario(&topo, &spec).build();
        let res = sim.run_with(&cfg).expect("run");
        (
            world_digest(&res.world),
            res.kernel.kernel,
            res.kernel.rounds,
        )
    };
    let reference = run(quickstart, None);
    assert_eq!(reference.1, "unison(2)");
    assert!(reference.2 > 0);
    let spelled = quickstart.replace("kernel = \"unison\"", "kernel = \"async_cons\"");
    assert_ne!(spelled, quickstart);
    assert_eq!(run(&spelled, None), reference);
    assert_eq!(run(quickstart, Some(RunConfig::async_cons(2))), reference);
}
