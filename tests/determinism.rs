//! Workspace-level integration: the paper's determinism claims (§5.2,
//! Fig. 11) at the full network-stack level.

use unison::core::{KernelKind, RunConfig, SchedConfig, SchedMetric, Time};
use unison::netsim::{NetworkBuilder, SimResult, TransportKind};
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
