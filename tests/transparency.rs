//! Workspace-level integration: the paper's user-transparency claim — one
//! model, every kernel, no model changes.

use unison::core::{KernelKind, RunConfig, Time};
use unison::netsim::{NetSim, NetworkBuilder, TransportKind};
use unison::topology::{fat_tree, Topology};
use unison::traffic::{SizeDist, TrafficConfig};

fn build(topo: &Topology) -> NetSim {
    let traffic = TrafficConfig::random_uniform(0.2)
        .with_seed(99)
        .with_sizes(SizeDist::Grpc)
        .with_window(Time::ZERO, Time::from_millis(1));
    NetworkBuilder::new(topo)
        .transport(TransportKind::NewReno)
        .traffic(&traffic)
        .stop_at(Time::from_millis(4))
        .build()
}

#[test]
fn every_kernel_runs_the_same_model() {
    let topo = fat_tree(4);
    let configs: Vec<(&str, RunConfig)> = vec![
        ("sequential", RunConfig::sequential()),
        ("unison", RunConfig::unison(2)),
    ];
    let mut events = Vec::new();
    for (name, cfg) in configs {
        let res = build(&topo).run_with(&cfg).unwrap_or_else(|e| {
            panic!("kernel {name} failed: {e}");
        });
        assert!(res.kernel.events > 10_000, "{name}: too few events");
        assert!(
            res.flows.completed_flows() > 0,
            "{name}: no flows completed"
        );
        events.push((name, res.kernel.events));
    }
    // The event population is identical for every kernel on this workload.
    let first = events[0].1;
    for (name, e) in &events {
        assert_eq!(*e, first, "kernel {name} diverged in event count");
    }
}

#[test]
fn partition_is_automatic_and_fine_grained() {
    let topo = fat_tree(4);
    let res = build(&topo).run(KernelKind::Unison { threads: 2 });
    // Uniform link delays: one LP per node — the finest granularity.
    assert_eq!(res.kernel.lp_count as usize, topo.node_count());
    assert_eq!(res.kernel.lookahead, Time::from_micros(3));
}

#[test]
fn thread_count_is_free_unlike_static_partitions() {
    // The baselines are stuck at their LP count; Unison takes any thread
    // count without reconfiguration.
    let topo = fat_tree(4);
    for threads in [1usize, 3, 7, 24] {
        let res = build(&topo).run(KernelKind::Unison { threads });
        assert_eq!(res.kernel.threads as usize, threads);
        assert!(res.flows.completed_flows() > 0);
    }
}
