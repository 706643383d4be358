//! Edge cases and failure-injection for the kernels and configuration.

use unison_core::{
    kernel, KernelError, KernelKind, MetricsLevel, NodeId, PartitionMode, RunConfig, SimCtx,
    SimCtxExt, SimNode, Time, WorldBuilder,
};

struct Counter {
    hits: u64,
    /// Re-schedule this many times.
    remaining: u64,
    gap: Time,
}

impl SimNode for Counter {
    type Payload = ();
    fn handle(&mut self, _p: (), ctx: &mut dyn SimCtx<Self>) {
        self.hits += 1;
        if self.remaining > 0 {
            self.remaining -= 1;
            let gap = self.gap;
            ctx.schedule_self(gap, ());
        }
    }
}

fn one_node_world(events: u64) -> unison_core::World<Counter> {
    let mut b = WorldBuilder::new();
    let n = b.add_node(Counter {
        hits: 0,
        remaining: events.saturating_sub(1),
        gap: Time(1_000),
    });
    if events > 0 {
        b.schedule(Time::ZERO, n, ());
    }
    b.build()
}

/// A configuration for each of the four kernels, `threads` wherever the
/// kernel takes a worker count.
fn every_kernel(threads: usize, assignment: Vec<u32>) -> [RunConfig; 4] {
    [
        RunConfig::sequential(),
        RunConfig::barrier(assignment.clone()),
        RunConfig::nullmsg(assignment),
        RunConfig::unison(threads),
    ]
}

#[test]
fn empty_world_is_rejected() {
    for cfg in every_kernel(1, Vec::new()) {
        let mut b: WorldBuilder<Counter> = WorldBuilder::new();
        b.stop_at(Time(1_000));
        let err = match kernel::run(b.build(), &cfg) {
            Err(e) => e,
            Ok(_) => panic!("{}: empty world should be rejected", cfg.kernel.name()),
        };
        let name = cfg.kernel.name();
        assert!(matches!(err, KernelError::InvalidPartition(_)), "{name}");
    }
}

#[test]
fn zero_threads_is_rejected() {
    for cfg in every_kernel(0, vec![0]) {
        let mut b = WorldBuilder::new();
        b.add_node(Counter {
            hits: 0,
            remaining: 0,
            gap: Time(1_000),
        });
        b.stop_at(Time(1_000));
        let name = cfg.kernel.name();
        // The LP-pinned kernels and the sequential one take no worker
        // count: nothing to reject.
        let counted = !matches!(
            cfg.kernel,
            KernelKind::Sequential { .. } | KernelKind::Barrier | KernelKind::NullMessage
        );
        match kernel::run(b.build(), &cfg) {
            Err(e) => assert!(
                counted && matches!(e, KernelError::InvalidConfig(_)),
                "{name}"
            ),
            Ok(_) => assert!(!counted, "{name}: 0 threads should be rejected"),
        }
    }
}

#[test]
fn world_with_no_events_terminates_immediately() {
    let (_, report) = kernel::run(one_node_world(0), &RunConfig::unison(2)).unwrap();
    assert_eq!(report.events, 0);
    let (_, report) = kernel::run(one_node_world(0), &RunConfig::sequential()).unwrap();
    assert_eq!(report.events, 0);
}

#[test]
fn run_without_stop_time_drains_all_events() {
    // No stop_at: the kernels must terminate when the FELs empty.
    for cfg in [RunConfig::sequential(), RunConfig::unison(2)] {
        let (world, report) = kernel::run(one_node_world(57), &cfg).unwrap();
        assert_eq!(report.events, 57, "kernel {}", report.kernel);
        assert_eq!(world.node(NodeId(0)).hits, 57);
    }
}

#[test]
fn single_lp_barrier_kernel_degenerates_gracefully() {
    let world = one_node_world(25);
    let cfg = RunConfig {
        watchdog: Default::default(),
        kernel: KernelKind::Barrier,
        partition: PartitionMode::SingleLp,
        fusion: true,
        metrics: MetricsLevel::Summary,
        fel: Default::default(),
    };
    let (_, report) = kernel::run(world, &cfg).unwrap();
    assert_eq!(report.events, 25);
    assert_eq!(report.lp_count, 1);
}

#[test]
fn more_threads_than_lps_is_fine() {
    let (_, report) = kernel::run(one_node_world(10), &RunConfig::unison(8)).unwrap();
    assert_eq!(report.events, 10);
    assert_eq!(report.threads, 8);
    assert_eq!(report.lp_count, 1);
}

#[test]
fn manual_partition_wrong_length_is_rejected() {
    let cfg = RunConfig {
        watchdog: Default::default(),
        kernel: KernelKind::Unison { threads: 1 },
        partition: PartitionMode::Manual(vec![0, 1]),
        fusion: true,
        metrics: MetricsLevel::Summary,
        fel: Default::default(),
    };
    let err = match kernel::run(one_node_world(1), &cfg) {
        Err(e) => e,
        Ok(_) => panic!("mismatched assignment should be rejected"),
    };
    assert!(matches!(err, KernelError::InvalidPartition(_)));
}

#[test]
fn kernel_names_are_stable() {
    assert_eq!(
        KernelKind::Sequential { compat_keys: false }.name(),
        "sequential"
    );
    assert_eq!(
        KernelKind::Sequential { compat_keys: true }.name(),
        "sequential(compat)"
    );
    assert_eq!(KernelKind::Barrier.name(), "barrier");
    assert_eq!(KernelKind::NullMessage.name(), "nullmsg");
    assert_eq!(KernelKind::Unison { threads: 4 }.name(), "unison");
}

#[test]
fn report_throughput_helpers() {
    let (_, report) = kernel::run(one_node_world(1_000), &RunConfig::sequential()).unwrap();
    assert!(report.events_per_sec() > 0.0);
    assert!(report.wall.as_nanos() > 0);
}

#[test]
fn stop_exactly_at_first_event_runs_nothing() {
    let mut b = WorldBuilder::new();
    let n = b.add_node(Counter {
        hits: 0,
        remaining: 0,
        gap: Time(1),
    });
    b.schedule(Time(5_000), n, ());
    b.stop_at(Time(5_000));
    let (world, report) = kernel::run(b.build(), &RunConfig::unison(1)).unwrap();
    // Stop bound is exclusive: the event at exactly stop time never runs.
    assert_eq!(report.events, 0);
    assert_eq!(world.node(n).hits, 0);
}

#[test]
fn two_isolated_components_simulate_independently() {
    // No links at all: every node its own LP, lookahead infinite, each
    // island drains its own events.
    let mut b = WorldBuilder::new();
    let a = b.add_node(Counter {
        hits: 0,
        remaining: 4,
        gap: Time(10),
    });
    let c = b.add_node(Counter {
        hits: 0,
        remaining: 9,
        gap: Time(7),
    });
    b.schedule(Time::ZERO, a, ());
    b.schedule(Time::ZERO, c, ());
    let (world, report) = kernel::run(b.build(), &RunConfig::unison(2)).unwrap();
    assert_eq!(world.node(a).hits, 5);
    assert_eq!(world.node(c).hits, 10);
    assert_eq!(report.events, 15);
    assert_eq!(report.lookahead, Time::MAX);
}
