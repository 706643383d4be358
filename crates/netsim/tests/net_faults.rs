//! Golden-digest tests of the simulated-network fault axis
//! (DESIGN.md §4.7): link flaps, node crash/recovery and deterministic
//! loss bursts installed by [`install_faults`] perturb the simulation at
//! exact virtual-time points, so the complete final model state — the
//! canonical `Snapshot` encoding of every node — is bit-identical across
//! the sequential kernel, every Unison thread count and every rerun, and
//! the transport visibly rides out each failure.
//!
//! A final state has every device queue drained, so each run also takes a
//! digest mid-run, from a global event at an instant when a host's queue
//! holds packets: queued packets' encoding is pinned too.

use std::sync::{Arc, Mutex};

use unison_core::{
    kernel, DataRate, KernelKind, MetricsLevel, PartitionMode, RunConfig, Snapshot, SnapshotWriter,
    Time,
};
use unison_netsim::{
    install_faults, world_digest as digest, FlowReport, NetFault, NetSim, NetworkBuilder,
};
use unison_topology::spine_leaf;
use unison_traffic::FlowSpec;

/// spine_leaf(2, 2, 2) node layout: spines 0–1, leaves 2–3, hosts 4–7
/// (4–5 under leaf 2, 6–7 under leaf 3).
const SPINE: usize = 0;
const LEAF: usize = 2;

/// A pinned two-LP partition: LP identity enters the deterministic
/// tie-break keys, so digests compare across kernels only under the same
/// assignment.
fn cfg(kernel: KernelKind, nodes: usize) -> RunConfig {
    RunConfig {
        kernel,
        partition: PartitionMode::Manual((0..nodes as u32).map(|i| i % 2).collect()),
        fusion: true,
        metrics: MetricsLevel::Summary,
        fel: Default::default(),
        watchdog: Default::default(),
    }
}

/// 40 cross-leaf flows over a 2-spine fabric, with `faults` installed.
fn sim_with(faults: &[NetFault]) -> NetSim {
    let topo = spine_leaf(2, 2, 2, DataRate::gbps(10), Time::from_micros(5));
    let hosts = topo.hosts();
    let flows: Vec<FlowSpec> = (0..40)
        .map(|i| FlowSpec {
            src: hosts[i % 2],
            dst: hosts[2 + (i % 2)],
            bytes: 20_000,
            start: Time::from_micros(100 * i as u64),
        })
        .collect();
    let mut sim = NetworkBuilder::new(&topo)
        // DCN-tuned 1 ms minimum RTO: flows whose losses need a timeout
        // (not just dupACKs) still finish well inside the horizon.
        .tcp_config(unison_netsim::TcpConfig::newreno_dcn())
        .flows(flows)
        .stop_at(Time::from_millis(30))
        .build();
    install_faults(&mut sim, faults);
    sim
}

/// The mid-run probe's instant: 4 µs after flow 20 starts, inside every
/// fault window but the loss burst's (which has ended), while its sender's
/// first window still waits in the host's device queue.
const PROBE_AT: Time = Time::from_micros(2_004);

/// Runs one faulted scenario on every kernel and pins the invariants:
/// identical final digest everywhere, the mid-run digest taken at
/// `PROBE_AT` equal to `mid` everywhere (with packets queued when it is
/// taken), and the caller's model-level checks hold. Returns the final
/// digest.
fn run_matrix(faults: &[NetFault], mid: u64, mut check: impl FnMut(&FlowReport)) -> u64 {
    let n = sim_with(faults).world.node_count();
    let kernels = [
        KernelKind::Sequential { compat_keys: false },
        KernelKind::Sequential { compat_keys: true },
        KernelKind::Unison { threads: 1 },
        KernelKind::Unison { threads: 2 },
        KernelKind::Unison { threads: 4 },
    ];
    let mut golden = None;
    for k in kernels {
        let mut sim = sim_with(faults);
        let probe = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&probe);
        sim.world.add_global_event(
            PROBE_AT,
            Box::new(move |wa| {
                let mut w = SnapshotWriter::new();
                let mut queued = 0;
                wa.for_each_node(|_, node| {
                    queued += node.devices.iter().map(|d| d.queue.len()).sum::<usize>();
                    node.save(&mut w);
                });
                *slot.lock().expect("probe slot") = Some((w.finish(), queued));
            }),
        );
        let (world, _) = kernel::try_run(sim.world, &cfg(k.clone(), n)).expect("faulted run");
        let report = FlowReport::collect(&world);
        check(&report);
        let d = digest(&world);
        let mut w = SnapshotWriter::new();
        world.nodes().for_each(|node| node.save(&mut w));
        assert_eq!(w.finish(), d, "the probe's encoding is not world_digest's");
        let (probed, queued) = probe.lock().expect("probe slot").expect("the probe fired");
        assert!(queued > 0, "kernel {k:?}: no packet queued at the probe");
        assert_eq!(probed, mid, "kernel {k:?}: mid-run digest {probed:#018x}");
        match golden {
            None => golden = Some(d),
            Some(g) => assert_eq!(d, g, "kernel {k:?} diverged: {}", report.one_line()),
        }
    }
    golden.expect("at least one kernel ran")
}

#[test]
fn link_flap_reroutes_and_is_digest_invariant() {
    let flap = [NetFault::LinkFlap {
        link: 0, // leaf 2 ↔ spine 0: half of host 4/5's uplink capacity
        down_at: Time::from_millis(1),
        up_at: Time::from_millis(4),
    }];
    let faulted = run_matrix(&flap, 0x65d8_c712_634f_274a, |r| {
        assert_eq!(r.completed_flows(), 40, "{}", r.one_line());
    });
    let clean = run_matrix(&[], 0x5a02_4f11_b05d_1358, |r| {
        assert_eq!(r.completed_flows(), 40, "{}", r.one_line());
    });
    assert_ne!(faulted, clean, "the flap must actually perturb the run");
}

#[test]
fn node_crash_and_recovery_keeps_flows_completing() {
    // Spine 0 falls off the fabric for 3 ms: every cross-leaf path
    // degrades to spine 1, then full capacity returns.
    let crash = [NetFault::NodeCrash {
        node: SPINE,
        at: Time::from_millis(1),
        recover_at: Time::from_millis(4),
    }];
    run_matrix(&crash, 0x9129_c45a_1f3c_adcf, |r| {
        assert_eq!(r.completed_flows(), 40, "{}", r.one_line());
    });
}

#[test]
fn loss_burst_drops_deterministically_and_tcp_recovers() {
    let burst = [NetFault::LossBurst {
        node: LEAF,
        from: Time::from_micros(200),
        until: Time::from_millis(2),
        period: 7,
    }];
    let mut drop_counts = Vec::new();
    run_matrix(&burst, 0xd8df_111c_dd1b_84d4, |r| {
        assert!(r.burst_drops > 0, "burst never fired: {}", r.one_line());
        assert!(r.retransmits > 0, "losses must force retransmits");
        assert_eq!(r.completed_flows(), 40, "{}", r.one_line());
        drop_counts.push(r.burst_drops);
    });
    // The digest already pins this, but make the axis explicit: the exact
    // same packets are lost on every kernel.
    assert!(
        drop_counts.windows(2).all(|w| w[0] == w[1]),
        "drop counts diverged: {drop_counts:?}"
    );
}

#[test]
fn fault_schedules_are_deterministic_across_reruns() {
    let mixed = [
        NetFault::LinkFlap {
            link: 1,
            down_at: Time::from_millis(1),
            up_at: Time::from_millis(3),
        },
        NetFault::LossBurst {
            node: SPINE + 1,
            from: Time::from_millis(2),
            until: Time::from_millis(5),
            period: 11,
        },
    ];
    let once = || {
        let sim = sim_with(&mixed);
        let n = sim.world.node_count();
        let (world, _) = kernel::try_run(sim.world, &cfg(KernelKind::Unison { threads: 2 }, n))
            .expect("mixed-fault run");
        digest(&world)
    };
    assert_eq!(once(), once());
}
