//! End-to-end network simulation tests across kernels.

use unison_core::DataRate;
use unison_core::{KernelKind, MetricsLevel, PartitionMode, RunConfig, SimError, Time};
use unison_netsim::{
    recompute_static_routes, set_link_state, NetworkBuilder, QueueConfig, RoutingKind,
    TransportKind,
};
use unison_topology::{dumbbell, fat_tree, geant, manual, spine_leaf};
use unison_traffic::{FlowSpec, SizeDist, TrafficConfig};

fn small_traffic(load: f64, seed: u64) -> TrafficConfig {
    TrafficConfig::random_uniform(load)
        .with_seed(seed)
        .with_sizes(SizeDist::Grpc)
        .with_window(Time::ZERO, Time::from_millis(2))
}

#[test]
fn flows_complete_on_unison() {
    let topo = fat_tree(4);
    let sim = NetworkBuilder::new(&topo)
        .transport(TransportKind::NewReno)
        .traffic(&small_traffic(0.2, 1))
        .stop_at(Time::from_millis(10))
        .build();
    let res = sim.run(KernelKind::Unison { threads: 2 });
    assert!(
        res.flows.total_flows() > 20,
        "flows: {}",
        res.flows.total_flows()
    );
    let completion = res.flows.completed_flows() as f64 / res.flows.total_flows() as f64;
    assert!(
        completion > 0.95,
        "only {:.0}% of flows completed: {}",
        completion * 100.0,
        res.flows.one_line()
    );
    assert!(res.flows.mean_rtt().as_nanos() > 0);
}

#[test]
fn single_flow_fct_matches_analytic_bound() {
    // One 100 kB flow across the fat-tree: 4 hops of 10 Gbps links, 3 µs
    // delay each. FCT must exceed the store-and-forward + serialization
    // lower bound and stay within a small factor of it.
    let topo = fat_tree(4).with_rate(DataRate::gbps(10));
    let hosts = topo.hosts();
    let flow = FlowSpec {
        src: hosts[0],
        dst: hosts[15], // different pod -> 6 hops via core
        bytes: 100_000,
        start: Time::ZERO,
    };
    let sim = NetworkBuilder::new(&topo)
        .flows([flow])
        .stop_at(Time::from_millis(50))
        .build();
    let res = sim.run(KernelKind::Sequential { compat_keys: false });
    assert_eq!(res.flows.completed_flows(), 1);
    let fct = res.flows.flows[0].fct().expect("completed");
    // Serialization of 100kB at 10Gbps = 80 µs; 6 links -> 18 µs
    // propagation. Handshake-free, so FCT >= ~98 µs.
    assert!(fct >= Time::from_micros(98), "fct {fct}");
    assert!(fct <= Time::from_micros(500), "fct {fct} too slow");
}

#[test]
fn all_kernels_complete_the_same_flows() {
    let topo = fat_tree(4);
    let build = || {
        NetworkBuilder::new(&topo)
            .transport(TransportKind::NewReno)
            .traffic(&small_traffic(0.15, 3))
            .stop_at(Time::from_millis(8))
            .build()
    };
    let seq = build().run(KernelKind::Sequential { compat_keys: false });
    let uni = build().run(KernelKind::Unison { threads: 3 });
    assert_eq!(seq.flows.total_flows(), uni.flows.total_flows());
    assert_eq!(seq.flows.completed_flows(), uni.flows.completed_flows());
}

#[test]
fn unison_flow_stats_bitwise_deterministic_across_threads() {
    let topo = fat_tree(4);
    let run = |threads| {
        let sim = NetworkBuilder::new(&topo)
            .transport(TransportKind::NewReno)
            .traffic(&small_traffic(0.2, 5))
            .stop_at(Time::from_millis(6))
            .build();
        let res = sim.run(KernelKind::Unison { threads });
        (
            res.kernel.events,
            res.flows
                .flows
                .iter()
                .map(|f| (f.flow, f.completed, f.retransmits))
                .collect::<Vec<_>>(),
            res.flows.rtt_ns.mean().to_bits(),
            res.flows.fct_us.mean().to_bits(),
        )
    };
    let a = run(1);
    let b = run(2);
    let c = run(4);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn unison_matches_compat_sequential_on_network() {
    let topo = fat_tree(4);
    let build = || {
        NetworkBuilder::new(&topo)
            .transport(TransportKind::NewReno)
            .traffic(&small_traffic(0.2, 9))
            .stop_at(Time::from_millis(5))
            .build()
    };
    let seq = build()
        .run_with(&RunConfig {
            watchdog: Default::default(),
            kernel: KernelKind::Sequential { compat_keys: true },
            partition: PartitionMode::Auto,
            fusion: true,
            metrics: MetricsLevel::Summary,
            fel: Default::default(),
        })
        .unwrap();
    let uni = build().run(KernelKind::Unison { threads: 4 });
    assert_eq!(seq.kernel.events, uni.kernel.events);
    assert_eq!(
        seq.flows.rtt_ns.mean().to_bits(),
        uni.flows.rtt_ns.mean().to_bits()
    );
    assert_eq!(seq.flows.drops, uni.flows.drops);
}

#[test]
fn dctcp_marks_and_newreno_drops_under_incast() {
    let topo = dumbbell(
        8,
        8,
        DataRate::gbps(1),
        DataRate::gbps(1),
        Time::from_micros(20),
    );
    let hosts = topo.hosts();
    // 8 senders each push 500 kB at the same receiver through the
    // bottleneck.
    let flows: Vec<FlowSpec> = (0..8)
        .map(|i| FlowSpec {
            src: hosts[i],
            dst: hosts[8],
            bytes: 500_000,
            start: Time::from_micros(10 * i as u64),
        })
        .collect();
    let reno = NetworkBuilder::new(&topo)
        .transport(TransportKind::NewReno)
        .queue(QueueConfig::DropTail {
            limit_bytes: 250_000,
        })
        .flows(flows.clone())
        .stop_at(Time::from_millis(200))
        .build()
        .run(KernelKind::Unison { threads: 2 });
    let dctcp = NetworkBuilder::new(&topo)
        .transport(TransportKind::Dctcp)
        .queue(QueueConfig::dctcp(1 << 20, 8_000))
        .flows(flows)
        .stop_at(Time::from_millis(200))
        .build()
        .run(KernelKind::Unison { threads: 2 });
    assert!(
        reno.flows.drops > 0,
        "NewReno+DropTail should drop: {}",
        reno.flows.one_line()
    );
    assert!(
        dctcp.flows.marks > 0,
        "DCTCP should mark: {}",
        dctcp.flows.one_line()
    );
    assert_eq!(dctcp.flows.completed_flows(), 8);
    // DCTCP keeps queues shallow: lower mean queue delay.
    assert!(
        dctcp.flows.queue_delay_ns.mean() < reno.flows.queue_delay_ns.mean(),
        "dctcp qdelay {} vs reno {}",
        dctcp.flows.queue_delay_ns.mean(),
        reno.flows.queue_delay_ns.mean()
    );
}

#[test]
fn ecmp_spreads_flows_in_spine_leaf() {
    let topo = spine_leaf(4, 4, 4, DataRate::gbps(10), Time::from_micros(3));
    let sim = NetworkBuilder::new(&topo)
        .traffic(
            &TrafficConfig::random_uniform(0.3)
                .with_seed(2)
                .with_sizes(SizeDist::Grpc)
                .with_window(Time::ZERO, Time::from_millis(2)),
        )
        .stop_at(Time::from_millis(6))
        .build();
    let res = sim.run(KernelKind::Unison { threads: 2 });
    assert!(res.flows.completed_flows() > 0);
    // Every spine should have forwarded a share of the traffic.
    for spine in 0..4u32 {
        let node = res.world.node(unison_core::NodeId(spine));
        assert!(
            node.mon.forwarded > 0,
            "spine {spine} forwarded nothing: ECMP not spreading"
        );
    }
}

#[test]
fn rip_converges_and_routes_flows() {
    let topo = geant();
    let hosts = topo.hosts();
    let flows: Vec<FlowSpec> = (0..10)
        .map(|i| FlowSpec {
            src: hosts[i],
            dst: hosts[hosts.len() - 1 - i],
            bytes: 50_000,
            // Give RIP 60ms to converge first.
            start: Time::from_millis(60),
        })
        .collect();
    let sim = NetworkBuilder::new(&topo)
        .routing(RoutingKind::Rip {
            update_interval: Time::from_millis(20),
        })
        .flows(flows)
        .stop_at(Time::from_millis(400))
        .build();
    let res = sim.run(KernelKind::Unison { threads: 2 });
    assert_eq!(
        res.flows.completed_flows(),
        10,
        "RIP routing failed: {}",
        res.flows.one_line()
    );
}

#[test]
fn link_failure_reroutes_with_static_recompute() {
    // Spine-leaf with 2 spines: kill spine 0's links mid-run and recompute
    // routes; traffic must keep flowing via spine 1.
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
        .flows(flows)
        .stop_at(Time::from_millis(20))
        .build();
    // Links touching spine 0 are topology links 0 and 1 (spine-leaf wiring
    // order: leaf0-spine0, leaf0-spine1, leaf1-spine0, leaf1-spine1).
    let broken: Vec<_> = sim
        .links
        .iter()
        .filter(|l| l.a == 0 || l.b == 0)
        .copied()
        .collect();
    assert_eq!(broken.len(), 2);
    // Inject the failure as a global event at 2 ms, mid-traffic.
    sim.world.add_global_event(
        Time::from_millis(2),
        Box::new(move |wa| {
            for l in &broken {
                set_link_state(wa, l, false);
            }
            recompute_static_routes(wa);
        }),
    );
    let res = sim.run(KernelKind::Unison { threads: 2 });
    assert_eq!(res.flows.completed_flows(), 40, "{}", res.flows.one_line());
}

#[test]
fn bcube_hosts_relay_traffic() {
    // In BCube, hosts have one port per level and forward other hosts'
    // packets; static ECMP routing must exploit both ports.
    let topo = unison_topology::bcube(4, 2, DataRate::gbps(10), Time::from_micros(3));
    let hosts = topo.hosts();
    let flows: Vec<FlowSpec> = (0..24)
        .map(|i| FlowSpec {
            src: hosts[i % 16],
            dst: hosts[(i * 7 + 3) % 16],
            bytes: 30_000,
            start: Time::from_micros(20 * i as u64),
        })
        .filter(|f| f.src != f.dst)
        .collect();
    let n = flows.len() as u64;
    let sim = NetworkBuilder::new(&topo)
        .flows(flows)
        .stop_at(Time::from_millis(30))
        .build();
    let res = sim.run(KernelKind::Unison { threads: 2 });
    assert_eq!(res.flows.completed_flows(), n, "{}", res.flows.one_line());
    // Some host must have forwarded packets that were not its own
    // (multi-port relay).
    let relayed = res
        .world
        .nodes()
        .filter(|node| node.is_host && node.devices.len() == 2)
        .any(|node| node.mon.forwarded > 0);
    assert!(relayed, "BCube hosts should relay");
}

#[test]
fn zero_delay_host_links_merge_lps() {
    // §4.2 illustration: zero-delay host links merge hosts into their ToR
    // switch's LP; the simulation stays correct with intra-LP zero-delay
    // hops.
    let topo = fat_tree(4).with_host_link_delay(Time::ZERO);
    let traffic = small_traffic(0.15, 21);
    let sim = NetworkBuilder::new(&topo)
        .traffic(&traffic)
        .stop_at(Time::from_millis(6))
        .build();
    let res = sim.run(KernelKind::Unison { threads: 2 });
    // 36 nodes; 16 hosts merge into 8 edge LPs -> 4 core + 8 agg + 8 edge.
    assert_eq!(res.kernel.lp_count, 20);
    assert!(res.flows.completed_flows() > 0);
    // Cross-check against the sequential kernel.
    let sim = NetworkBuilder::new(&topo)
        .traffic(&traffic)
        .stop_at(Time::from_millis(6))
        .build();
    let seq = sim.run(KernelKind::Sequential { compat_keys: false });
    assert_eq!(seq.kernel.events, res.kernel.events);
}

#[test]
fn a_stalled_run_is_an_error_not_a_panic() {
    // Cutting zero-delay links leaves a lookahead of 0: every window is
    // empty, and the watchdog's stall comes back as a value.
    let topo = fat_tree(4).with_delay(Time::ZERO);
    let cfg = RunConfig {
        partition: PartitionMode::Manual(manual::by_cluster(&topo)),
        ..RunConfig::unison(2)
    }
    .with_watchdog(std::time::Duration::from_millis(50));
    let sim = NetworkBuilder::new(&topo)
        .traffic(&small_traffic(0.15, 21))
        .stop_at(Time::from_millis(6))
        .build();
    match sim.run_with(&cfg) {
        Err(SimError::Stalled { diag, .. }) => assert_eq!(diag.kernel, "unison"),
        Err(e) => panic!("expected Stalled, got {e}"),
        Ok(res) => panic!("a zero-lookahead run finished: {}", res.flows.one_line()),
    }
}

#[test]
fn torus_nodes_route_and_terminate() {
    let topo = unison_topology::torus2d(6, 6, DataRate::gbps(10), Time::from_micros(30));
    let traffic = TrafficConfig::random_uniform(0.2)
        .with_seed(31)
        .with_sizes(SizeDist::Grpc)
        .with_window(Time::ZERO, Time::from_millis(1));
    let sim = NetworkBuilder::new(&topo)
        .traffic(&traffic)
        .stop_at(Time::from_millis(5))
        .build();
    let res = sim.run(KernelKind::Unison { threads: 3 });
    let completion = res.flows.completed_flows() as f64 / res.flows.total_flows().max(1) as f64;
    assert!(completion > 0.9, "{}", res.flows.one_line());
    // Wrap-around paths exist: max hop distance in a 6x6 torus is 6, and
    // multi-hop forwarding must have happened at pure relay nodes.
    assert!(res.world.nodes().filter(|n| n.mon.forwarded > 0).count() > 30);
}

#[test]
fn source_port_wrap_refuses_a_flow_instead_of_aliasing_one() {
    // Two hosts, one link, and one more flow from the first to the second
    // than there are source ports (1 000 ..= 65 535). The 64 537th flow's
    // port wraps round to the first flow's; with one destination its flow
    // id would be the first flow's too, and starting it would replace that
    // flow's sender record. It is refused and counted instead.
    use unison_topology::{NodeKind, TopoLink, Topology};
    const PORTS: usize = 64_536;
    let topo = Topology {
        name: "pair".into(),
        nodes: vec![NodeKind::Host; 2],
        links: vec![TopoLink {
            a: 0,
            b: 1,
            rate: DataRate::gbps(100),
            delay: Time::from_micros(1),
        }],
        cluster_of: vec![0, 0],
        clusters: 1,
    };
    // One segment each, every size its own flow's.
    let size = |i: usize| 100 + (i % 1_000) as u64;
    let flows = (0..=PORTS).map(|i| FlowSpec {
        src: 0,
        dst: 1,
        bytes: size(i),
        start: Time::from_nanos(200 * i as u64),
    });
    let sim = NetworkBuilder::new(&topo)
        .flows(flows)
        .stop_at(Time::from_millis(15))
        .build();
    let res = sim.run(KernelKind::Sequential { compat_keys: false });
    assert_eq!(res.flows.total_flows(), PORTS as u64);
    assert_eq!(res.flows.completed_flows(), PORTS as u64);
    // Sorted by flow id, i.e. by source port, i.e. by start order.
    for (i, stat) in res.flows.flows.iter().enumerate() {
        assert_eq!(stat.flow.sport as usize, 1_000 + i);
        assert_eq!(stat.bytes, size(i), "flow {i} carries another flow's size");
    }
    assert_eq!(res.flows.routing_drops, 1, "the refused start is counted");
    assert_eq!(res.flows.bytes_delivered, (0..PORTS).map(size).sum::<u64>());
}
