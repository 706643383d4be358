//! Checkpoint/resume of full network models (DESIGN.md §4.2).
//!
//! The core suite proves resume determinism for a synthetic model; these
//! tests prove it for the real stack: TCP sockets mid-flow, queued packets,
//! RED/RNG state, RIP tables, On/Off sources and trace buffers all
//! round-trip through a checkpoint, and the resumed run finishes in a state
//! byte-identical to the uninterrupted one. The digest is the canonical
//! `Snapshot` encoding of every node — if any bit of model state diverges,
//! the byte strings differ.

use std::path::PathBuf;

use unison_core::{
    checkpoint, kernel, CheckpointConfig, DataRate, KernelKind, MetricsLevel, PartitionMode,
    RunConfig, SchedConfig, Snapshot, SnapshotError, SnapshotWriter, Time, World,
};
use unison_netsim::route::{RipState, Routing};
use unison_netsim::{NetEvent, NetNode, NetworkBuilder, OnOffConfig, RoutingKind, TransportKind};
use unison_topology::{dumbbell, fat_tree};
use unison_traffic::{SizeDist, TrafficConfig};

/// Canonical byte encoding of all node state: the strongest digest we have.
fn digest(world: &World<NetNode>) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    for n in world.nodes() {
        n.save(&mut w);
    }
    w.into_bytes()
}

fn unison_cfg(threads: usize) -> RunConfig {
    RunConfig {
        kernel: KernelKind::Unison { threads },
        partition: PartitionMode::Auto,
        sched: SchedConfig::default(),
        metrics: MetricsLevel::Summary,
        fel: Default::default(),
        watchdog: Default::default(),
        fault: Default::default(),
    }
}

fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("netckpt-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean stale checkpoint dir");
    }
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir
}

#[test]
fn tcp_fat_tree_resume_is_bit_identical() {
    let stop = Time::from_millis(6);
    let every = Time::from_millis(2); // checkpoints at 2ms and 4ms
    let build = || {
        NetworkBuilder::new(&fat_tree(4))
            .transport(TransportKind::NewReno)
            .traffic(
                &TrafficConfig::random_uniform(0.2)
                    .with_seed(11)
                    .with_sizes(SizeDist::Grpc)
                    .with_window(Time::ZERO, Time::from_millis(2)),
            )
            .trace_nodes([0usize, 4])
            .stop_at(stop)
            .build()
            .world
    };

    // Uninterrupted reference.
    let (w_ref, rep_ref) = kernel::try_run(build(), &unison_cfg(2)).expect("reference run");
    let ref_digest = digest(&w_ref);
    assert!(rep_ref.events > 1_000, "model too small to mean anything");

    // Checkpointed run: identical result, files left behind.
    let dir = ckpt_dir("tcp");
    let ck = CheckpointConfig::new(every, &dir);
    let mut world = build();
    checkpoint::schedule_checkpoints(&mut world, &ck);
    let (w_ck, _) = kernel::try_run(world, &unison_cfg(2)).expect("checkpointed run");
    assert_eq!(
        digest(&w_ck),
        ref_digest,
        "taking checkpoints perturbed the model"
    );

    // Resume from each checkpoint at several thread counts, always under
    // the saved partition (LP identity is part of the event tie-breaks).
    for t in [2u64, 4] {
        let path = ck.file_at(Time::from_millis(t));
        assert!(path.exists(), "missing checkpoint {path:?}");
        for threads in [1usize, 2, 4] {
            let resumed = checkpoint::resume::<NetNode>(&path, None).expect("load checkpoint");
            assert_eq!(resumed.time, Time::from_millis(t));
            let cfg = RunConfig {
                partition: PartitionMode::Manual(resumed.assignment.clone()),
                ..unison_cfg(threads)
            };
            let (w_res, _) = kernel::try_run(resumed.world, &cfg).expect("resumed run");
            assert_eq!(
                digest(&w_res),
                ref_digest,
                "resume from t={t}ms at {threads} threads diverged"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rip_and_udp_state_round_trips() {
    // A dumbbell under RIP routing with bursty UDP sources: exercises the
    // RipState table, OnOffApp RNGs, UDP receive accounting and datagram
    // payloads through the checkpoint encoding.
    let stop = Time::from_millis(12);
    let build = || {
        NetworkBuilder::new(&dumbbell(
            3,
            3,
            DataRate::gbps(1),
            DataRate::mbps(300),
            Time::from_micros(10),
        ))
        .routing(RoutingKind::Rip {
            update_interval: Time::from_millis(2),
        })
        .on_off_sources((0..3).map(|i| {
            (
                2 + i,
                OnOffConfig {
                    dst: (5 + i) as u32,
                    rate: DataRate::mbps(200),
                    pkt_bytes: 800,
                    mean_on: Time::from_micros(400),
                    mean_off: Time::from_micros(400),
                    until: Time::from_millis(10),
                    seed: 77 + i as u64,
                },
            )
        }))
        .stop_at(stop)
        .build()
        .world
    };

    let (w_ref, _) = kernel::try_run(build(), &unison_cfg(2)).expect("reference run");
    let ref_digest = digest(&w_ref);
    let udp_delivered: u64 = w_ref
        .nodes()
        .flat_map(|n| n.udp_rx.values())
        .map(|rx| rx.pkts)
        .sum();
    assert!(udp_delivered > 100, "udp model idle: {udp_delivered} pkts");

    let dir = ckpt_dir("rip");
    let ck = CheckpointConfig::new(Time::from_millis(5), &dir);
    let mut world = build();
    checkpoint::schedule_checkpoints(&mut world, &ck);
    let (w_ck, _) = kernel::try_run(world, &unison_cfg(2)).expect("checkpointed run");
    assert_eq!(digest(&w_ck), ref_digest);

    let path = ck.file_at(Time::from_millis(5));
    let resumed = checkpoint::resume::<NetNode>(&path, None).expect("load checkpoint");
    // The payload type round-trips too: pending events include RIP packets
    // and datagrams in flight at the cut.
    let _: &World<NetNode> = &resumed.world;
    let cfg = RunConfig {
        partition: PartitionMode::Manual(resumed.assignment.clone()),
        ..unison_cfg(4)
    };
    let (w_res, _) = kernel::try_run(resumed.world, &cfg).expect("resumed run");
    assert_eq!(digest(&w_res), ref_digest, "RIP/UDP resume diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// A six-host dumbbell under RIP with nothing else going on: the node
/// state is the routing tables.
fn rip_only_world(stop: Time) -> World<NetNode> {
    NetworkBuilder::new(&dumbbell(
        3,
        3,
        DataRate::gbps(1),
        DataRate::mbps(300),
        Time::from_micros(10),
    ))
    .routing(RoutingKind::Rip {
        update_interval: Time::from_millis(2),
    })
    .stop_at(stop)
    .build()
    .world
}

fn rip_table(node: &NetNode) -> &RipState {
    match &node.routing {
        Routing::Rip(state) => state,
        Routing::Static(_) => panic!("RIP world"),
    }
}

#[test]
fn rip_resume_before_convergence_is_bit_identical() {
    // The RIP table's encoding lists the routes a node has, not how many
    // nodes its world has. A checkpoint cut 100 us in — hosts know their
    // switch and nothing else — restores tables shorter than the world,
    // and the resumed run must still learn every other node and end in the
    // uninterrupted run's state.
    let stop = Time::from_millis(1);
    let cut = Time::from_micros(100);
    let (w_ref, _) = kernel::try_run(rip_only_world(stop), &unison_cfg(2)).expect("reference run");
    let host = unison_core::NodeId(2);
    assert!(rip_table(w_ref.node(host)).route(7).is_some(), "converged");

    let dir = ckpt_dir("rip-early");
    let ck = CheckpointConfig::new(cut, &dir);
    let mut world = rip_only_world(stop);
    checkpoint::schedule_checkpoints(&mut world, &ck);
    kernel::try_run(world, &unison_cfg(2)).expect("checkpointed run");

    let resumed = checkpoint::resume::<NetNode>(&ck.file_at(cut), None).expect("load checkpoint");
    let at_cut = rip_table(resumed.world.node(host));
    assert!(at_cut.route(0).is_some() && at_cut.route(7).is_none());
    let cfg = RunConfig {
        partition: PartitionMode::Manual(resumed.assignment.clone()),
        ..unison_cfg(1)
    };
    let (w_res, _) = kernel::try_run(resumed.world, &cfg).expect("resumed run");
    assert_eq!(digest(&w_res), digest(&w_ref), "early RIP resume diverged");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forged_rip_destination_is_corrupt_not_allocated() {
    // A dense table indexed by destination must not take its size from a
    // checkpoint: one route key rewritten to u32::MAX would otherwise ask
    // for 12 GB. The loader refuses the file instead.
    let dir = ckpt_dir("rip-forged");
    let every = Time::from_millis(1);
    let ck = CheckpointConfig::new(every, &dir);
    let mut world = rip_only_world(Time::from_micros(1_500));
    checkpoint::schedule_checkpoints(&mut world, &ck);
    let (w_end, _) = kernel::try_run(world, &unison_cfg(1)).expect("checkpointed run");

    // Node 0's table as the file holds it (converged, unchanged since the
    // cut): 8 routes of 6 bytes after an 8-byte count.
    let mut w = SnapshotWriter::new();
    rip_table(w_end.node(unison_core::NodeId(0))).save(&mut w);
    let table = &w.into_bytes()[..8 + 8 * 6];
    let path = ck.file_at(every);
    let mut bytes = std::fs::read(&path).expect("read checkpoint");
    let at = bytes
        .windows(table.len())
        .position(|w| w == table)
        .expect("node 0's table is in the file");
    let last_key = at + 8 + 7 * 6;
    bytes[last_key..last_key + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write forged checkpoint");

    match checkpoint::resume::<NetNode>(&path, None) {
        Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("RIP route"), "{msg}"),
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("forged checkpoint loaded"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn net_event_payloads_round_trip() {
    use unison_core::{SnapshotReader, Time};
    use unison_netsim::{FlowId, Packet};

    let flow = FlowId {
        src: 3,
        dst: 9,
        sport: 1_000,
        dport: 80,
    };
    let events = vec![
        NetEvent::Arrive {
            dev: 2,
            packet: Packet::data(flow, 4_096, 1_448, 100_000, true, true, Time(55)),
        },
        NetEvent::TxDone { dev: 1 },
        NetEvent::FlowStart {
            dst: 9,
            bytes: 1 << 20,
        },
        NetEvent::Rto { flow },
        NetEvent::RipTick,
        NetEvent::RipTriggered,
        NetEvent::AppTick { app: 3 },
    ];
    let mut w = SnapshotWriter::new();
    events.save(&mut w);
    let bytes = w.into_bytes();
    let mut r = SnapshotReader::new(&bytes);
    let out = Vec::<NetEvent>::load(&mut r).expect("decode");
    r.finish().expect("fully consumed");
    // Re-encoding must be canonical: same bytes.
    let mut w2 = SnapshotWriter::new();
    out.save(&mut w2);
    assert_eq!(w2.into_bytes(), bytes);
}
