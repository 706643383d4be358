//! The netsim half of the scenario contract (DESIGN.md §4.10): mapping a
//! parsed [`ScenarioSpec`] onto the concrete transport/queue/routing types
//! and assembling a runnable [`NetSim`](crate::NetSim).
//!
//! The mapping is defined to be *structurally identical* to what the
//! hand-assembled experiment binaries built: the same `TcpConfig`
//! constructors, the same DCTCP default-queue coupling that
//! [`NetworkBuilder::transport`] applies, the same builder call order. The
//! golden corpus test (`crates/bench/tests/scenario_corpus.rs`) pins this
//! equivalence bit-for-bit via [`world_digest`].

use unison_core::{Snapshot, SnapshotWriter, World};
use unison_scenario::{
    QueueSpec, RoutingSpec, ScenarioSpec, TcpProfile, TransportKindSpec, TransportSpec,
};
use unison_topology::Topology;

use crate::build::{NetworkBuilder, RoutingKind};
use crate::node::NetNode;
use crate::queue::QueueConfig;
use crate::tcp::{TcpConfig, TransportKind};

/// FNV-1a over the canonical [`Snapshot`] encodings of every node: any
/// diverging bit of model state — socket, queue, RNG, routing table,
/// monitor — changes the hash. This is the digest the golden corpus and
/// the fault-axis tests pin; its encoding is part of the scenario
/// contract's digest-stability guarantee.
///
/// The writer is the hash: each byte is folded in as it is written, so the
/// digest keeps no encoding, of a node or of the world (DESIGN.md §4.7).
pub fn world_digest(world: &World<NetNode>) -> u64 {
    let mut w = SnapshotWriter::new();
    for n in world.nodes() {
        n.save(&mut w);
    }
    w.finish()
}

/// Maps a `[transport]` spec onto a [`TcpConfig`]: the profile the
/// hand-written binaries use for that transport.
pub fn tcp_config_of(spec: &TransportSpec) -> TcpConfig {
    match (spec.kind, spec.profile) {
        (TransportKindSpec::NewReno, TcpProfile::Default) => TcpConfig::newreno(),
        (TransportKindSpec::NewReno, TcpProfile::Dcn) => TcpConfig::newreno_dcn(),
        (TransportKindSpec::Dctcp, TcpProfile::Default) => TcpConfig::dctcp(),
        (TransportKindSpec::Dctcp, TcpProfile::Dcn) => TcpConfig {
            kind: TransportKind::Dctcp,
            ..TcpConfig::newreno_dcn()
        },
    }
}

/// Maps a `[queue]` spec onto a [`QueueConfig`].
pub fn queue_config_of(spec: &QueueSpec) -> QueueConfig {
    match *spec {
        QueueSpec::DropTail { limit_bytes } => QueueConfig::DropTail { limit_bytes },
        QueueSpec::Red {
            limit_bytes,
            min_th,
            max_th,
            max_p,
            w_q,
            mark_ecn,
        } => QueueConfig::Red {
            limit_bytes,
            min_th,
            max_th,
            max_p,
            w_q,
            mark_ecn,
        },
        QueueSpec::Dctcp {
            limit_bytes,
            k_bytes,
        } => QueueConfig::dctcp(limit_bytes, k_bytes),
    }
}

/// Maps a `[routing]` spec onto a [`RoutingKind`].
pub fn routing_kind_of(spec: &RoutingSpec) -> RoutingKind {
    match *spec {
        RoutingSpec::StaticEcmp => RoutingKind::StaticEcmp,
        RoutingSpec::Rip { update_interval } => RoutingKind::Rip { update_interval },
    }
}

impl<'a> NetworkBuilder<'a> {
    /// Starts a builder configured from a scenario. `topo` must be the
    /// scenario's own topology (`spec.build_topology()`); it is passed in
    /// because the builder borrows it.
    ///
    /// Defaulting mirrors the hand-written binaries: with no `[queue]`
    /// section, DCTCP transport brings the step-marking fabric queue that
    /// [`NetworkBuilder::transport`] installs, and NewReno keeps the 1 MiB
    /// DropTail default.
    pub fn from_scenario(topo: &'a Topology, spec: &ScenarioSpec) -> Self {
        let mut b = NetworkBuilder::new(topo);
        if spec.transport.kind == TransportKindSpec::Dctcp {
            // Establish the DCTCP default-queue coupling first, then let an
            // explicit [queue] replace it.
            b = b.transport(TransportKind::Dctcp);
        }
        b = b.tcp_config(tcp_config_of(&spec.transport));
        if let Some(q) = &spec.queue {
            b = b.queue(queue_config_of(q));
        }
        b = b.routing(routing_kind_of(&spec.routing));
        if let Some(traffic) = spec.traffic_config() {
            b = b.traffic(&traffic);
        }
        b = b.flows(spec.flows.iter().copied());
        b.stop_at(spec.run.stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_core::Time;
    use unison_scenario::parse_scenario;

    #[test]
    fn dctcp_transport_brings_step_marking_queue() {
        let spec = parse_scenario(
            r#"
[topology]
kind = "fat_tree"
k = 4
[traffic]
load = 0.1
duration_us = 500
[transport]
kind = "dctcp"
[run]
stop_us = 2000
kernel = "unison"
threads = 2
"#,
        )
        .unwrap();
        let topo = spec.build_topology();
        let via_scenario = NetworkBuilder::from_scenario(&topo, &spec).build();
        let hand = NetworkBuilder::new(&topo)
            .transport(TransportKind::Dctcp)
            .traffic(&spec.traffic_config().unwrap())
            .stop_at(Time::from_millis(2))
            .build();
        assert_eq!(world_digest(&via_scenario.world), world_digest(&hand.world));
    }

    #[test]
    fn transport_profile_applies() {
        let spec = parse_scenario(
            r#"
[topology]
kind = "fat_tree"
k = 4
[transport]
kind = "newreno"
profile = "dcn"
[run]
stop_us = 1000
kernel = "sequential"
"#,
        )
        .unwrap();
        let tcp = tcp_config_of(&spec.transport);
        assert_eq!(tcp.kind, TransportKind::NewReno);
        assert_eq!(tcp.min_rto, Time::from_millis(1));
    }
}
