//! Building a runnable simulation from a topology + traffic description.
//!
//! [`NetworkBuilder`] converts a kernel-agnostic
//! [`Topology`](unison_topology::Topology) into a [`World`] of
//! [`NetNode`]s: devices are attached pairwise per link, routing tables are
//! computed (or RIP is seeded), queue disciplines are instantiated with
//! deterministic per-queue seeds, application flows become initial
//! `FlowStart` events, and the stop time is registered. The result,
//! [`NetSim`], runs on any kernel unchanged.

use unison_core::{
    kernel, DataRate, KernelError, KernelKind, NodeId, PartitionMode, PerfModel, RunConfig,
    RunReport, Time, World, WorldBuilder,
};
use unison_topology::{NodeKind, Topology};
use unison_traffic::{FlowSpec, TrafficConfig};

use crate::app::{OnOffApp, OnOffConfig};
use crate::flowmon::FlowReport;
use crate::node::{Device, NetEvent, NetNode};
use crate::queue::{Queue, QueueConfig};
use crate::route::{compute_static_tables, RipState, Routing, StaticTable};
use crate::tcp::{TcpConfig, TransportKind};

/// How packets find their way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingKind {
    /// Global shortest paths with ECMP, computed before the run.
    StaticEcmp,
    /// RIP distance-vector with this periodic advertisement interval.
    Rip {
        /// Periodic full-advertisement interval.
        update_interval: Time,
    },
}

/// Mapping of one topology link to its built artifacts.
#[derive(Clone, Copy, Debug)]
pub struct BuiltLink {
    /// Kernel link id (for lookahead bookkeeping in global events).
    pub core_id: usize,
    /// First endpoint node and its device index.
    pub a: usize,
    /// Device index on `a`.
    pub a_dev: u8,
    /// Second endpoint node.
    pub b: usize,
    /// Device index on `b`.
    pub b_dev: u8,
}

/// Builder for a packet-level network simulation.
pub struct NetworkBuilder<'a> {
    topo: &'a Topology,
    tcp: TcpConfig,
    queue: QueueConfig,
    routing: RoutingKind,
    flows: Vec<FlowSpec>,
    on_off: Vec<(usize, OnOffConfig)>,
    trace_nodes: Vec<usize>,
    trace_capacity: usize,
    stop: Option<Time>,
}

impl<'a> NetworkBuilder<'a> {
    /// Starts a builder over `topo` with NewReno, 1 MiB DropTail queues and
    /// static ECMP routing.
    pub fn new(topo: &'a Topology) -> Self {
        NetworkBuilder {
            topo,
            tcp: TcpConfig::newreno(),
            queue: QueueConfig::DropTail {
                limit_bytes: 1 << 20,
            },
            routing: RoutingKind::StaticEcmp,
            flows: Vec::new(),
            on_off: Vec::new(),
            trace_nodes: Vec::new(),
            trace_capacity: 100_000,
            stop: None,
        }
    }

    /// Chooses the transport flavor (with its default configuration).
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.tcp = match kind {
            TransportKind::NewReno => TcpConfig::newreno(),
            TransportKind::Dctcp => TcpConfig::dctcp(),
        };
        if kind == TransportKind::Dctcp {
            // DCTCP pairs with a step-marking queue by default.
            self.queue = QueueConfig::dctcp(1 << 20, 65 * 1_448);
        }
        self
    }

    /// Overrides the full transport configuration.
    pub fn tcp_config(mut self, cfg: TcpConfig) -> Self {
        self.tcp = cfg;
        self
    }

    /// Overrides the queue discipline.
    pub fn queue(mut self, queue: QueueConfig) -> Self {
        self.queue = queue;
        self
    }

    /// Chooses the routing scheme.
    pub fn routing(mut self, routing: RoutingKind) -> Self {
        self.routing = routing;
        self
    }

    /// Generates flows from a traffic description (host rate is taken from
    /// the first host-attached link of the topology).
    pub fn traffic(mut self, cfg: &TrafficConfig) -> Self {
        let host_rate = self.host_rate();
        self.flows.extend(cfg.generate(self.topo, host_rate));
        self
    }

    /// Adds explicit flows.
    pub fn flows(mut self, flows: impl IntoIterator<Item = FlowSpec>) -> Self {
        self.flows.extend(flows);
        self
    }

    /// Attaches On/Off UDP sources (`(source node, config)` pairs).
    pub fn on_off_sources(
        mut self,
        sources: impl IntoIterator<Item = (usize, OnOffConfig)>,
    ) -> Self {
        self.on_off.extend(sources);
        self
    }

    /// Enables packet tracing on the given nodes (bounded per-node buffers;
    /// see [`Trace::collect`](crate::trace::Trace::collect)).
    pub fn trace_nodes(mut self, nodes: impl IntoIterator<Item = usize>) -> Self {
        self.trace_nodes.extend(nodes);
        self
    }

    /// Overrides the per-node trace buffer capacity.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Sets the stop time.
    pub fn stop_at(mut self, stop: Time) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Bandwidth of the first host-attached link (used to scale traffic).
    pub fn host_rate(&self) -> DataRate {
        self.topo
            .links
            .iter()
            .find(|l| {
                self.topo.nodes[l.a] == NodeKind::Host || self.topo.nodes[l.b] == NodeKind::Host
            })
            .map(|l| l.rate)
            .unwrap_or(DataRate::gbps(10))
    }

    /// Builds the runnable simulation.
    pub fn build(self) -> NetSim {
        let topo = self.topo;
        let n = topo.node_count();
        // Nodes are assembled fully (devices, routing) before they move
        // into the world builder.
        let mut nodes: Vec<NetNode> = (0..n)
            .map(|i| {
                let is_host = topo.nodes[i] == NodeKind::Host;
                let routing = match self.routing {
                    RoutingKind::StaticEcmp => Routing::Static(StaticTable::default()),
                    RoutingKind::Rip { update_interval } => {
                        Routing::Rip(RipState::new(i as u32, n, update_interval))
                    }
                };
                NetNode::new(NodeId(i as u32), is_host, routing, self.tcp)
            })
            .collect();

        let mut links = Vec::with_capacity(topo.links.len());
        for (li, l) in topo.links.iter().enumerate() {
            let a_dev = nodes[l.a].devices.len() as u8;
            let b_dev = nodes[l.b].devices.len() as u8;
            // The configured discipline applies to switch ports; host NICs
            // get a deep FIFO (a sender's own window burst must not be
            // dropped/marked at its source — AQM lives in the fabric).
            let mk_queue = |end: usize| {
                let endpoint = if end == 0 { l.a } else { l.b };
                let cfg = if topo.nodes[endpoint] == NodeKind::Host {
                    QueueConfig::DropTail {
                        limit_bytes: 4 << 20,
                    }
                } else {
                    self.queue
                };
                // Deterministic per-queue seed.
                Queue::new(cfg, (li as u64) << 1 | end as u64)
            };
            nodes[l.a].devices.push(Device {
                peer: NodeId(l.b as u32),
                peer_dev: b_dev,
                rate: l.rate,
                delay: l.delay,
                queue: mk_queue(0),
                busy: false,
                up: true,
                link_id: li,
            });
            nodes[l.b].devices.push(Device {
                peer: NodeId(l.a as u32),
                peer_dev: a_dev,
                rate: l.rate,
                delay: l.delay,
                queue: mk_queue(1),
                busy: false,
                up: true,
                link_id: li,
            });
            links.push(BuiltLink {
                core_id: usize::MAX, // filled when registering with the kernel
                a: l.a,
                a_dev,
                b: l.b,
                b_dev,
            });
        }

        if self.routing == RoutingKind::StaticEcmp {
            let adj: Vec<Vec<(u32, u8)>> = nodes
                .iter()
                .map(|node| {
                    node.devices
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| d.up)
                        .map(|(i, d)| (d.peer.0, i as u8))
                        .collect()
                })
                .collect();
            let tables = compute_static_tables(&adj);
            for (node, table) in nodes.iter_mut().zip(tables) {
                node.routing = Routing::Static(table);
            }
        }

        for &t in &self.trace_nodes {
            nodes[t].trace = Some(crate::trace::TraceBuffer::new(self.trace_capacity));
        }
        // Attach On/Off applications before the nodes move into the world.
        let mut app_ticks: Vec<(usize, u16)> = Vec::new();
        for (src, cfg) in &self.on_off {
            let idx = nodes[*src].apps.len() as u16;
            nodes[*src].apps.push(OnOffApp::new(cfg.clone()));
            app_ticks.push((*src, idx));
        }
        let mut wb: WorldBuilder<NetNode> = WorldBuilder::new();
        let rip = matches!(self.routing, RoutingKind::Rip { .. });
        for node in nodes {
            let id = wb.add_node(node);
            if rip {
                // Staggered initial advertisements avoid a synchronized
                // burst at t=0.
                wb.schedule(
                    Time::from_nanos(1 + id.0 as u64 * 997),
                    id,
                    NetEvent::RipTick,
                );
            }
        }
        for (li, l) in topo.links.iter().enumerate() {
            let core_id = wb.add_link(NodeId(l.a as u32), NodeId(l.b as u32), l.delay);
            links[li].core_id = core_id;
        }
        for f in &self.flows {
            wb.schedule(
                f.start,
                NodeId(f.src as u32),
                NetEvent::FlowStart {
                    dst: f.dst as u32,
                    bytes: f.bytes,
                },
            );
        }
        for (src, app) in app_ticks {
            wb.schedule(Time(1), NodeId(src as u32), NetEvent::AppTick { app });
        }
        if let Some(stop) = self.stop {
            wb.stop_at(stop);
        }
        NetSim {
            world: wb.build(),
            links,
            flow_count: self.flows.len() as u64,
        }
    }
}

/// A runnable network simulation.
pub struct NetSim {
    /// The world (consume with [`NetSim::run`] or take it for custom
    /// harnesses that add global events).
    pub world: World<NetNode>,
    /// Per-topology-link build artifacts (for topology-change events).
    pub links: Vec<BuiltLink>,
    /// Number of injected flows.
    pub flow_count: u64,
}

/// Result of a network simulation run.
pub struct SimResult {
    /// Global flow statistics.
    pub flows: FlowReport,
    /// Kernel execution report (events, rounds, P/S/M, profile).
    pub kernel: RunReport,
    /// Final world (for custom inspection).
    pub world: World<NetNode>,
}

impl SimResult {
    /// The virtual-core model over this run's per-round profile (empty
    /// unless the run came from [`NetSim::profile`]).
    pub fn perf_model(&self) -> PerfModel<'_> {
        PerfModel::new(self.kernel.rounds_profile.as_deref().unwrap_or(&[]))
    }
}

impl NetSim {
    /// Runs on the chosen kernel with automatic partitioning.
    pub fn run(self, kernel_kind: KernelKind) -> SimResult {
        self.run_with(&RunConfig {
            kernel: kernel_kind,
            ..RunConfig::unison(1)
        })
        .expect("valid default configuration")
    }

    /// Runs on the instrumented one-thread engine under `partition`,
    /// recording the per-round, per-LP cost matrix: the one way a
    /// simulation becomes a [`PerfModel`] input (DESIGN.md §3.2). Replay it
    /// with [`SimResult::perf_model`]; the null-message model's LP adjacency
    /// is the report's `lp_neighbors`.
    pub fn profile(self, partition: PartitionMode) -> Result<SimResult, KernelError> {
        self.run_with(&RunConfig {
            partition,
            ..RunConfig::unison(1).with_per_round_metrics()
        })
    }

    /// Runs with a full configuration — kernel, partition mode, FEL
    /// backend, watchdog, telemetry, and the scheduling knobs
    /// ([`RunConfig::with_sched`], DESIGN.md §4.5). Every combination is
    /// bit-identical on the same partition; the knobs trade wall clock,
    /// never results.
    pub fn run_with(self, cfg: &RunConfig) -> Result<SimResult, KernelError> {
        let (world, report) = kernel::run(self.world, cfg)?;
        Ok(SimResult {
            flows: FlowReport::collect(&world),
            kernel: report,
            world,
        })
    }
}
