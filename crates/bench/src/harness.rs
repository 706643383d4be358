//! Shared experiment plumbing.

use unison_core::{
    fine_grained_partition, manual_partition, partition_below_bound, LinkGraph, NodeId, Partition,
    PartitionMode, RoundRecord, RunConfig, RunReport, Time,
};
use unison_netsim::{FlowReport, NetworkBuilder, QueueConfig, TransportKind};
use unison_topology::Topology;
use unison_traffic::TrafficConfig;

/// Experiment scale, selected by `--full` or `--scale <name>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale runs (default; shapes hold).
    Quick,
    /// Larger topologies / longer windows (minutes).
    Full,
}

impl Scale {
    /// Parses the process arguments: `--scale quick|full`, with
    /// `--full` kept as shorthand for `--scale full` (see [`crate::args`]).
    pub fn from_args() -> Scale {
        crate::args::scale()
    }

    /// Picks between a quick and a full-size value.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// A declarative workload for the profiling helpers.
#[derive(Clone)]
pub struct Scenario {
    /// Topology.
    pub topo: Topology,
    /// Traffic description.
    pub traffic: TrafficConfig,
    /// Transport flavor.
    pub transport: TransportKind,
    /// Queue discipline (`None` = builder default for the transport).
    pub queue: Option<QueueConfig>,
    /// Simulation stop time.
    pub stop: Time,
}

impl Scenario {
    /// A scenario with NewReno and default queues.
    pub fn new(topo: Topology, traffic: TrafficConfig, stop: Time) -> Self {
        Scenario {
            topo,
            traffic,
            transport: TransportKind::NewReno,
            queue: None,
            stop,
        }
    }

    /// Builds the harness workload from a parsed scenario file
    /// (DESIGN.md §4.10): the subset the profiling figures use — topology,
    /// generated traffic, transport kind, queue override and stop time.
    /// Explicit `[[flow]]`/`[[on_off]]` injections and per-field transport
    /// overrides are the full builder's territory
    /// (`NetworkBuilder::from_scenario`); the figures don't use them.
    pub fn from_spec(spec: &unison_scenario::ScenarioSpec) -> Self {
        Scenario {
            topo: spec.build_topology(),
            traffic: spec
                .traffic_config()
                .unwrap_or_else(|| TrafficConfig::random_uniform(0.0)),
            transport: match spec.transport.kind {
                unison_scenario::TransportKindSpec::NewReno => TransportKind::NewReno,
                unison_scenario::TransportKindSpec::Dctcp => TransportKind::Dctcp,
            },
            queue: spec
                .queue
                .as_ref()
                .map(unison_netsim::scenario::queue_config_of),
            stop: spec.run.stop,
        }
    }

    fn builder(&self) -> NetworkBuilder<'_> {
        let mut b = NetworkBuilder::new(&self.topo)
            .transport(self.transport)
            .traffic(&self.traffic)
            .stop_at(self.stop);
        if let Some(q) = self.queue {
            b = b.queue(q);
        }
        b
    }

    /// Runs on the instrumented single-thread engine under `partition`,
    /// returning the per-round profile for the virtual-core model.
    pub fn profile(&self, partition: PartitionMode) -> ProfiledRun {
        let sim = self.builder().build();
        let res = sim
            .run_with(&RunConfig {
                partition: partition.clone(),
                ..RunConfig::unison(1).with_per_round_metrics()
            })
            // INVARIANT: bench models are closed and terminating; a crash
            // or stall here invalidates the measurement, so aborting with
            // the structured `SimError` text is the harness's error channel.
            .expect("profiled run");
        let (partition, neighbors) = partition_info(&self.topo, &partition);
        ProfiledRun {
            profile: res.kernel.rounds_profile.clone().unwrap_or_default(),
            kernel: res.kernel,
            flows: res.flows,
            partition,
            neighbors,
        }
    }
}

/// Profiled execution: cost matrix + statistics + partition metadata.
pub struct ProfiledRun {
    /// Per-round, per-LP cost/event matrix.
    pub profile: Vec<RoundRecord>,
    /// Kernel report of the instrumented run.
    pub kernel: RunReport,
    /// Flow statistics.
    pub flows: FlowReport,
    /// The partition that was used.
    pub partition: Partition,
    /// LP adjacency (for the null-message wavefront model).
    pub neighbors: Vec<Vec<u32>>,
}

/// Builds the same partition a kernel run would use, plus the LP adjacency
/// list needed by the null-message model.
pub fn partition_info(topo: &Topology, mode: &PartitionMode) -> (Partition, Vec<Vec<u32>>) {
    let mut graph = LinkGraph::new(topo.node_count());
    for l in &topo.links {
        graph.add_link(NodeId(l.a as u32), NodeId(l.b as u32), l.delay);
    }
    let partition = match mode {
        PartitionMode::Auto => fine_grained_partition(&graph),
        PartitionMode::Bound(b) => partition_below_bound(&graph, *b),
        PartitionMode::Manual(a) => manual_partition(&graph, a),
        PartitionMode::SingleLp => unison_core::partition::single_lp_partition(&graph),
    };
    let mut neighbors = vec![Vec::new(); partition.lp_count as usize];
    for (a, b, _) in partition.lp_channels(&graph) {
        neighbors[a.index()].push(b.0);
        neighbors[b.index()].push(a.0);
    }
    (partition, neighbors)
}

/// Convenience alias used by several figures: profile a scenario under both
/// the manual (baseline) and automatic (Unison) partitions.
pub fn profile_run(scenario: &Scenario, manual: Vec<u32>) -> (ProfiledRun, ProfiledRun) {
    let baseline = scenario.profile(PartitionMode::Manual(manual));
    let auto = scenario.profile(PartitionMode::Auto);
    (baseline, auto)
}

/// The paper's §3.2 profiling workload: a k-ary fat-tree (k = 4 quick,
/// k = 8 full) with the given link rate/delay and incast ratio, simulated
/// for a few milliseconds.
pub fn fat_tree_scenario(
    scale: Scale,
    incast_ratio: f64,
    rate: unison_core::DataRate,
    delay: Time,
) -> Scenario {
    let k = scale.pick(4, 8);
    let window = scale.pick(Time::from_millis(2), Time::from_millis(5));
    let topo = unison_topology::fat_tree(k)
        .with_rate(rate)
        .with_delay(delay);
    let traffic = TrafficConfig::incast(0.3, incast_ratio)
        .with_seed(7)
        .with_window(Time::ZERO, window);
    Scenario::new(topo, traffic, window + Time::from_millis(1))
}

/// The manual pod partition for the current fat-tree scenario.
pub fn fat_tree_manual(scenario: &Scenario) -> Vec<u32> {
    unison_topology::manual::by_cluster(&scenario.topo)
}

/// Formats seconds with 3 significant decimals.
pub fn secs(ns: f64) -> String {
    format!("{:.3}", ns / 1e9)
}

/// Prints an aligned table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a header row followed by a rule.
pub fn header(cells: &[&str], widths: &[usize]) {
    row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}
