//! The scenario AST: a typed, validated description of one experiment.
//!
//! A scenario file is the declarative counterpart of a hand-assembled
//! bench binary: it names a topology, a workload, a transport/queue/routing
//! configuration, and a full kernel selection (`[run]`), in the TOML
//! dialect of [`crate::toml`]. [`parse_scenario`] turns source text into a
//! [`ScenarioSpec`]; the spec then builds the concrete artifacts —
//! [`ScenarioSpec::build_topology`], [`ScenarioSpec::traffic_config`],
//! [`ScenarioSpec::run_config`] — that the netsim/bench layers consume.
//! A paper figure is a scenario with two more tables: `[sweep.<section>]`
//! lists make the file several rows ([`parse_rows`]), and `[model]`
//! ([`ModelSpec`]) asks for the virtual-core replay after each real run.
//!
//! Parsing is strict: unknown sections and unknown keys are rejected with
//! line/column spans, and every enum-valued key lists its accepted values
//! in the error message. Defaulting rules are documented per section in
//! DESIGN.md §4.10 (the "scenario contract"); the golden corpus test pins
//! the digest of every committed scenario, so the defaults here are part
//! of the reproducibility surface and must not drift silently.

use std::fmt;
use std::time::Duration;

use unison_core::fault::FaultPlan;
use unison_core::kernel::{KernelKind, PartitionMode, RunConfig, MAX_WORKERS};
use unison_core::sched::{FusionConfig, SchedConfig, SchedMetric};
use unison_core::{DataRate, RunPhase, Time};
use unison_topology::{self as topology, NodeKind, TopoLink, Topology};
use unison_traffic::{FlowSpec, SizeDist, TrafficConfig};

use crate::toml::{self, Entry, Table, Value};

/// A scenario-level error with a 1-based line/column span into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    pub line: usize,
    pub col: usize,
    pub msg: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ScenarioError {}

impl From<toml::ParseError> for ScenarioError {
    fn from(e: toml::ParseError) -> Self {
        ScenarioError {
            line: e.line,
            col: e.col,
            msg: e.msg,
        }
    }
}

fn serr(line: usize, col: usize, msg: impl Into<String>) -> ScenarioError {
    ScenarioError {
        line,
        col,
        msg: msg.into(),
    }
}

// ---------------------------------------------------------------------------
// Spec types
// ---------------------------------------------------------------------------

/// Which topology builder a scenario uses, with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum TopoKind {
    /// `topology::fat_tree(k)`.
    FatTree { k: usize },
    /// `topology::fat_tree_clusters(clusters, hosts_per_cluster)`.
    FatTreeClusters {
        clusters: usize,
        hosts_per_cluster: usize,
    },
    /// `topology::spine_leaf(spines, leaves, hosts_per_leaf, rate, delay)`.
    SpineLeaf {
        spines: usize,
        leaves: usize,
        hosts_per_leaf: usize,
    },
    /// `topology::dumbbell(senders, receivers, edge, bottleneck, delay)`.
    Dumbbell {
        senders: usize,
        receivers: usize,
        edge_rate: DataRate,
        bottleneck_rate: DataRate,
    },
    /// `topology::bcube(n, levels, rate, delay)`.
    BCube { n: usize, levels: usize },
    /// `topology::torus2d(rows, cols, rate, delay)`.
    Torus2d { rows: usize, cols: usize },
    /// The GÉANT European research WAN.
    Geant,
    /// The CHINANET provider WAN.
    Chinanet,
    /// An explicit node/link list (`nodes`, `hosts`, `clusters`, `[[link]]`).
    Manual {
        nodes: usize,
        hosts: Vec<usize>,
        clusters: Vec<u32>,
        links: Vec<ManualLink>,
    },
}

impl TopoKind {
    /// `(nodes, links)` of the topology [`ScenarioSpec::build_topology`]
    /// would build, from the parameters alone and saturating (the two
    /// fixed WAN maps count as nothing) — or the builder's own
    /// precondition, which it would panic on.
    pub fn size(&self) -> Result<(usize, usize), String> {
        // `FatTreeShape::build` with `racks` racks, aggregation switches and
        // cores per aggregation switch: per pod, `racks²` links up to the
        // core layer and `racks²` between its two switch layers.
        let fat_tree = |pods: usize, racks: usize, hosts_per_rack: usize| {
            let cores = racks.saturating_mul(racks);
            let hosts = racks.saturating_mul(hosts_per_rack);
            let pod_nodes = hosts.saturating_add(racks.saturating_mul(2));
            let pod_links = hosts.saturating_add(cores.saturating_mul(2));
            (
                pods.saturating_mul(pod_nodes).saturating_add(cores),
                pods.saturating_mul(pod_links),
            )
        };
        Ok(match *self {
            TopoKind::FatTree { k } if k < 2 || k % 2 != 0 => {
                return Err(format!("a k-ary fat-tree needs an even `k` >= 2, got {k}"));
            }
            TopoKind::FatTree { k } => fat_tree(k, k / 2, k / 2),
            TopoKind::FatTreeClusters {
                clusters,
                hosts_per_cluster,
            } => {
                // `topology::fat_tree_clusters`' rack arithmetic.
                let racks = hosts_per_cluster.div_ceil(4).max(2);
                fat_tree(clusters, racks, hosts_per_cluster.div_ceil(racks).max(1))
            }
            TopoKind::SpineLeaf {
                spines,
                leaves,
                hosts_per_leaf,
            } => {
                let hosts = leaves.saturating_mul(hosts_per_leaf);
                (
                    hosts.saturating_add(spines).saturating_add(leaves),
                    hosts.saturating_add(spines.saturating_mul(leaves)),
                )
            }
            TopoKind::Dumbbell {
                senders, receivers, ..
            } => {
                let hosts = senders.saturating_add(receivers);
                (hosts.saturating_add(2), hosts.saturating_add(1))
            }
            TopoKind::BCube { n, levels } if n < 2 || !(1..=8).contains(&levels) => {
                return Err(format!(
                    "a BCube needs `n` >= 2 and `levels` in 1..=8, got {n} and {levels}"
                ));
            }
            TopoKind::BCube { n, levels } => {
                let switches = n.saturating_pow(levels as u32 - 1).saturating_mul(levels);
                (
                    n.saturating_pow(levels as u32).saturating_add(switches),
                    switches.saturating_mul(n),
                )
            }
            TopoKind::Torus2d { rows, cols } if rows < 2 || cols < 2 => {
                return Err(format!("a torus needs at least 2 x 2, got {rows} x {cols}"));
            }
            TopoKind::Torus2d { rows, cols } => {
                // A 2-wide dimension wraps onto the link it already has.
                let n = rows.saturating_mul(cols);
                let across = if cols > 2 { n } else { rows };
                let down = if rows > 2 { n } else { cols };
                (n, across.saturating_add(down))
            }
            // Fixed maps of under a hundred nodes: nothing to bound.
            TopoKind::Geant | TopoKind::Chinanet => (0, 0),
            TopoKind::Manual {
                nodes, ref links, ..
            } => (nodes, links.len()),
        })
    }
}

/// One `[[link]]` of a manual topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManualLink {
    pub a: usize,
    pub b: usize,
    pub rate: DataRate,
    pub delay: Time,
}

/// The `[topology]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    pub kind: TopoKind,
    /// Override every link rate (`Topology::with_rate`) for the named
    /// builders, or the constructor rate for spine-leaf/bcube/torus.
    pub rate: Option<DataRate>,
    /// Link delay override / constructor delay (see DESIGN.md §4.10).
    pub delay: Option<Time>,
    /// Host-access-link delay override (`with_host_link_delay`).
    pub host_delay: Option<Time>,
}

/// The `[traffic]` arrival pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    RandomUniform,
    Incast,
}

/// The `[traffic]` section: a declarative [`TrafficConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    pub pattern: TrafficPattern,
    pub load: f64,
    pub incast_ratio: f64,
    pub incast_cluster: Option<u32>,
    pub sizes: SizeDist,
    pub seed: u64,
    pub start: Time,
    pub duration: Time,
}

impl TrafficSpec {
    /// The equivalent [`TrafficConfig`].
    pub fn to_config(&self) -> TrafficConfig {
        let mut cfg = match self.pattern {
            TrafficPattern::RandomUniform => TrafficConfig::random_uniform(self.load),
            TrafficPattern::Incast => TrafficConfig::incast(self.load, self.incast_ratio),
        };
        cfg.incast_cluster = self.incast_cluster;
        cfg = cfg
            .with_seed(self.seed)
            .with_sizes(self.sizes)
            .with_window(self.start, self.duration);
        cfg
    }
}

/// The TCP flavor of the `[transport]` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKindSpec {
    NewReno,
    Dctcp,
}

/// Which base parameter profile `[transport]` starts from before field
/// overrides: WAN-scale RTOs (`default`) or datacenter RTOs (`dcn`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpProfile {
    Default,
    Dcn,
}

/// The `[transport]` section. Pure data — the netsim layer maps it onto
/// `TcpConfig` (`NetworkBuilder::from_scenario`).
#[derive(Debug, Clone, PartialEq)]
pub struct TransportSpec {
    pub kind: TransportKindSpec,
    pub profile: TcpProfile,
    pub init_cwnd: Option<u32>,
    pub min_rto: Option<Time>,
    pub initial_rto: Option<Time>,
    pub dctcp_g: Option<f64>,
    pub limited_transmit: Option<bool>,
}

impl Default for TransportSpec {
    fn default() -> Self {
        TransportSpec {
            kind: TransportKindSpec::NewReno,
            profile: TcpProfile::Default,
            init_cwnd: None,
            min_rto: None,
            initial_rto: None,
            dctcp_g: None,
            limited_transmit: None,
        }
    }
}

/// The `[queue]` section. Pure data — maps onto netsim's `QueueConfig`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueSpec {
    DropTail {
        limit_bytes: u32,
    },
    Red {
        limit_bytes: u32,
        min_th: u32,
        max_th: u32,
        max_p: f64,
        w_q: f64,
        mark_ecn: bool,
    },
    /// DCTCP-style ECN marking at a step threshold (`QueueConfig::dctcp`).
    Dctcp {
        limit_bytes: u32,
        k_bytes: u32,
    },
}

/// The `[routing]` section. Pure data — maps onto netsim's `RoutingKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingSpec {
    StaticEcmp,
    Rip { update_interval: Time },
}

/// One `[[on_off]]` background source. Pure data — maps onto netsim's
/// `OnOffConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnOffSpec {
    pub src: usize,
    pub dst: u32,
    pub rate: DataRate,
    pub pkt_bytes: u32,
    pub mean_on: Time,
    pub mean_off: Time,
    pub until: Time,
    pub seed: u64,
}

/// The `partition = ...` selection of the `[run]` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionSpec {
    /// Fine-grained partitioning (Algorithm 1) — the Unison default.
    Auto,
    /// Everything in one LP (sequential kernels).
    SingleLp,
    /// `PartitionMode::Bound(lookahead)`.
    Bound(Time),
    /// An explicit per-node LP assignment.
    Manual(Vec<u32>),
    /// One LP per topology cluster (`manual::by_cluster`) — resolved
    /// against the built topology, so the file does not hard-code sizes.
    ByCluster,
    /// The node-id range split into `lps` equal sub-arrays
    /// (`manual::by_id_range`, the paper's torus scheme).
    ByIdRange(u32),
    /// Consecutive clusters grouped into `lps` LPs
    /// (`manual::by_cluster_group`).
    ByClusterGroup(u32),
}

impl fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionSpec::Auto => f.write_str("auto"),
            PartitionSpec::SingleLp => f.write_str("single_lp"),
            PartitionSpec::Bound(t) => write!(f, "bound({t})"),
            PartitionSpec::Manual(_) => f.write_str("manual"),
            PartitionSpec::ByCluster => f.write_str("by_cluster"),
            PartitionSpec::ByIdRange(lps) => write!(f, "by_id_range({lps})"),
            PartitionSpec::ByClusterGroup(lps) => write!(f, "by_cluster_group({lps})"),
        }
    }
}

impl PartitionSpec {
    /// Resolves to a concrete [`PartitionMode`] against the built topology.
    pub fn mode(&self, topo: &Topology) -> PartitionMode {
        match self {
            PartitionSpec::Auto => PartitionMode::Auto,
            PartitionSpec::SingleLp => PartitionMode::SingleLp,
            PartitionSpec::Bound(t) => PartitionMode::Bound(*t),
            PartitionSpec::Manual(v) => PartitionMode::Manual(v.clone()),
            PartitionSpec::ByCluster => PartitionMode::Manual(topology::manual::by_cluster(topo)),
            PartitionSpec::ByIdRange(lps) => {
                PartitionMode::Manual(topology::manual::by_id_range(topo, *lps))
            }
            PartitionSpec::ByClusterGroup(lps) => {
                PartitionMode::Manual(topology::manual::by_cluster_group(topo, *lps))
            }
        }
    }
}

/// The `[run]` section: stop time plus the full kernel selection.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub stop: Time,
    pub kernel: KernelKind,
    pub partition: PartitionSpec,
    pub sched: SchedConfig,
    pub watchdog: Option<Duration>,
    pub fault: FaultPlan,
}

/// Largest `[model] cores` accepted: the replay allocates per virtual core,
/// as a run does per worker — the kernel's own bound, under the name the
/// `[model]` table uses.
pub const MAX_MODEL_CORES: usize = MAX_WORKERS;

/// Largest topology a scenario may describe, and the bound of the model's
/// per-node tables (`netsim::route::RIP_MAX_NODES` is this constant). A
/// builder parameter is outside input, so the size it implies is computed
/// and checked before anything is built.
pub const MAX_TOPOLOGY_NODES: usize = 1 << 20;

/// Largest link count, for the one builder whose links are not bounded by
/// its nodes (a spine × leaf mesh): a k-ary fat-tree has under three links
/// per node, a BCube at most eight per host.
pub const MAX_TOPOLOGY_LINKS: usize = 8 * MAX_TOPOLOGY_NODES;

/// The `[model]` section: besides its real run, the row is profiled on the
/// instrumented one-thread engine and each algorithm's synchronization
/// structure is replayed over `cores` virtual cores (DESIGN.md §3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Virtual cores of the `unison` (and `hybrid`) records.
    pub cores: usize,
    /// `baseline_partition`: the static partition the `sequential`,
    /// `barrier` and `nullmsg` records are profiled under (one LP per
    /// core). Without it only the row's own partition is profiled.
    pub baseline: Option<PartitionSpec>,
    /// `hybrid_hosts`: adds the `hybrid` record with this many hosts of
    /// `cores / hybrid_hosts` workers each.
    pub hybrid_hosts: Option<usize>,
}

/// A parsed, validated scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (the root `name = "..."` key).
    pub name: String,
    pub topology: TopologySpec,
    pub traffic: Option<TrafficSpec>,
    /// Explicit `[[flow]]` injections (in addition to `[traffic]`).
    pub flows: Vec<FlowSpec>,
    /// `[[on_off]]` background sources.
    pub on_off: Vec<OnOffSpec>,
    pub transport: TransportSpec,
    pub queue: Option<QueueSpec>,
    pub routing: RoutingSpec,
    pub run: RunSpec,
    /// The `[model]` section, if present.
    pub model: Option<ModelSpec>,
}

/// One row of a scenario file: the file itself, or — with `[sweep.*]`
/// tables — the file with the swept keys set to their `i`-th values.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// The swept `section.key = value` settings of this row, in file order
    /// (empty without a sweep).
    pub label: String,
    pub spec: ScenarioSpec,
}

impl ScenarioSpec {
    /// Builds the concrete [`Topology`] this scenario describes.
    pub fn build_topology(&self) -> Topology {
        let spec = &self.topology;
        let rate = spec.rate.unwrap_or(DataRate::gbps(100));
        let delay = spec.delay.unwrap_or(Time::from_micros(3));
        let mut topo = match &spec.kind {
            TopoKind::FatTree { k } => topology::fat_tree(*k),
            TopoKind::FatTreeClusters {
                clusters,
                hosts_per_cluster,
            } => topology::fat_tree_clusters(*clusters, *hosts_per_cluster),
            TopoKind::SpineLeaf {
                spines,
                leaves,
                hosts_per_leaf,
            } => topology::spine_leaf(*spines, *leaves, *hosts_per_leaf, rate, delay),
            TopoKind::Dumbbell {
                senders,
                receivers,
                edge_rate,
                bottleneck_rate,
            } => topology::dumbbell(*senders, *receivers, *edge_rate, *bottleneck_rate, delay),
            TopoKind::BCube { n, levels } => topology::bcube(*n, *levels, rate, delay),
            TopoKind::Torus2d { rows, cols } => topology::torus2d(*rows, *cols, rate, delay),
            TopoKind::Geant => topology::geant(),
            TopoKind::Chinanet => topology::chinanet(),
            TopoKind::Manual {
                nodes,
                hosts,
                clusters,
                links,
            } => {
                let kinds: Vec<NodeKind> = (0..*nodes)
                    .map(|i| {
                        if hosts.contains(&i) {
                            NodeKind::Host
                        } else {
                            NodeKind::Switch
                        }
                    })
                    .collect();
                let cluster_of = if clusters.is_empty() {
                    vec![0u32; *nodes]
                } else {
                    clusters.clone()
                };
                let n_clusters = cluster_of.iter().copied().max().map_or(1, |m| m + 1);
                Topology {
                    name: format!("manual({nodes})"),
                    nodes: kinds,
                    links: links
                        .iter()
                        .map(|l| TopoLink {
                            a: l.a,
                            b: l.b,
                            rate: l.rate,
                            delay: l.delay,
                        })
                        .collect(),
                    cluster_of,
                    clusters: n_clusters,
                }
            }
        };
        // For builders with internal defaults the rate/delay keys act as
        // whole-topology overrides; the parameterized builders above
        // consumed them as constructor arguments instead.
        if matches!(
            spec.kind,
            TopoKind::FatTree { .. }
                | TopoKind::FatTreeClusters { .. }
                | TopoKind::Geant
                | TopoKind::Chinanet
        ) {
            if let Some(r) = spec.rate {
                topo = topo.with_rate(r);
            }
            if let Some(d) = spec.delay {
                topo = topo.with_delay(d);
            }
        }
        if let Some(hd) = spec.host_delay {
            topo = topo.with_host_link_delay(hd);
        }
        topo
    }

    /// The generated-traffic configuration, if a `[traffic]` section was
    /// present.
    pub fn traffic_config(&self) -> Option<TrafficConfig> {
        self.traffic.as_ref().map(TrafficSpec::to_config)
    }

    /// The [`RunConfig`] this scenario selects, resolved against the built
    /// topology (needed for `partition = "by_cluster"`).
    pub fn run_config(&self, topo: &Topology) -> RunConfig {
        self.run_config_with_kernel(topo, self.run.kernel.clone())
    }

    /// Like [`ScenarioSpec::run_config`] but with the kernel replaced —
    /// the corpus test uses this to sweep thread counts over one file.
    pub fn run_config_with_kernel(&self, topo: &Topology, kernel: KernelKind) -> RunConfig {
        let base = RunConfig::sequential();
        let mut cfg = RunConfig {
            kernel,
            partition: self.run.partition.mode(topo),
            sched: self.run.sched,
            ..base
        };
        if let Some(deadline) = self.run.watchdog {
            cfg = cfg.with_watchdog(deadline);
        }
        if !self.run.fault.is_empty() {
            cfg = cfg.with_faults(self.run.fault.clone());
        }
        cfg
    }

    /// The checks that need the built topology, which the section parsers
    /// cannot make on their own: node references in bounds, hosts where
    /// hosts are required, a connected graph. Each error is reported at the
    /// table (or key) of `at` that holds the offending value.
    fn validate(&self, at: &Sources<'_>) -> Result<(), ScenarioError> {
        let topo = self.build_topology();
        let n = topo.node_count();
        if let (Some(t), Some(table)) = (&self.traffic, at.traffic) {
            if let Some(c) = t.incast_cluster.filter(|c| *c >= topo.clusters) {
                return Err(err_at(
                    table,
                    "incast_cluster",
                    format!(
                        "incast_cluster {c} out of range ({} clusters)",
                        topo.clusters
                    ),
                ));
            }
        }
        for (f, table) in self.flows.iter().zip(&at.flows) {
            for (role, id) in [("src", f.src), ("dst", f.dst)] {
                if id >= n {
                    let msg = format!("flow {role} {id} out of range ({n} nodes)");
                    return Err(err_at(table, role, msg));
                }
                if !matches!(topo.nodes[id], NodeKind::Host) {
                    return Err(err_at(
                        table,
                        role,
                        format!("flow {role} {id} is not a host"),
                    ));
                }
            }
            if f.src == f.dst {
                return Err(err_at(table, "dst", format!("flow src == dst ({})", f.src)));
            }
        }
        for (o, table) in self.on_off.iter().zip(&at.on_off) {
            for (role, id) in [("src", o.src), ("dst", o.dst as usize)] {
                if id >= n {
                    let msg = format!("on_off {role} {id} out of range ({n} nodes)");
                    return Err(err_at(table, role, msg));
                }
            }
        }
        if let PartitionSpec::Manual(assign) = &self.run.partition {
            if assign.len() != n {
                return Err(err_at(
                    at.run,
                    "assignment",
                    format!(
                        "manual partition has {} entries for {} nodes",
                        assign.len(),
                        n
                    ),
                ));
            }
        }
        if !topo.is_connected() {
            let msg = format!("topology `{}` is not connected", topo.name);
            return Err(serr(at.topology.line, at.topology.col, msg));
        }
        Ok(())
    }
}

/// The tables [`ScenarioSpec::validate`] reports its errors at (`flows` and
/// `on_off` in the order of the spec's lists).
struct Sources<'a> {
    topology: &'a Table,
    traffic: Option<&'a Table>,
    flows: Vec<&'a Table>,
    on_off: Vec<&'a Table>,
    run: &'a Table,
}

/// An error at `key` of `table` (at the section header when the key is
/// absent: the value is a default).
fn err_at(table: &Table, key: &str, msg: impl Into<String>) -> ScenarioError {
    let (line, col) = table
        .entry(key)
        .map_or((table.line, table.col), |e| (e.line, e.col));
    serr(line, col, msg)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Tracks which keys of a table have been consumed so leftovers can be
/// rejected with their spans — the unknown-key half of strict parsing.
struct Keys<'a> {
    table: &'a Table,
    section: String,
    used: Vec<&'a str>,
}

impl<'a> Keys<'a> {
    fn new(table: &'a Table) -> Self {
        let section = if table.name.is_empty() {
            "the top level".to_string()
        } else if table.is_array {
            format!("[[{}]]", table.name)
        } else {
            format!("[{}]", table.name)
        };
        Keys {
            table,
            section,
            used: Vec::new(),
        }
    }

    fn entry(&mut self, key: &'a str) -> Option<&'a Entry> {
        self.used.push(key);
        self.table.entry(key)
    }

    fn mismatch(&self, e: &Entry, want: &str) -> ScenarioError {
        serr(
            e.line,
            e.col,
            format!(
                "`{}` in {} must be a {want}, got a {}",
                e.key,
                self.section,
                e.value.type_name()
            ),
        )
    }

    fn missing(&self, key: &str) -> ScenarioError {
        serr(
            self.table.line,
            self.table.col,
            format!("{} is missing required key `{key}`", self.section),
        )
    }

    fn str(&mut self, key: &'a str) -> Result<Option<&'a str>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Str(s) => Ok(Some(s)),
                _ => Err(self.mismatch(e, "string")),
            },
        }
    }

    fn req_str(&mut self, key: &'a str) -> Result<&'a str, ScenarioError> {
        self.str(key)?.ok_or_else(|| self.missing(key))
    }

    fn int(&mut self, key: &'a str) -> Result<Option<i64>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Int(n) => Ok(Some(*n)),
                _ => Err(self.mismatch(e, "integer")),
            },
        }
    }

    fn req_int(&mut self, key: &'a str) -> Result<i64, ScenarioError> {
        self.int(key)?.ok_or_else(|| self.missing(key))
    }

    fn usize(&mut self, key: &'a str) -> Result<Option<usize>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Int(n) if *n >= 0 => Ok(Some(*n as usize)),
                Value::Int(_) => Err(self.mismatch(e, "non-negative integer")),
                _ => Err(self.mismatch(e, "integer")),
            },
        }
    }

    fn req_usize(&mut self, key: &'a str) -> Result<usize, ScenarioError> {
        self.usize(key)?.ok_or_else(|| self.missing(key))
    }

    fn u64(&mut self, key: &'a str) -> Result<Option<u64>, ScenarioError> {
        match self.usize(key)? {
            Some(v) => Ok(Some(v as u64)),
            None => Ok(None),
        }
    }

    fn u32(&mut self, key: &'a str) -> Result<Option<u32>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Int(n) if *n >= 0 && *n <= i64::from(u32::MAX) => Ok(Some(*n as u32)),
                Value::Int(_) => Err(self.mismatch(e, "u32")),
                _ => Err(self.mismatch(e, "integer")),
            },
        }
    }

    fn float(&mut self, key: &'a str) -> Result<Option<f64>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Float(f) => Ok(Some(*f)),
                Value::Int(n) => Ok(Some(*n as f64)),
                _ => Err(self.mismatch(e, "number")),
            },
        }
    }

    fn bool(&mut self, key: &'a str) -> Result<Option<bool>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Bool(b) => Ok(Some(*b)),
                _ => Err(self.mismatch(e, "boolean")),
            },
        }
    }

    /// A `<key>_us` number read as microseconds; a float carries the
    /// sub-microsecond values (Fig. 5c's 0.3 µs links), to the nanosecond.
    fn time_us(&mut self, key: &'a str) -> Result<Option<Time>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match e.value {
                Value::Int(n) if n >= 0 => Ok(Some(Time::from_micros(n as u64))),
                Value::Float(f) if f >= 0.0 => {
                    Ok(Some(Time::from_nanos((f * 1000.0).round() as u64)))
                }
                _ => Err(self.mismatch(e, "non-negative number")),
            },
        }
    }

    fn req_time_us(&mut self, key: &'a str) -> Result<Time, ScenarioError> {
        self.time_us(key)?.ok_or_else(|| self.missing(key))
    }

    /// A `<key>_mbps` integer read as a data rate.
    fn rate_mbps(&mut self, key: &'a str) -> Result<Option<DataRate>, ScenarioError> {
        Ok(self.u64(key)?.map(DataRate::mbps))
    }

    /// An array of non-negative integers.
    fn int_array(&mut self, key: &'a str) -> Result<Option<Vec<u64>>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Array(items) => {
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        match item {
                            Value::Int(n) if *n >= 0 => out.push(*n as u64),
                            _ => {
                                return Err(self.mismatch(e, "array of non-negative integers"));
                            }
                        }
                    }
                    Ok(Some(out))
                }
                _ => Err(self.mismatch(e, "array")),
            },
        }
    }

    /// A string key constrained to an enumerated set, mapped to `T`.
    fn choice<T: Copy>(
        &mut self,
        key: &'a str,
        options: &[(&str, T)],
    ) -> Result<Option<T>, ScenarioError> {
        let Some(e) = self.entry(key) else {
            return Ok(None);
        };
        let Value::Str(s) = &e.value else {
            return Err(self.mismatch(e, "string"));
        };
        for (name, v) in options {
            if name == s {
                return Ok(Some(*v));
            }
        }
        let names: Vec<&str> = options.iter().map(|(n, _)| *n).collect();
        Err(serr(
            e.line,
            e.col,
            format!(
                "`{}` in {} must be one of {} (got `{s}`)",
                e.key,
                self.section,
                names.join(" | ")
            ),
        ))
    }

    /// Rejects any key that was never consumed.
    fn finish(self) -> Result<(), ScenarioError> {
        for e in &self.table.entries {
            if !self.used.iter().any(|u| *u == e.key) {
                return Err(serr(
                    e.line,
                    e.col,
                    format!("unknown key `{}` in {}", e.key, self.section),
                ));
            }
        }
        Ok(())
    }
}

/// `links` are the file's `[[link]]`s, each with its table.
fn parse_topology(
    table: &Table,
    links: &[(ManualLink, &Table)],
) -> Result<TopologySpec, ScenarioError> {
    let mut k = Keys::new(table);
    let kind_name = k.req_str("kind")?;
    let rate = k.rate_mbps("rate_mbps")?;
    let delay = k.time_us("delay_us")?;
    let host_delay = k.time_us("host_delay_us")?;
    let kind = match kind_name {
        "fat_tree" => TopoKind::FatTree {
            k: k.req_usize("k")?,
        },
        "fat_tree_clusters" => TopoKind::FatTreeClusters {
            clusters: k.req_usize("clusters")?,
            hosts_per_cluster: k.req_usize("hosts_per_cluster")?,
        },
        "spine_leaf" => TopoKind::SpineLeaf {
            spines: k.req_usize("spines")?,
            leaves: k.req_usize("leaves")?,
            hosts_per_leaf: k.req_usize("hosts_per_leaf")?,
        },
        "dumbbell" => TopoKind::Dumbbell {
            senders: k.req_usize("senders")?,
            receivers: k.req_usize("receivers")?,
            edge_rate: DataRate::mbps(k.req_int("edge_rate_mbps")?.max(0) as u64),
            bottleneck_rate: DataRate::mbps(k.req_int("bottleneck_rate_mbps")?.max(0) as u64),
        },
        "bcube" => TopoKind::BCube {
            n: k.req_usize("n")?,
            levels: k.req_usize("levels")?,
        },
        "torus2d" => TopoKind::Torus2d {
            rows: k.req_usize("rows")?,
            cols: k.req_usize("cols")?,
        },
        "geant" => TopoKind::Geant,
        "chinanet" => TopoKind::Chinanet,
        "manual" => TopoKind::Manual {
            nodes: k.req_usize("nodes")?,
            hosts: k
                .int_array("hosts")?
                .unwrap_or_default()
                .into_iter()
                .map(|h| h as usize)
                .collect(),
            clusters: k
                .int_array("clusters")?
                .unwrap_or_default()
                .into_iter()
                .map(|c| c as u32)
                .collect(),
            links: links.iter().map(|(l, _)| *l).collect(),
        },
        other => {
            return Err(err_at(
                table,
                "kind",
                format!(
                    "unknown topology kind `{other}` (expected fat_tree | fat_tree_clusters | \
                     spine_leaf | dumbbell | bcube | torus2d | geant | chinanet | manual)"
                ),
            ));
        }
    };
    if !links.is_empty() && !matches!(kind, TopoKind::Manual { .. }) {
        return Err(serr(
            table.line,
            table.col,
            "[[link]] tables are only valid with `kind = \"manual\"`",
        ));
    }
    k.finish()?;
    // A builder parameter must not size anything before it is vetted.
    let here = |msg: String| serr(table.line, table.col, msg);
    let (nodes, link_count) = kind.size().map_err(here)?;
    if nodes > MAX_TOPOLOGY_NODES || link_count > MAX_TOPOLOGY_LINKS {
        return Err(here(format!(
            "this topology would have at least {nodes} nodes and {link_count} links; at \
             most {MAX_TOPOLOGY_NODES} nodes and {MAX_TOPOLOGY_LINKS} links are supported"
        )));
    }
    if let TopoKind::Manual {
        nodes,
        hosts,
        clusters,
        ..
    } = &kind
    {
        let n = *nodes;
        if n == 0 {
            return Err(err_at(table, "nodes", "manual topology needs `nodes >= 1`"));
        }
        if let Some(h) = hosts.iter().find(|h| **h >= n) {
            let msg = format!("manual host id {h} out of range (nodes = {n})");
            return Err(err_at(table, "hosts", msg));
        }
        if !clusters.is_empty() && clusters.len() != n {
            let msg = format!(
                "manual `clusters` has {} entries for {n} nodes",
                clusters.len()
            );
            return Err(err_at(table, "clusters", msg));
        }
        if let Some((l, at)) = links.iter().find(|(l, _)| l.a >= n || l.b >= n) {
            let key = if l.a >= n { "a" } else { "b" };
            let msg = format!("manual link {}-{} out of range (nodes = {n})", l.a, l.b);
            return Err(err_at(at, key, msg));
        }
    }
    Ok(TopologySpec {
        kind,
        rate,
        delay,
        host_delay,
    })
}

fn parse_link(table: &Table) -> Result<ManualLink, ScenarioError> {
    let mut k = Keys::new(table);
    let link = ManualLink {
        a: k.req_usize("a")?,
        b: k.req_usize("b")?,
        rate: k.rate_mbps("rate_mbps")?.unwrap_or(DataRate::gbps(100)),
        delay: k.time_us("delay_us")?.unwrap_or(Time::from_micros(3)),
    };
    k.finish()?;
    Ok(link)
}

fn parse_traffic(table: &Table) -> Result<TrafficSpec, ScenarioError> {
    let mut k = Keys::new(table);
    let pattern = k
        .choice(
            "pattern",
            &[
                ("random_uniform", TrafficPattern::RandomUniform),
                ("incast", TrafficPattern::Incast),
            ],
        )?
        .unwrap_or(TrafficPattern::RandomUniform);
    let load = k.float("load")?.ok_or_else(|| k.missing("load"))?;
    if !(0.0..=10.0).contains(&load) {
        let msg = format!("traffic load {load} out of range [0, 10]");
        return Err(err_at(table, "load", msg));
    }
    let incast_ratio = k.float("incast_ratio")?;
    if let Some(r) = incast_ratio.filter(|r| !(0.0..=1.0).contains(r)) {
        let msg = format!("incast_ratio {r} out of range [0, 1]");
        return Err(err_at(table, "incast_ratio", msg));
    }
    if pattern == TrafficPattern::Incast && incast_ratio.is_none() {
        return Err(k.missing("incast_ratio"));
    }
    let sizes_kind = k.choice(
        "sizes",
        &[("web_search", 0u8), ("grpc", 1u8), ("fixed", 2u8)],
    )?;
    let fixed_bytes = k.u64("fixed_bytes")?;
    let sizes = match sizes_kind {
        None | Some(0) => SizeDist::WebSearch,
        Some(1) => SizeDist::Grpc,
        _ => {
            let bytes = fixed_bytes.ok_or_else(|| k.missing("fixed_bytes"))?;
            SizeDist::Fixed(bytes)
        }
    };
    if sizes_kind != Some(2) && fixed_bytes.is_some() {
        return Err(err_at(
            table,
            "fixed_bytes",
            "`fixed_bytes` requires `sizes = \"fixed\"`",
        ));
    }
    let spec = TrafficSpec {
        pattern,
        load,
        incast_ratio: incast_ratio.unwrap_or(0.0),
        incast_cluster: k.u32("incast_cluster")?,
        sizes,
        seed: k.u64("seed")?.unwrap_or(1),
        start: k.time_us("start_us")?.unwrap_or(Time::ZERO),
        duration: k.time_us("duration_us")?.unwrap_or(Time::from_millis(10)),
    };
    k.finish()?;
    Ok(spec)
}

fn parse_flow(table: &Table) -> Result<FlowSpec, ScenarioError> {
    let mut k = Keys::new(table);
    let flow = FlowSpec {
        src: k.req_usize("src")?,
        dst: k.req_usize("dst")?,
        bytes: k.req_int("bytes")?.max(0) as u64,
        start: k.req_time_us("start_us")?,
    };
    k.finish()?;
    Ok(flow)
}

fn parse_on_off(table: &Table) -> Result<OnOffSpec, ScenarioError> {
    let mut k = Keys::new(table);
    let spec = OnOffSpec {
        src: k.req_usize("src")?,
        dst: k.req_usize("dst")? as u32,
        rate: DataRate::mbps(k.req_int("rate_mbps")?.max(0) as u64),
        pkt_bytes: k.u32("pkt_bytes")?.unwrap_or(1448),
        mean_on: k.req_time_us("mean_on_us")?,
        mean_off: k.req_time_us("mean_off_us")?,
        until: k.req_time_us("until_us")?,
        seed: k.u64("seed")?.unwrap_or(1),
    };
    k.finish()?;
    Ok(spec)
}

fn parse_transport(table: &Table) -> Result<TransportSpec, ScenarioError> {
    let mut k = Keys::new(table);
    let spec = TransportSpec {
        kind: k
            .choice(
                "kind",
                &[
                    ("newreno", TransportKindSpec::NewReno),
                    ("dctcp", TransportKindSpec::Dctcp),
                ],
            )?
            .unwrap_or(TransportKindSpec::NewReno),
        profile: k
            .choice(
                "profile",
                &[("default", TcpProfile::Default), ("dcn", TcpProfile::Dcn)],
            )?
            .unwrap_or(TcpProfile::Default),
        init_cwnd: k.u32("init_cwnd")?,
        min_rto: k.time_us("min_rto_us")?,
        initial_rto: k.time_us("initial_rto_us")?,
        dctcp_g: k.float("dctcp_g")?,
        limited_transmit: k.bool("limited_transmit")?,
    };
    k.finish()?;
    Ok(spec)
}

fn parse_queue(table: &Table) -> Result<QueueSpec, ScenarioError> {
    let mut k = Keys::new(table);
    let kind = k.req_str("kind")?;
    let spec = match kind {
        "drop_tail" => QueueSpec::DropTail {
            limit_bytes: k.u32("limit_bytes")?.unwrap_or(1 << 20),
        },
        "red" => QueueSpec::Red {
            limit_bytes: k.u32("limit_bytes")?.unwrap_or(1 << 20),
            min_th: k.u32("min_th")?.ok_or_else(|| k.missing("min_th"))?,
            max_th: k.u32("max_th")?.ok_or_else(|| k.missing("max_th"))?,
            max_p: k.float("max_p")?.unwrap_or(0.1),
            w_q: k.float("w_q")?.unwrap_or(0.002),
            mark_ecn: k.bool("mark_ecn")?.unwrap_or(false),
        },
        "dctcp" => QueueSpec::Dctcp {
            limit_bytes: k.u32("limit_bytes")?.unwrap_or(1 << 20),
            k_bytes: k.u32("k_bytes")?.ok_or_else(|| k.missing("k_bytes"))?,
        },
        other => {
            return Err(err_at(
                table,
                "kind",
                format!("unknown queue kind `{other}` (expected drop_tail | red | dctcp)"),
            ));
        }
    };
    k.finish()?;
    Ok(spec)
}

fn parse_routing(table: &Table) -> Result<RoutingSpec, ScenarioError> {
    let mut k = Keys::new(table);
    let kind = k.req_str("kind")?;
    let spec = match kind {
        "static_ecmp" => RoutingSpec::StaticEcmp,
        "rip" => RoutingSpec::Rip {
            update_interval: k
                .time_us("update_interval_us")?
                .unwrap_or(Time::from_millis(10)),
        },
        other => {
            return Err(err_at(
                table,
                "kind",
                format!("unknown routing kind `{other}` (expected static_ecmp | rip)"),
            ));
        }
    };
    k.finish()?;
    Ok(spec)
}

fn parse_fault(table: &Table, plan: FaultPlan) -> Result<FaultPlan, ScenarioError> {
    let mut k = Keys::new(table);
    let kind = k.req_str("kind")?;
    let plan = match kind {
        "worker_panic" => {
            let round = k.req_int("round")?.max(0) as u64;
            let phase = k
                .choice(
                    "phase",
                    &[
                        ("process", RunPhase::Process),
                        ("global", RunPhase::Global),
                        ("receive", RunPhase::Receive),
                        ("control", RunPhase::Control),
                    ],
                )?
                .unwrap_or(RunPhase::Process);
            let worker = k.req_usize("worker")?;
            plan.worker_panic(round, phase, worker)
        }
        "mailbox_stall" => plan.mailbox_stall(
            k.req_int("round")?.max(0) as u64,
            k.req_usize("worker")?,
            k.req_int("millis")?.max(0) as u64,
        ),
        "barrier_delay" => plan.barrier_delay(
            k.req_int("round")?.max(0) as u64,
            k.req_usize("worker")?,
            k.req_int("millis")?.max(0) as u64,
        ),
        "checkpoint_fail" => plan.checkpoint_fail(k.req_time_us("at_us")?),
        "alloc_fail" => plan.alloc_fail(k.req_int("round")?.max(0) as u64, k.req_usize("worker")?),
        other => {
            return Err(err_at(
                table,
                "kind",
                format!(
                    "unknown fault kind `{other}` (expected worker_panic | mailbox_stall | \
                     barrier_delay | checkpoint_fail | alloc_fail)"
                ),
            ));
        }
    };
    k.finish()?;
    Ok(plan)
}

/// The partition values `[run] partition` and `[model] baseline_partition`
/// share: the ones a name (plus `lps`, default `default_lps`) fully
/// describes. `more` lists what else the caller accepts under `key`.
fn named_partition<'a>(
    k: &mut Keys<'a>,
    key: &'a str,
    lps_key: &'a str,
    default_lps: Option<u32>,
    more: &str,
) -> Result<PartitionSpec, ScenarioError> {
    let lps = |k: &mut Keys<'a>| match (k.u32(lps_key)?, default_lps) {
        (Some(0), _) => Err(err_at(
            k.table,
            lps_key,
            format!("`{lps_key}` must be >= 1"),
        )),
        (Some(n), _) | (None, Some(n)) => Ok(n),
        (None, None) => Err(k.missing(lps_key)),
    };
    match k.req_str(key)? {
        "auto" => Ok(PartitionSpec::Auto),
        "single_lp" => Ok(PartitionSpec::SingleLp),
        "by_cluster" => Ok(PartitionSpec::ByCluster),
        "by_id_range" => Ok(PartitionSpec::ByIdRange(lps(k)?)),
        "by_cluster_group" => Ok(PartitionSpec::ByClusterGroup(lps(k)?)),
        other => Err(err_at(
            k.table,
            key,
            format!(
                "unknown partition `{other}` (expected auto | single_lp | by_cluster | \
                     by_id_range | by_cluster_group{more})"
            ),
        )),
    }
}

fn parse_model(table: &Table) -> Result<ModelSpec, ScenarioError> {
    let mut k = Keys::new(table);
    let cores = k.req_usize("cores")?;
    if !(1..=MAX_MODEL_CORES).contains(&cores) {
        return Err(err_at(
            table,
            "cores",
            format!("`cores` must be in 1..={MAX_MODEL_CORES}, got {cores}"),
        ));
    }
    let baseline = match k.str("baseline_partition")? {
        None => None,
        Some(_) => Some(named_partition(
            &mut k,
            "baseline_partition",
            "baseline_lps",
            Some(cores as u32),
            "",
        )?),
    };
    let hybrid_hosts = k.usize("hybrid_hosts")?;
    if let Some(hosts) = hybrid_hosts {
        if hosts == 0 || cores % hosts != 0 {
            return Err(err_at(
                table,
                "hybrid_hosts",
                format!("`hybrid_hosts` = {hosts} must divide `cores` = {cores}"),
            ));
        }
    }
    k.finish()?;
    Ok(ModelSpec {
        cores,
        baseline,
        hybrid_hosts,
    })
}

fn parse_run(table: &Table, faults: FaultPlan) -> Result<RunSpec, ScenarioError> {
    let mut k = Keys::new(table);
    let stop = k.req_time_us("stop_us")?;
    if stop == Time::ZERO {
        return Err(err_at(table, "stop_us", "`stop_us` must be positive"));
    }
    let kernel_name = k.req_str("kernel")?;
    // A worker count sizes the kernel's tables: bounded here, at its key.
    let workers = |k: &mut Keys<'_>, key: &'static str| -> Result<usize, ScenarioError> {
        let n = k.req_usize(key)?;
        if !(1..=MAX_WORKERS).contains(&n) {
            let msg = format!("`{key}` must be in 1..={MAX_WORKERS}, got {n}");
            return Err(err_at(table, key, msg));
        }
        Ok(n)
    };
    let (kernel, default_partition) = match kernel_name {
        "sequential" => (
            KernelKind::Sequential { compat_keys: false },
            PartitionSpec::SingleLp,
        ),
        "sequential_compat" => (
            KernelKind::Sequential { compat_keys: true },
            PartitionSpec::SingleLp,
        ),
        "barrier" => (KernelKind::Barrier, PartitionSpec::ByCluster),
        "nullmsg" => (KernelKind::NullMessage, PartitionSpec::ByCluster),
        // Benchmark compatibility: `benchmark/src/workloads.rs:112` (frozen;
        // a PR may not edit `benchmark/`) still writes `kernel =
        // "async_cons"` into its `async_cons_2t` inputs. That kernel was
        // deleted after losing its trial (DESIGN.md §7); the spelling is
        // read as `unison` until the next benchmark PR drops the
        // configuration, and is not listed among the accepted values.
        "unison" | "async_cons" => (
            KernelKind::Unison {
                threads: workers(&mut k, "threads")?,
            },
            PartitionSpec::Auto,
        ),
        "hybrid" => {
            let hosts = workers(&mut k, "hosts")?;
            let threads_per_host = workers(&mut k, "threads_per_host")?;
            if hosts * threads_per_host > MAX_WORKERS {
                let msg = format!(
                    "`hosts` x `threads_per_host` = {} workers; at most {MAX_WORKERS} \
                     are supported",
                    hosts * threads_per_host
                );
                return Err(err_at(table, "threads_per_host", msg));
            }
            (
                KernelKind::Hybrid {
                    hosts,
                    threads_per_host,
                },
                PartitionSpec::Auto,
            )
        }
        other => {
            return Err(err_at(
                table,
                "kernel",
                format!(
                    "unknown kernel `{other}` (expected sequential | sequential_compat | \
                     barrier | nullmsg | unison | hybrid)"
                ),
            ));
        }
    };
    if !matches!(kernel, KernelKind::Unison { .. }) && k.entry("threads").is_some() {
        let msg = format!("`threads` is not valid for kernel `{kernel_name}`");
        return Err(err_at(table, "threads", msg));
    }
    let partition = match k.str("partition")? {
        None => default_partition,
        Some("bound") => PartitionSpec::Bound(k.req_time_us("bound_us")?),
        Some("manual") => {
            let assign = k
                .int_array("assignment")?
                .ok_or_else(|| k.missing("assignment"))?;
            // Every LP holds at least one node, so an id at or above the
            // array length can never be part of a dense assignment — and a
            // file value must not size the kernel's per-LP tables.
            let n = assign.len();
            let mut lps = Vec::with_capacity(n);
            for (i, &v) in assign.iter().enumerate() {
                match u32::try_from(v) {
                    Ok(lp) if (lp as usize) < n => lps.push(lp),
                    _ => {
                        return Err(err_at(
                            table,
                            "assignment",
                            format!(
                                "`assignment[{i}]` = {v} is out of range: {n} nodes form \
                                 at most {n} LPs, numbered from 0"
                            ),
                        ));
                    }
                }
            }
            PartitionSpec::Manual(lps)
        }
        Some(_) => named_partition(&mut k, "partition", "lps", None, " | bound | manual")?,
    };
    let mut sched = SchedConfig::default();
    if let Some(metric) = k.choice(
        "sched_metric",
        &[
            ("by-last-round-time", SchedMetric::ByLastRoundTime),
            ("by-pending-events", SchedMetric::ByPendingEvents),
            ("none", SchedMetric::None),
        ],
    )? {
        sched.metric = metric;
    }
    if let Some(period) = k.u32("sched_period")? {
        sched.period = Some(period);
    }
    match (k.bool("fusion")?, k.u64("fusion_threshold")?) {
        (Some(false), None) => sched.fusion = FusionConfig::off(),
        (Some(false), Some(_)) => {
            return Err(err_at(
                table,
                "fusion_threshold",
                "`fusion_threshold` conflicts with `fusion = false`",
            ));
        }
        (_, Some(th)) => sched.fusion.threshold = th,
        (Some(true) | None, None) => {}
    }
    let watchdog = k.u64("watchdog_ms")?.map(Duration::from_millis);
    k.finish()?;
    Ok(RunSpec {
        stop,
        kernel,
        partition,
        sched,
        watchdog,
        fault: faults,
    })
}

/// Largest number of rows one file may sweep.
pub const MAX_ROWS: usize = 256;

/// Parses scenario source text into a validated [`ScenarioSpec`].
///
/// Strictness guarantees: every section name, key, and enum string is
/// checked; the first violation is returned with its line/column span.
/// Semantic checks that need the built topology run too, so a
/// successfully parsed scenario is runnable as-is. A file that sweeps more
/// than one row is an error here — [`parse_rows`] reads those.
pub fn parse_scenario(src: &str) -> Result<ScenarioSpec, ScenarioError> {
    let tables = toml::parse(src)?;
    let sweep = tables.iter().find(|t| t.name.starts_with("sweep."));
    let sweep_at = sweep.map_or((0, 0), |t| (t.line, t.col));
    let mut rows = expand_rows(tables)?;
    if rows.len() > 1 {
        return Err(serr(
            sweep_at.0,
            sweep_at.1,
            format!(
                "this file sweeps {} rows; `parse_scenario` reads one — use `parse_rows`",
                rows.len()
            ),
        ));
    }
    Ok(rows.remove(0).spec)
}

/// Parses scenario source text into its rows: one for a plain file, one per
/// list position for a file with `[sweep.<section>]` tables. Each row is
/// the file with every swept key replaced by its value at that position and
/// is parsed and validated like a plain file; an error caused by a swept
/// value carries that list element's span and the row index.
pub fn parse_rows(src: &str) -> Result<Vec<ScenarioRow>, ScenarioError> {
    expand_rows(toml::parse(src)?)
}

/// One `key = [v0, v1, …]` entry of a `[sweep.<section>]` table, resolved to
/// the entry of the file it replaces.
struct Axis<'a> {
    /// Index of `[<section>]` in the file's tables, and of `key` in it.
    table: usize,
    entry: usize,
    /// The list: its values, their spans, its own span.
    list: &'a Entry,
    values: &'a [Value],
    /// `section.key`, for row labels.
    name: String,
}

/// Zips the `[sweep.*]` lists into rows (see [`parse_rows`]).
fn expand_rows(tables: Vec<Table>) -> Result<Vec<ScenarioRow>, ScenarioError> {
    let (sweeps, mut tables): (Vec<Table>, Vec<Table>) = tables
        .into_iter()
        .partition(|t| t.name == "sweep" || t.name.starts_with("sweep."));
    let mut axes: Vec<Axis> = Vec::new();
    for sweep in &sweeps {
        let section = sweep.name.strip_prefix("sweep.").unwrap_or("");
        let target = tables
            .iter()
            .position(|t| !section.is_empty() && !t.is_array && t.name == section);
        let (Some(target), false) = (target, sweep.is_array) else {
            let msg = "must be `[sweep.<section>]`, naming a single section of this file";
            return Err(serr(
                sweep.line,
                sweep.col,
                format!("`[{}]` {msg}", sweep.name),
            ));
        };
        for e in &sweep.entries {
            let name = format!("{section}.{}", e.key);
            let bad = |at: &Entry, msg: String| Err(serr(at.line, at.col, msg));
            let Value::Array(values) = &e.value else {
                let got = e.value.type_name();
                return bad(e, format!("sweep `{name}` must be an array, got a {got}"));
            };
            let Some(entry) = tables[target].entries.iter().position(|b| b.key == e.key) else {
                return bad(
                    e,
                    format!("sweep `{name}`: [{section}] does not set `{}`", e.key),
                );
            };
            let n = values.len();
            if n == 0 || n > MAX_ROWS {
                return bad(
                    e,
                    format!("sweep `{name}` lists {n} rows; a sweep has 1..={MAX_ROWS}"),
                );
            }
            if let Some(first) = axes.first().filter(|f| f.values.len() != n) {
                let shorter = if n < first.values.len() {
                    e
                } else {
                    first.list
                };
                return bad(
                    shorter,
                    format!(
                        "sweep lists must have one length: `{}` has {}, `{name}` has {n}",
                        first.name,
                        first.values.len()
                    ),
                );
            }
            axes.push(Axis {
                table: target,
                entry,
                list: e,
                values,
                name,
            });
        }
    }
    let Some(first) = axes.first() else {
        return Ok(vec![ScenarioRow {
            label: String::new(),
            spec: parse_tables(&tables)?,
        }]);
    };
    let mut rows = Vec::with_capacity(first.values.len());
    for i in 0..first.values.len() {
        let mut label = Vec::with_capacity(axes.len());
        for axis in &axes {
            let e = &mut tables[axis.table].entries[axis.entry];
            e.value = axis.values[i].clone();
            // Whatever the section parser says about this entry now points
            // at the list element.
            (e.line, e.col) = axis.list.items[i];
            label.push(format!("{} = {}", axis.name, show(&axis.values[i])));
        }
        let label = label.join(", ");
        let spec = parse_tables(&tables)
            .map_err(|e| serr(e.line, e.col, format!("row {i} ({label}): {}", e.msg)))?;
        rows.push(ScenarioRow { label, spec });
    }
    Ok(rows)
}

/// A swept value as the file wrote it.
fn show(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("{s:?}"),
        Value::Int(n) => n.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Array(_) => "[…]".to_string(),
    }
}

/// Parses the tables of one row — every section but `[sweep.*]`.
fn parse_tables(tables: &[Table]) -> Result<ScenarioSpec, ScenarioError> {
    let mut name = None;
    let mut topology_table = None;
    let mut traffic = None;
    let mut traffic_table = None;
    let mut transport = None;
    let mut queue = None;
    let mut routing = None;
    let mut run_table = None;
    let mut model = None;
    let mut flows = Vec::new();
    let mut on_off = Vec::new();
    let mut links = Vec::new();
    let mut faults = FaultPlan::new();

    // Singleton sections may appear once; [[flow]]/[[on_off]]/[[link]]/
    // [[fault]] accumulate in file order.
    let mut seen: Vec<&str> = Vec::new();
    for table in tables {
        let dup = |name: &str| -> ScenarioError {
            serr(table.line, table.col, format!("duplicate [{name}] section"))
        };
        match table.name.as_str() {
            "" => {
                let mut k = Keys::new(table);
                name = k.str("name")?.map(str::to_string);
                k.finish()?;
            }
            "topology" | "traffic" | "transport" | "queue" | "routing" | "run" | "model"
                if table.is_array =>
            {
                return Err(serr(
                    table.line,
                    table.col,
                    format!(
                        "[[{}]] is not an array section — use [{}]",
                        table.name, table.name
                    ),
                ));
            }
            "topology" => {
                if seen.contains(&"topology") {
                    return Err(dup("topology"));
                }
                topology_table = Some(table);
                seen.push("topology");
            }
            "traffic" => {
                if seen.contains(&"traffic") {
                    return Err(dup("traffic"));
                }
                traffic = Some(parse_traffic(table)?);
                traffic_table = Some(table);
                seen.push("traffic");
            }
            "transport" => {
                if seen.contains(&"transport") {
                    return Err(dup("transport"));
                }
                transport = Some(parse_transport(table)?);
                seen.push("transport");
            }
            "queue" => {
                if seen.contains(&"queue") {
                    return Err(dup("queue"));
                }
                queue = Some(parse_queue(table)?);
                seen.push("queue");
            }
            "routing" => {
                if seen.contains(&"routing") {
                    return Err(dup("routing"));
                }
                routing = Some(parse_routing(table)?);
                seen.push("routing");
            }
            "run" => {
                if seen.contains(&"run") {
                    return Err(dup("run"));
                }
                run_table = Some(table);
                seen.push("run");
            }
            "model" => {
                if seen.contains(&"model") {
                    return Err(dup("model"));
                }
                model = Some(parse_model(table)?);
                seen.push("model");
            }
            "flow" | "on_off" | "link" | "fault" if !table.is_array => {
                return Err(serr(
                    table.line,
                    table.col,
                    format!(
                        "[{}] must be an array section — use [[{}]]",
                        table.name, table.name
                    ),
                ));
            }
            "flow" => flows.push((parse_flow(table)?, table)),
            "on_off" => on_off.push((parse_on_off(table)?, table)),
            "link" => links.push((parse_link(table)?, table)),
            "fault" => faults = parse_fault(table, faults)?,
            other => {
                return Err(serr(
                    table.line,
                    table.col,
                    format!(
                        "unknown section `[{other}]` (expected topology | traffic | transport | \
                         queue | routing | run | model | sweep.<section> | [[flow]] | [[on_off]] | \
                         [[link]] | [[fault]])"
                    ),
                ));
            }
        }
    }

    let topology_table =
        topology_table.ok_or_else(|| serr(1, 1, "scenario is missing its [topology] section"))?;
    let run_table = run_table.ok_or_else(|| serr(1, 1, "scenario is missing its [run] section"))?;

    let (flows, flow_tables) = flows.into_iter().unzip();
    let (on_off, on_off_tables) = on_off.into_iter().unzip();
    let spec = ScenarioSpec {
        name: name.unwrap_or_else(|| "unnamed".to_string()),
        topology: parse_topology(topology_table, &links)?,
        traffic,
        flows,
        on_off,
        transport: transport.unwrap_or_default(),
        queue,
        routing: routing.unwrap_or(RoutingSpec::StaticEcmp),
        run: parse_run(run_table, faults)?,
        model,
    };
    spec.validate(&Sources {
        topology: topology_table,
        traffic: traffic_table,
        flows: flow_tables,
        on_off: on_off_tables,
        run: run_table,
    })?;
    Ok(spec)
}
