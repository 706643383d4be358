//! # unison-topology
//!
//! Topology builders for the unison-rs workspace. Each builder produces a
//! kernel-agnostic [`Topology`]: typed nodes (hosts/switches), links with
//! bandwidth and propagation delay, and cluster labels used both by the
//! baselines' static manual partitions ([`manual`]) and by workload
//! generators (e.g. "send 10% of flows into the rightmost cluster").
//!
//! Builders cover every topology in the paper's evaluation: k-ary fat-trees
//! and cluster fat-trees (Figs. 1, 5, 8, 9, 13), BCube (Fig. 10b), 2-D torus
//! (Figs. 10a, 12a), the GEANT and ChinaNet wide-area networks (Fig. 10c),
//! plus spine-leaf and the DCTCP dumbbell used in Table 1 and Fig. 12b.

pub mod bcube;
pub mod fattree;
pub mod manual;
pub mod torus;
pub mod wan;

pub use bcube::bcube;
pub use fattree::{fat_tree, fat_tree_clusters, FatTreeShape};
pub use torus::torus2d;
pub use wan::{chinanet, geant};

use unison_core::{DataRate, Time};

/// Role of a node in the topology.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// Traffic endpoint.
    Host,
    /// Packet forwarder.
    Switch,
}

/// A bidirectional link with symmetric bandwidth and delay.
#[derive(Clone, Copy, Debug)]
pub struct TopoLink {
    /// One endpoint (node index).
    pub a: usize,
    /// Other endpoint (node index).
    pub b: usize,
    /// Link bandwidth (each direction).
    pub rate: DataRate,
    /// Propagation delay.
    pub delay: Time,
}

/// A kernel-agnostic network topology.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Human-readable name ("fat-tree(k=4)", "geant", ...).
    pub name: String,
    /// Node roles, indexed by node id.
    pub nodes: Vec<NodeKind>,
    /// Links.
    pub links: Vec<TopoLink>,
    /// Cluster (pod / BCube0 / row-range / country) label per node; used by
    /// manual partitions and skewed traffic generators.
    pub cluster_of: Vec<u32>,
    /// Number of clusters.
    pub clusters: u32,
}

impl Topology {
    /// Indices of host nodes, ascending.
    pub fn hosts(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == NodeKind::Host)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of host nodes.
    pub fn host_count(&self) -> usize {
        self.nodes.iter().filter(|k| **k == NodeKind::Host).count()
    }

    /// Bandwidth of the first host-attached link, 10 Gb/s when no link
    /// touches a host: the access rate generated traffic is scaled by.
    pub fn host_rate(&self) -> DataRate {
        self.links
            .iter()
            .find(|l| self.nodes[l.a] == NodeKind::Host || self.nodes[l.b] == NodeKind::Host)
            .map(|l| l.rate)
            .unwrap_or(DataRate::gbps(10))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Hosts belonging to a given cluster.
    pub fn cluster_hosts(&self, cluster: u32) -> Vec<usize> {
        self.hosts()
            .into_iter()
            .filter(|&h| self.cluster_of[h] == cluster)
            .collect()
    }

    /// Rescales every link to the given bandwidth.
    pub fn with_rate(mut self, rate: DataRate) -> Self {
        for l in &mut self.links {
            l.rate = rate;
        }
        self
    }

    /// Rescales every link to the given propagation delay.
    pub fn with_delay(mut self, delay: Time) -> Self {
        for l in &mut self.links {
            l.delay = delay;
        }
        self
    }

    /// Sets the delay of host-attached links only (the §4.2 illustration
    /// merges hosts with their top-of-rack switch by zeroing these).
    pub fn with_host_link_delay(mut self, delay: Time) -> Self {
        for l in &mut self.links {
            if self.nodes[l.a] == NodeKind::Host || self.nodes[l.b] == NodeKind::Host {
                l.delay = delay;
            }
        }
        self
    }

    /// Checks that the live topology is connected (BFS from node 0).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for l in &self.links {
            adj[l.a].push(l.b);
            adj[l.b].push(l.a);
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        let mut visited = 1;
        while let Some(v) = queue.pop_front() {
            for &u in &adj[v] {
                if !seen[u] {
                    seen[u] = true;
                    visited += 1;
                    queue.push_back(u);
                }
            }
        }
        visited == self.nodes.len()
    }
}

/// Convenience: a spine-leaf fabric with `spines` spine switches, `leaves`
/// leaf switches and `hosts_per_leaf` hosts per leaf. Each leaf is a
/// cluster.
pub fn spine_leaf(
    spines: usize,
    leaves: usize,
    hosts_per_leaf: usize,
    rate: DataRate,
    delay: Time,
) -> Topology {
    let mut nodes = Vec::new();
    let mut cluster_of = Vec::new();
    let mut links = Vec::new();
    // Spines first, then leaves, then hosts.
    for _ in 0..spines {
        nodes.push(NodeKind::Switch);
        cluster_of.push(0);
    }
    for l in 0..leaves {
        let leaf = nodes.len();
        nodes.push(NodeKind::Switch);
        cluster_of.push(l as u32);
        for s in 0..spines {
            links.push(TopoLink {
                a: s,
                b: leaf,
                rate,
                delay,
            });
        }
    }
    for l in 0..leaves {
        let leaf = spines + l;
        for _ in 0..hosts_per_leaf {
            let h = nodes.len();
            nodes.push(NodeKind::Host);
            cluster_of.push(l as u32);
            links.push(TopoLink {
                a: leaf,
                b: h,
                rate,
                delay,
            });
        }
    }
    // Spine switches belong to cluster 0 by convention.
    Topology {
        name: format!("spine-leaf({spines}x{leaves}x{hosts_per_leaf})"),
        nodes,
        links,
        cluster_of,
        clusters: leaves as u32,
    }
}

/// The DCTCP-style dumbbell: `senders` hosts behind switch A, `receivers`
/// hosts behind switch B, with a single bottleneck link A–B. Cluster 0 =
/// sender side, cluster 1 = receiver side.
pub fn dumbbell(
    senders: usize,
    receivers: usize,
    edge_rate: DataRate,
    bottleneck_rate: DataRate,
    delay: Time,
) -> Topology {
    let mut nodes = vec![NodeKind::Switch, NodeKind::Switch];
    let mut cluster_of = vec![0u32, 1u32];
    let mut links = vec![TopoLink {
        a: 0,
        b: 1,
        rate: bottleneck_rate,
        delay,
    }];
    for _ in 0..senders {
        let h = nodes.len();
        nodes.push(NodeKind::Host);
        cluster_of.push(0);
        links.push(TopoLink {
            a: 0,
            b: h,
            rate: edge_rate,
            delay,
        });
    }
    for _ in 0..receivers {
        let h = nodes.len();
        nodes.push(NodeKind::Host);
        cluster_of.push(1);
        links.push(TopoLink {
            a: 1,
            b: h,
            rate: edge_rate,
            delay,
        });
    }
    Topology {
        name: format!("dumbbell({senders}x{receivers})"),
        nodes,
        links,
        cluster_of,
        clusters: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spine_leaf_counts() {
        let t = spine_leaf(4, 8, 16, DataRate::gbps(10), Time::from_micros(3));
        assert_eq!(t.node_count(), 4 + 8 + 8 * 16);
        assert_eq!(t.host_count(), 128);
        assert_eq!(t.links.len(), 4 * 8 + 8 * 16);
        assert!(t.is_connected());
        assert_eq!(t.clusters, 8);
        assert_eq!(t.cluster_hosts(0).len(), 16);
    }

    #[test]
    fn dumbbell_shape() {
        let t = dumbbell(
            8,
            8,
            DataRate::gbps(1),
            DataRate::gbps(10),
            Time::from_micros(50),
        );
        assert_eq!(t.host_count(), 16);
        assert_eq!(t.links.len(), 17);
        assert!(t.is_connected());
        // Bottleneck is the only 10G link.
        let fat: Vec<_> = t
            .links
            .iter()
            .filter(|l| l.rate == DataRate::gbps(10))
            .collect();
        assert_eq!(fat.len(), 1);
        assert_eq!((fat[0].a, fat[0].b), (0, 1));
    }

    #[test]
    fn rate_and_delay_rescaling() {
        let t = spine_leaf(2, 2, 2, DataRate::gbps(10), Time::from_micros(3))
            .with_rate(DataRate::mbps(100))
            .with_delay(Time::from_micros(500));
        assert!(t
            .links
            .iter()
            .all(|l| l.rate == DataRate::mbps(100) && l.delay == Time::from_micros(500)));
    }

    #[test]
    fn host_link_delay_override() {
        let t = spine_leaf(2, 2, 2, DataRate::gbps(10), Time::from_micros(3))
            .with_host_link_delay(Time::ZERO);
        for l in &t.links {
            let host_link = t.nodes[l.a] == NodeKind::Host || t.nodes[l.b] == NodeKind::Host;
            assert_eq!(l.delay == Time::ZERO, host_link);
        }
    }
}
