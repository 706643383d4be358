//! Static manual partition schemes for the PDES baselines.
//!
//! Adapting a DES model to classic PDES requires hand-writing one of these
//! per topology (the paper's §3.1 and Table 1). Each function returns a
//! dense node→LP assignment consumable by
//! [`PartitionMode::Manual`](unison_core::PartitionMode).

use crate::{NodeKind, Topology};

/// Fig. 3's symmetric fat-tree partition: each pod is one LP and the core
/// layer is distributed round-robin over pods. Works for any topology with
/// cluster labels (BCube0 groups, spine-leaf leaves, ...), since the
/// builders label core/spine switches round-robin already.
pub fn by_cluster(topo: &Topology) -> Vec<u32> {
    topo.cluster_of.clone()
}

/// Groups clusters into `lps` LPs of consecutive clusters (used when the
/// hardware has fewer slots than clusters, §3.1's re-partition scenario).
pub fn by_cluster_group(topo: &Topology, lps: u32) -> Vec<u32> {
    assert!(lps >= 1);
    let lps = lps.min(topo.clusters.max(1));
    let per = topo.clusters.div_ceil(lps);
    topo.cluster_of
        .iter()
        .map(|&c| (c / per).min(lps - 1))
        .collect()
}

/// The paper's torus partition: split the node-id range `[0, n)` into `lps`
/// equal sub-arrays.
pub fn by_id_range(topo: &Topology, lps: u32) -> Vec<u32> {
    assert!(lps >= 1);
    let n = topo.node_count() as u32;
    let lps = lps.min(n.max(1));
    let per = n.div_ceil(lps);
    (0..n).map(|i| (i / per).min(lps - 1)).collect()
}

/// A deliberately coarse two-way split for the dumbbell (Fig. 12b's
/// "coarse" scheme): sender side vs receiver side, cutting only the
/// bottleneck link.
pub fn dumbbell_halves(topo: &Topology) -> Vec<u32> {
    topo.cluster_of.iter().map(|&c| c.min(1)).collect()
}

/// One LP per node (the finest granularity; Fig. 12a's right end).
pub fn per_node(topo: &Topology) -> Vec<u32> {
    (0..topo.node_count() as u32).collect()
}

/// Sanity helper: number of hosts per LP of an assignment, used by tests
/// and by the Table 1 harness to report balance.
pub fn host_balance(topo: &Topology, assignment: &[u32]) -> Vec<usize> {
    let lps = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut counts = vec![0usize; lps as usize];
    for (i, kind) in topo.nodes.iter().enumerate() {
        if *kind == NodeKind::Host {
            counts[assignment[i] as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fat_tree, torus2d};
    use unison_core::{DataRate, Time};

    #[test]
    fn fat_tree_pod_partition_is_balanced() {
        let t = fat_tree(4);
        let a = by_cluster(&t);
        let balance = host_balance(&t, &a);
        assert_eq!(balance, vec![4, 4, 4, 4]);
        // Dense LP ids.
        assert_eq!(a.iter().copied().max(), Some(3));
    }

    #[test]
    fn cluster_grouping_halves() {
        let t = fat_tree(4);
        let a = by_cluster_group(&t, 2);
        let balance = host_balance(&t, &a);
        assert_eq!(balance, vec![8, 8]);
    }

    #[test]
    fn torus_range_partition() {
        let t = torus2d(12, 12, DataRate::gbps(10), Time::from_micros(30));
        let a = by_id_range(&t, 4);
        let mut counts = vec![0usize; 4];
        for &lp in &a {
            counts[lp as usize] += 1;
        }
        assert_eq!(counts, vec![36, 36, 36, 36]);
    }

    #[test]
    fn per_node_is_identity() {
        let t = fat_tree(4);
        let a = per_node(&t);
        assert_eq!(a.len(), t.node_count());
        assert!(a.iter().enumerate().all(|(i, &l)| l == i as u32));
    }

    #[test]
    fn group_count_clamps_to_clusters() {
        let t = fat_tree(4);
        let a = by_cluster_group(&t, 100);
        assert_eq!(a.iter().copied().max(), Some(3));
    }
}
