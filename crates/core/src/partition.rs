//! Topology partitioning into logical processes.
//!
//! Implements the paper's Algorithm 1 (*Fine-Grained-Partition*): the
//! lookahead lower bound is the **median** link delay, every link whose delay
//! reaches the bound is logically cut, and each connected component of the
//! remaining graph becomes one LP. The resulting lookahead — the
//! synchronization window — is the minimum delay among cut links.
//!
//! Manual (static) partitions used by the PDES baselines are expressed as an
//! explicit node→LP assignment; their lookahead is computed the same way
//! (minimum delay among inter-LP links).

use std::collections::VecDeque;

use crate::event::{LpId, NodeId};
use crate::graph::LinkGraph;
use crate::time::Time;

/// A partition of the topology into logical processes.
#[derive(Clone, Debug)]
pub struct Partition {
    /// LP assignment per node, indexed by `NodeId`.
    pub node_lp: Vec<LpId>,
    /// Number of LPs.
    pub lp_count: u32,
    /// Node ids per LP, in ascending node order (deterministic).
    pub lp_nodes: Vec<Vec<NodeId>>,
    /// Global lookahead: the minimum delay among inter-LP links, or
    /// [`Time::MAX`] when no link crosses LPs.
    pub lookahead: Time,
}

impl Partition {
    /// LP of a node.
    #[inline]
    pub fn lp_of(&self, node: NodeId) -> LpId {
        self.node_lp[node.index()]
    }

    /// Sorted, deduplicated list of LP pairs joined by at least one live
    /// link, with the per-pair minimum delay (the channel lookahead). The
    /// run report's LP adjacency,
    /// [`RunReport::lp_neighbors`](crate::RunReport::lp_neighbors), is
    /// built from it.
    pub fn lp_channels(&self, graph: &LinkGraph) -> Vec<(LpId, LpId, Time)> {
        let mut chans: Vec<(u32, u32, Time)> = Vec::new();
        for (_, l) in graph.live_links() {
            let (pa, pb) = (self.lp_of(l.a), self.lp_of(l.b));
            if pa != pb {
                let key = if pa.0 < pb.0 {
                    (pa.0, pb.0)
                } else {
                    (pb.0, pa.0)
                };
                chans.push((key.0, key.1, l.delay));
            }
        }
        chans.sort_unstable_by_key(|&(a, b, d)| (a, b, d));
        chans.dedup_by(|next, keep| {
            if next.0 == keep.0 && next.1 == keep.1 {
                // Entries are sorted by delay within a pair, so `keep`
                // already holds the minimum.
                true
            } else {
                false
            }
        });
        chans
            .into_iter()
            .map(|(a, b, d)| (LpId(a), LpId(b), d))
            .collect()
    }

    /// Recomputes the lookahead after a topology change (§4.2): minimum delay
    /// among live links crossing LPs. The LP structure itself is kept.
    pub fn recompute_lookahead(&mut self, graph: &LinkGraph) {
        let mut la = Time::MAX;
        for (_, l) in graph.live_links() {
            if self.lp_of(l.a) != self.lp_of(l.b) {
                la = la.min(l.delay);
            }
        }
        self.lookahead = la;
    }
}

/// Computes the median (lower median) of live link delays, the lookahead
/// lower bound of Algorithm 1. Returns `None` for a linkless graph.
fn median_delay(graph: &LinkGraph) -> Option<Time> {
    let mut delays: Vec<Time> = graph.live_links().map(|(_, l)| l.delay).collect();
    if delays.is_empty() {
        return None;
    }
    let mid = (delays.len() - 1) / 2;
    let (_, m, _) = delays.select_nth_unstable(mid);
    Some(*m)
}

/// Runs Algorithm 1: fine-grained partition.
///
/// Nodes joined by a live link whose delay is *below* the lookahead lower
/// bound (the median link delay) are merged into the same LP (breadth-first
/// flood); every remaining link is logically cut. Zero-delay links are never
/// cut — a zero lookahead would stall the window — so the effective bound is
/// `max(median, 1ns)`.
///
/// The traversal visits nodes in ascending id order, so LP numbering is
/// deterministic for a given topology.
///
/// # Examples
///
/// ```
/// use unison_core::{fine_grained_partition, LinkGraph, NodeId, Time};
///
/// // A chain 0-1-2-3 with uniform delays: every link is cut, one LP per node.
/// let mut g = LinkGraph::new(4);
/// for i in 0..3 {
///     g.add_link(NodeId(i), NodeId(i + 1), Time::from_micros(3));
/// }
/// let p = fine_grained_partition(&g);
/// assert_eq!(p.lp_count, 4);
/// assert_eq!(p.lookahead, Time::from_micros(3));
/// ```
pub fn fine_grained_partition(graph: &LinkGraph) -> Partition {
    let bound = median_delay(graph)
        .map(|m| m.max(Time(1)))
        .unwrap_or(Time(1));
    partition_below_bound(graph, bound)
}

/// Partition by flooding across links with delay strictly below `bound`.
/// Exposed separately so micro-benchmarks can sweep the granularity
/// (Fig. 12a explores manual granularities).
///
/// Degenerate bounds are made safe rather than rejected:
///
/// - a bound of zero is clamped to 1 ns, so zero-delay links are never cut —
///   a cut zero-delay link would put a zero-lookahead channel in the tables
///   and stall the synchronization window forever;
/// - a bound above the maximum delay merges every connected component into
///   one LP, yielding empty channel tables and a [`Time::MAX`] lookahead
///   (the single-LP fast path, valid by construction).
pub fn partition_below_bound(graph: &LinkGraph, bound: Time) -> Partition {
    let bound = bound.max(Time(1));
    let n = graph.node_count();
    let adj = graph.adjacency();
    let mut node_lp = vec![LpId(u32::MAX); n];
    let mut lp_count: u32 = 0;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if node_lp[start] != LpId(u32::MAX) {
            continue;
        }
        let lp = LpId(lp_count);
        lp_count += 1;
        node_lp[start] = lp;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &(u, delay) in &adj[v] {
                if node_lp[u.index()] == LpId(u32::MAX) && delay < bound {
                    node_lp[u.index()] = lp;
                    queue.push_back(u.index());
                }
            }
        }
    }
    finish(graph, node_lp, lp_count)
}

/// Checks an explicit node→LP assignment against `graph`: it must cover
/// every node and use LP ids that are dense in `0..lp_count`. An
/// assignment is outside input (scenario files, `RunConfig`), so the check
/// sizes nothing from the ids before they are known to be below the node
/// count — every LP holds at least one node, so a larger id cannot be
/// dense.
pub(crate) fn check_manual_assignment(graph: &LinkGraph, assignment: &[u32]) -> Result<(), String> {
    let n = graph.node_count();
    if assignment.len() != n {
        return Err(format!(
            "assignment covers {} nodes, world has {n}",
            assignment.len()
        ));
    }
    let mut seen = vec![false; n];
    for (node, &lp) in assignment.iter().enumerate() {
        match seen.get_mut(lp as usize) {
            Some(s) => *s = true,
            None => {
                return Err(format!(
                    "node {node} is assigned to LP {lp}, but {n} nodes form at most {n} LPs"
                ))
            }
        }
    }
    let lp_count = assignment.iter().max().map_or(0, |&m| m as usize + 1);
    match seen[..lp_count].iter().position(|s| !s) {
        Some(missing) => Err(format!(
            "LP ids must be dense in 0..{lp_count}: no node is assigned to LP {missing}"
        )),
        None => Ok(()),
    }
}

/// Builds a partition from an explicit node→LP assignment (the manual,
/// static schemes of the barrier and null-message baselines, which the
/// Unison kernel runs to profile the partition the model replays).
///
/// # Panics
///
/// Panics if `assignment.len()` differs from the graph's node count, or if
/// LP ids are not dense in `0..lp_count`.
pub fn manual_partition(graph: &LinkGraph, assignment: &[u32]) -> Partition {
    if let Err(e) = check_manual_assignment(graph, assignment) {
        panic!("invalid manual partition: {e}");
    }
    let lp_count = assignment.iter().max().map_or(0, |&m| m + 1);
    let node_lp = assignment.iter().map(|&l| LpId(l)).collect();
    finish(graph, node_lp, lp_count)
}

/// A single-LP partition (the degenerate case used by the sequential kernel
/// for key compatibility checks and by Fig. 12a's coarsest granularity).
pub fn single_lp_partition(graph: &LinkGraph) -> Partition {
    let lp_count = if graph.node_count() == 0 { 0 } else { 1 };
    finish(graph, vec![LpId(0); graph.node_count()], lp_count)
}

fn finish(graph: &LinkGraph, node_lp: Vec<LpId>, lp_count: u32) -> Partition {
    let mut lp_nodes = vec![Vec::new(); lp_count as usize];
    for (i, lp) in node_lp.iter().enumerate() {
        lp_nodes[lp.index()].push(NodeId(i as u32));
    }
    let mut p = Partition {
        node_lp,
        lp_count,
        lp_nodes,
        lookahead: Time::MAX,
    };
    p.recompute_lookahead(graph);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Builds the illustration of §4.2: a two-level tree where bottom links
    /// have zero-ish delay and top links have a large delay.
    fn two_tier(bottom_delay: Time, top_delay: Time) -> LinkGraph {
        // Nodes: 0..4 hosts, 4..6 aggregation, 6 core.
        let mut g = LinkGraph::new(7);
        g.add_link(n(0), n(4), bottom_delay);
        g.add_link(n(1), n(4), bottom_delay);
        g.add_link(n(2), n(5), bottom_delay);
        g.add_link(n(3), n(5), bottom_delay);
        g.add_link(n(4), n(6), top_delay);
        g.add_link(n(5), n(6), top_delay);
        g
    }

    #[test]
    fn uniform_delays_yield_one_lp_per_node() {
        let g = two_tier(Time(3000), Time(3000));
        let p = fine_grained_partition(&g);
        assert_eq!(p.lp_count, 7);
        assert_eq!(p.lookahead, Time(3000));
    }

    #[test]
    fn low_bottom_delay_merges_racks() {
        // Median of [1,1,1,1,3000,3000] is 1 -> bound max(1,1)=1 -> links
        // with delay >= 1 are all cut... bottom delay must be 0 to merge.
        let g = two_tier(Time(0), Time(3000));
        let p = fine_grained_partition(&g);
        // Hosts merge with their aggregation switch; core is alone.
        assert_eq!(p.lp_count, 3);
        assert_eq!(p.lp_of(n(0)), p.lp_of(n(4)));
        assert_eq!(p.lp_of(n(1)), p.lp_of(n(4)));
        assert_ne!(p.lp_of(n(4)), p.lp_of(n(5)));
        assert_eq!(p.lookahead, Time(3000));
    }

    #[test]
    fn median_cut_merges_lower_half() {
        // Delays [10, 10, 100, 100]: lower median = 10, so the 10ns links
        // are NOT below the bound and everything is cut.
        let mut g = LinkGraph::new(5);
        g.add_link(n(0), n(1), Time(10));
        g.add_link(n(1), n(2), Time(10));
        g.add_link(n(2), n(3), Time(100));
        g.add_link(n(3), n(4), Time(100));
        let p = fine_grained_partition(&g);
        assert_eq!(p.lp_count, 5);
        // Delays [10, 10, 10, 100, 100]: lower median is 10 again.
        g.add_link(n(0), n(4), Time(10));
        let p = fine_grained_partition(&g);
        assert_eq!(p.lp_count, 5);
    }

    #[test]
    fn heterogeneous_delays_merge_below_median() {
        // Delays [1, 1, 1, 9, 9]: median 1 -> nothing below 1 is... the 1ns
        // links are not < 1, so all cut. Use [1,1,2,9,9]: median 2 -> the
        // 1ns links merge.
        let mut g = LinkGraph::new(6);
        g.add_link(n(0), n(1), Time(1));
        g.add_link(n(1), n(2), Time(1));
        g.add_link(n(2), n(3), Time(2));
        g.add_link(n(3), n(4), Time(9));
        g.add_link(n(4), n(5), Time(9));
        let p = fine_grained_partition(&g);
        assert_eq!(p.lp_of(n(0)), p.lp_of(n(1)));
        assert_eq!(p.lp_of(n(1)), p.lp_of(n(2)));
        assert_ne!(p.lp_of(n(2)), p.lp_of(n(3)));
        assert_eq!(p.lp_count, 4);
        assert_eq!(p.lookahead, Time(2));
    }

    #[test]
    fn lp_numbering_is_deterministic_and_dense() {
        let g = two_tier(Time(0), Time(3000));
        let p1 = fine_grained_partition(&g);
        let p2 = fine_grained_partition(&g);
        assert_eq!(p1.node_lp, p2.node_lp);
        let mut lps: Vec<u32> = p1.node_lp.iter().map(|l| l.0).collect();
        lps.sort_unstable();
        lps.dedup();
        assert_eq!(lps, (0..p1.lp_count).collect::<Vec<_>>());
    }

    #[test]
    fn manual_partition_lookahead() {
        let g = two_tier(Time(500), Time(3000));
        // Two pods + core in pod 0.
        let p = manual_partition(&g, &[0, 0, 1, 1, 0, 1, 0]);
        assert_eq!(p.lp_count, 2);
        // Inter-LP links: 5-6 (3000). 2-5,3-5 are internal to LP1, 4-6 internal to LP0.
        assert_eq!(p.lookahead, Time(3000));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn manual_partition_requires_dense_ids() {
        let g = two_tier(Time(1), Time(2));
        manual_partition(&g, &[0, 0, 2, 2, 0, 2, 0]);
    }

    #[test]
    fn lp_channels_min_delay() {
        let mut g = LinkGraph::new(4);
        g.add_link(n(0), n(1), Time(5));
        g.add_link(n(0), n(2), Time(7));
        g.add_link(n(1), n(3), Time(9));
        let p = manual_partition(&g, &[0, 1, 1, 1]);
        let chans = p.lp_channels(&g);
        // LP0 -> LP1 via 0-1 (5) and 0-2 (7): min is 5. Link 1-3 is internal.
        assert_eq!(chans, vec![(LpId(0), LpId(1), Time(5))]);
    }

    #[test]
    fn recompute_lookahead_after_change() {
        let mut g = LinkGraph::new(2);
        let idx = g.add_link(n(0), n(1), Time(10));
        let mut p = manual_partition(&g, &[0, 1]);
        assert_eq!(p.lookahead, Time(10));
        g.set_delay(idx, Time(4));
        p.recompute_lookahead(&g);
        assert_eq!(p.lookahead, Time(4));
        g.remove_link(idx);
        p.recompute_lookahead(&g);
        assert_eq!(p.lookahead, Time::MAX);
    }

    #[test]
    fn empty_graph() {
        let g = LinkGraph::new(3);
        let p = fine_grained_partition(&g);
        assert_eq!(p.lp_count, 3);
        assert_eq!(p.lookahead, Time::MAX);
    }

    /// Regression (degenerate bound, low end): a zero bound must not cut
    /// zero-delay links — a cut zero-delay link would put a zero-lookahead
    /// channel in the tables and stall the window forever.
    #[test]
    fn zero_bound_never_cuts_zero_delay_links() {
        let g = two_tier(Time(0), Time(3000));
        let p = partition_below_bound(&g, Time(0));
        // Zero-delay bottom links merge (clamped bound 1ns); top links cut.
        assert_eq!(p.lp_count, 3);
        assert_eq!(p.lookahead, Time(3000));
        for (_, _, la) in p.lp_channels(&g) {
            assert!(la > Time(0), "channel lookahead must be positive");
        }
        // Same graph, explicit zero request: identical to the clamped form.
        assert_eq!(
            partition_below_bound(&g, Time(1)).node_lp,
            partition_below_bound(&g, Time(0)).node_lp
        );
    }

    /// Regression (degenerate bound, high end): a bound above the maximum
    /// delay merges the connected topology into one LP with an empty channel
    /// table and an infinite lookahead.
    #[test]
    fn bound_above_max_delay_yields_single_lp_tables() {
        let g = two_tier(Time(500), Time(3000));
        let p = partition_below_bound(&g, Time(1_000_000));
        assert_eq!(p.lp_count, 1);
        assert_eq!(p.lookahead, Time::MAX);
        assert!(p.lp_channels(&g).is_empty());
        let nodes: usize = p.lp_nodes.iter().map(|v| v.len()).sum();
        assert_eq!(nodes, 7);
    }
}
