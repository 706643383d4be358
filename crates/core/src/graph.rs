//! The link graph used for partitioning and lookahead computation.
//!
//! The kernel does not model links itself (that is the model's job); it only
//! needs to know which nodes are joined by *stateless* links and with what
//! propagation delay, because:
//!
//! - the fine-grained partitioner (Algorithm 1) merges nodes joined by
//!   low-delay links and cuts the rest;
//! - the lookahead — the synchronization window size — is the minimum delay
//!   among cut links;
//! - topology changes (add/remove/retime a link) must trigger a lookahead
//!   recomputation (§4.2).

use crate::event::NodeId;
use crate::time::Time;

/// An undirected stateless link between two nodes with a propagation delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Propagation delay.
    pub delay: Time,
}

/// The set of stateless links of the simulated topology.
///
/// Removed links keep their slot (tombstoned) so that link ids held by the
/// model remain stable across topology changes.
#[derive(Clone, Debug, Default)]
pub struct LinkGraph {
    node_count: usize,
    links: Vec<LinkSpec>,
    alive: Vec<bool>,
}

impl LinkGraph {
    /// Creates a graph over `node_count` nodes with no links.
    pub fn new(node_count: usize) -> Self {
        LinkGraph {
            node_count,
            links: Vec::new(),
            alive: Vec::new(),
        }
    }

    /// Number of nodes this graph spans.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Grows the node space (nodes may be added before the run starts).
    pub fn ensure_nodes(&mut self, node_count: usize) {
        self.node_count = self.node_count.max(node_count);
    }

    /// Adds a link and returns its stable index.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, delay: Time) -> usize {
        assert!(
            a.index() < self.node_count && b.index() < self.node_count,
            "link endpoint out of range"
        );
        self.links.push(LinkSpec { a, b, delay });
        self.alive.push(true);
        self.links.len() - 1
    }

    /// Removes a link (tombstones its slot). Returns `false` when the link
    /// was already removed.
    pub fn remove_link(&mut self, idx: usize) -> bool {
        if idx < self.alive.len() && self.alive[idx] {
            self.alive[idx] = false;
            true
        } else {
            false
        }
    }

    /// Restores a previously removed link.
    pub fn restore_link(&mut self, idx: usize) -> bool {
        if idx < self.alive.len() && !self.alive[idx] {
            self.alive[idx] = true;
            true
        } else {
            false
        }
    }

    /// Changes the delay of a live or tombstoned link.
    pub fn set_delay(&mut self, idx: usize, delay: Time) {
        self.links[idx].delay = delay;
    }

    /// Iterates over live links as `(index, spec)`.
    pub fn live_links(&self) -> impl Iterator<Item = (usize, LinkSpec)> + '_ {
        self.links
            .iter()
            .enumerate()
            .filter(|(i, _)| self.alive[*i])
            .map(|(i, l)| (i, *l))
    }

    /// Number of live links.
    pub fn live_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Adjacency lists over live links: for each node, `(neighbor, delay)`.
    pub fn adjacency(&self) -> Vec<Vec<(NodeId, Time)>> {
        let mut adj = vec![Vec::new(); self.node_count];
        for (_, l) in self.live_links() {
            adj[l.a.index()].push((l.b, l.delay));
            adj[l.b.index()].push((l.a, l.delay));
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn add_and_iterate() {
        let mut g = LinkGraph::new(3);
        g.add_link(n(0), n(1), Time(5));
        g.add_link(n(1), n(2), Time(7));
        assert_eq!(g.live_count(), 2);
        let delays: Vec<u64> = g.live_links().map(|(_, l)| l.delay.0).collect();
        assert_eq!(delays, vec![5, 7]);
    }

    #[test]
    fn remove_and_restore() {
        let mut g = LinkGraph::new(2);
        let idx = g.add_link(n(0), n(1), Time(3));
        assert!(g.remove_link(idx));
        assert!(!g.remove_link(idx));
        assert_eq!(g.live_count(), 0);
        assert!(g.restore_link(idx));
        assert_eq!(g.live_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        let mut g = LinkGraph::new(1);
        g.add_link(n(0), n(1), Time(1));
    }

    #[test]
    fn adjacency_lists() {
        let mut g = LinkGraph::new(3);
        g.add_link(n(0), n(1), Time(1));
        g.add_link(n(0), n(2), Time(2));
        let adj = g.adjacency();
        assert_eq!(adj[0].len(), 2);
        assert_eq!(adj[1], vec![(n(0), Time(1))]);
    }
}
