//! Routing: global static shortest paths with ECMP, and RIP dynamic
//! distance-vector routing.
//!
//! Static tables are computed once (and recomputed on demand after topology
//! changes) from a global adjacency snapshot: one BFS per column — every
//! node but a leaf host, which shares its switch's column; all equal-cost
//! next hops are kept and a per-flow hash picks among them (ECMP). The
//! table layout is CSR-packed by column to stay compact at torus and
//! fat-tree scales (thousands of nodes).
//!
//! RIP is the classic distance-vector protocol with split horizon and
//! poisoned reverse, periodic full advertisements, triggered updates on
//! change, and an infinity metric of 16 — matching ns-3's RIP model closely
//! enough for the paper's WAN and convergence experiments.

use std::sync::Arc;

use unison_core::{snapshot_struct, Snapshot, SnapshotWriter, Time};

use crate::packet::RipMsg;

/// RIP's unreachable metric.
pub const RIP_INFINITY: u8 = 16;

/// Largest node count a RIP table is ever sized for. [`NetworkBuilder`]
/// sizes a table from the world it builds; only a hand-made advertisement
/// can name a destination the builder did not, and one at or past this
/// bound is refused instead of allocated for. The same
/// constant bounds the topologies a scenario file may describe.
///
/// [`NetworkBuilder`]: crate::NetworkBuilder
pub(crate) const RIP_MAX_NODES: usize = unison_scenario::ast::MAX_TOPOLOGY_NODES;

/// Per-node routing state.
#[derive(Debug)]
pub enum Routing {
    /// Pre-computed global shortest paths with ECMP.
    Static(StaticTable),
    /// RIP distance-vector.
    Rip(RipState),
}

impl Routing {
    /// Looks up the candidate egress devices for `dst`, writing up to 16
    /// device indices into `buf`; returns how many.
    pub fn lookup(&self, dst: u32, buf: &mut [u8; 16]) -> usize {
        match self {
            Routing::Static(t) => t.lookup(dst, buf),
            Routing::Rip(r) => match r.route(dst) {
                Some(route) if route.metric < RIP_INFINITY => {
                    buf[0] = route.dev;
                    1
                }
                _ => 0,
            },
        }
    }
}

/// One node's static ECMP candidates, by *column* (DESIGN.md §4.11).
///
/// A *leaf* is a node with exactly one live device whose peer (its
/// *switch*) has more than one, and whose switch's device is the only live
/// one pointing back at it — a host under its ToR. Every other node roots a
/// column of its own, and a leaf shares its switch's. That is exact: a leaf
/// `h` reaches everything through its switch `t` and is reached only from
/// it, so for any node `v` other than `h` and `t`, `dist_h(v) = dist_t(v) +
/// 1`, and `v`'s ECMP candidates towards `h` are its candidates towards `t`,
/// in the same order. Only `t` tells them apart: it reaches `h` over its
/// one device towards `h`, which the shared map keeps beside `h`'s column.
/// A leaf's own candidates towards any node it reaches are its one device,
/// so it keeps one bit per column.
#[derive(Debug, Clone, Default)]
pub struct StaticTable {
    /// The node this table routes from.
    node: u32,
    /// Per destination node: its column and, for a leaf, the device its
    /// switch reaches it over. One map shared by every table of a
    /// computation.
    cols: Arc<[(u32, u8)]>,
    rows: Rows,
}

/// A [`StaticTable`]'s candidates per column.
#[derive(Debug, Clone)]
enum Rows {
    /// A leaf's: its one device, towards each column whose bit is set in
    /// `reach`.
    Leaf { dev: u8, reach: Box<[u64]> },
    /// Any other node's: `offsets[c]..offsets[c + 1]` indexes column `c`'s
    /// candidates in `devs`. Its own column `own` has none: a destination
    /// there is the node itself or one of its leaves.
    Columns {
        own: u32,
        offsets: Vec<u32>,
        devs: Vec<u8>,
    },
}

impl Default for Rows {
    fn default() -> Self {
        Rows::Columns {
            own: 0,
            offsets: Vec::new(),
            devs: Vec::new(),
        }
    }
}

impl StaticTable {
    /// Candidate devices for `dst` (up to 16).
    #[inline]
    pub fn lookup(&self, dst: u32, buf: &mut [u8; 16]) -> usize {
        let row = self.row(dst);
        let n = row.len().min(16);
        buf[..n].copy_from_slice(&row[..n]);
        n
    }

    /// Every candidate device for `dst`, in adjacency order: none for
    /// itself, for an unknown node or for one it cannot reach. Always
    /// inlined: it is the per-packet path of `Routing::lookup`.
    #[inline(always)]
    fn row(&self, dst: u32) -> &[u8] {
        if dst == self.node {
            return &[];
        }
        let Some((col, leaf_dev)) = self.cols.get(dst as usize) else {
            return &[];
        };
        let c = *col as usize;
        match &self.rows {
            Rows::Leaf { dev, reach } if reach[c / 64] >> (c % 64) & 1 == 1 => {
                std::slice::from_ref(dev)
            }
            Rows::Leaf { .. } => &[],
            Rows::Columns { own, .. } if *col == *own => std::slice::from_ref(leaf_dev),
            Rows::Columns { offsets, devs, .. } => {
                &devs[offsets[c] as usize..offsets[c + 1] as usize]
            }
        }
    }
}

/// A global adjacency snapshot used to compute static tables: for each node,
/// `(peer node, local device index)` per *live* device.
pub fn compute_static_tables(adj: &[Vec<(u32, u8)>]) -> Vec<StaticTable> {
    let n = adj.len();
    // Per node: how many live devices point at it, and from which node the
    // last of them.
    let mut into = vec![(0u32, u32::MAX); n];
    for (v, links) in adj.iter().enumerate() {
        for &(peer, _) in links {
            let e = &mut into[peer as usize];
            *e = (e.0 + 1, v as u32);
        }
    }
    let switch_of: Vec<Option<usize>> = (0..n)
        .map(|h| match adj[h][..] {
            [(t, _)] if into[h] == (1, t) && adj[t as usize].len() > 1 => Some(t as usize),
            _ => None,
        })
        .collect();
    // Columns in ascending order of their roots. A leaf's switch has more
    // than one live device, so it is a root.
    let mut cols = vec![(0u32, 0u8); n];
    let mut roots = Vec::new();
    for (v, t) in switch_of.iter().enumerate() {
        if t.is_none() {
            cols[v].0 = roots.len() as u32;
            roots.push(v);
        }
    }
    for (h, t) in switch_of.iter().enumerate() {
        if let &Some(t) = t {
            let &(_, dev) = adj[t]
                .iter()
                .find(|&&(peer, _)| peer as usize == h)
                .expect("a leaf's one in-link is its switch's device");
            cols[h] = (cols[t].0, dev);
        }
    }
    let mut rows: Vec<Rows> = switch_of
        .iter()
        .enumerate()
        .map(|(v, t)| match t {
            Some(_) => Rows::Leaf {
                dev: adj[v][0].1,
                reach: vec![0; roots.len().div_ceil(64)].into(),
            },
            None => {
                let mut offsets = Vec::with_capacity(roots.len() + 1);
                offsets.push(0);
                Rows::Columns {
                    own: cols[v].0,
                    offsets,
                    devs: Vec::new(),
                }
            }
        })
        .collect();
    // Iterating columns in ascending order lets each node's CSR table be
    // appended directly (column-major).
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for (c, &root) in roots.iter().enumerate() {
        dist.fill(u32::MAX);
        dist[root] = 0;
        queue.clear();
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for &(u, _) in &adj[v] {
                if dist[u as usize] == u32::MAX {
                    dist[u as usize] = dist[v] + 1;
                    queue.push_back(u as usize);
                }
            }
        }
        for (node, rows) in rows.iter_mut().enumerate() {
            match rows {
                Rows::Leaf { reach, .. } => {
                    if dist[node] != u32::MAX {
                        reach[c / 64] |= 1 << (c % 64);
                    }
                }
                Rows::Columns { offsets, devs, .. } => {
                    if node != root && dist[node] != u32::MAX {
                        for &(peer, dev) in &adj[node] {
                            if dist[peer as usize] + 1 == dist[node] {
                                devs.push(dev);
                            }
                        }
                    }
                    offsets.push(devs.len() as u32);
                }
            }
        }
    }
    let cols: Arc<[(u32, u8)]> = cols.into();
    rows.into_iter()
        .enumerate()
        .map(|(v, mut rows)| {
            if let Rows::Columns { devs, .. } = &mut rows {
                devs.shrink_to_fit();
            }
            StaticTable {
                node: v as u32,
                cols: Arc::clone(&cols),
                rows,
            }
        })
        .collect()
}

/// One RIP route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RipRoute {
    /// Hop-count metric (16 = unreachable).
    pub metric: u8,
    /// Egress device.
    pub dev: u8,
}

/// Per-node RIP state.
#[derive(Debug)]
pub struct RipState {
    /// The route to each destination, indexed by its node id: `None` for a
    /// destination never heard of, metric [`RIP_INFINITY`] for one learned
    /// and since withdrawn (still advertised, as poison).
    table: Vec<Option<RipRoute>>,
    /// Periodic advertisement interval.
    pub update_interval: Time,
    /// A triggered update is pending.
    pub triggered_pending: bool,
}

impl RipState {
    /// Fresh state for node `self_id` of a world of `nodes` nodes (so
    /// `self_id < nodes`), knowing only the self route.
    pub fn new(self_id: u32, nodes: usize, update_interval: Time) -> Self {
        let mut table = vec![None; nodes];
        table[self_id as usize] = Some(RipRoute {
            metric: 0,
            dev: u8::MAX,
        });
        RipState {
            table,
            update_interval,
            triggered_pending: false,
        }
    }

    /// The route to `dst`, if one was ever learned (it may be poisoned).
    #[inline]
    pub fn route(&self, dst: u32) -> Option<RipRoute> {
        self.table.get(dst as usize).copied().flatten()
    }

    /// Every known route, in ascending destination order.
    fn routes(&self) -> impl Iterator<Item = (u32, RipRoute)> + '_ {
        self.table
            .iter()
            .enumerate()
            .filter_map(|(dst, r)| Some((dst as u32, (*r)?)))
    }

    /// Builds the advertisement for a given egress device, applying split
    /// horizon with poisoned reverse. Routes are listed in ascending
    /// destination order.
    pub fn advertisement(&self, self_id: u32, out_dev: u8) -> RipMsg {
        let routes = self
            .routes()
            .map(|(dst, r)| {
                let metric = if r.dev == out_dev && r.metric != 0 {
                    RIP_INFINITY
                } else {
                    r.metric
                };
                (dst, metric)
            })
            .collect();
        RipMsg {
            from: self_id,
            routes,
        }
    }

    /// Integrates a received advertisement arriving on `in_dev`; returns
    /// true when the table changed (schedule a triggered update).
    pub fn on_advertisement(&mut self, msg: &RipMsg, in_dev: u8) -> bool {
        let mut changed = false;
        for &(dst, metric) in &msg.routes {
            let new_metric = metric.saturating_add(1).min(RIP_INFINITY);
            match self.table.get_mut(dst as usize) {
                Some(Some(route)) => {
                    if route.dev == in_dev {
                        // Updates from the current next hop are authoritative.
                        if route.metric != new_metric {
                            route.metric = new_metric;
                            changed = true;
                        }
                    } else if new_metric < route.metric {
                        *route = RipRoute {
                            metric: new_metric,
                            dev: in_dev,
                        };
                        changed = true;
                    }
                }
                _ if new_metric < RIP_INFINITY => changed |= self.learn(dst, new_metric, in_dev),
                _ => {}
            }
        }
        changed
    }

    /// Records the first route to `dst`; false when `dst` is refused.
    ///
    /// A built world's table already spans every node, so `dst` has a slot.
    /// A table built for fewer nodes than an advertisement names takes the
    /// missing slots here — up to [`RIP_MAX_NODES`], never to wherever a
    /// forged packet points.
    fn learn(&mut self, dst: u32, metric: u8, dev: u8) -> bool {
        let slot = dst as usize;
        if slot >= RIP_MAX_NODES {
            debug_assert!(false, "RIP destination {dst} beyond RIP_MAX_NODES");
            return false;
        }
        if slot >= self.table.len() {
            self.table.resize(slot + 1, None);
        }
        self.table[slot] = Some(RipRoute { metric, dev });
        true
    }

    /// Invalidates routes through a device that went down; returns true if
    /// any route changed.
    pub fn on_device_down(&mut self, dev: u8) -> bool {
        let mut changed = false;
        for route in self.table.iter_mut().flatten() {
            if route.dev == dev && route.metric < RIP_INFINITY {
                route.metric = RIP_INFINITY;
                changed = true;
            }
        }
        changed
    }
}

/// Encoded as the per-destination table it stands for: `N + 1` offsets
/// and every destination's candidates in destination order, so the bytes
/// do not depend on how the rows are shared. A default table (no world)
/// writes two empty vectors.
impl Snapshot for StaticTable {
    fn save(&self, w: &mut SnapshotWriter) {
        let Self {
            node: _,
            cols,
            rows: _,
        } = self;
        let n = cols.len() as u32;
        let mut end = 0u32;
        if n == 0 {
            0u64.save(w);
        } else {
            (n as u64 + 1).save(w);
            end.save(w);
            for dst in 0..n {
                end += self.row(dst).len() as u32;
                end.save(w);
            }
        }
        (end as u64).save(w);
        for dst in 0..n {
            w.bytes(self.row(dst));
        }
    }
}

snapshot_struct!(RipRoute { metric, dev });

/// Encoded as the map it is: `len`, then `(dst, route)` for every known
/// route in ascending `dst` — absent destinations are not written.
impl Snapshot for RipState {
    fn save(&self, w: &mut SnapshotWriter) {
        let Self {
            table,
            update_interval,
            triggered_pending,
        } = self;
        (table.iter().flatten().count() as u64).save(w);
        for (dst, route) in self.routes() {
            dst.save(w);
            route.save(w);
        }
        update_interval.save(w);
        triggered_pending.save(w);
    }
}

impl Snapshot for Routing {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            Routing::Static(t) => {
                w.u8(0);
                t.save(w);
            }
            Routing::Rip(s) => {
                w.u8(1);
                s.save(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{digest, digest_of_hex};

    /// Line: 0 - 1 - 2, plus a parallel 0 - 3 - 2 path.
    fn diamond() -> Vec<Vec<(u32, u8)>> {
        vec![
            vec![(1, 0), (3, 1)],
            vec![(0, 0), (2, 1)],
            vec![(1, 0), (3, 1)],
            vec![(0, 0), (2, 1)],
        ]
    }

    #[test]
    fn static_tables_shortest_and_ecmp() {
        let tables = compute_static_tables(&diamond());
        let mut buf = [0u8; 16];
        // From 0 to 2: two equal-cost candidates (via 1 and via 3).
        let n = tables[0].lookup(2, &mut buf);
        assert_eq!(n, 2);
        assert_eq!(&buf[..2], &[0, 1]);
        // From 0 to 1: single next hop, dev 0.
        let n = tables[0].lookup(1, &mut buf);
        assert_eq!(n, 1);
        assert_eq!(buf[0], 0);
        // No route to self.
        assert_eq!(tables[0].lookup(0, &mut buf), 0);
        // Out-of-range dst.
        assert_eq!(tables[0].lookup(99, &mut buf), 0);
    }

    #[test]
    fn static_tables_on_disconnected_graph() {
        let adj = vec![vec![(1, 0)], vec![(0, 0)], vec![], vec![]];
        let tables = compute_static_tables(&adj);
        let mut buf = [0u8; 16];
        assert_eq!(tables[0].lookup(1, &mut buf), 1);
        assert_eq!(tables[0].lookup(2, &mut buf), 0);
    }

    #[test]
    fn rip_learns_and_prefers_shorter() {
        let mut r = RipState::new(0, 6, Time::from_millis(10));
        let changed = r.on_advertisement(
            &RipMsg {
                from: 1,
                routes: vec![(1, 0), (2, 1)],
            },
            0,
        );
        assert!(changed);
        assert_eq!(r.route(1), Some(RipRoute { metric: 1, dev: 0 }));
        assert_eq!(r.route(2), Some(RipRoute { metric: 2, dev: 0 }));
        // A better route via another device wins.
        let changed = r.on_advertisement(
            &RipMsg {
                from: 3,
                routes: vec![(2, 0)],
            },
            1,
        );
        assert!(changed);
        assert_eq!(r.route(2), Some(RipRoute { metric: 1, dev: 1 }));
        // A worse route via another device is ignored.
        let changed = r.on_advertisement(
            &RipMsg {
                from: 1,
                routes: vec![(2, 5)],
            },
            0,
        );
        assert!(!changed);
    }

    #[test]
    fn rip_next_hop_is_authoritative_for_withdrawals() {
        let mut r = RipState::new(0, 6, Time::from_millis(10));
        r.on_advertisement(
            &RipMsg {
                from: 1,
                routes: vec![(2, 1)],
            },
            0,
        );
        // The same next hop now reports the destination unreachable.
        let changed = r.on_advertisement(
            &RipMsg {
                from: 1,
                routes: vec![(2, RIP_INFINITY)],
            },
            0,
        );
        assert!(changed);
        assert_eq!(r.route(2).unwrap().metric, RIP_INFINITY);
        let mut buf = [0u8; 16];
        assert_eq!(Routing::Rip(r).lookup(2, &mut buf), 0);
    }

    #[test]
    fn rip_split_horizon_poisons_reverse() {
        let mut r = RipState::new(0, 6, Time::from_millis(10));
        r.on_advertisement(
            &RipMsg {
                from: 1,
                routes: vec![(2, 1)],
            },
            0,
        );
        let adv = r.advertisement(0, 0);
        let entry = adv.routes.iter().find(|(d, _)| *d == 2).unwrap();
        assert_eq!(entry.1, RIP_INFINITY, "poisoned reverse on dev 0");
        let adv = r.advertisement(0, 1);
        let entry = adv.routes.iter().find(|(d, _)| *d == 2).unwrap();
        assert_eq!(entry.1, 2, "normal metric on other devices");
        // Self route advertised with metric 0.
        let me = adv.routes.iter().find(|(d, _)| *d == 0).unwrap();
        assert_eq!(me.1, 0);
    }

    #[test]
    fn rip_device_down_invalidates() {
        let mut r = RipState::new(0, 6, Time::from_millis(10));
        r.on_advertisement(
            &RipMsg {
                from: 1,
                routes: vec![(2, 1), (3, 2)],
            },
            0,
        );
        assert!(r.on_device_down(0));
        assert_eq!(r.route(2).unwrap().metric, RIP_INFINITY);
        assert_eq!(r.route(3).unwrap().metric, RIP_INFINITY);
        assert!(!r.on_device_down(0), "already invalidated");
    }

    #[test]
    fn metric_saturates_at_infinity() {
        let mut r = RipState::new(0, 6, Time::from_millis(10));
        let changed = r.on_advertisement(
            &RipMsg {
                from: 1,
                routes: vec![(5, RIP_INFINITY - 1)],
            },
            0,
        );
        // Metric 15 + 1 saturates at infinity: the route is never learned.
        assert!(!changed);
        assert_eq!(r.route(5), None, "absent, not poisoned");
        let mut buf = [0u8; 16];
        assert_eq!(Routing::Rip(r).lookup(5, &mut buf), 0);
    }

    /// Node 0 of six: the self route, 2 and 3 learned on different devices,
    /// 4 learned and then poisoned by its next hop, 1 and 5 never heard of.
    fn fixture_state() -> RipState {
        let mut r = RipState::new(0, 6, Time::from_millis(10));
        let adv = |from, routes| RipMsg { from, routes };
        r.on_advertisement(&adv(1, vec![(4, 2), (2, 1)]), 0);
        r.on_advertisement(&adv(3, vec![(3, 0)]), 1);
        r.on_advertisement(&adv(1, vec![(4, RIP_INFINITY)]), 0);
        r.triggered_pending = true;
        r
    }

    #[test]
    fn encoding_is_the_parent_maps() {
        // The bytes `save_map` wrote for `fixture_state()` at commit
        // 59cd9ba, when the table was a hash map keyed by destination:
        // len 4, then (dst, metric, dev) ascending, interval, pending flag.
        const PARENT: &str = concat!(
            "0400000000000000",
            "0000000000ff",
            "020000000200",
            "030000000101",
            "040000001000",
            "8096980000000000",
            "01",
        );
        assert_eq!(digest(&fixture_state()), digest_of_hex(PARENT));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "beyond RIP_MAX_NODES"))]
    fn advertised_destination_beyond_the_bound_is_not_allocated_for() {
        let mut r = RipState::new(0, 6, Time::from_millis(10));
        let changed = r.on_advertisement(
            &RipMsg {
                from: 1,
                routes: vec![(u32::MAX, 1)],
            },
            0,
        );
        assert!(!changed);
        assert_eq!(r.route(u32::MAX), None);
        assert_eq!(r.advertisement(0, 1).routes, vec![(0, 0)]);
    }
}
