//! Routing: global static shortest paths with ECMP, and RIP dynamic
//! distance-vector routing.
//!
//! Static tables are computed once (and recomputed on demand after topology
//! changes) from a global adjacency snapshot: one BFS per destination; all
//! equal-cost next hops are kept and a per-flow hash picks among them
//! (ECMP). The table layout is CSR-packed to stay compact at torus scales
//! (thousands of nodes).
//!
//! RIP is the classic distance-vector protocol with split horizon and
//! poisoned reverse, periodic full advertisements, triggered updates on
//! change, and an infinity metric of 16 — matching ns-3's RIP model closely
//! enough for the paper's WAN and convergence experiments.

use unison_core::{snapshot_struct, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter, Time};

use crate::packet::RipMsg;

/// RIP's unreachable metric.
pub const RIP_INFINITY: u8 = 16;

/// Largest node count a RIP table is ever sized for. [`NetworkBuilder`]
/// sizes a table from the world it builds; only a checkpoint or a packet
/// decoded from one can name a destination the builder did not, and one
/// at or past this bound is refused instead of allocated for. The same
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

/// CSR-packed per-destination next-hop candidates.
#[derive(Debug, Clone, Default)]
pub struct StaticTable {
    offsets: Vec<u32>,
    devs: Vec<u8>,
}

impl StaticTable {
    /// Builds from per-destination candidate lists.
    pub fn from_candidates(per_dst: &[Vec<u8>]) -> Self {
        let mut offsets = Vec::with_capacity(per_dst.len() + 1);
        let mut devs = Vec::new();
        offsets.push(0u32);
        for cands in per_dst {
            devs.extend_from_slice(cands);
            offsets.push(devs.len() as u32);
        }
        StaticTable { offsets, devs }
    }

    /// Candidate devices for `dst` (up to 16).
    pub fn lookup(&self, dst: u32, buf: &mut [u8; 16]) -> usize {
        let d = dst as usize;
        if d + 1 >= self.offsets.len() {
            return 0;
        }
        let (lo, hi) = (self.offsets[d] as usize, self.offsets[d + 1] as usize);
        let n = (hi - lo).min(16);
        buf[..n].copy_from_slice(&self.devs[lo..lo + n]);
        n
    }
}

/// A global adjacency snapshot used to compute static tables: for each node,
/// `(peer node, local device index)` per *live* device.
pub fn compute_static_tables(adj: &[Vec<(u32, u8)>]) -> Vec<StaticTable> {
    let n = adj.len();
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    // Iterating destinations in ascending order lets each node's CSR table
    // be appended directly (dst-major), avoiding O(n²) temporary vectors.
    let mut tables: Vec<StaticTable> = (0..n)
        .map(|_| StaticTable {
            offsets: vec![0],
            devs: Vec::new(),
        })
        .collect();
    for dst in 0..n {
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        dist[dst] = 0;
        queue.clear();
        queue.push_back(dst);
        while let Some(v) = queue.pop_front() {
            for &(u, _) in &adj[v] {
                if dist[u as usize] == u32::MAX {
                    dist[u as usize] = dist[v] + 1;
                    queue.push_back(u as usize);
                }
            }
        }
        for (node, table) in tables.iter_mut().enumerate() {
            if node != dst && dist[node] != u32::MAX {
                for &(peer, dev) in &adj[node] {
                    if dist[peer as usize] + 1 == dist[node] {
                        table.devs.push(dev);
                    }
                }
            }
            table.offsets.push(table.devs.len() as u32);
        }
    }
    tables
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
    /// A table restored from a checkpoint spans only the destinations it
    /// had learned by then (the encoding lists routes, not the node count)
    /// and takes the rest of its world's slots here — up to
    /// [`RIP_MAX_NODES`], never to wherever a forged packet points.
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

snapshot_struct!(StaticTable { offsets, devs });

snapshot_struct!(RipRoute { metric, dev });

/// Encoded as the map it is: `len`, then `(dst, route)` for every known
/// route in ascending `dst` — absent destinations are not written.
impl Snapshot for RipState {
    fn save(&self, w: &mut SnapshotWriter) {
        (self.routes().count() as u64).save(w);
        for (dst, route) in self.routes() {
            dst.save(w);
            route.save(w);
        }
        self.update_interval.save(w);
        self.triggered_pending.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = usize::load(r)?;
        let mut table = Vec::new();
        for _ in 0..n {
            let dst = u32::load(r)? as usize;
            // Ascending keys are the canonical order, and make `dst` the
            // only thing that sizes the table — so it is what gets bounded.
            if dst < table.len() || dst >= RIP_MAX_NODES {
                return Err(SnapshotError::Corrupt(format!(
                    "RIP route to {dst}: out of order, or beyond {RIP_MAX_NODES} nodes"
                )));
            }
            table.resize(dst, None);
            table.push(Some(RipRoute::load(r)?));
        }
        Ok(RipState {
            table,
            update_interval: Time::load(r)?,
            triggered_pending: bool::load(r)?,
        })
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
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(Routing::Static(StaticTable::load(r)?)),
            1 => Ok(Routing::Rip(RipState::load(r)?)),
            t => Err(SnapshotError::Corrupt(format!("invalid routing tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
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
        let state = fixture_state();
        let mut w = SnapshotWriter::new();
        state.save(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(hex(&bytes), PARENT);

        let mut r = SnapshotReader::new(&bytes);
        let back = RipState::load(&mut r).unwrap();
        r.finish().unwrap();
        for dst in 0..8 {
            assert_eq!(back.route(dst), state.route(dst), "dst {dst}");
        }
        assert_eq!(back.route(1), None);
        assert_eq!(back.route(4).unwrap().metric, RIP_INFINITY);
        let mut w = SnapshotWriter::new();
        back.save(&mut w);
        assert_eq!(hex(&w.into_bytes()), PARENT, "re-encoding is canonical");
    }

    #[test]
    fn load_refuses_keys_that_would_size_the_table() {
        let encode = |keys: &[u32]| {
            let mut w = SnapshotWriter::new();
            (keys.len() as u64).save(&mut w);
            for k in keys {
                k.save(&mut w);
                RipRoute { metric: 1, dev: 0 }.save(&mut w);
            }
            Time::from_millis(10).save(&mut w);
            false.save(&mut w);
            w.into_bytes()
        };
        let load = |keys: &[u32]| RipState::load(&mut SnapshotReader::new(&encode(keys)));
        assert!(load(&[0, 7, RIP_MAX_NODES as u32 - 1]).is_ok());
        for bad in [
            &[0, u32::MAX][..],
            &[RIP_MAX_NODES as u32],
            &[3, 3],
            &[5, 2],
        ] {
            assert!(
                matches!(load(bad), Err(SnapshotError::Corrupt(_))),
                "keys {bad:?} must be refused"
            );
        }
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
