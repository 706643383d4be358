//! Property-based tests of the network-model substrates.

use proptest::prelude::*;

use std::collections::BTreeMap;

use unison_core::{Snapshot, SnapshotWriter, Time};
use unison_netsim::packet::{FlowId, Packet, RipMsg, MSS};
use unison_netsim::queue::{Enqueue, Queue, QueueConfig};
use unison_netsim::route::{compute_static_tables, RipRoute, RipState, Routing, RIP_INFINITY};
use unison_netsim::tcp::TcpReceiver;

fn flow() -> FlowId {
    FlowId {
        src: 0,
        dst: 1,
        sport: 1,
        dport: 80,
    }
}

/// The RIP table as it was before it went dense: a map from destination to
/// route, under the rules `RipState` had at commit 59cd9ba. The reference
/// the dense table is checked against.
#[derive(Default)]
struct RipModel(BTreeMap<u32, RipRoute>);

impl RipModel {
    fn on_advertisement(&mut self, routes: &[(u32, u8)], in_dev: u8) -> bool {
        let mut changed = false;
        for &(dst, metric) in routes {
            let new_metric = metric.saturating_add(1).min(RIP_INFINITY);
            match self.0.get_mut(&dst) {
                Some(route) => {
                    if route.dev == in_dev {
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
                None => {
                    if new_metric < RIP_INFINITY {
                        let route = RipRoute {
                            metric: new_metric,
                            dev: in_dev,
                        };
                        self.0.insert(dst, route);
                        changed = true;
                    }
                }
            }
        }
        changed
    }

    fn on_device_down(&mut self, dev: u8) -> bool {
        let mut changed = false;
        for route in self.0.values_mut() {
            if route.dev == dev && route.metric < RIP_INFINITY {
                route.metric = RIP_INFINITY;
                changed = true;
            }
        }
        changed
    }

    fn advertisement(&self, out_dev: u8) -> Vec<(u32, u8)> {
        let poisoned = |r: &RipRoute| r.dev == out_dev && r.metric != 0;
        self.0
            .iter()
            .map(|(&dst, r)| (dst, if poisoned(r) { RIP_INFINITY } else { r.metric }))
            .collect()
    }

    fn lookup(&self, dst: u32) -> Option<u8> {
        self.0
            .get(&dst)
            .filter(|r| r.metric < RIP_INFINITY)
            .map(|r| r.dev)
    }

    /// What `save_map` wrote for the map, followed by the two scalars.
    fn encoding(&self, update_interval: Time) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        (self.0.len() as u64).save(&mut w);
        for (dst, route) in &self.0 {
            dst.save(&mut w);
            route.save(&mut w);
        }
        update_interval.save(&mut w);
        false.save(&mut w);
        w.into_bytes()
    }
}

proptest! {
    /// Any interleaving of advertisements received and devices going down
    /// leaves the dense table indistinguishable from the map it replaced:
    /// same `changed` flags, same advertised vectors on every device, same
    /// lookups, same checkpoint bytes. Destinations 8 and 9 lie outside the
    /// eight-node table the state is built with (a restored table's case).
    #[test]
    fn dense_rip_table_matches_map_model(
        ops in proptest::collection::vec(
            (
                any::<bool>(),
                0u8..3,
                proptest::collection::vec((0u32..10, 0u8..18), 0..6),
            ),
            1..40,
        ),
    ) {
        const SELF_ID: u32 = 2;
        let interval = Time::from_millis(10);
        let mut model = RipModel::default();
        model.0.insert(SELF_ID, RipRoute { metric: 0, dev: u8::MAX });
        let mut rip = Routing::Rip(RipState::new(SELF_ID, 8, interval));
        for (down, dev, routes) in ops {
            let Routing::Rip(state) = &mut rip else { unreachable!() };
            if down {
                prop_assert_eq!(state.on_device_down(dev), model.on_device_down(dev));
            } else {
                let msg = RipMsg { from: 7, routes };
                prop_assert_eq!(
                    state.on_advertisement(&msg, dev),
                    model.on_advertisement(&msg.routes, dev)
                );
            }
            for out_dev in 0..3 {
                let adv = state.advertisement(SELF_ID, out_dev);
                prop_assert_eq!(adv.from, SELF_ID);
                prop_assert_eq!(adv.routes, model.advertisement(out_dev));
            }
            let mut w = SnapshotWriter::new();
            state.save(&mut w);
            prop_assert_eq!(w.into_bytes(), model.encoding(interval));
            for dst in 0..12 {
                prop_assert_eq!(state.route(dst), model.0.get(&dst).copied());
            }
            for dst in 0..12 {
                let mut buf = [0u8; 16];
                let n = rip.lookup(dst, &mut buf);
                prop_assert_eq!((n == 1).then_some(buf[0]), model.lookup(dst));
                prop_assert!(n <= 1);
            }
        }
    }

    /// The receiver reassembles any permutation of the segments: the final
    /// cumulative ACK covers the whole flow and ACKs are monotone.
    #[test]
    fn receiver_reassembles_any_order(
        segments in 1u64..60,
        perm_seed in any::<u64>(),
        dups in 0usize..10,
    ) {
        let size = segments * MSS as u64;
        let mut order: Vec<u64> = (0..segments).collect();
        let mut rng = unison_core::Rng::new(perm_seed);
        rng.shuffle(&mut order);
        // Inject some duplicate deliveries.
        for _ in 0..dups {
            let dup = order[rng.next_below(order.len() as u64) as usize];
            order.push(dup);
        }
        let mut rcv = TcpReceiver::new(flow(), size);
        let mut last_ack = 0u64;
        for (i, seg) in order.iter().enumerate() {
            let ack = rcv.on_data(seg * MSS as u64, MSS, false, Time(i as u64), false, Time(i as u64 + 1));
            prop_assert!(ack.ack >= last_ack, "cumulative ACK regressed");
            last_ack = ack.ack;
        }
        prop_assert_eq!(last_ack, size);
        prop_assert!(rcv.completed_at.is_some());
    }

    /// Queue byte accounting is exact under arbitrary enqueue/dequeue
    /// interleavings, and the limit is never exceeded.
    #[test]
    fn queue_accounting(ops in proptest::collection::vec((any::<bool>(), 64u32..2_000), 1..200)) {
        let limit = 10_000u32;
        let mut q = Queue::new(QueueConfig::DropTail { limit_bytes: limit }, 7);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        for (enq, bytes) in ops {
            if enq {
                let mut p = Packet::data(flow(), 0, bytes.saturating_sub(52).max(1), 1 << 20, false, false, Time::ZERO);
                p.bytes = bytes;
                if q.enqueue(p, Time::ZERO) == Enqueue::Accepted {
                    model.push_back(bytes);
                }
            } else {
                let popped = q.dequeue().map(|p| p.bytes);
                prop_assert_eq!(popped, model.pop_front());
            }
            let expect: u32 = model.iter().sum();
            prop_assert_eq!(q.bytes(), expect);
            prop_assert!(q.bytes() <= limit);
            prop_assert_eq!(q.len(), model.len());
        }
    }

    /// RED with marking never drops an ECN-capable packet below the hard
    /// limit, and counts marks consistently.
    #[test]
    fn red_marks_instead_of_dropping_ecn(packets in 1usize..150) {
        let mut q = Queue::new(QueueConfig::dctcp(1 << 20, 10_000), 3);
        let mut accepted = 0u64;
        for _ in 0..packets {
            let p = Packet::data(flow(), 0, MSS, 1 << 20, false, true, Time::ZERO);
            if q.enqueue(p, Time::ZERO) == Enqueue::Accepted {
                accepted += 1;
            }
        }
        prop_assert_eq!(accepted, packets as u64, "ECN packets must not early-drop");
        prop_assert_eq!(q.drops, 0);
        prop_assert_eq!(q.accepted, accepted);
    }

    /// Static routing on random connected graphs: every candidate next hop
    /// strictly decreases the BFS distance to the destination.
    #[test]
    fn static_routes_decrease_distance(
        n in 2usize..16,
        extra in proptest::collection::vec((0usize..16, 0usize..16), 0..24),
    ) {
        // Spanning chain guarantees connectivity; extras add ECMP variety.
        let mut pairs: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        for (a, b) in extra {
            let (a, b) = (a % n, b % n);
            if a != b && !pairs.contains(&(a, b)) && !pairs.contains(&(b, a)) {
                pairs.push((a, b));
            }
        }
        let mut adj: Vec<Vec<(u32, u8)>> = vec![Vec::new(); n];
        for &(a, b) in &pairs {
            let da = adj[a].len() as u8;
            let db = adj[b].len() as u8;
            adj[a].push((b as u32, da));
            adj[b].push((a as u32, db));
        }
        let tables = compute_static_tables(&adj);
        // Reference BFS distances per destination.
        for dst in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[dst] = 0;
            let mut queue = std::collections::VecDeque::from([dst]);
            while let Some(v) = queue.pop_front() {
                for &(u, _) in &adj[v] {
                    if dist[u as usize] == usize::MAX {
                        dist[u as usize] = dist[v] + 1;
                        queue.push_back(u as usize);
                    }
                }
            }
            let mut buf = [0u8; 16];
            for node in 0..n {
                let cands = tables[node].lookup(dst as u32, &mut buf);
                if node == dst {
                    prop_assert_eq!(cands, 0);
                    continue;
                }
                prop_assert!(cands > 0, "connected graph must have a route");
                for &dev in &buf[..cands] {
                    let (peer, _) = adj[node][dev as usize];
                    prop_assert_eq!(
                        dist[peer as usize] + 1,
                        dist[node],
                        "next hop must reduce distance"
                    );
                }
            }
        }
    }
}
