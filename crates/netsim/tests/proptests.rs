//! Property-based tests of the network-model substrates.

use proptest::prelude::*;

use std::collections::BTreeMap;

use unison_core::{snapshot_struct, Snapshot, SnapshotWriter, Time};
use unison_netsim::packet::{FlowId, Packet, RipMsg, MSS};
use unison_netsim::queue::{Enqueue, Queue, QueueConfig};
use unison_netsim::route::{
    compute_static_tables, RipRoute, RipState, Routing, StaticTable, RIP_INFINITY,
};
use unison_netsim::tcp::{AckInfo, TcpReceiver};

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

    /// The digest of what `save_map` wrote for the map, followed by the
    /// two scalars.
    fn digest(&self, update_interval: Time) -> u64 {
        let mut w = SnapshotWriter::new();
        (self.0.len() as u64).save(&mut w);
        for (dst, route) in &self.0 {
            dst.save(&mut w);
            route.save(&mut w);
        }
        update_interval.save(&mut w);
        false.save(&mut w);
        w.finish()
    }
}

/// The receiver as it was before its out-of-order buffer became segment
/// runs: the same fields, the buffer a map from segment start to the
/// longest length that arrived there. The reference the runs are checked
/// against.
struct MapReceiver {
    flow: FlowId,
    size: u64,
    rcv_nxt: u64,
    ooo: BTreeMap<u64, u32>,
    bytes_rx: u64,
    first_rx: Option<Time>,
    completed_at: Option<Time>,
}

snapshot_struct!(MapReceiver {
    flow,
    size,
    rcv_nxt,
    ooo,
    bytes_rx,
    first_rx,
    completed_at
});

impl MapReceiver {
    fn new(size: u64) -> Self {
        MapReceiver {
            flow: flow(),
            size,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            bytes_rx: 0,
            first_rx: None,
            completed_at: None,
        }
    }

    fn on_data(&mut self, seq: u64, len: u32, sent_at: Time, now: Time) -> AckInfo {
        self.first_rx.get_or_insert(now);
        self.bytes_rx += len as u64;
        let end = seq + len as u64;
        if end > self.rcv_nxt {
            if seq <= self.rcv_nxt {
                self.rcv_nxt = end;
                while let Some((&s, &l)) = self.ooo.first_key_value() {
                    if s <= self.rcv_nxt {
                        self.ooo.remove(&s);
                        self.rcv_nxt = self.rcv_nxt.max(s + l as u64);
                    } else {
                        break;
                    }
                }
            } else {
                let entry = self.ooo.entry(seq).or_insert(len);
                *entry = (*entry).max(len);
            }
        }
        if self.completed_at.is_none() && self.rcv_nxt >= self.size {
            self.completed_at = Some(now);
        }
        AckInfo {
            ack: self.rcv_nxt,
            ece: false,
            echo_ts: sent_at,
            echo_retx: false,
        }
    }
}

fn digest(v: &impl Snapshot) -> u64 {
    let mut w = SnapshotWriter::new();
    v.save(&mut w);
    w.finish()
}

/// A receiver and its map reference, fed the same arrivals.
struct RunsAndMap {
    rcv: TcpReceiver,
    reference: MapReceiver,
    arrivals: u64,
}

impl RunsAndMap {
    fn new(size: u64) -> Self {
        RunsAndMap {
            rcv: TcpReceiver::new(flow(), size),
            reference: MapReceiver::new(size),
            arrivals: 0,
        }
    }

    /// Delivers `(seq, len)` to both, asserts that they send the same ACK
    /// and encode to the same bytes, and returns the ACK.
    fn deliver(&mut self, seq: u64, len: u32) -> u64 {
        let i = self.arrivals;
        self.arrivals += 1;
        let (sent, now) = (Time(i), Time(i + 1));
        let ack = self.rcv.on_data(seq, len, false, sent, false, now);
        assert_eq!(
            ack,
            self.reference.on_data(seq, len, sent, now),
            "arrival {i}: ({seq}, {len})"
        );
        assert_eq!(
            digest(&self.rcv),
            digest(&self.reference),
            "arrival {i}: ({seq}, {len})"
        );
        ack.ack
    }
}

proptest! {
    /// Any interleaving of advertisements received and devices going down
    /// leaves the dense table indistinguishable from the map it replaced:
    /// same `changed` flags, same advertised vectors on every device, same
    /// lookups, same snapshot bytes. Destinations 8 and 9 lie outside the
    /// eight-node table the state is built with.
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
            prop_assert_eq!(w.finish(), model.digest(interval));
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

    /// Segments cut the way the sender cuts them — `[k·MSS, min((k+1)·MSS,
    /// size))` — arriving as a lossy sender delivers them: new segments in
    /// order, some lost, retransmissions of the segment the receiver waits
    /// for and duplicates of earlier ones. The segment runs answer with the
    /// map's ACK and encode to its bytes after every arrival.
    #[test]
    fn segment_runs_match_the_map_on_aligned_segments(
        segments in 1u64..80,
        tail in 1u32..=MSS,
        ops in proptest::collection::vec((0u8..8, any::<u64>()), 1..250),
    ) {
        let size = (segments - 1) * MSS as u64 + tail as u64;
        let segment = |k: u64| {
            let seq = k * MSS as u64;
            (seq, (size - seq).min(MSS as u64) as u32)
        };
        let mut both = RunsAndMap::new(size);
        let mut next = 0u64;
        let mut ack = 0u64;
        for (kind, x) in ops {
            let k = match kind {
                // A new segment, lost one time in four.
                0..=4 => {
                    let k = next.min(segments - 1);
                    next += 1;
                    if x % 4 == 0 {
                        continue;
                    }
                    k
                }
                // The retransmission of the segment the receiver waits for.
                5 | 6 => (ack / MSS as u64).min(segments - 1),
                // A duplicate of any segment sent so far.
                _ => x % next.clamp(1, segments),
            };
            let (seq, len) = segment(k);
            ack = both.deliver(seq, len);
        }
    }

    /// Arbitrary, overlapping `(seq, len)` arrivals on a 5-byte grid, so
    /// that back-to-back runs form and keys land on, between and beside
    /// their entries — among them a repeated `seq` with a longer `len`, and
    /// empty segments. The segment runs keep the map's semantics.
    #[test]
    fn segment_runs_match_the_map_on_arbitrary_segments(
        ops in proptest::collection::vec((0u64..120, 0usize..6, 0u8..4), 1..200),
    ) {
        const LENS: [u32; 6] = [0, 5, 10, 10, 15, 20];
        let mut both = RunsAndMap::new(600);
        let mut last = (0u64, 0u32);
        for (slot, l, how) in ops {
            last = match how {
                // The previous arrival's key again, longer.
                0 => (last.0, last.1 + LENS[l]),
                // Back to back after the previous arrival, same length.
                1 => (last.0 + last.1 as u64, last.1),
                _ => (5 * slot, LENS[l]),
            };
            both.deliver(last.0, last.1);
        }
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
                // `bytes` is at least 64, so the segment's wire size is `bytes`.
                let p = Packet::data(flow(), 0, bytes - 52, 1 << 20, false, false, Time::ZERO);
                if q.enqueue(p, Time::ZERO) == Enqueue::Accepted {
                    model.push_back(bytes);
                }
            } else {
                let popped = q.dequeue().map(|(p, _)| p.bytes());
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

/// The static tables as they were before leaves shared their switch's
/// column: one BFS and one CSR row per destination, under the rules
/// `compute_static_tables` had at commit 4729ea8. The reference the column
/// tables are checked against.
#[derive(Default)]
struct PerDestinationTable {
    offsets: Vec<u32>,
    devs: Vec<u8>,
}

snapshot_struct!(PerDestinationTable { offsets, devs });

impl PerDestinationTable {
    fn row(&self, dst: u32) -> &[u8] {
        let d = dst as usize;
        if d + 1 >= self.offsets.len() {
            return &[];
        }
        &self.devs[self.offsets[d] as usize..self.offsets[d + 1] as usize]
    }
}

fn per_destination_tables(adj: &[Vec<(u32, u8)>]) -> Vec<PerDestinationTable> {
    let n = adj.len();
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    let mut tables: Vec<PerDestinationTable> = (0..n)
        .map(|_| PerDestinationTable {
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

/// The live adjacency of `n` nodes joined by `links`, numbering each
/// node's devices in link order as `NetworkBuilder` does. Each cut
/// `(link, how)` takes link `link % links.len()` down at both ends
/// (`how` 0), at its first end only (1), at its second end only (2), or
/// takes every link of its first end down (3). A one-sided cut is what
/// `NetNode::set_device_state` on one node leaves behind.
fn live_adjacency(n: usize, links: &[(usize, usize)], cuts: &[(usize, u8)]) -> Vec<Vec<(u32, u8)>> {
    let mut up = vec![[true, true]; links.len()];
    for &(link, how) in cuts {
        if links.is_empty() {
            break;
        }
        let i = link % links.len();
        match how {
            0 => up[i] = [false, false],
            1 => up[i][0] = false,
            2 => up[i][1] = false,
            _ => {
                let dead = links[i].0;
                for (j, &(a, b)) in links.iter().enumerate() {
                    if a == dead || b == dead {
                        up[j] = [false, false];
                    }
                }
            }
        }
    }
    let mut devices = vec![0u8; n];
    let mut adj: Vec<Vec<(u32, u8)>> = vec![Vec::new(); n];
    for (&(a, b), up) in links.iter().zip(&up) {
        let (da, db) = (devices[a], devices[b]);
        devices[a] += 1;
        devices[b] += 1;
        if up[0] {
            adj[a].push((b as u32, da));
        }
        if up[1] {
            adj[b].push((a as u32, db));
        }
    }
    adj
}

/// The adjacency of a k-ary fat tree, cut as [`live_adjacency`] says.
fn fat_tree_adjacency(k: usize, cuts: &[(usize, u8)]) -> Vec<Vec<(u32, u8)>> {
    let topo = unison_topology::fat_tree(k);
    let links: Vec<(usize, usize)> = topo.links.iter().map(|l| (l.a, l.b)).collect();
    live_adjacency(topo.node_count(), &links, cuts)
}

/// Asserts that the column tables of `adj` give every `(node, dst)` —
/// and one destination past the last node — the per-destination table's
/// candidates in the same order, and encode to the same bytes.
fn assert_static_tables_match(adj: &[Vec<(u32, u8)>]) {
    let tables = compute_static_tables(adj);
    let reference = per_destination_tables(adj);
    assert_eq!(tables.len(), reference.len());
    let mut buf = [0u8; 16];
    for (node, (table, want)) in tables.iter().zip(&reference).enumerate() {
        for dst in 0..=adj.len() as u32 {
            let row = want.row(dst);
            let got = table.lookup(dst, &mut buf);
            assert_eq!(
                &buf[..got],
                &row[..row.len().min(16)],
                "node {node} towards {dst}"
            );
        }
        assert_eq!(digest(table), digest(want), "node {node}'s encoding");
    }
}

#[test]
fn static_tables_match_the_per_destination_tables_on_fat_trees() {
    for k in [4, 8] {
        assert_static_tables_match(&fat_tree_adjacency(k, &[]));
    }
    // A default table (a node built before its routes) encodes as the
    // default per-destination table did.
    assert_eq!(
        digest(&StaticTable::default()),
        digest(&PerDestinationTable::default())
    );
    assert_eq!(StaticTable::default().lookup(0, &mut [0; 16]), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// Switches joined by random (possibly parallel) links, hosts hanging
    /// off them (several per switch), two-node components and isolated
    /// nodes, under random cuts — both ends, one end, or a whole node —
    /// and a random relabelling of the node ids: the column tables agree
    /// with the per-destination tables everywhere.
    #[test]
    fn static_tables_match_the_per_destination_tables(
        switches in 1usize..10,
        fabric in proptest::collection::vec((0usize..10, 0usize..10), 0..20),
        hosts in proptest::collection::vec(0usize..10, 0..24),
        loners in (0usize..3, 0usize..3),
        cuts in proptest::collection::vec((0usize..64, 0u8..4), 0..6),
        relabel in any::<u64>(),
    ) {
        let (pairs, isolated) = loners;
        let n = switches + hosts.len() + 2 * pairs + isolated;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (i as u64 ^ relabel).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut label = vec![0; n];
        for (new, &old) in order.iter().enumerate() {
            label[old] = new;
        }
        let mut links: Vec<(usize, usize)> = fabric
            .iter()
            .map(|&(a, b)| (a % switches, b % switches))
            .filter(|(a, b)| a != b)
            .collect();
        for (i, &s) in hosts.iter().enumerate() {
            links.push((switches + i, s % switches));
        }
        let first_pair = switches + hosts.len();
        for p in 0..pairs {
            links.push((first_pair + 2 * p, first_pair + 2 * p + 1));
        }
        let links: Vec<(usize, usize)> =
            links.iter().map(|&(a, b)| (label[a], label[b])).collect();
        assert_static_tables_match(&live_adjacency(n, &links, &cuts));
    }

    /// Fat trees with k = 4 and k = 8 under random cuts — a host's link,
    /// a fabric link, one end of a link, a whole switch.
    #[test]
    fn static_tables_match_the_per_destination_tables_on_cut_fat_trees(
        big in any::<bool>(),
        cuts in proptest::collection::vec((0usize..384, 0u8..4), 1..5),
    ) {
        assert_static_tables_match(&fat_tree_adjacency(if big { 8 } else { 4 }, &cuts));
    }
}
