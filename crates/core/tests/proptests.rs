//! Property-based tests of the kernel's core data structures and
//! invariants.

use proptest::prelude::*;

use unison_core::sched::{ideal_makespan, lpt_makespan, order_by_estimate};
use unison_core::{
    fine_grained_partition, partition_below_bound, DataRate, Event, EventKey, Fel, FelImpl,
    LinkGraph, LpId, NodeId, Rng, Time,
};

/// Builds an arbitrary multigraph on `n` nodes from raw edge tuples
/// (self-loops dropped, endpoints folded into range) — the shared input
/// shape of the partition properties below.
fn build_graph(n: usize, edges: &[(usize, usize, u64)]) -> LinkGraph {
    let mut g = LinkGraph::new(n);
    for &(a, b, d) in edges {
        let (a, b) = (a % n, b % n);
        if a != b {
            g.add_link(NodeId(a as u32), NodeId(b as u32), Time(d));
        }
    }
    g
}

fn arb_key() -> impl Strategy<Value = EventKey> {
    (0u64..1_000, 0u64..1_000, 0u32..8, 0u64..10_000).prop_map(|(ts, sts, lp, seq)| EventKey {
        ts: Time(ts),
        sender_ts: Time(sts),
        sender_lp: LpId(lp),
        seq,
    })
}

/// One step of the differential FEL workload.
#[derive(Debug, Clone)]
enum FelOp {
    Push(EventKey),
    PushExternal(u64, u64),
    Extend(Vec<EventKey>),
    PopBelow(u64),
    PopN(usize),
    /// Bulk insert until the list holds this many events; with the flag set
    /// the batch is scheduled from "now" on, as a running simulation's
    /// arrivals are (timestamps offset by the head's).
    FillTo(usize, Vec<EventKey>, bool),
    /// Pop until the list holds at most this many events.
    DrainTo(usize),
    /// One `pop_below` at exactly the head timestamp: the failing probe
    /// that ends every kernel round.
    ProbeAtHead,
}

/// Populations the ladder changes regime at (`fel.rs`): an overflow of at
/// most `LADDER_THRES` = 64 events is sorted straight into the bottom, and
/// a rung-less near tier spills into a rung above `LADDER_NEAR_MAX` = 256.
/// `FillTo`/`DrainTo` targets sit on and around both, so generated
/// sequences cross each boundary in both directions again and again.
const REGIME_POPULATIONS: [usize; 12] = [0, 3, 62, 63, 64, 65, 66, 254, 255, 256, 257, 258];

/// Duplicates an event (the payload type here is `Copy`; `Event` itself is
/// move-only because payloads generally are not).
fn dup(ev: &Event<u64>) -> Event<u64> {
    Event {
        key: ev.key,
        node: ev.node,
        payload: ev.payload,
    }
}

/// Comparable identity of a popped event.
fn ident(ev: &Event<u64>) -> (EventKey, u64) {
    (ev.key, ev.payload)
}

/// One random step of the differential workload: a selector picks the op,
/// the remaining tuple slots feed whichever operands it needs.
fn arb_op() -> impl Strategy<Value = FelOp> {
    (
        0u8..10,
        arb_key(),
        proptest::collection::vec(arb_key(), 0..40),
        0u64..1_200,
        1usize..20,
        0usize..REGIME_POPULATIONS.len(),
    )
        .prop_map(|(sel, key, batch, bound, n, target)| match sel {
            // Push one internal-keyed event.
            0 => FelOp::Push(key),
            // Push one external-keyed event (sentinel sender LP).
            1 => FelOp::PushExternal(key.ts.0, key.seq),
            // Bulk insert a batch (the receive-phase path).
            2 => FelOp::Extend(batch),
            // Drain everything strictly below a bound.
            3 => FelOp::PopBelow(bound),
            // Pop a few unconditionally.
            4 => FelOp::PopN(n),
            // Move the population onto a regime boundary, from either side.
            5 | 6 => FelOp::FillTo(REGIME_POPULATIONS[target], batch, sel == 6),
            7 => FelOp::DrainTo(REGIME_POPULATIONS[target]),
            8 => FelOp::ProbeAtHead,
            // Push an event at `Time::MAX` (the never-firing sentinel shape).
            _ => FelOp::Push(EventKey {
                ts: Time::MAX,
                ..key
            }),
        })
}

proptest! {
    /// The FEL pops events in exactly sorted key order.
    #[test]
    fn fel_pops_sorted(keys in proptest::collection::vec(arb_key(), 0..200)) {
        let mut fel: Fel<usize> = Fel::new();
        for (i, k) in keys.iter().enumerate() {
            fel.push(Event { key: *k, node: NodeId(0), payload: i });
        }
        let mut sorted = keys.clone();
        sorted.sort();
        let mut popped = Vec::new();
        while let Some(ev) = fel.pop() {
            popped.push(ev.key);
        }
        prop_assert_eq!(popped, sorted);
    }

    /// `count_below` agrees with a linear scan, and `pop_below` respects
    /// its bound.
    #[test]
    fn fel_bounds(keys in proptest::collection::vec(arb_key(), 0..100), bound in 0u64..1_200) {
        let mut fel: Fel<usize> = Fel::new();
        for (i, k) in keys.iter().enumerate() {
            fel.push(Event { key: *k, node: NodeId(0), payload: i });
        }
        let expected = keys.iter().filter(|k| k.ts < Time(bound)).count();
        prop_assert_eq!(fel.count_below(Time(bound)), expected);
        let mut n = 0;
        while let Some(ev) = fel.pop_below(Time(bound)) {
            prop_assert!(ev.key.ts < Time(bound));
            n += 1;
        }
        prop_assert_eq!(n, expected);
    }

    /// Differential suite for the two FEL implementations (DESIGN.md §4.4):
    /// under an arbitrary interleaving of single pushes, bulk `extend`
    /// batches (external and internal tie-break keys alike), and bounded /
    /// unbounded pops, the ladder queue must produce the exact pop sequence
    /// of the binary-heap reference — keys *and* payloads. The sequences
    /// dwell where the ladder changes regime (`REGIME_POPULATIONS`), probe
    /// at the head between pushes, and carry `Time::MAX` sentinels; every
    /// read-only view is compared after every step.
    #[test]
    fn ladder_matches_heap_reference(
        ops in proptest::collection::vec(arb_op(), 0..60)
    ) {
        let mut ladder: Fel<u64> = Fel::with_impl(FelImpl::Ladder);
        let mut heap: Fel<u64> = Fel::with_impl(FelImpl::BinaryHeap);
        let mut payload = 0u64;
        let mut mk = |mut key: EventKey| {
            payload += 1;
            // Keys in the real system are unique (per-sender seq counters,
            // DESIGN.md §4.1); disambiguate generated duplicates the same
            // way, since pop order among *equal* keys is unspecified in
            // both implementations.
            key.seq = key.seq * 100_000 + payload;
            Event { key, node: NodeId(0), payload }
        };
        for op in ops {
            match op {
                FelOp::Push(k) => {
                    let ev = mk(k);
                    ladder.push(dup(&ev));
                    heap.push(ev);
                }
                FelOp::PushExternal(ts, seq) => {
                    let ev = mk(EventKey::external(Time(ts), seq));
                    ladder.push(dup(&ev));
                    heap.push(ev);
                }
                FelOp::Extend(keys) => {
                    let batch: Vec<Event<u64>> = keys.into_iter().map(&mut mk).collect();
                    ladder.extend(batch.iter().map(dup));
                    heap.extend(batch);
                }
                FelOp::PopBelow(bound) => loop {
                    let (l, h) = (ladder.pop_below(Time(bound)), heap.pop_below(Time(bound)));
                    prop_assert_eq!(l.as_ref().map(ident), h.as_ref().map(ident));
                    if h.is_none() {
                        break;
                    }
                },
                FelOp::PopN(n) => {
                    for _ in 0..n {
                        let (l, h) = (ladder.pop(), heap.pop());
                        prop_assert_eq!(l.as_ref().map(ident), h.as_ref().map(ident));
                    }
                }
                FelOp::FillTo(target, keys, from_now) => {
                    // Cycle the batch's keys (`mk` makes each use unique).
                    // The modulus keeps "now" finite when only `Time::MAX`
                    // events (or none) are stored.
                    let now = if from_now { heap.next_ts().0 % 1_000_000 } else { 0 };
                    let missing = target.saturating_sub(heap.len());
                    let batch: Vec<Event<u64>> = keys
                        .iter()
                        .cycle()
                        .take(missing)
                        .map(|k| mk(EventKey { ts: Time(now + k.ts.0), ..*k }))
                        .collect();
                    ladder.extend(batch.iter().map(dup));
                    heap.extend(batch);
                }
                FelOp::DrainTo(target) => {
                    while heap.len() > target {
                        let (l, h) = (ladder.pop(), heap.pop());
                        prop_assert_eq!(l.as_ref().map(ident), h.as_ref().map(ident));
                    }
                }
                FelOp::ProbeAtHead => {
                    let head = heap.next_ts();
                    prop_assert!(heap.pop_below(head).is_none());
                    prop_assert!(ladder.pop_below(head).is_none());
                }
            }
            prop_assert_eq!(ladder.len(), heap.len());
            prop_assert_eq!(ladder.next_ts(), heap.next_ts());
            prop_assert_eq!(
                ladder.count_below(Time(500)),
                heap.count_below(Time(500))
            );
            prop_assert_eq!(
                ladder.count_below(Time::MAX),
                heap.count_below(Time::MAX)
            );
            let stored = |fel: &Fel<u64>| {
                let mut all: Vec<(EventKey, u64)> = fel.iter().map(ident).collect();
                all.sort_unstable();
                all
            };
            prop_assert_eq!(stored(&ladder), stored(&heap));
        }
        // Final full drain must agree too.
        loop {
            let (l, h) = (ladder.pop(), heap.pop());
            prop_assert_eq!(l.as_ref().map(ident), h.as_ref().map(ident));
            if h.is_none() {
                break;
            }
        }
    }

    /// The property the round kernels' transport leans on (DESIGN.md §4.4):
    /// outboxes deliver a round's cross-LP events in whatever order rows
    /// and columns happen to be drained, and that order must carry no
    /// information. For both implementations: two lists fed the same
    /// uniquely-keyed events, round by round, each round's batch in a
    /// different permutation and followed by a `pop_below` at the same
    /// bound, pop identical sequences — `Time::MAX` events included, and
    /// with batches that take the list above `LADDER_NEAR_MAX` = 256.
    #[test]
    fn fel_pop_sequence_ignores_insertion_order(
        rounds in proptest::collection::vec(
            (proptest::collection::vec(arb_key(), 0..300), 0usize..3, 0u64..1_200),
            1..5,
        ),
        seed in any::<u64>(),
    ) {
        for imp in [FelImpl::Ladder, FelImpl::BinaryHeap] {
            let (mut a, mut b): (Fel<u64>, Fel<u64>) = (Fel::with_impl(imp), Fel::with_impl(imp));
            let mut rng = Rng::new(seed);
            let mut payload = 0u64;
            for (keys, never, bound) in &rounds {
                let sentinels = (0..*never).map(|_| EventKey::external(Time::MAX, 0));
                let batch: Vec<Event<u64>> = keys
                    .iter()
                    .copied()
                    .chain(sentinels)
                    .map(|mut key| {
                        payload += 1;
                        // Unique keys, as in the real system.
                        key.seq = key.seq * 100_000 + payload;
                        Event { key, node: NodeId(0), payload }
                    })
                    .collect();
                // Fisher–Yates: `b` gets the batch in another order.
                let mut shuffled: Vec<Event<u64>> = batch.iter().map(dup).collect();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
                for ev in batch {
                    a.push(ev);
                }
                for ev in shuffled {
                    b.push(ev);
                }
                prop_assert_eq!(a.next_ts(), b.next_ts());
                loop {
                    let (x, y) = (a.pop_below(Time(*bound)), b.pop_below(Time(*bound)));
                    prop_assert_eq!(x.as_ref().map(ident), y.as_ref().map(ident));
                    if x.is_none() {
                        break;
                    }
                }
            }
            loop {
                let (x, y) = (a.pop(), b.pop());
                prop_assert_eq!(x.as_ref().map(ident), y.as_ref().map(ident));
                if x.is_none() {
                    break;
                }
            }
        }
    }

    /// Partition invariants on arbitrary graphs: LP ids are dense, every
    /// link below the (effective) bound is intra-LP, and the lookahead is
    /// the minimum inter-LP link delay.
    #[test]
    fn partition_invariants(
        n in 2usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40, 0u64..10_000), 0..120),
    ) {
        let mut g = LinkGraph::new(n);
        for (a, b, d) in edges {
            let (a, b) = (a % n, b % n);
            if a != b {
                g.add_link(NodeId(a as u32), NodeId(b as u32), Time(d));
            }
        }
        let p = fine_grained_partition(&g);
        // Dense ids covering 0..lp_count.
        let mut seen = vec![false; p.lp_count as usize];
        for lp in &p.node_lp {
            prop_assert!(lp.0 < p.lp_count);
            seen[lp.index()] = true;
        }
        prop_assert!(seen.iter().all(|s| *s));
        // The effective bound: max(median, 1ns).
        let mut delays: Vec<u64> = g.live_links().map(|(_, l)| l.delay.0).collect();
        if !delays.is_empty() {
            delays.sort_unstable();
            let bound = delays[(delays.len() - 1) / 2].max(1);
            let mut min_cut = u64::MAX;
            for (_, l) in g.live_links() {
                let same = p.lp_of(l.a) == p.lp_of(l.b);
                if l.delay.0 < bound {
                    prop_assert!(same, "link below bound must be intra-LP");
                }
                if !same {
                    min_cut = min_cut.min(l.delay.0);
                }
            }
            prop_assert_eq!(p.lookahead.0, min_cut);
        }
    }

    /// Both flood partitioners cover every node exactly once: dense LP
    /// ids, each node in exactly one LP's node list, at the index `node_lp`
    /// claims — for the median-delay cut and for any explicit bound.
    #[test]
    fn partitioner_covers_every_node_exactly_once(
        n in 2usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40, 0u64..10_000), 0..120),
        bound in 0u64..12_000,
    ) {
        let g = build_graph(n, &edges);
        for p in [fine_grained_partition(&g), partition_below_bound(&g, Time(bound))] {
            prop_assert_eq!(p.node_lp.len(), n);
            prop_assert_eq!(p.lp_nodes.len(), p.lp_count as usize);
            let mut covered = vec![0u32; n];
            for (lp, nodes) in p.lp_nodes.iter().enumerate() {
                prop_assert!(!nodes.is_empty(), "LP {} is empty", lp);
                for node in nodes {
                    covered[node.index()] += 1;
                    prop_assert_eq!(p.node_lp[node.index()], LpId(lp as u32));
                }
            }
            prop_assert!(covered.iter().all(|&c| c == 1), "node covered != once");
        }
    }

    /// `lp_channels` is exactly the cut of the partition: one entry per
    /// unordered LP pair joined by a live link, carrying the minimum delay
    /// among that pair's links, and the global lookahead is the minimum
    /// over the channels — for the median-delay cut and for any explicit
    /// bound.
    #[test]
    fn lp_channel_lookaheads_match_min_cut_delay(
        n in 2usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40, 0u64..10_000), 0..120),
        bound in 0u64..12_000,
    ) {
        let g = build_graph(n, &edges);
        for p in [fine_grained_partition(&g), partition_below_bound(&g, Time(bound))] {
            let mut expected: std::collections::BTreeMap<(u32, u32), u64> =
                std::collections::BTreeMap::new();
            for (_, l) in g.live_links() {
                let (pa, pb) = (p.lp_of(l.a), p.lp_of(l.b));
                if pa != pb {
                    let key = (pa.0.min(pb.0), pa.0.max(pb.0));
                    let e = expected.entry(key).or_insert(u64::MAX);
                    *e = (*e).min(l.delay.0);
                }
            }
            let chans = p.lp_channels(&g);
            prop_assert_eq!(chans.len(), expected.len());
            for (a, b, d) in chans {
                prop_assert_eq!(expected.get(&(a.0, b.0)).copied(), Some(d.0));
            }
            let min_cut = expected.values().copied().min().unwrap_or(u64::MAX);
            prop_assert_eq!(p.lookahead.0, min_cut);
        }
    }

    /// LPT makespan bounds: at least the largest job and the mean load, at
    /// most the total work; and never better than the exact-knowledge
    /// ideal by more than floating noise.
    #[test]
    fn lpt_bounds(
        jobs in proptest::collection::vec(0u64..10_000, 1..100),
        threads in 1usize..24,
    ) {
        let actual: Vec<f64> = jobs.iter().map(|&j| j as f64).collect();
        let order = order_by_estimate(&jobs);
        let ms = lpt_makespan(&order, &actual, threads);
        let total: f64 = actual.iter().sum();
        let max = actual.iter().cloned().fold(0.0, f64::max);
        prop_assert!(ms >= max - 1e-9);
        prop_assert!(ms >= total / threads as f64 - 1e-9);
        prop_assert!(ms <= total + 1e-9);
        let ideal = ideal_makespan(&actual, threads);
        prop_assert!(ms + 1e-9 >= ideal);
    }

    /// The deterministic RNG respects bounds and is reproducible.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..50 {
            let x = a.next_below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.next_below(bound));
        }
    }

    /// `tx_time` equals the 128-bit formula it used to be, from 1 bps to
    /// 1 Tbps, on both sides of the size where it changes width.
    #[test]
    fn tx_time_matches_wide_formula(
        mantissa in 1u64..=1_000,
        exp in 0u32..10,
        other in any::<u32>(),
    ) {
        let rate = mantissa * 10u64.pow(exp);
        for bytes in [0, 1, 64, 1_500, (1 << 30) - 1, 1 << 30, u32::MAX, other] {
            let wide = (bytes as u128 * 8 * 1_000_000_000).div_ceil(rate as u128);
            prop_assert_eq!(
                DataRate::bps(rate).tx_time(bytes),
                Time(wide.min(u64::MAX as u128) as u64),
                "{} bytes at {} bps", bytes, rate
            );
        }
        prop_assert_eq!(DataRate::bps(0).tx_time(other), Time::MAX);
    }

    /// Time arithmetic never panics on extreme values.
    #[test]
    fn time_saturating(a in any::<u64>(), b in any::<u64>()) {
        let (ta, tb) = (Time(a), Time(b));
        let _ = ta.saturating_add(tb);
        let _ = ta.saturating_sub(tb);
        let _ = ta.min(tb);
        let _ = ta.max(tb);
        prop_assert_eq!(ta.saturating_add(Time::ZERO), ta);
        prop_assert_eq!(ta.saturating_sub(Time::ZERO), ta);
    }
}

/// Determinism property at the kernel level: a token-routing world produces
/// identical checksums on 1 and 3 threads for arbitrary seeds/sizes.
mod kernel_determinism {
    use super::*;
    use unison_core::{kernel, RunConfig, SimCtx, SimNode, WorldBuilder};

    struct Router {
        neighbors: Vec<NodeId>,
        delay: Time,
        checksum: u64,
    }

    #[derive(Debug)]
    struct Token(Rng, u64);

    impl SimNode for Router {
        type Payload = Token;
        fn handle(&mut self, mut t: Token, ctx: &mut dyn SimCtx<Self>) {
            self.checksum = self
                .checksum
                .wrapping_mul(31)
                .wrapping_add(ctx.now().as_nanos())
                .wrapping_add(t.1);
            let next = self.neighbors[t.0.next_below(self.neighbors.len() as u64) as usize];
            ctx.schedule(self.delay, next, t);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn unison_thread_count_invariant(
            seed in any::<u64>(),
            n in 3usize..10,
            tokens in 1u64..8,
        ) {
            let build = || {
                let mut b = WorldBuilder::new();
                let delay = Time(1_000);
                for i in 0..n {
                    b.add_node(Router {
                        neighbors: vec![
                            NodeId(((i + 1) % n) as u32),
                            NodeId(((i + n - 1) % n) as u32),
                        ],
                        delay,
                        checksum: 0,
                    });
                }
                for i in 0..n {
                    b.add_link(NodeId(i as u32), NodeId(((i + 1) % n) as u32), delay);
                }
                let mut rng = Rng::new(seed);
                for t in 0..tokens {
                    b.schedule(Time(t), NodeId((t % n as u64) as u32), Token(rng.fork(t), t));
                }
                b.stop_at(Time(200_000));
                b.build()
            };
            let run = |threads| {
                let (w, r) = kernel::run(build(), &RunConfig::unison(threads)).unwrap();
                let sums: Vec<u64> = w.nodes().map(|n| n.checksum).collect();
                (sums, r.events)
            };
            prop_assert_eq!(run(1), run(3));
        }
    }
}
