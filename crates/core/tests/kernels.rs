//! Cross-kernel integration tests on a token-routing toy model.
//!
//! K tokens wander a graph; each token carries its own RNG, so the *set* of
//! events (timestamps, nodes) is independent of execution order — event
//! totals must match across every kernel and partition. Per-node checksums
//! are order-sensitive, so they must match *bitwise* between deterministic
//! executions (Unison at any thread count, compat-keys sequential) and are
//! allowed to differ under insertion-order tie-breaking.

use unison_core::{
    kernel, KernelKind, MetricsLevel, NodeId, PartitionMode, Rng, RunConfig, SimCtx, SimNode, Time,
    WorldBuilder,
};

/// A token with its own deterministic randomness.
#[derive(Debug)]
struct Token {
    id: u64,
    rng: Rng,
    hops: u64,
}

/// A graph node that forwards tokens to random neighbors.
struct Router {
    /// `(neighbor, link delay)` pairs.
    neighbors: Vec<(NodeId, Time)>,
    /// Order-sensitive checksum of everything this node saw.
    checksum: u64,
    /// Tokens seen.
    seen: u64,
}

impl SimNode for Router {
    type Payload = Token;

    fn handle(&mut self, mut token: Token, ctx: &mut dyn SimCtx<Self>) {
        self.seen += 1;
        self.checksum = self
            .checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(ctx.now().as_nanos())
            .wrapping_add(token.id.wrapping_mul(0x9E3779B97F4A7C15));
        token.hops += 1;
        let pick = token.rng.next_below(self.neighbors.len() as u64) as usize;
        let (next, delay) = self.neighbors[pick];
        ctx.schedule(delay, next, token);
    }
}

/// Builds a ring of `n` routers with uniform link delay, seeds `tokens`
/// tokens, and stops at `stop`.
fn ring_world(n: usize, delay: Time, tokens: u64, stop: Time) -> unison_core::World<Router> {
    let mut b = WorldBuilder::new();
    let ids: Vec<NodeId> = (0..n).map(|i| NodeId(i as u32)).collect();
    for i in 0..n {
        let prev = ids[(i + n - 1) % n];
        let next = ids[(i + 1) % n];
        b.add_node(Router {
            neighbors: vec![(prev, delay), (next, delay)],
            checksum: 0,
            seen: 0,
        });
    }
    for i in 0..n {
        b.add_link(ids[i], ids[(i + 1) % n], delay);
    }
    let mut seed_rng = Rng::new(0xDEAD_BEEF);
    for t in 0..tokens {
        let start = ids[(t as usize) % n];
        b.schedule(
            Time::from_nanos(t % 7),
            start,
            Token {
                id: t,
                rng: seed_rng.fork(t),
                hops: 0,
            },
        );
    }
    b.stop_at(stop);
    b.build()
}

fn checksums(world: &unison_core::World<Router>) -> Vec<(u64, u64)> {
    world.nodes().map(|n| (n.checksum, n.seen)).collect()
}

const N: usize = 12;
const DELAY: Time = Time(3_000);
const TOKENS: u64 = 40;
const STOP: Time = Time(1_500_000); // ~500 hops per token

#[test]
fn unison_deterministic_across_thread_counts() {
    let mut reference = None;
    for threads in [1usize, 2, 3, 8] {
        let world = ring_world(N, DELAY, TOKENS, STOP);
        let (world, report) = kernel::run(world, &RunConfig::unison(threads)).unwrap();
        // Every hop crosses an LP boundary, so the number of cross-LP sends
        // (`pool_hits + pool_misses`) is part of the deterministic state.
        // How often an outbox had to grow is not: it depends on how many
        // rows share the traffic. It is bounded, though — `threads²`
        // outboxes, each doubling its way up to the largest round's burst
        // (16 doublings is ample for this ring) — and once an outbox has
        // reached its round's peak, a send allocates nothing.
        let engine = report.engine;
        let sends = engine.pool_hits + engine.pool_misses;
        assert!(
            engine.pool_misses <= (threads * threads * 16) as u64,
            "{} outbox growths at {threads} threads",
            engine.pool_misses
        );
        assert!(
            engine.pool_hit_rate() > 0.99,
            "{} outbox growths in {sends} cross-LP sends at {threads} threads",
            engine.pool_misses
        );
        let state = (checksums(&world), report.events, sends);
        match &reference {
            None => reference = Some(state),
            Some(r) => {
                assert_eq!(r.1, state.1, "event count differs at {threads} threads");
                assert_eq!(r.0, state.0, "checksums differ at {threads} threads");
                assert_eq!(r.2, state.2, "send count differs at {threads} threads");
            }
        }
    }
}

#[test]
fn unison_matches_compat_sequential_bitwise() {
    let (w_seq, rep_seq) = kernel::run(
        ring_world(N, DELAY, TOKENS, STOP),
        &RunConfig {
            watchdog: Default::default(),
            kernel: KernelKind::Sequential { compat_keys: true },
            partition: PartitionMode::Auto,
            fusion: true,
            metrics: MetricsLevel::Summary,
            fel: Default::default(),
        },
    )
    .unwrap();
    let (w_uni, rep_uni) =
        kernel::run(ring_world(N, DELAY, TOKENS, STOP), &RunConfig::unison(4)).unwrap();
    assert_eq!(rep_seq.events, rep_uni.events);
    assert_eq!(checksums(&w_seq), checksums(&w_uni));
}

#[test]
fn unison_repeated_runs_identical() {
    let run = || {
        let (w, r) =
            kernel::run(ring_world(N, DELAY, TOKENS, STOP), &RunConfig::unison(3)).unwrap();
        (checksums(&w), r.events)
    };
    assert_eq!(run(), run());
}

#[test]
fn all_kernels_agree_on_event_totals() {
    // Token events are order-independent as a set, so totals must match
    // even under insertion-order tie-breaks.
    let (_, seq) =
        kernel::run(ring_world(N, DELAY, TOKENS, STOP), &RunConfig::sequential()).unwrap();
    let (_, uni) = kernel::run(ring_world(N, DELAY, TOKENS, STOP), &RunConfig::unison(2)).unwrap();
    assert_eq!(seq.events, uni.events);
    assert!(
        seq.events > TOKENS * 100,
        "workload too small to be meaningful"
    );
}

#[test]
fn stop_time_is_exclusive_bound() {
    let (_, report) = kernel::run(
        ring_world(4, Time(1_000), 1, Time(10_000)),
        &RunConfig::sequential(),
    )
    .unwrap();
    // Token starts at t=0 and hops every 1000ns: events at 0, 1000, ...,
    // 9000 => 10 events, none at 10000.
    assert_eq!(report.events, 10);
    assert!(report.end_time <= Time(10_000));
}

/// Round fusion only decides who runs a round's phases: with it off, every
/// round crosses the barriers, claims out of homes and re-orders on its
/// schedule, and the results are the fused run's.
#[test]
fn fusion_off_does_not_change_results() {
    let base = {
        let (w, _) =
            kernel::run(ring_world(N, DELAY, TOKENS, STOP), &RunConfig::unison(2)).unwrap();
        checksums(&w)
    };
    for threads in [2, 4] {
        let cfg = RunConfig::unison(threads).without_fusion();
        let (w, report) = kernel::run(ring_world(N, DELAY, TOKENS, STOP), &cfg).unwrap();
        assert_eq!(report.fused_rounds, 0, "{threads} threads: a round fused");
        assert_eq!(checksums(&w), base, "{threads} threads without fusion");
    }
}

#[test]
fn per_round_metrics_align_with_totals() {
    let cfg = RunConfig::unison(1).with_per_round_metrics();
    let (_, report) = kernel::run(ring_world(N, DELAY, TOKENS, STOP), &cfg).unwrap();
    let profile = report.rounds_profile.as_ref().expect("profile recorded");
    assert_eq!(profile.len() as u64, report.rounds);
    let profile_events: u64 = profile
        .iter()
        .flat_map(|r| r.lp_events.iter())
        .map(|&e| e as u64)
        .sum();
    assert_eq!(profile_events, report.events);
    // Fine-grained partition of a uniform ring: one LP per node.
    assert_eq!(report.lp_count as usize, N);
    assert_eq!(report.lookahead, DELAY);
}

#[test]
fn global_event_stops_simulation_early() {
    let mut b = WorldBuilder::new();
    for i in 0..4u32 {
        let prev = NodeId((i + 3) % 4);
        let next = NodeId((i + 1) % 4);
        b.add_node(Router {
            neighbors: vec![(prev, Time(1_000)), (next, Time(1_000))],
            checksum: 0,
            seen: 0,
        });
    }
    for i in 0..4u32 {
        b.add_link(NodeId(i), NodeId((i + 1) % 4), Time(1_000));
    }
    let mut rng = Rng::new(1);
    b.schedule(
        Time::ZERO,
        NodeId(0),
        Token {
            id: 0,
            rng: rng.fork(0),
            hops: 0,
        },
    );
    b.schedule_global(Time(5_000), Box::new(|wa| wa.stop()));
    b.stop_at(Time(1_000_000));
    let (_, report) = kernel::run(b.build(), &RunConfig::unison(2)).unwrap();
    // Events at 0..4000 only: the global stop fires at 5000.
    assert_eq!(report.events, 5);
    assert!(report.global_events >= 1);
}

#[test]
fn global_event_can_mutate_nodes_and_schedule() {
    let mut b = WorldBuilder::new();
    for i in 0..3u32 {
        b.add_node(Router {
            neighbors: vec![(NodeId((i + 1) % 3), Time(500))],
            checksum: 0,
            seen: 0,
        });
    }
    for i in 0..3u32 {
        b.add_link(NodeId(i), NodeId((i + 1) % 3), Time(500));
    }
    let mut rng = Rng::new(2);
    let token = Token {
        id: 7,
        rng: rng.fork(7),
        hops: 0,
    };
    // No initial node events: the global event injects the token at t=2000.
    b.schedule_global(
        Time(2_000),
        Box::new(move |wa| {
            wa.node_mut(NodeId(1)).checksum = 42;
            wa.schedule(Time(2_500), NodeId(0), token);
        }),
    );
    b.stop_at(Time(4_000));
    let (world, report) = kernel::run(b.build(), &RunConfig::unison(2)).unwrap();
    // Token events at 2500, 3000, 3500 => 3 events.
    assert_eq!(report.events, 3);
    assert!(world.node(NodeId(1)).checksum >= 42);
}

#[test]
fn topology_change_recomputes_lookahead() {
    let mut b = WorldBuilder::new();
    for i in 0..2u32 {
        b.add_node(Router {
            neighbors: vec![(NodeId(1 - i), Time(4_000))],
            checksum: 0,
            seen: 0,
        });
    }
    let link = b.add_link(NodeId(0), NodeId(1), Time(4_000));
    let mut rng = Rng::new(3);
    b.schedule(
        Time::ZERO,
        NodeId(0),
        Token {
            id: 0,
            rng: rng.fork(0),
            hops: 0,
        },
    );
    b.schedule_global(
        Time(20_000),
        Box::new(move |wa| {
            assert_eq!(wa.lookahead(), Time(4_000));
            wa.set_link_delay(link, Time(1_000));
        }),
    );
    b.stop_at(Time(40_000));
    let (_, report) = kernel::run(b.build(), &RunConfig::unison(2)).unwrap();
    // The final lookahead reflects the change. (Note: the model kept
    // sending with the old 4000ns delay, which stays >= lookahead — legal.)
    assert_eq!(report.lookahead, Time(1_000));
}

#[test]
fn manual_partition_controls_lp_count() {
    let cfg = RunConfig {
        watchdog: Default::default(),
        kernel: KernelKind::Unison { threads: 2 },
        partition: PartitionMode::Manual((0..N as u32).map(|i| i % 4).collect()),
        fusion: true,
        metrics: MetricsLevel::Summary,
        fel: Default::default(),
    };
    let (_, report) = kernel::run(ring_world(N, DELAY, TOKENS, STOP), &cfg).unwrap();
    assert_eq!(report.lp_count, 4);
}

#[test]
fn partition_bound_sweeps_granularity() {
    // Bound below the delay: nothing merges (one LP per node). Bound above:
    // everything merges into one LP.
    for (bound, expect) in [(Time(1), N as u32), (Time(1_000_000), 1)] {
        let cfg = RunConfig {
            watchdog: Default::default(),
            kernel: KernelKind::Unison { threads: 1 },
            partition: PartitionMode::Bound(bound),
            fusion: true,
            metrics: MetricsLevel::Summary,
            fel: Default::default(),
        };
        let (_, report) = kernel::run(ring_world(N, DELAY, TOKENS, STOP), &cfg).unwrap();
        assert_eq!(report.lp_count, expect, "bound {bound:?}");
    }
}

#[test]
fn psm_indexing_matches_kernel_family() {
    // Both kernels report P/S/M per worker thread: one for the sequential
    // kernel, `threads` for Unison.
    let (_, seq) =
        kernel::run(ring_world(N, DELAY, TOKENS, STOP), &RunConfig::sequential()).unwrap();
    assert_eq!(seq.psm.len(), 1);

    let (_, uni) = kernel::run(ring_world(N, DELAY, TOKENS, STOP), &RunConfig::unison(2)).unwrap();
    assert_eq!(uni.psm.len(), uni.threads as usize);
}

#[test]
fn psm_accounts_for_wall_time() {
    let (_, report) =
        kernel::run(ring_world(N, DELAY, TOKENS, STOP), &RunConfig::unison(2)).unwrap();
    let total = report.psm_total();
    assert!(total.p_ns > 0);
    // P+S+M per thread should be within an order of magnitude of wall time
    // (they exclude per-loop bookkeeping).
    assert!(report.psm.len() == 2);
}
