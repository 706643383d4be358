//! Determinism matrix over partition mode, thread count, FEL and round
//! fusion.
//!
//! The §5.2 tie-breaking keys make Unison's results independent of *which
//! worker executes which LP when* — so every (partition, thread-count, FEL,
//! fusion) combination must produce bit-identical model state: the
//! claim cursor only decides who executes a round's fixed task set, and
//! cross-LP sends commit through the outbox + tie-break key path. The
//! thread axis includes 3 (homes of unequal size) and, on the two-LP
//! `manual` partition, 3 and 4 (workers whose home is empty).
//!
//! Digests are compared only *within* one partition: the tie-break key
//! embeds `sender_lp` and per-LP sequence numbers, so different partitions
//! legitimately produce different (each internally deterministic) event
//! orders.

use unison_core::sched::FUSION_THRESHOLD;
use unison_core::{
    kernel, FelImpl, KernelKind, NodeId, PartitionMode, Rng, RunConfig, SimCtx, SimNode, Time,
    WorldBuilder,
};

/// Ring size of [`world`].
const N: usize = 12;
/// Delay of the ring's one fine (sub-median) link, 0–1.
const FINE: Time = Time(500);

/// A token with its own deterministic randomness (the kernels.rs model).
#[derive(Debug)]
struct Token {
    id: u64,
    rng: Rng,
}

/// Folds one handled token into a node's order-sensitive checksum.
fn fold(checksum: u64, now: Time, token: &Token) -> u64 {
    checksum
        .wrapping_mul(0x100000001B3)
        .wrapping_add(now.as_nanos())
        .wrapping_add(token.id.wrapping_mul(0x9E3779B97F4A7C15))
}

struct Router {
    neighbors: Vec<(NodeId, Time)>,
    checksum: u64,
    seen: u64,
    /// Wall time every event holds its executing thread for (not part of
    /// the model's state: it only skews who gets to claim what).
    hold: std::time::Duration,
}

impl SimNode for Router {
    type Payload = Token;

    fn handle(&mut self, mut token: Token, ctx: &mut dyn SimCtx<Self>) {
        self.seen += 1;
        self.checksum = fold(self.checksum, ctx.now(), &token);
        let held = std::time::Instant::now();
        while held.elapsed() < self.hold {
            std::hint::spin_loop();
        }
        let pick = token.rng.next_below(self.neighbors.len() as u64) as usize;
        let (next, delay) = self.neighbors[pick];
        ctx.schedule(delay, next, token);
    }
}

/// [`ring`] with 32 tokens: 62–74 events a round, far below
/// [`FUSION_THRESHOLD`].
fn world() -> unison_core::World<Router> {
    ring(32)
}

/// A ring with one fine (sub-median) link, so the automatic partition
/// merges one pair of nodes and cuts everything else, carrying `tokens`
/// tokens (a round's load is about 2 × `tokens` events).
fn ring(tokens: u64) -> unison_core::World<Router> {
    let mut b = WorldBuilder::new();
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    for i in 0..N {
        let prev = ids[(i + N - 1) % N];
        let next = ids[(i + 1) % N];
        // One short link (0-1) stays intra-LP under the median bound.
        let d = |a: usize, b: usize| {
            if (a.min(b), a.max(b)) == (0, 1) {
                FINE
            } else {
                Time(3_000)
            }
        };
        b.add_node(Router {
            neighbors: vec![(prev, d(i, (i + N - 1) % N)), (next, d(i, (i + 1) % N))],
            checksum: 0,
            seen: 0,
            hold: Default::default(),
        });
    }
    for i in 0..N {
        b.add_link(
            ids[i],
            ids[(i + 1) % N],
            if i == 0 { FINE } else { Time(3_000) },
        );
    }
    let mut seed_rng = Rng::new(0xFEED_F00D);
    for t in 0..tokens {
        b.schedule(
            Time::from_nanos(t % 5),
            ids[(t as usize) % N],
            Token {
                id: t,
                rng: seed_rng.fork(t),
            },
        );
    }
    b.stop_at(Time(600_000));
    b.build()
}

type Digest = (Vec<(u64, u64)>, u64);

/// Runs [`world`] under `cfg`: its digest and fused-round count.
fn run(cfg: &RunConfig) -> (Digest, u64) {
    let (w, report) = kernel::run(world(), cfg).unwrap();
    let sums: Vec<(u64, u64)> = w.nodes().map(|n| (n.checksum, n.seen)).collect();
    ((sums, report.events), report.fused_rounds)
}

/// The partition axis: the modes experiments actually run under.
fn partitions() -> Vec<(&'static str, PartitionMode)> {
    vec![
        ("auto", PartitionMode::Auto),
        // Merges across the fine link only.
        ("bound", PartitionMode::Bound(Time(FINE.0 + 1))),
        // Two LPs: one half of the ring each.
        (
            "manual",
            PartitionMode::Manual((0..N).map(|i| (i >= N / 2) as u32).collect()),
        ),
    ]
}

/// The full matrix: per partition, every {threads} × {FEL} × {fusion}
/// combination matches that partition's single-thread reference. Every
/// round of this low-load ring fuses when fusion is on, so the fusion-off
/// cells are the ones that cross the barriers, claim out of homes and
/// re-order (DESIGN.md §4.9 — a fused round runs the same four phases
/// through the same outbox commit path, just without waking the workers).
#[test]
fn every_thread_fel_fusion_combination_is_bit_identical() {
    for (pname, pmode) in partitions() {
        let base = RunConfig {
            partition: pmode,
            ..RunConfig::unison(1)
        };
        let (reference, _) = run(&base);
        assert!(reference.1 > 0, "{pname}: reference run executed no events");
        for threads in [1usize, 2, 3, 4] {
            for fel in [FelImpl::Ladder, FelImpl::BinaryHeap] {
                for fusion in [true, false] {
                    let cfg = RunConfig {
                        kernel: KernelKind::Unison { threads },
                        fusion,
                        ..base.clone()
                    }
                    .with_fel(fel);
                    let what = format!(
                        "partition={pname} threads={threads} fel={} fusion={fusion}",
                        fel.name()
                    );
                    let (got, fused) = run(&cfg);
                    assert_eq!(reference, got, "digest mismatch: {what}");
                    if !fusion {
                        assert_eq!(fused, 0, "{what}: a round fused");
                    }
                }
            }
        }
    }
}

/// Fusion engages on this low-load workload, the report counts fused
/// rounds, and the per-round profile's `fused` flags agree with the
/// aggregate counter.
#[test]
fn fused_rounds_are_counted_and_profiled() {
    let (_, report) = kernel::run(world(), &RunConfig::unison(2).with_per_round_metrics()).unwrap();
    assert!(
        report.fused_rounds > 0,
        "fusion never engaged on a low-load workload (threshold too small?)"
    );
    assert_eq!(
        report.fused_rounds, report.rounds,
        "every round's load (~65 events) is far below the default threshold; \
         cross-LP traffic alone must not end a fused span"
    );
    let profile = report.rounds_profile.as_ref().expect("per-round profile");
    let flagged = profile.iter().filter(|r| r.fused).count() as u64;
    assert_eq!(
        flagged, report.fused_rounds,
        "profile flags disagree with counter"
    );
    // Fusion off: the counter stays at zero and no round is flagged.
    let (_, off) = kernel::run(
        world(),
        &RunConfig::unison(2)
            .without_fusion()
            .with_per_round_metrics(),
    )
    .unwrap();
    assert_eq!(off.fused_rounds, 0);
    assert!(off
        .rounds_profile
        .as_ref()
        .expect("per-round profile")
        .iter()
        .all(|r| !r.fused));
}

/// Tokens that put [`ring`]'s round loads around [`FUSION_THRESHOLD`]
/// (about 2.06 events a token and round: 498–530 events a round), so
/// rounds on both sides of it occur.
const AT_THRESHOLD: u64 = FUSION_THRESHOLD / 2 - 8;

/// The fallback contract is load only (DESIGN.md §4.9): a round fuses
/// exactly when the round before it carried at most [`FUSION_THRESHOLD`]
/// events — cross-LP receives inside a fused round do not end the span, a
/// round above the threshold does. Pinned via the per-round profile of a
/// ring sized so that both sides occur.
#[test]
fn fused_span_survives_cross_lp_receives_and_ends_on_load() {
    const THREADS: usize = 2;
    let cfg = RunConfig::unison(THREADS).with_per_round_metrics();
    let (_, report) = kernel::run(ring(AT_THRESHOLD), &cfg).unwrap();
    // The kernel's oversubscription clause: fewer cores than workers lifts
    // the threshold, and every round fuses.
    let lifted = std::thread::available_parallelism().is_ok_and(|c| THREADS > c.get());
    let profile = report.rounds_profile.as_ref().expect("per-round profile");
    let sum = |v: &[u32]| v.iter().map(|&x| u64::from(x)).sum::<u64>();
    let (mut survived, mut ended) = (0u64, 0u64);
    for pair in profile.windows(2) {
        let recv = sum(&pair[0].lp_recv);
        let load = sum(&pair[0].lp_events) + recv;
        assert_eq!(
            pair[1].fused,
            lifted || load <= FUSION_THRESHOLD,
            "round after window {:?}..{:?} (load {load}, {recv} cross-LP receives, fused {})",
            pair[0].window_start,
            pair[0].window_end,
            pair[0].fused
        );
        survived += u64::from(pair[0].fused && pair[1].fused && recv > 0);
        ended += u64::from(pair[0].fused && !pair[1].fused);
    }
    assert!(
        survived > 0,
        "vacuous: no fused round with cross-LP receives was followed by a fused round"
    );
    assert!(
        lifted || ended > 0,
        "vacuous: no fused span ended on a round above the threshold"
    );
}

/// The claim audit across fused/parallel transitions (DESIGN.md §4.1): a
/// fused span is one audit generation in which only the control thread
/// claims, and the first parallel round after it opens a fresh generation
/// before B0 releases the workers — without that bump a worker's first
/// claim meets the control thread's stamp from the span and panics "double
/// claim". On the ring sized around the threshold, as above, the rounds
/// alternate; at `Summary`, where no round reads a per-LP clock and the
/// re-order runs on event counts alone. The digest is the one-thread
/// reference's.
#[test]
fn claim_audit_holds_across_fused_and_parallel_rounds() {
    const THREADS: usize = 2;
    let lifted = std::thread::available_parallelism().is_ok_and(|c| THREADS > c.get());
    let digest = |cfg: &RunConfig| {
        let (w, report) = kernel::run(ring(AT_THRESHOLD), cfg).expect("audited run");
        let sums: Vec<(u64, u64)> = w.nodes().map(|n| (n.checksum, n.seen)).collect();
        ((sums, report.events), report)
    };
    let (reference, _) = digest(&RunConfig::unison(1));
    let (got, report) = digest(&RunConfig::unison(THREADS));
    assert!(report.fused_rounds > 0, "no fused round");
    assert!(
        lifted || report.fused_rounds < report.rounds,
        "no parallel round"
    );
    assert_eq!(reference, got, "digest");
}

/// A node that sends to a non-neighbour LP — one it shares no link with;
/// any pair of LPs has a lane — and produces the process phase's one side
/// output: node-scheduled global events.
struct Sider {
    id: NodeId,
    next: NodeId,
    far: NodeId,
    checksum: u64,
    seen: u64,
    far_sent: u64,
    /// `(time a zero-delay global was requested, time it ran)`.
    globals: Vec<(u64, u64)>,
}

impl SimNode for Sider {
    type Payload = Token;

    fn handle(&mut self, mut token: Token, ctx: &mut dyn SimCtx<Self>) {
        self.seen += 1;
        self.checksum = fold(self.checksum, ctx.now(), &token);
        let pick = token.rng.next_below(4);
        if pick == 0 {
            self.far_sent += 1;
            ctx.schedule(SIDE_HOP, self.far, token);
            return;
        }
        if pick == 1 {
            let (id, at) = (self.id, ctx.now().as_nanos());
            ctx.schedule_global(
                Time::ZERO,
                Box::new(move |wa| {
                    let ran = wa.now().as_nanos();
                    wa.node_mut(id).globals.push((at, ran));
                }),
            );
        }
        ctx.schedule(SIDE_HOP, self.next, token);
    }
}

/// Every hop of [`side_world`], linked or not, takes this long.
const SIDE_HOP: Time = Time(3_000);
const SIDE_STOP: Time = Time(600_000);
const SIDE_TOKENS: u64 = 32;

/// A ring of equal links (one LP per node); each node's `far` is the node
/// opposite it, with which it shares no link.
fn side_world() -> unison_core::World<Sider> {
    let mut b = WorldBuilder::new();
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    for i in 0..N {
        b.add_node(Sider {
            id: ids[i],
            next: ids[(i + 1) % N],
            far: ids[(i + N / 2) % N],
            checksum: 0,
            seen: 0,
            far_sent: 0,
            globals: Vec::new(),
        });
    }
    for i in 0..N {
        b.add_link(ids[i], ids[(i + 1) % N], SIDE_HOP);
    }
    let mut seed_rng = Rng::new(0x51DE_0077);
    for t in 0..SIDE_TOKENS {
        b.schedule(
            Time::from_nanos(t % 5),
            ids[(t as usize) % N],
            Token {
                id: t,
                rng: seed_rng.fork(t),
            },
        );
    }
    b.stop_at(SIDE_STOP);
    b.build()
}

/// An LP sends to a non-neighbour LP; the event arrives in the same round's
/// receive phase at every thread count, so it is in its destination's FEL
/// when the next window is computed. Phase 2 walks the LPs only when a
/// process phase raised the side-output flag, so the flag has to reach it
/// in the same round too: a zero-delay node-scheduled global must run at
/// the end of the very window that scheduled it. One digest for 1/2/3/4
/// threads with fusion on and off.
#[test]
fn far_sends_and_side_output_land_in_the_same_round() {
    let mut reference = None;
    for threads in [1usize, 2, 3, 4] {
        for fusion in [true, false] {
            let cfg = RunConfig {
                fusion,
                ..RunConfig::unison(threads).with_per_round_metrics()
            };
            let (w, report) = kernel::run(side_world(), &cfg).unwrap();
            let what = format!("threads={threads} fusion={fusion}");
            assert_eq!(report.lp_count as usize, N, "{what}: one LP per node");
            // No token is ever lost or late: each hops every `SIDE_HOP`.
            assert_eq!(
                report.events,
                SIDE_TOKENS * (SIDE_STOP.0 / SIDE_HOP.0),
                "{what}: an event to a non-neighbour LP was dropped"
            );
            assert!(w.nodes().map(|n| n.far_sent).sum::<u64>() > 0, "{what}");
            let profile = report.rounds_profile.as_ref().expect("per-round profile");
            let mut globals = 0;
            for (at, ran) in w.nodes().flat_map(|n| n.globals.iter().copied()) {
                globals += 1;
                let round = profile
                    .iter()
                    .find(|r| r.window_start.0 <= at && at < r.window_end.0)
                    .unwrap_or_else(|| panic!("{what}: no window holds {at}"));
                assert_eq!(
                    ran, round.window_end.0,
                    "{what}: a global requested at {at} must run at the end of its own window"
                );
            }
            assert!(globals > 0, "{what}: no global event ran");
            let digest: Vec<_> = w
                .nodes()
                .map(|n| (n.checksum, n.seen, n.far_sent, n.globals.clone()))
                .collect();
            match &reference {
                None => reference = Some(digest),
                Some(r) => assert_eq!(r, &digest, "digest mismatch: {what}"),
            }
        }
    }
}

/// Ring size of [`skewed_world`]; its tokens never leave `SKEW_BUSY`
/// adjacent nodes.
const SKEW_N: usize = 16;
const SKEW_BUSY: usize = 4;

/// A ring of equal links (one LP per node) whose whole load sits in one
/// home at any worker count up to four: the tokens bounce along the path
/// of the `SKEW_BUSY` nodes from `first` and every other LP stays idle for
/// the whole run, so all cross-LP traffic travels in one column of
/// outboxes, and in each unfused round the workers of the other homes find
/// nothing at home and claim out of the busy one — their sends leave from
/// rows that are not the LPs' home's. Every event at node `first` holds
/// its thread for `hold`.
fn skewed_world(first: usize, hold: std::time::Duration) -> unison_core::World<Router> {
    let mut b = WorldBuilder::new();
    let ids: Vec<NodeId> = (0..SKEW_N).map(|i| NodeId(i as u32)).collect();
    let busy = first..first + SKEW_BUSY;
    for i in 0..SKEW_N {
        let mut neighbors = Vec::new();
        if !busy.contains(&i) || i > busy.start {
            neighbors.push((ids[(i + SKEW_N - 1) % SKEW_N], SIDE_HOP));
        }
        if !busy.contains(&i) || i + 1 < busy.end {
            neighbors.push((ids[(i + 1) % SKEW_N], SIDE_HOP));
        }
        b.add_node(Router {
            neighbors,
            checksum: 0,
            seen: 0,
            hold: if i == first { hold } else { Default::default() },
        });
    }
    for i in 0..SKEW_N {
        b.add_link(ids[i], ids[(i + 1) % SKEW_N], SIDE_HOP);
    }
    let mut seed_rng = Rng::new(0x5EED_0017);
    for t in 0..SIDE_TOKENS {
        b.schedule(
            Time::from_nanos(t % 5),
            ids[first + (t as usize) % SKEW_BUSY],
            Token {
                id: t,
                rng: seed_rng.fork(t),
            },
        );
    }
    b.stop_at(SIDE_STOP);
    b.build()
}

/// Which worker executes an LP, and so which row of outboxes its sends
/// leave from, is invisible in the results. Two skewed worlds — the load in
/// the first home, where one column carries everything and the other
/// homes' workers steal; and the load in the last home with that home's
/// first LP holding whoever claims it (its owner, longest job first), so
/// every other busy LP is up for theft — read the same at 1, 2, 3 and 4
/// threads with fusion on and off — and every LP is still claimed exactly
/// once per round.
#[test]
fn a_load_that_sits_in_one_home_is_stolen_without_a_trace() {
    let held = std::time::Duration::from_micros(20);
    for (wname, first, hold) in [
        ("first home", 0, Default::default()),
        ("last home, owner held", SKEW_N - SKEW_BUSY, held),
    ] {
        let run = |cfg: &RunConfig| {
            let (w, report) = kernel::run(skewed_world(first, hold), cfg).unwrap();
            assert_eq!(report.lp_count as usize, SKEW_N, "one LP per node");
            assert_eq!(
                report.sched.claims,
                report.rounds * u64::from(report.lp_count),
                "{wname}, {}: not one claim per LP and round",
                report.kernel
            );
            let sums: Vec<(u64, u64)> = w.nodes().map(|n| (n.checksum, n.seen)).collect();
            let idle = sums
                .iter()
                .enumerate()
                .filter(|(i, _)| !(first..first + SKEW_BUSY).contains(i));
            assert!(idle.into_iter().all(|(_, &(_, seen))| seen == 0));
            (sums, report.events)
        };
        let reference = run(&RunConfig::unison(1));
        assert_eq!(reference.1, SIDE_TOKENS * (SIDE_STOP.0 / SIDE_HOP.0));
        for fusion in [true, false] {
            for threads in [1usize, 2, 3, 4] {
                let got = run(&RunConfig {
                    fusion,
                    ..RunConfig::unison(threads)
                });
                let what = format!("{wname} fusion={fusion} threads={threads}");
                assert_eq!(reference, got, "digest mismatch: {what}");
            }
        }
    }
}
