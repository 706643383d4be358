//! Observer-effect tests (DESIGN.md §4.3): telemetry must be *provably
//! non-perturbing*. A run with recording enabled must produce a result
//! digest (order-sensitive per-node checksums + event totals + end time)
//! bit-identical to the same run with recording disabled — at 1, 2, and 4
//! worker threads, and with round fusion off at 2 and 4. The recorder writes only
//! thread-local buffers and takes no locks, so this holds by construction;
//! these tests pin it against regressions.

use unison_core::sched::auto_period;
use unison_core::telemetry::{SpanKind, SPAN_CAPACITY};
use unison_core::{
    kernel, KernelKind, MetricsLevel, NodeId, PartitionMode, Rng, RunConfig, RunReport, SimCtx,
    SimNode, Time, WorldBuilder,
};

/// Same token-routing model as the cross-kernel tests: per-token RNG makes
/// the event *set* execution-order independent, per-node checksums make
/// the digest order-sensitive.
#[derive(Debug)]
struct Token {
    id: u64,
    rng: Rng,
    hops: u64,
}

struct Router {
    neighbors: Vec<(NodeId, Time)>,
    checksum: u64,
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

const N: usize = 12;
const DELAY: Time = Time(3_000);
const TOKENS: u64 = 32;
const STOP: Time = Time(900_000);

fn ring_world() -> unison_core::World<Router> {
    ring_world_until(STOP)
}

fn ring_world_until(stop: Time) -> unison_core::World<Router> {
    let mut b = WorldBuilder::new();
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    for i in 0..N {
        let prev = ids[(i + N - 1) % N];
        let next = ids[(i + 1) % N];
        b.add_node(Router {
            neighbors: vec![(prev, DELAY), (next, DELAY)],
            checksum: 0,
            seen: 0,
        });
    }
    for i in 0..N {
        b.add_link(ids[i], ids[(i + 1) % N], DELAY);
    }
    let mut seed_rng = Rng::new(0xDEAD_BEEF);
    for t in 0..TOKENS {
        b.schedule(
            Time::from_nanos(t % 7),
            ids[(t as usize) % N],
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

/// The comparison digest: bit-identical runs agree on every component.
type Digest = (Vec<(u64, u64)>, u64, u64, Time);

fn run_until(stop: Time, cfg: &RunConfig) -> (Digest, RunReport) {
    let (world, report) = kernel::run(ring_world_until(stop), cfg).expect("run");
    let digest = (
        world.nodes().map(|n| (n.checksum, n.seen)).collect(),
        report.events,
        report.rounds,
        report.end_time,
    );
    (digest, report)
}

fn run_digest(cfg: &RunConfig) -> (Digest, Option<usize>) {
    let (digest, report) = run_until(STOP, cfg);
    (digest, report.telemetry.as_ref().map(|t| t.span_count()))
}

fn unison_cfg(threads: usize, fusion: bool, metrics: MetricsLevel) -> RunConfig {
    RunConfig {
        watchdog: Default::default(),
        kernel: KernelKind::Unison { threads },
        partition: PartitionMode::Auto,
        fusion,
        metrics,
        fel: Default::default(),
    }
}

/// Every round of this ring fuses with fusion on, so the fusion-off cells
/// are the ones whose workers cross barriers and whose phase 4 re-orders.
#[test]
fn telemetry_does_not_perturb_unison_results() {
    for (threads, fusion) in [(1usize, true), (2, true), (4, true), (2, false), (4, false)] {
        let what = format!("{threads} threads, fusion {fusion}");
        let (off, rep_off) = run_until(STOP, &unison_cfg(threads, fusion, MetricsLevel::Summary));
        let (on, rep_on) = run_until(STOP, &unison_cfg(threads, fusion, MetricsLevel::Spans));
        assert_eq!(off, on, "telemetry changed the digest at {what}");
        assert!(
            rep_off.telemetry.is_none(),
            "disabled run must not attach telemetry"
        );
        let spans = rep_on.telemetry.as_ref().map(|t| t.span_count());
        assert!(spans.expect("enabled run attaches telemetry") > 0, "{what}");
        if !fusion {
            assert_eq!(rep_off.fused_rounds + rep_on.fused_rounds, 0, "{what}");
        }
    }
}

#[test]
fn telemetry_does_not_perturb_other_kernels() {
    let manual: Vec<u32> = (0..N as u32).map(|i| i / 3).collect();
    let mk = |kernel: KernelKind, metrics: MetricsLevel| RunConfig {
        watchdog: Default::default(),
        kernel,
        partition: PartitionMode::Auto,
        fusion: true,
        metrics,
        fel: Default::default(),
    };
    let compat = KernelKind::Sequential { compat_keys: true };
    let (off, _) = run_digest(&mk(compat.clone(), MetricsLevel::Summary));
    let (on, spans) = run_digest(&mk(compat, MetricsLevel::Spans));
    assert_eq!(off, on, "telemetry changed the sequential(compat) digest");
    assert!(spans.expect("telemetry attached") > 0, "no compat spans");
    // LP-pinned kernels use a manual partition (LP identity is part of
    // their event order); totals still must not move.
    for cfg_of in [RunConfig::barrier, RunConfig::nullmsg] {
        let cfg_off = cfg_of(manual.clone());
        let cfg_on = cfg_of(manual.clone()).with_telemetry();
        let (_, rep_off) = kernel::run(ring_world(), &cfg_off).expect("run");
        let (_, rep_on) = kernel::run(ring_world(), &cfg_on).expect("run");
        assert_eq!(rep_off.events, rep_on.events);
        assert!(rep_off.telemetry.is_none());
        let tel = rep_on.telemetry.expect("telemetry attached");
        assert!(tel.span_count() > 0);
    }
}

#[test]
fn enabled_unison_run_records_every_phase_and_decisions() {
    // Fusion off: with it on every round of this ring fuses, and a fused
    // round neither crosses a barrier nor re-sorts.
    let cfg = unison_cfg(2, false, MetricsLevel::Spans);
    let (_, report) = kernel::run(ring_world(), &cfg).expect("run");
    let tel = report.telemetry.expect("telemetry attached");
    // One sink per worker; the control thread doubles as worker 0.
    assert_eq!(tel.workers.len() as u32, report.threads);
    for kind in [
        SpanKind::Process,
        SpanKind::Global,
        SpanKind::Receive,
        SpanKind::WindowUpdate,
        SpanKind::BarrierWait,
        SpanKind::MailboxFlush,
        SpanKind::LpTask,
    ] {
        assert!(
            tel.workers
                .iter()
                .flat_map(|w| &w.spans)
                .any(|s| s.kind == kind),
            "no {kind:?} span recorded"
        );
    }
    // The ring re-sorts every `ceil(log2(12))` = 4 parallel rounds; each
    // decision orders every LP.
    assert!(!tel.sched.is_empty(), "no scheduler decisions logged");
    assert!(tel.sched.iter().all(|d| d.order.len() == N));
    // Cross-LP tokens produce mailbox traffic with real sender attribution.
    let traffic = tel.traffic();
    assert!(!traffic.is_empty(), "no traffic recorded");
    assert!(traffic.iter().all(|&(s, d, n)| s != d && n > 0));
}

/// The LJF schedule is the parallel rounds' business (DESIGN.md §4.5): its
/// period counts rounds that are unfused and have more than one worker,
/// and only such a round's phase 4 re-sorts. One thread (fused or not) and
/// an all-fused two-thread run log no decision at all; with fusion off two threads log one per completed
/// period ([`auto_period`] of the LP count), except in the round that
/// ends the run.
#[test]
fn only_parallel_rounds_are_scheduled() {
    let period = u64::from(auto_period(N));
    let run = |threads: usize, fusion: bool| {
        let cfg = unison_cfg(threads, fusion, MetricsLevel::Spans);
        let (_, report) = kernel::run(ring_world(), &cfg).expect("run");
        assert_eq!(report.lp_count as usize, N, "one LP per node");
        let decisions = report.telemetry.as_ref().expect("telemetry").sched.len() as u64;
        (report, decisions)
    };
    for (what, fusion) in [("1 thread", true), ("1 thread, fusion off", false)] {
        let (report, decisions) = run(1, fusion);
        assert!(report.rounds > 2 * period, "{what}: too short to re-sort");
        assert_eq!(decisions, 0, "{what}: a round with one claimant re-sorted");
    }
    let (fused, decisions) = run(2, true);
    assert_eq!(fused.fused_rounds, fused.rounds, "the ring's load is low");
    assert_eq!(decisions, 0, "an all-fused run re-sorted");
    let (parallel, decisions) = run(2, false);
    assert_eq!(parallel.fused_rounds, 0);
    assert_eq!(decisions, (parallel.rounds - 1) / period);
    assert!(decisions > 0);
}

/// Event-count estimates make the schedule a function of the simulation
/// alone (DESIGN.md §4.5): two runs of one configuration log the same
/// decisions — round, order and estimates — at 2 and at 3 threads. With
/// measured time as the estimate the orders differed from run to run.
#[test]
fn the_schedule_is_a_function_of_the_simulation() {
    for threads in [2, 3] {
        let decisions = || {
            let cfg = unison_cfg(threads, false, MetricsLevel::Spans);
            let (_, report) = kernel::run(ring_world(), &cfg).expect("run");
            let tel = report.telemetry.expect("telemetry attached");
            let log = tel.sched.into_iter();
            log.map(|d| (d.round, d.order, d.estimates))
                .collect::<Vec<_>>()
        };
        let first = decisions();
        assert!(
            first.iter().any(|(_, order, _)| !order.is_sorted()),
            "vacuous at {threads} threads: no decision put a heavy LP first"
        );
        assert_eq!(
            first,
            decisions(),
            "two runs scheduled differently at {threads} threads"
        );
    }
}

#[test]
fn span_capacity_bounds_memory_and_counts_drops() {
    // The control thread records at least its four phase laps a round, so
    // 20 000 rounds overflow its buffer whatever fuses.
    const ROUNDS: u64 = 20_000;
    const { assert!(4 * ROUNDS as usize > SPAN_CAPACITY) };
    let long = Time(DELAY.0 * ROUNDS);
    let (off, _) = run_until(long, &unison_cfg(2, true, MetricsLevel::Summary));
    let (on, report) = run_until(long, &unison_cfg(2, true, MetricsLevel::Spans));
    let tel = report.telemetry.expect("telemetry attached");
    assert_eq!(tel.workers[0].spans.len(), SPAN_CAPACITY);
    assert!(tel.workers.iter().all(|w| w.spans.len() <= SPAN_CAPACITY));
    assert!(tel.workers[0].truncated > 0, "the overflow must be counted");
    assert_eq!(off, on, "dropping spans changed the digest");
}
