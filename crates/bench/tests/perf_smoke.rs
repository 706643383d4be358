//! Perf-smoke tripwires for the hot-path event engine (CI `perf-smoke`
//! job; DESIGN.md §4.4).
//!
//! These are `#[ignore]`d by default — they measure wall-clock time, so
//! running them under `cargo test` on a loaded laptop would be noise. CI
//! runs them explicitly, serialized so the wall-clock arms never contend
//! with each other:
//!
//! ```sh
//! cargo test -p unison-bench --release --test perf_smoke -- --ignored \
//!     --test-threads=1
//! ```
//!
//! Five claims are guarded, with deliberately loose thresholds (these
//! are tripwires against large regressions, not micro-benchmarks — the
//! committed `BENCH_kernels.json` baseline holds the precise numbers):
//!
//! 1. on the 2-thread Unison kernel the ladder FEL at least ties the
//!    binary-heap reference on the fat-tree incast workload (interleaved
//!    medians, ≥ 0.92x — measured 1.05–1.20x, see the test);
//! 2. on the sequential kernel the ladder keeps a real lead over the heap
//!    (≥ 1.05x; measured 1.2–1.45x);
//! 3. the unison kernel's cross-LP channels serve > 99% of pushes from
//!    retained capacity — i.e. after each channel has grown to its burst
//!    size, sends do not allocate (measured 99.9%, see the test);
//! 4. on the large tier (fat-tree k = 8, ≥ 10⁷ events) the barrier-free
//!    asynchronous conservative kernel at 4 threads holds parity or
//!    better against the Unison kernel at 4 threads (contract ≥ 1.0x,
//!    recorded in `BENCH_kernels.json`; enforcement floor 0.85 absorbs
//!    shared-runner noise — removing the round barrier is the kernel's
//!    entire reason to exist, DESIGN.md §4.8);
//! 5. on the same large tier the round-based Unison kernel at 4 threads
//!    holds parity or better against itself at 1 thread (contract ≥ 1.0x,
//!    the `unison_4t_over_1t` headline in `BENCH_kernels.json`; same 0.85
//!    enforcement floor for timesliced 1-CPU runners) — the ratio round
//!    fusion and the hierarchical tree barrier exist to lift (DESIGN.md
//!    §4.9, ROADMAP item 1).

use unison_bench::harness::{fat_tree_scenario, Scale, Scenario};
use unison_core::{DataRate, FelImpl, KernelKind, PartitionMode, Time};

/// The paper's §3.2 profiling workload at quick scale: a k=4 fat-tree with
/// a 50% incast share — mailbox- and FEL-heavy by construction.
fn incast() -> Scenario {
    fat_tree_scenario(Scale::Quick, 0.5, DataRate::gbps(100), Time::from_micros(3))
}

/// One wall-clock sample: events per second under the given FEL backend on
/// the 2-thread Unison kernel.
fn sample(scenario: &Scenario, fel: FelImpl) -> f64 {
    scenario
        .run_real_with_fel(KernelKind::Unison { threads: 2 }, PartitionMode::Auto, fel)
        .kernel
        .events_per_sec()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Tripwire 1: the ladder queue must at least tie the heap on the incast
/// workload, whose per-LP FELs are small. Samples are interleaved so
/// machine drift hits both arms equally; medians defeat one-off outliers.
///
/// Measured status (five invocations of this test, 2 cores): 1.05, 1.11,
/// 1.13, 1.19, 1.20 — the ladder builds no rungs for a list of at most
/// `LADDER_THRES` events (DESIGN.md §4.4). When it built them for every
/// per-LP list it *lost* here (0.78, 0.79, 0.80, 0.80, 0.81), which the
/// repository benchmark showed end to end (`kernel.unison1_over_seq` 6.48
/// on `phold_torus`). The floor is a tie less the half-range of the five
/// (0.08): a median ratio under 0.92 is a loss to the heap that run-to-run
/// spread does not explain.
#[test]
#[ignore = "wall-clock tripwire; run explicitly in the CI perf-smoke job"]
fn ladder_not_slower_than_heap_on_incast() {
    let scenario = incast();
    // Warm-up (page cache, allocator, frequency scaling).
    sample(&scenario, FelImpl::Ladder);
    sample(&scenario, FelImpl::BinaryHeap);
    let mut ladder = Vec::new();
    let mut heap = Vec::new();
    for _ in 0..5 {
        ladder.push(sample(&scenario, FelImpl::Ladder));
        heap.push(sample(&scenario, FelImpl::BinaryHeap));
    }
    let (l, h) = (median(&mut ladder), median(&mut heap));
    let ratio = l / h;
    eprintln!(
        "perf-smoke: incast events/sec — ladder {l:.0}, heap {h:.0} \
         (ratio {ratio:.3})"
    );
    assert!(
        ratio >= 0.92,
        "ladder FEL regressed below the binary-heap reference on the \
         fat-tree incast workload: {l:.0} vs {h:.0} events/sec \
         (ratio {ratio:.3}, tripwire 0.92)"
    );
}

/// Tripwire 1b: on the sequential kernel — one global FEL holding the
/// whole simulation, the ladder's best case — the ladder must keep a real
/// lead over the heap. Every recorded baseline run measures 1.2–1.45x;
/// the 1.05 threshold trips on a genuine loss of the win, not on noise.
#[test]
#[ignore = "wall-clock tripwire; run explicitly in the CI perf-smoke job"]
fn ladder_beats_heap_on_sequential() {
    let scenario = incast();
    let sample_seq = |fel: FelImpl| {
        scenario
            .run_real_with_fel(
                KernelKind::Sequential { compat_keys: true },
                PartitionMode::Auto,
                fel,
            )
            .kernel
            .events_per_sec()
    };
    sample_seq(FelImpl::Ladder);
    sample_seq(FelImpl::BinaryHeap);
    let mut ladder = Vec::new();
    let mut heap = Vec::new();
    for _ in 0..5 {
        ladder.push(sample_seq(FelImpl::Ladder));
        heap.push(sample_seq(FelImpl::BinaryHeap));
    }
    let (l, h) = (median(&mut ladder), median(&mut heap));
    let ratio = l / h;
    eprintln!(
        "perf-smoke: sequential events/sec — ladder {l:.0}, heap {h:.0} \
         (ratio {ratio:.3})"
    );
    assert!(
        ratio >= 1.05,
        "ladder FEL lost its sequential-kernel lead over the binary heap: \
         {l:.0} vs {h:.0} events/sec (ratio {ratio:.3}, tripwire 1.05)"
    );
}

/// Tripwire 2: at steady state a cross-LP push must be served from its
/// channel's retained capacity. A miss is a push that found the buffer
/// full and grew it, which happens only while a channel grows to its
/// largest burst: measured on this workload 445 misses in 496 126 pushes
/// (99.9 %; the count is deterministic). A channel that lost its buffer
/// on every drain would grow again every round and sit near 50 %, so the
/// floor of 99 % is far from both.
#[test]
#[ignore = "wall-clock tripwire; run explicitly in the CI perf-smoke job"]
fn pool_hit_rate_above_90_percent_steady_state() {
    let run = incast().run_real_with_fel(
        KernelKind::Unison { threads: 2 },
        PartitionMode::Auto,
        FelImpl::Ladder,
    );
    let engine = run.kernel.engine;
    let rate = engine.pool_hit_rate();
    eprintln!(
        "perf-smoke: pool hits {} misses {} (hit rate {:.1}%)",
        engine.pool_hits,
        engine.pool_misses,
        rate * 100.0
    );
    assert!(
        engine.pool_hits + engine.pool_misses > 0,
        "incast run produced no cross-LP traffic — workload is broken"
    );
    assert!(
        rate > 0.99,
        "channel hit rate fell to {:.1}% (tripwire 99%) — drained \
         channels are not keeping their capacity",
        rate * 100.0
    );
}

/// Tripwire 3: the async-conservative kernel's headline. On the large
/// tier — big enough that per-event work dominates thread start-up — the
/// barrier-free kernel must not lose to the round-based Unison kernel at
/// the same thread count. Five interleaved sample pairs per arm, with the
/// within-pair order alternating so a monotone machine drift (cache and
/// allocator warm-up, frequency scaling) cannot systematically favor the
/// arm that runs second.
///
/// The contract is parity or better (≥ 1.0x medians; the committed
/// `async_over_unison_4t` in `BENCH_kernels.json` records the measured
/// ratio). The *enforcement* threshold is 0.85: on
/// timesliced single-CPU CI runners the per-pair ratio of two kernels at
/// true parity was measured to swing ±15% with neighbor load, so a 1.0
/// assertion would trip on scheduler luck, not regressions. A median
/// below 0.85 means the barrier-free sweep machinery genuinely costs
/// more than the barrier it replaced.
#[test]
#[ignore = "wall-clock tripwire; run explicitly in the CI perf-smoke job"]
fn async_cons_not_slower_than_unison_on_large_tier() {
    let scenario = fat_tree_scenario(Scale::Large, 0.5, DataRate::gbps(100), Time::from_micros(3));
    let threads = 4usize;
    let sample_kernel = |kernel: KernelKind| {
        let run = scenario.run_real_with_fel(kernel, PartitionMode::Auto, FelImpl::Ladder);
        (run.kernel.events, run.kernel.events_per_sec())
    };
    // Warm-up (page cache, allocator, frequency scaling).
    sample_kernel(KernelKind::AsyncCons { threads });
    let mut async_rates = Vec::new();
    let mut unison_rates = Vec::new();
    let mut events = u64::MAX;
    for pair in 0..5 {
        let (first, second) = if pair % 2 == 0 {
            (
                KernelKind::AsyncCons { threads },
                KernelKind::Unison { threads },
            )
        } else {
            (
                KernelKind::Unison { threads },
                KernelKind::AsyncCons { threads },
            )
        };
        for kernel in [first, second] {
            let is_async = matches!(kernel, KernelKind::AsyncCons { .. });
            let (n, r) = sample_kernel(kernel);
            events = events.min(n);
            if is_async {
                async_rates.push(r);
            } else {
                unison_rates.push(r);
            }
        }
    }
    assert!(
        events >= 10_000_000,
        "the large tier must clear 10^7 events per run, got {events}"
    );
    let (a, u) = (median(&mut async_rates), median(&mut unison_rates));
    let ratio = a / u;
    eprintln!(
        "perf-smoke: large-tier events/sec — async_cons {a:.0}, unison \
         {u:.0} (ratio {ratio:.3}, {events} events)"
    );
    assert!(
        ratio >= 0.85,
        "the barrier-free kernel lost to the round-based kernel at \
         {threads} threads on the large tier: {a:.0} vs {u:.0} events/sec \
         (ratio {ratio:.3}, tripwire 0.85 — contract is parity, see \
         BENCH_kernels.json async_over_unison_4t)"
    );
}

/// Tripwire 4: the round-based kernel's own thread scaling on the large
/// tier — the `unison_4t_over_1t` headline. Round fusion (DESIGN.md §4.9)
/// removes barrier crossings from sparse rounds and the hierarchical tree
/// barrier cheapens the rest, so 4 threads must not run *slower* than 1
/// thread on a ≥ 10⁷-event workload (the kernels-v4 baseline measured
/// 0.96 — ROADMAP item 1 verbatim).
///
/// Same measurement discipline as tripwire 3: interleaved pairs with
/// alternating within-pair order, medians per arm. The contract is
/// parity or better (≥ 1.0x); the enforcement threshold is 0.85 because
/// on timesliced single-CPU runners four workers sharing one core pay
/// a context-switch tax no barrier topology can remove, and a 1.0
/// assertion there would trip on the runner, not the kernel.
#[test]
#[ignore = "wall-clock tripwire; run explicitly in the CI perf-smoke job"]
fn unison_4t_not_slower_than_1t_on_large_tier() {
    let scenario = fat_tree_scenario(Scale::Large, 0.5, DataRate::gbps(100), Time::from_micros(3));
    let sample_threads = |threads: usize| {
        let run = scenario.run_real_with_fel(
            KernelKind::Unison { threads },
            PartitionMode::Auto,
            FelImpl::Ladder,
        );
        (run.kernel.events, run.kernel.events_per_sec())
    };
    // Warm-up (page cache, allocator, frequency scaling).
    sample_threads(4);
    let mut wide = Vec::new();
    let mut narrow = Vec::new();
    let mut events = u64::MAX;
    for pair in 0..5 {
        let order: [usize; 2] = if pair % 2 == 0 { [4, 1] } else { [1, 4] };
        for threads in order {
            let (n, r) = sample_threads(threads);
            events = events.min(n);
            if threads == 4 {
                wide.push(r);
            } else {
                narrow.push(r);
            }
        }
    }
    assert!(
        events >= 10_000_000,
        "the large tier must clear 10^7 events per run, got {events}"
    );
    let (w, n) = (median(&mut wide), median(&mut narrow));
    let ratio = w / n;
    eprintln!(
        "perf-smoke: large-tier events/sec — unison 4t {w:.0}, unison 1t \
         {n:.0} (ratio {ratio:.3}, {events} events)"
    );
    assert!(
        ratio >= 0.85,
        "the round-based kernel at 4 threads lost to itself at 1 thread \
         on the large tier: {w:.0} vs {n:.0} events/sec (ratio {ratio:.3}, \
         tripwire 0.85 — contract is parity, see BENCH_kernels.json \
         unison_4t_over_1t and DESIGN.md §4.9)"
    );
}
