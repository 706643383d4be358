//! Load-adaptive scheduling (§4.3).
//!
//! Each round, LPs must be distributed over the worker threads so that the
//! threads finish "in unison". Minimizing the makespan of n jobs on T
//! identical machines is NP-hard (multiway number partitioning); Unison uses
//! the *longest-job-first* (LPT) approximation: sort LPs by estimated
//! processing time, and let idle threads always grab the longest remaining
//! LP. The estimate comes from one of the [`SchedMetric`] heuristics; the
//! sort runs only every *scheduling period* rounds (default
//! `ceil(log2(n))`), exploiting the temporal locality of network loads.
//!
//! Workers claim LPs out of the published order through one shared
//! [`LjfCursor`] per scheduling group (DESIGN.md §4.5): every position is
//! handed out exactly once per round, and determinism does not depend on
//! which worker gets it, because all cross-LP sends commit through the
//! channel + tie-break-key path (proven by the digest tests in
//! `crates/core/tests/sched_matrix.rs`, not asserted).

use crate::sync_shim::{AtomicU64, AtomicUsize, CachePadded, Ordering};

/// Heuristic used to estimate the next-round processing time of an LP.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedMetric {
    /// Use the measured processing time of the previous round (the paper's
    /// default: constant-time, accurate under temporal locality).
    #[default]
    ByLastRoundTime,
    /// Count events pending in the next window (linear in FEL size, usable
    /// when no high-resolution clock is available).
    ByPendingEvents,
    /// No load estimation: keep LP order fixed (what a static assignment
    /// degenerates to; the paper's "None" ablation).
    None,
}

impl SchedMetric {
    /// Short display name, used in reports and the telemetry
    /// scheduler-decision log.
    pub fn name(self) -> &'static str {
        match self {
            SchedMetric::ByLastRoundTime => "by-last-round-time",
            SchedMetric::ByPendingEvents => "by-pending-events",
            SchedMetric::None => "none",
        }
    }
}

// Benchmark compatibility: `benchmark/src/micro.rs` (frozen; a PR may not
// edit `benchmark/`) times the claim loop as
// `SchedPolicyKind::default().build(2)`, `.publish(&order, &[])`,
// `.begin_round()`, `.claim(0)`. `SchedPolicyKind`, `build`'s worker count,
// `publish`'s second slice and `claim`'s slot argument exist only to keep
// that call shape compiling; the cursor ignores all three and the kernel
// passes `&[]` / `0`.
/// The one way workers claim LPs out of the published order.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedPolicyKind {
    /// The shared claim cursor ([`LjfCursor`]).
    #[default]
    LjfCursor,
}

impl SchedPolicyKind {
    /// Builds the claim cursor.
    pub fn build(self, _workers: usize) -> LjfCursor {
        LjfCursor::new()
    }
}

/// The claim cursor: one shared atomic position counter per scheduling
/// group.
///
/// Contract (DESIGN.md §4.5): `publish` and `begin_round` are called only
/// from the control thread's exclusive window between rounds (all workers
/// parked at a barrier — the barrier provides the happens-before edges);
/// `claim` is called concurrently by every worker of the group during the
/// process phase and returns each position in `0..order.len()` to
/// **exactly one** caller per round, then `None`. Which caller gets which
/// position is unconstrained — determinism of results does not depend on
/// it, because every cross-LP effect commits through the channel +
/// tie-break-key path (digest-proven, see `sched_matrix.rs`).
pub struct LjfCursor {
    cursor: CachePadded<AtomicUsize>,
    len: AtomicUsize,
    claims: AtomicU64,
}

impl LjfCursor {
    /// A cursor with no published order yet.
    pub fn new() -> Self {
        LjfCursor {
            cursor: CachePadded::new(AtomicUsize::new(0)),
            len: AtomicUsize::new(0),
            claims: AtomicU64::new(0),
        }
    }

    /// Installs a new claim order of `order.len()` positions and resets the
    /// per-round state (exclusive window).
    pub fn publish(&self, order: &[u32], _unused: &[u32]) {
        self.len.store(order.len(), Ordering::Relaxed);
        self.begin_round();
    }

    /// Resets the per-round claim state for the next round (exclusive
    /// window; the published order stays in place).
    pub fn begin_round(&self) {
        // Fold the consumed prefix into the claim total (the cursor
        // overshoots by one per worker at phase end).
        let taken = self.cursor.swap(0, Ordering::Relaxed);
        let len = self.len.load(Ordering::Relaxed);
        self.claims
            .fetch_add(taken.min(len) as u64, Ordering::Relaxed);
    }

    /// Claims the next position in the published order, or `None` when the
    /// round's order is exhausted.
    pub fn claim(&self, _unused: usize) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        if i < self.len.load(Ordering::Relaxed) {
            Some(i)
        } else {
            None
        }
    }

    /// Claims every position the round has left in one step — the fused
    /// round's single claimant pays one read-modify-write per order
    /// instead of one per LP.
    pub fn claim_rest(&self) -> std::ops::Range<usize> {
        let len = self.len.load(Ordering::Relaxed);
        self.cursor.swap(len, Ordering::Relaxed).min(len)..len
    }

    /// Cumulative positions claimed over the rounds folded so far (one per
    /// LP per round).
    pub fn claims(&self) -> u64 {
        self.claims.load(Ordering::Relaxed)
    }
}

impl Default for LjfCursor {
    fn default() -> Self {
        LjfCursor::new()
    }
}

/// Round-fusion configuration for the Unison/hybrid kernels
/// (DESIGN.md §4.9).
///
/// A *fused* round is executed serially by the control thread while the
/// workers stay parked at the round's first barrier: when the previous
/// round's load is below [`FusionConfig::threshold`], the four barrier
/// crossings cost more than the round's events do, so the control thread
/// steps through the same four phases in place — same event order,
/// bit-identical digests — and only releases the workers again once a
/// round is worth parallelizing. The load predicate is the whole fallback
/// contract: a fused span ends with the first round whose load exceeds the
/// threshold, and cross-LP arrivals inside a fused round do not end it
/// (they are part of the load). A run with one thread has no worker to
/// release, so with fusion enabled every one of its rounds takes this
/// no-barrier path whatever its load.
///
/// Fusion is a pure wall-clock optimization: the determinism proof is the
/// kernel's own "identical for any worker count" guarantee (a fused round
/// is exactly the 1-worker round), machine-pinned by the fusion digest
/// matrix in `sched_matrix.rs`. It is disabled automatically while a
/// fault-injection plan is armed, so execution-point faults keep landing
/// on the configured worker and phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FusionConfig {
    /// Master switch (default: on).
    pub enabled: bool,
    /// Fuse the next round when the previous round's total load (events
    /// processed + events received) is at or below this bound. The default
    /// (512) approximates the break-even point where four barrier
    /// crossings at spin-then-yield cost rival the events' execution time.
    pub threshold: u64,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            enabled: true,
            threshold: 512,
        }
    }
}

impl FusionConfig {
    /// A disabled configuration (every round crosses the barriers).
    pub fn off() -> Self {
        FusionConfig {
            enabled: false,
            threshold: 0,
        }
    }
}

/// Scheduling configuration for the Unison kernel.
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// Estimation heuristic.
    pub metric: SchedMetric,
    /// Re-sort the LP order every `period` rounds. `None` = automatic:
    /// `ceil(log2(lp_count))`, minimum 1.
    pub period: Option<u32>,
    /// Round fusion (barrier elision for cheap rounds; DESIGN.md §4.9).
    /// Results are bit-identical with fusion on or off.
    pub fusion: FusionConfig,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            metric: SchedMetric::ByLastRoundTime,
            period: None,
            fusion: FusionConfig::default(),
        }
    }
}

impl SchedConfig {
    /// The effective scheduling period for `lp_count` LPs.
    pub fn effective_period(&self, lp_count: usize) -> u32 {
        match self.period {
            Some(p) => p.max(1),
            None => auto_period(lp_count),
        }
    }
}

/// The paper's automatic scheduling period: `ceil(log2(n))`, at least 1.
pub fn auto_period(lp_count: usize) -> u32 {
    if lp_count <= 2 {
        1
    } else {
        (usize::BITS - (lp_count - 1).leading_zeros()).max(1)
    }
}

/// Produces the LP visit order for the next scheduling period: indices
/// sorted by estimate, descending, with ties broken by LP id so the order
/// is deterministic.
pub fn order_by_estimate(estimates: &[u64]) -> Vec<u32> {
    let mut order = Vec::new();
    order_by_estimate_into(estimates, &mut order);
    order
}

/// Allocation-free form of [`order_by_estimate`]: clears and refills `order`
/// in place, reusing its capacity. The kernels call this every scheduling
/// period from persistent scratch buffers, so the periodic LJF re-sort does
/// not touch the allocator in steady state.
pub fn order_by_estimate_into(estimates: &[u64], order: &mut Vec<u32>) {
    order.clear();
    order.extend(0..estimates.len() as u32);
    order.sort_unstable_by(|&a, &b| {
        estimates[b as usize]
            .cmp(&estimates[a as usize])
            .then(a.cmp(&b))
    });
}

/// Evaluates an LPT (longest-estimated-job-first, greedy to least-loaded
/// thread) schedule: jobs are *ordered* by `estimates` but *cost* their
/// actual times. Returns the makespan in the same unit as `actual`.
///
/// This mirrors what the running kernel does physically (idle threads pop
/// the longest remaining LP) and is the round recurrence used by the
/// virtual-core performance model.
pub fn lpt_makespan(order: &[u32], actual: &[f64], threads: usize) -> f64 {
    debug_assert!(threads > 0);
    // A tiny binary heap over (load, thread) — threads is small (<= 64ish).
    let mut loads = vec![0.0f64; threads.max(1)];
    for &lp in order {
        // Index of least-loaded thread.
        let (idx, _) = loads
            .iter()
            .enumerate()
            // INVARIANT: loads are finite sums of finite costs, so the
            // comparison is total; `loads` is non-empty (threads.max(1)).
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            // INVARIANT: `loads` is non-empty (threads.max(1) entries).
            .expect("threads > 0");
        loads[idx] += actual[lp as usize];
    }
    loads.iter().cloned().fold(0.0, f64::max)
}

/// The idealistic makespan: LPT with *exact* knowledge of the actual costs
/// (sorting by the actual processing time). Used as the denominator of the
/// slowdown factor α in Fig. 12c.
pub fn ideal_makespan(actual: &[f64], threads: usize) -> f64 {
    let mut order: Vec<u32> = (0..actual.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        actual[b as usize]
            // INVARIANT: profiled costs are finite (ns counters cast to f64).
            .partial_cmp(&actual[a as usize])
            // INVARIANT: see above — finite costs compare totally.
            .unwrap()
            .then(a.cmp(&b))
    });
    lpt_makespan(&order, actual, threads)
}

/// Estimate-vs-actual *scheduling regret* for one round: the makespan of
/// the LPT schedule the kernel actually used (LPs *ordered* by the stale
/// estimates in `order` but *costing* their measured times in `actual`)
/// over the idealistic makespan with exact knowledge of the costs.
///
/// `1.0` means the stale estimates lost nothing. Values are usually ≥ 1,
/// but can dip slightly below: LPT with exact knowledge is itself only a
/// 4/3-approximation, so a "misordered" schedule can get lucky. Returns
/// `1.0` for rounds with zero total cost.
pub fn scheduling_regret(order: &[u32], actual: &[f64], threads: usize) -> f64 {
    let ideal = ideal_makespan(actual, threads);
    if ideal <= 0.0 {
        return 1.0;
    }
    lpt_makespan(order, actual, threads) / ideal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_period_matches_log2_ceiling() {
        assert_eq!(auto_period(1), 1);
        assert_eq!(auto_period(2), 1);
        assert_eq!(auto_period(3), 2);
        assert_eq!(auto_period(4), 2);
        assert_eq!(auto_period(5), 3);
        assert_eq!(auto_period(1 << 16), 16);
        assert_eq!(auto_period((1 << 16) + 1), 17);
    }

    #[test]
    fn order_is_descending_and_deterministic() {
        let est = vec![5, 9, 9, 1];
        assert_eq!(order_by_estimate(&est), vec![1, 2, 0, 3]);
    }

    #[test]
    fn order_into_reuses_buffer_and_matches() {
        let mut buf = vec![7u32; 16]; // stale contents must not survive
        order_by_estimate_into(&[5, 9, 9, 1], &mut buf);
        assert_eq!(buf, vec![1, 2, 0, 3]);
        order_by_estimate_into(&[3], &mut buf);
        assert_eq!(buf, vec![0]);
        assert!(buf.capacity() >= 16, "capacity is retained for reuse");
    }

    #[test]
    fn lpt_makespan_balances() {
        // Jobs 5,4,3,3,3 on 2 threads. LPT: t0=5, t1=4, t1=7, t0=8, t1=10?
        // Greedy: 5->t0, 4->t1, 3->t1(7), 3->t0(8), 3->t1(10) => makespan 10.
        // Optimal is 9 (5+4 / 3+3+3), LPT ratio fine.
        let actual = vec![5.0, 4.0, 3.0, 3.0, 3.0];
        let order = order_by_estimate(&[5, 4, 3, 3, 3]);
        let ms = lpt_makespan(&order, &actual, 2);
        assert_eq!(ms, 10.0);
    }

    #[test]
    fn misordered_estimates_cost_actuals() {
        // Estimates invert the actual order: the schedule is worse than
        // ideal, never better.
        let actual = vec![10.0, 1.0, 1.0, 1.0];
        let bad_order = order_by_estimate(&[1, 2, 3, 4]); // lp3 first...
        let ms_bad = lpt_makespan(&bad_order, &actual, 2);
        let ms_ideal = ideal_makespan(&actual, 2);
        assert!(ms_bad >= ms_ideal);
        assert_eq!(ms_ideal, 10.0);
    }

    #[test]
    fn single_thread_makespan_is_sum() {
        let actual = vec![2.0, 3.0, 4.0];
        let order = order_by_estimate(&[2, 3, 4]);
        assert_eq!(lpt_makespan(&order, &actual, 1), 9.0);
    }

    #[test]
    fn regret_is_one_with_perfect_estimates_and_grows_when_stale() {
        let actual = vec![10.0, 1.0, 1.0, 1.0];
        let perfect = order_by_estimate(&[10, 1, 1, 1]);
        assert_eq!(scheduling_regret(&perfect, &actual, 2), 1.0);
        // Inverted estimates: the big job lands last, on top of an
        // already-loaded thread → makespan 11 vs ideal 10.
        let inverted = order_by_estimate(&[1, 2, 3, 4]);
        let r = scheduling_regret(&inverted, &actual, 2);
        assert!((r - 1.1).abs() < 1e-12, "regret {r}");
        // Zero-cost rounds have no regret signal.
        assert_eq!(scheduling_regret(&perfect, &[0.0; 4], 2), 1.0);
    }

    #[test]
    fn metric_names_are_stable() {
        assert_eq!(SchedMetric::ByLastRoundTime.name(), "by-last-round-time");
        assert_eq!(SchedMetric::ByPendingEvents.name(), "by-pending-events");
        assert_eq!(SchedMetric::None.name(), "none");
    }

    #[test]
    fn ljf_cursor_hands_out_positions_in_order_exactly_once() {
        let c = LjfCursor::new();
        c.publish(&[4, 2, 7], &[]);
        assert_eq!(c.claim(0), Some(0));
        assert_eq!(c.claim(1), Some(1));
        assert_eq!(c.claim(0), Some(2));
        assert_eq!(c.claim(0), None);
        assert_eq!(c.claim(1), None);
        c.begin_round();
        assert_eq!(c.claim(1), Some(0));
        assert_eq!(c.claim(0), Some(1));
        assert_eq!(c.claim(0), Some(2));
        assert_eq!(c.claim(0), None);
        c.begin_round(); // folds the second round into the totals
        assert_eq!(c.claims(), 6, "3 claims per round over 2 rounds");
    }
}
