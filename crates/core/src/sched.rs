//! Load-adaptive scheduling (§4.3).
//!
//! Each round, LPs must be distributed over the worker threads so that the
//! threads finish "in unison". Minimizing the makespan of n jobs on T
//! identical machines is NP-hard (multiway number partitioning); the paper
//! uses the *longest-job-first* (LPT) approximation: sort LPs by estimated
//! processing time, and let idle threads always grab the longest remaining
//! LP. The kernel keeps the part of LPT that bounds the makespan and drops
//! the rest ([`order_home`]): only the LPs heavy enough to stretch a round
//! go first, longest first, and every other LP keeps its LP-id place. The
//! estimate is each LP's event count in the last parallel round, and the
//! order is rebuilt only every *scheduling period* ([`auto_period`],
//! `ceil(log2(n))`) parallel rounds, exploiting the temporal locality of
//! network loads. The paper's other heuristics ([`SchedMetric`]) and other
//! periods are inputs of the virtual-core model only ([`SchedConfig`]).
//!
//! Workers claim LPs out of the published order through the [`LjfCursor`]
//! (DESIGN.md §4.5): the order is cut into one contiguous *home* segment
//! per worker, a worker claims its own home first and a neighbour's only once its own is exhausted, every position is
//! handed out exactly once per round, and determinism does not depend on
//! which worker gets it, because all cross-LP sends commit through the
//! outbox + tie-break-key path (proven by the digest tests in
//! `crates/core/tests/sched_matrix.rs`, not asserted).

use std::cmp::Reverse;
use std::ops::Range;

use crate::sync_shim::{AtomicU64, AtomicUsize, CachePadded, Ordering};

/// Heuristic the virtual-core model uses to estimate the next-round
/// processing time of an LP (the paper's Fig. 12c alternatives).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedMetric {
    /// Use the processing time of the previous round (the paper's default:
    /// constant-time, accurate under temporal locality). The kernel runs
    /// this one alone, estimated as the events the LP handled in the last
    /// parallel round.
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
    /// Short display name, as a scenario's `[model] sched_metric` spells it.
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
// `.begin_round()`, `.claim(0)`. `build`'s worker count and `claim`'s slot
// are live: they are the number of homes and the caller's own home. What
// exists only to keep that call shape compiling is `SchedPolicyKind` itself
// (a one-variant enum; the kernel calls `LjfCursor::new`) and `publish`'s
// second slice, which the cursor ignores and the kernel passes as `&[]`.
/// The one way workers claim LPs out of the published order.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedPolicyKind {
    /// The home-first claim cursor ([`LjfCursor`]).
    #[default]
    LjfCursor,
}

impl SchedPolicyKind {
    /// Builds the claim cursor for `workers` workers.
    pub fn build(self, workers: usize) -> LjfCursor {
        LjfCursor::new(workers)
    }
}

/// Positions `home` of `homes` owns out of an order of `len` positions:
/// contiguous, equal-count (±1) segments that depend on nothing but the
/// three numbers, so the claim cursor, the LPs' receive homes, the phase-4
/// re-order and [`home_first_makespan`] all cut an order the same way.
pub fn home_range(len: usize, homes: usize, home: usize) -> Range<usize> {
    home * len / homes..(home + 1) * len / homes
}

/// One worker's home segment: the next position to hand out and the
/// segment's end (it starts where the home before it ends).
struct Home {
    // PADDING: one segment's two words share a line on purpose (a claim
    // reads `end` next to the `next` it bumps); the enclosing
    // `CachePadded<Home>` keeps the workers' segments apart.
    next: AtomicUsize,
    // PADDING: as above.
    end: AtomicUsize,
}

/// The claim cursor: one position counter per worker, each over that
/// worker's *home* segment ([`home_range`]) of the published order.
///
/// Contract (DESIGN.md §4.5): `publish` and `begin_round` are called only
/// from the control thread's exclusive window between rounds (all workers
/// parked at a barrier — the barrier provides the happens-before edges);
/// `claim` is called concurrently by every worker during a parallel phase
/// and returns each position in `0..order.len()` to **exactly one** caller
/// per round, then `None`. A caller gets the
/// positions of its own home in ascending order first and those of the
/// homes after it (wrapping) only once its own is exhausted, so an LP stays
/// on one worker round after round unless that worker falls behind. Which
/// caller gets which position is otherwise unconstrained — determinism of
/// results does not depend on it, because every cross-LP effect commits
/// through the outbox + tie-break-key path (digest-proven, see
/// `sched_matrix.rs`).
pub struct LjfCursor {
    homes: Box<[CachePadded<Home>]>,
    // PADDING: written once per round, from the control thread's exclusive
    // window; no claimant touches it.
    claims: AtomicU64,
}

impl LjfCursor {
    /// A cursor for `workers` workers (at least one home), with
    /// no published order yet.
    pub fn new(workers: usize) -> Self {
        LjfCursor {
            homes: (0..workers.max(1))
                .map(|_| {
                    CachePadded::new(Home {
                        next: AtomicUsize::new(0),
                        end: AtomicUsize::new(0),
                    })
                })
                .collect(),
            claims: AtomicU64::new(0),
        }
    }

    /// Installs a new claim order of `order.len()` positions, cut into one
    /// home per worker, and resets the per-round state (exclusive window).
    pub fn publish(&self, order: &[u32], _unused: &[u32]) {
        self.begin_round(); // the finished round's claims, under its bounds
        for (v, home) in self.homes.iter().enumerate() {
            let range = home_range(order.len(), self.homes.len(), v);
            home.next.store(range.start, Ordering::Relaxed);
            home.end.store(range.end, Ordering::Relaxed);
        }
    }

    /// Resets the per-round claim state for the next round (exclusive
    /// window; the published order stays in place).
    pub fn begin_round(&self) {
        // Fold the consumed prefixes into the claim total (a counter
        // overshoots its segment by at most one per worker).
        let (mut taken, mut start) = (0, 0);
        for home in self.homes.iter() {
            let end = home.end.load(Ordering::Relaxed);
            taken += home.next.load(Ordering::Relaxed).min(end) - start;
            home.next.store(start, Ordering::Relaxed);
            start = end; // homes are contiguous
        }
        self.claims.fetch_add(taken as u64, Ordering::Relaxed);
    }

    /// Claims the next position for the worker whose home is `slot`: the
    /// next of its own segment, or, once that is exhausted, the next of the
    /// first segment after it that has any left. `None` when the round's
    /// order is exhausted. `slot` is below the worker count the cursor was
    /// built for.
    pub fn claim(&self, slot: usize) -> Option<usize> {
        let k = self.homes.len();
        let mut v = slot;
        for _ in 0..k {
            let home = &self.homes[v];
            let end = home.end.load(Ordering::Relaxed);
            // Look before bumping: an exhausted segment is not written
            // again, so a thief scanning past it shares the line read-only.
            if home.next.load(Ordering::Relaxed) < end {
                let i = home.next.fetch_add(1, Ordering::Relaxed);
                if i < end {
                    return Some(i);
                }
            }
            v += 1;
            if v == k {
                v = 0;
            }
        }
        None
    }

    /// Claims every position the round has left, segment by segment — the
    /// fused round's single claimant pays one read-modify-write per home
    /// instead of one per LP.
    pub fn claim_rest(&self) -> impl Iterator<Item = usize> + '_ {
        self.homes.iter().flat_map(|home| {
            let end = home.end.load(Ordering::Relaxed);
            home.next.swap(end, Ordering::Relaxed).min(end)..end
        })
    }

    /// Cumulative positions claimed over the rounds folded so far (one per
    /// LP per round).
    pub fn claims(&self) -> u64 {
        self.claims.load(Ordering::Relaxed)
    }
}

/// Round fusion (DESIGN.md §4.9): the Unison kernel runs a round *fused*
/// when the previous round's total load (events processed + events
/// received) is at or below this bound.
///
/// A fused round is executed serially by the control thread while the
/// workers stay parked at the round's first barrier: below this load the
/// four barrier crossings cost more than the round's events do, so the
/// control thread steps through the same four phases in place — same event
/// order, bit-identical digests — and only releases the workers again once
/// a round is worth parallelizing. The load predicate is the whole fallback
/// contract: a fused span ends with the first round whose load exceeds the
/// bound, and cross-LP arrivals inside a fused round do not end it (they
/// are part of the load). A run with one thread has no worker to release,
/// so with fusion enabled every one of its rounds takes this no-barrier
/// path whatever its load. The value (512) approximates the break-even
/// point where four barrier crossings at spin-then-yield cost rival the
/// events' execution time.
///
/// Fusion is a pure wall-clock optimization: the determinism proof is the
/// kernel's own "identical for any worker count" guarantee (a fused round
/// is exactly the 1-worker round), machine-pinned by the fusion digest
/// matrix in `sched_matrix.rs`. `RunConfig::fusion` switches it off.
pub const FUSION_THRESHOLD: u64 = 512;

/// The scheduler the virtual-core model replays (`PerfModel::unison`; a
/// scenario's `[model] sched_metric` / `sched_period`). The kernel runs the
/// default alone: last parallel round's event counts, re-ordered every
/// [`auto_period`] parallel rounds (DESIGN.md §4.5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedConfig {
    /// Estimation heuristic.
    pub metric: SchedMetric,
    /// Re-order the LPs every `period` rounds. `None` = automatic:
    /// [`auto_period`] of the LP count.
    pub period: Option<u32>,
}

impl SchedConfig {
    /// The effective scheduling period for `lp_count` LPs.
    pub fn effective_period(&self, lp_count: usize) -> u32 {
        self.period.map_or(auto_period(lp_count), |p| p.max(1))
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
/// in place, reusing its capacity (the benchmark's `sched.order_1024_us`
/// row times it).
pub fn order_by_estimate_into(estimates: &[u64], order: &mut Vec<u32>) {
    order.clear();
    order.extend(0..estimates.len() as u32);
    sort_by_estimate(order, estimates);
}

/// Sorts `lps` longest estimated job first (`estimates` is indexed by LP
/// id), ties by LP id — what [`order_by_estimate`] does to the whole id
/// range (the paper's LPT order, which the performance model replays).
pub fn sort_by_estimate(lps: &mut [u32], estimates: &[u64]) {
    lps.sort_unstable_by(|&a, &b| {
        estimates[b as usize]
            .cmp(&estimates[a as usize])
            .then(a.cmp(&b))
    });
}

/// The estimate above which an LP is *heavy* on `workers` workers: Σ/(3W),
/// where Σ (`total`) is the sum of every LP's estimate.
///
/// Home-first claiming with stealing never leaves a worker idle while an LP
/// is unclaimed, so the LP that ends a round started no later than
/// (Σ − p)/W, p being its own cost. If that LP is light it ends the round
/// within Σ/(3W) of the balanced finish — LPT's 4/3 bound — whatever the
/// order of the light LPs. Only the heavy ones need to go first.
pub fn heavy_above(total: u64, workers: usize) -> u64 {
    total / (3 * workers.max(1) as u64)
}

/// Orders one home segment of a parallel round (DESIGN.md §4.5): the LPs
/// whose estimate exceeds `heavy_above` ([`heavy_above`]) first, estimate
/// descending with ties by LP id, then every other LP by LP id. An LP
/// exactly at the bound is light. With no heavy LP this is LP-id order, so
/// a segment visits its LPs in memory order except for the few that could
/// stretch the round.
pub fn order_home(lps: &mut [u32], estimates: &[u64], heavy_above: u64) {
    // Light LPs share the key 0, below every heavy estimate (> bound ≥ 0).
    lps.sort_unstable_by_key(|&lp| {
        let e = estimates[lp as usize];
        (Reverse(if e > heavy_above { e } else { 0 }), lp)
    });
}

/// Places the LPs of `order`, in turn, on the least-loaded of `threads`
/// threads (the first of them on a tie) — the paper's LPT schedule,
/// *ordered* by whatever `order` was sorted by but *costing* each LP its
/// actual time in `actual`. Writes each LP's thread into `owner` (indexed
/// by LP id) and returns the threads' loads, in the unit of `actual`.
///
/// This mirrors what the running kernel does physically (idle threads pop
/// the longest remaining LP) and is the round recurrence of the
/// virtual-core performance model.
pub(crate) fn lpt_assign(
    order: &[u32],
    actual: &[f64],
    threads: usize,
    owner: &mut [usize],
) -> Vec<f64> {
    debug_assert!(threads > 0);
    let mut loads = vec![0.0f64; threads.max(1)];
    for &lp in order {
        let (idx, _) = loads
            .iter()
            .enumerate()
            // INVARIANT: loads are finite sums of finite costs, so the
            // comparison is total; `loads` is non-empty (threads.max(1)).
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            // INVARIANT: `loads` is non-empty (threads.max(1) entries).
            .expect("threads > 0");
        loads[idx] += actual[lp as usize];
        owner[lp as usize] = idx;
    }
    loads
}

/// The makespan of the `lpt_assign` schedule.
pub fn lpt_makespan(order: &[u32], actual: &[f64], threads: usize) -> f64 {
    let mut owner = vec![0; actual.len()];
    let loads = lpt_assign(order, actual, threads, &mut owner);
    loads.into_iter().fold(0.0, f64::max)
}

/// Sorts `lps` longest *actual* cost first, ties by LP id: the order of a
/// scheduler with exact knowledge of the costs.
pub(crate) fn ideal_order(lps: &mut [u32], actual: &[f64]) {
    lps.sort_unstable_by(|&a, &b| {
        actual[b as usize]
            // INVARIANT: profiled costs are finite (ns counters cast to f64).
            .partial_cmp(&actual[a as usize])
            // INVARIANT: see above — finite costs compare totally.
            .unwrap()
            .then(a.cmp(&b))
    });
}

/// The idealistic makespan: LPT in the `ideal_order` of every LP. Used
/// as the denominator of the slowdown factor α in Fig. 12c.
pub fn ideal_makespan(actual: &[f64], threads: usize) -> f64 {
    let mut order: Vec<u32> = (0..actual.len() as u32).collect();
    ideal_order(&mut order, actual);
    lpt_makespan(&order, actual, threads)
}

/// Replays the schedule the kernel runs (DESIGN.md §4.5) on `threads`
/// workers: `order` is cut into one home per worker ([`home_range`]), the
/// worker that is free earliest takes the next position of its own home
/// or, once that is empty, of the first home after it that has any left,
/// and pays the LP's cost in `actual`. Returns the makespan in the same
/// unit as `actual`.
pub fn home_first_makespan(order: &[u32], actual: &[f64], threads: usize) -> f64 {
    let k = threads.max(1);
    let mut left: Vec<Range<usize>> = (0..k).map(|v| home_range(order.len(), k, v)).collect();
    let mut loads = vec![0.0f64; k];
    let mut busy: Vec<usize> = (0..k).collect();
    while !busy.is_empty() {
        // The busy worker that is free earliest claims next.
        let (at, &w) = busy
            .iter()
            .enumerate()
            // INVARIANT: loads are finite sums of finite costs, so the
            // comparison is total.
            .min_by(|a, b| loads[*a.1].partial_cmp(&loads[*b.1]).unwrap())
            // INVARIANT: the loop runs only while `busy` is non-empty.
            .expect("a busy worker");
        match (0..k).find_map(|d| left[(w + d) % k].next()) {
            Some(pos) => loads[w] += actual[order[pos] as usize],
            // Every home is empty: the worker is done for the round.
            None => {
                busy.remove(at);
            }
        }
    }
    loads.iter().cloned().fold(0.0, f64::max)
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
    fn order_home_keeps_every_lp_once() {
        let est = [0, 40, 3, 40, 9, 0, 55, 1];
        for bound in [0, 2, 8, 39, 40, 100] {
            let mut seg: Vec<u32> = vec![7, 2, 5, 0, 6, 3, 1, 4];
            order_home(&mut seg, &est, bound);
            let mut sorted = seg.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "bound {bound}");
        }
    }

    #[test]
    fn order_home_puts_heavy_lps_first_descending_then_the_rest_by_id() {
        let est = [0, 40, 3, 40, 9, 0, 55, 1];
        let mut seg: Vec<u32> = (0..8).rev().collect();
        order_home(&mut seg, &est, 8);
        // Heavy: 6 (55), then 1 and 3 (40, tie by id), then 4 (9).
        assert_eq!(seg, vec![6, 1, 3, 4, 0, 2, 5, 7]);
        // A segment of a larger id range orders only its own LPs.
        let mut seg = vec![7, 6, 5, 4];
        order_home(&mut seg, &est, 8);
        assert_eq!(seg, vec![6, 4, 5, 7]);
    }

    #[test]
    fn an_lp_exactly_at_the_bound_is_light() {
        // Σ = 12 on two workers: the bound is 12 / 6 = 2; LP 1 (2) is
        // light, LP 2 (3) heavy.
        let est = [1, 2, 3, 6];
        let bound = heavy_above(est.iter().sum(), 2);
        assert_eq!(bound, 2);
        let mut seg = vec![0, 1, 2, 3];
        order_home(&mut seg, &est, bound);
        assert_eq!(seg, vec![3, 2, 0, 1]);
        // Σ = 13: the bound is ⌊13/6⌋ = 2, and 2 < 13/6 stays light.
        assert_eq!(heavy_above(13, 2), 2);
        assert_eq!(heavy_above(5, 0), 1, "no worker counts as one");
    }

    #[test]
    fn with_no_heavy_lp_the_order_is_the_identity() {
        let est = [5, 1, 4, 4, 0, 6];
        let bound = heavy_above(est.iter().sum(), 1); // 20 / 3 = 6
        let mut seg: Vec<u32> = vec![3, 5, 0, 4, 1, 2];
        order_home(&mut seg, &est, bound);
        assert_eq!(seg, (0..6).collect::<Vec<_>>());
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
    fn metric_names_are_stable() {
        assert_eq!(SchedMetric::ByLastRoundTime.name(), "by-last-round-time");
        assert_eq!(SchedMetric::ByPendingEvents.name(), "by-pending-events");
        assert_eq!(SchedMetric::None.name(), "none");
    }

    #[test]
    fn home_first_makespan_is_the_serial_sum_on_one_thread() {
        let actual = vec![2.0, 3.0, 4.0, 1.5];
        let order = order_by_estimate(&[2, 3, 4, 1]);
        assert_eq!(
            home_first_makespan(&order, &actual, 1),
            lpt_makespan(&order, &actual, 1)
        );
    }

    #[test]
    fn home_first_makespan_steals_only_after_the_home_is_empty() {
        // Homes {0, 1} and {2, 3}. Worker 1 is free at 0, 1 and 2, each
        // time with LP 1 (cost 5) unclaimed next door, but it drains its
        // own home first and only then takes LP 1: 1 + 1 + 5 = 7. The
        // single list hands LP 1 to worker 1 at time 0.
        let actual = vec![3.0, 5.0, 1.0, 1.0];
        let order = vec![0, 1, 2, 3];
        assert_eq!(home_first_makespan(&order, &actual, 2), 7.0);
        assert_eq!(lpt_makespan(&order, &actual, 2), 5.0);
        // A worker with an empty home (more workers than LPs) steals at once.
        assert_eq!(home_first_makespan(&[0, 1], &[4.0, 4.0], 4), 4.0);
    }

    /// Every position a cursor hands to `slot` until it says `None`.
    fn drain(c: &LjfCursor, slot: usize) -> Vec<usize> {
        std::iter::from_fn(|| c.claim(slot)).collect()
    }

    #[test]
    fn one_home_hands_out_positions_in_order_exactly_once() {
        let c = LjfCursor::new(1);
        c.publish(&[4, 2, 7], &[]);
        assert_eq!(drain(&c, 0), vec![0, 1, 2]);
        assert_eq!(c.claim(0), None);
        c.begin_round();
        assert_eq!(drain(&c, 0), vec![0, 1, 2]);
        c.begin_round(); // folds the second round into the totals
        assert_eq!(c.claims(), 6, "3 claims per round over 2 rounds");
    }

    #[test]
    fn claim_takes_the_own_home_first_then_the_next() {
        let c = LjfCursor::new(2);
        c.publish(&[9, 8, 7, 6, 5], &[]); // homes 0..2 and 2..5
        assert_eq!(drain(&c, 1), vec![2, 3, 4, 0, 1]);
        assert_eq!(c.claim(0), None);
        assert_eq!(c.claim(1), None);
        c.begin_round();
        assert_eq!(c.claims(), 5);
        // Interleaved: each worker stays at home while it has any left.
        assert_eq!(c.claim(0), Some(0));
        assert_eq!(c.claim(1), Some(2));
        assert_eq!(c.claim(0), Some(1));
        assert_eq!(c.claim(0), Some(3), "home 0 is empty: steal from 1");
        assert_eq!(c.claim(1), Some(4));
        assert_eq!(c.claim(1), None);
        assert_eq!(c.claim(0), None);
    }

    #[test]
    fn claim_rest_returns_the_remainder_of_every_home() {
        let c = LjfCursor::new(3);
        c.publish(&[0; 8], &[]); // homes 0..2, 2..5, 5..8
        assert_eq!(c.claim(0), Some(0));
        assert_eq!(c.claim(2), Some(5));
        assert_eq!(c.claim(2), Some(6));
        assert_eq!(c.claim_rest().collect::<Vec<_>>(), vec![1, 2, 3, 4, 7]);
        assert_eq!(c.claim_rest().count(), 0);
        assert!((0..3).all(|slot| c.claim(slot).is_none()));
        c.begin_round();
        assert_eq!(c.claims(), 8);
        // Untouched round: the whole order, ascending.
        assert_eq!(
            c.claim_rest().collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_and_uneven_homes_still_cover_every_position_once() {
        // More workers than LPs: homes 0 and 2 of four are empty.
        let c = LjfCursor::new(4);
        c.publish(&[3, 1], &[]);
        assert_eq!(drain(&c, 0), vec![0, 1]);
        assert!((0..4).all(|slot| c.claim(slot).is_none()));
        // Seven positions over three workers: 2 + 2 + 3.
        let c = LjfCursor::new(3);
        c.publish(&[0; 7], &[]);
        let mut seen: Vec<usize> = (0..3).rev().flat_map(|slot| drain(&c, slot)).collect();
        assert_eq!(seen[..3], [4, 5, 6], "worker 2's own home comes first");
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
        for (len, k) in [(0, 1), (1, 3), (7, 3), (1024, 2), (5, 8)] {
            let covered: Vec<usize> = (0..k).flat_map(|v| home_range(len, k, v)).collect();
            assert_eq!(covered, (0..len).collect::<Vec<_>>(), "{len} over {k}");
        }
    }
}
