//! Virtual-core performance model.
//!
//! The paper's performance evaluation ran on 24–144 physical cores. This
//! reproduction targets machines where that parallelism may not exist (the
//! reference environment has a single core), so parallel wall-clock speedup
//! cannot be measured directly. Instead, a run is first executed with the
//! instrumented single-thread engine (`MetricsLevel::PerRound`), producing
//! the exact per-round, per-LP processing-cost matrix `P_i(r)` plus message
//! counts. This module then *replays* the synchronization structure of each
//! algorithm over that matrix for any number of virtual cores:
//!
//! - **sequential**: `T = Σ_r Σ_i P_i(r)`;
//! - **barrier** (LP pinned per core): `T = Σ_r (max_i(P_i(r) + M_i(r)) + C_bar)`;
//! - **null message** (local sync): wavefront recurrence
//!   `t_i(r) = max(t_i(r-1), max_{j∈nbr(i)} t_j(r-1)) + P_i(r) + M_i(r)`;
//! - **Unison** (T workers, load-adaptive): `T = Σ_r (LPT-makespan + C_round)`,
//!   where the LPT order follows the configured scheduling metric exactly as
//!   the real kernel would (estimates from the previous round, re-sorted
//!   every scheduling period).
//!
//! Because every quantity the figures report (total time, per-round S/T
//! ratio, per-thread P/S/M, slowdown factor α, speedup curves, crossover
//! points) is a deterministic function of these recurrences over measured
//! load vectors, the *shape* of each figure is preserved; only the absolute
//! nanoseconds inherit this machine's single-core event rate.

use crate::metrics::{Psm, RoundRecord};
use crate::sched::{ideal_makespan, order_by_estimate, SchedConfig, SchedMetric};

/// Modeled fixed costs, all in nanoseconds.
///
/// Defaults are calibrated to commodity-server magnitudes: an MPI-style
/// barrier/allreduce costs a few microseconds; Unison's four atomic barriers
/// cost well under a microsecond; receiving a cross-LP event costs tens of
/// nanoseconds; sorting during scheduling costs tens of nanoseconds per LP.
#[derive(Clone, Copy, Debug)]
pub struct CostParams {
    /// Per-round cost of the global barrier + LBTS allreduce (barrier
    /// kernel).
    pub barrier_ns: f64,
    /// Per-round fixed cost of Unison's four-phase handshake.
    pub unison_round_ns: f64,
    /// Per-null-message cost charged on every wavefront step (null-message
    /// kernel).
    pub nullmsg_ns: f64,
    /// Cost of receiving one cross-LP event.
    pub per_msg_ns: f64,
    /// Per-LP cost of one scheduler re-sort.
    pub sched_per_lp_ns: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            barrier_ns: 3_000.0,
            unison_round_ns: 600.0,
            nullmsg_ns: 400.0,
            per_msg_ns: 40.0,
            sched_per_lp_ns: 25.0,
        }
    }
}

/// Result of replaying one algorithm over a load profile.
#[derive(Clone, Debug)]
pub struct ModelResult {
    /// Algorithm label.
    pub algorithm: String,
    /// Virtual cores used.
    pub cores: usize,
    /// Modeled total wall time, nanoseconds.
    pub total_ns: f64,
    /// Per-executor (LP or thread) P/S/M decomposition, nanoseconds.
    pub psm: Vec<Psm>,
    /// Per-round synchronization share `S/T ∈ [0,1]` (mean over executors).
    pub s_ratio_per_round: Vec<f32>,
}

impl ModelResult {
    /// Aggregate S/(P+S+M) over the whole run.
    pub fn s_ratio(&self) -> f64 {
        let (mut p, mut s, mut m) = (0u64, 0u64, 0u64);
        for x in &self.psm {
            p += x.p_ns;
            s += x.s_ns;
            m += x.m_ns;
        }
        let t = p + s + m;
        if t == 0 {
            0.0
        } else {
            s as f64 / t as f64
        }
    }

    /// Aggregate P over executors, nanoseconds.
    pub fn p_total(&self) -> f64 {
        self.psm.iter().map(|x| x.p_ns as f64).sum()
    }

    /// Aggregate S over executors, nanoseconds.
    pub fn s_total(&self) -> f64 {
        self.psm.iter().map(|x| x.s_ns as f64).sum()
    }

    /// Aggregate M over executors, nanoseconds.
    pub fn m_total(&self) -> f64 {
        self.psm.iter().map(|x| x.m_ns as f64).sum()
    }
}

/// The virtual-core replayer over a recorded per-round load profile.
pub struct PerfModel<'a> {
    profile: &'a [RoundRecord],
    params: CostParams,
}

impl<'a> PerfModel<'a> {
    /// Wraps a profile with default cost parameters.
    pub fn new(profile: &'a [RoundRecord]) -> Self {
        PerfModel {
            profile,
            params: CostParams::default(),
        }
    }

    /// Overrides the cost parameters.
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// Number of LPs in the profile.
    pub fn lp_count(&self) -> usize {
        self.profile.first().map_or(0, |r| r.lp_cost_ns.len())
    }

    /// Number of rounds in the profile.
    pub fn rounds(&self) -> usize {
        self.profile.len()
    }

    /// Sequential execution: one core processes every event; no S, no M.
    pub fn sequential(&self) -> ModelResult {
        let total: f64 = self.profile.iter().map(|r| r.total_cost_ns()).sum();
        ModelResult {
            algorithm: "sequential".into(),
            cores: 1,
            total_ns: total,
            psm: vec![Psm {
                p_ns: total as u64,
                s_ns: 0,
                m_ns: 0,
            }],
            s_ratio_per_round: Vec::new(),
        }
    }

    /// Barrier synchronization with each LP pinned to its own core.
    pub fn barrier(&self) -> ModelResult {
        let n = self.lp_count();
        let mut psm = vec![Psm::default(); n];
        let mut s_ratio = Vec::with_capacity(self.profile.len());
        let mut total = 0.0f64;
        for rec in self.profile {
            let mut round_max = 0.0f64;
            let mut busy: Vec<f64> = Vec::with_capacity(n);
            for i in 0..n {
                let b = rec.lp_cost_ns[i] as f64 + rec.lp_recv[i] as f64 * self.params.per_msg_ns;
                round_max = round_max.max(b);
                busy.push(b);
            }
            let round = round_max + self.params.barrier_ns;
            total += round;
            let mut s_sum = 0.0f64;
            for i in 0..n {
                psm[i].p_ns += rec.lp_cost_ns[i] as f64 as u64;
                psm[i].m_ns += (rec.lp_recv[i] as f64 * self.params.per_msg_ns) as u64;
                let s = round - busy[i];
                psm[i].s_ns += s as u64;
                s_sum += s;
            }
            s_ratio.push((s_sum / (n as f64 * round)) as f32);
        }
        ModelResult {
            algorithm: "barrier".into(),
            cores: n,
            total_ns: total,
            psm,
            s_ratio_per_round: s_ratio,
        }
    }

    /// Null-message synchronization with each LP pinned to its own core.
    ///
    /// `neighbors[i]` lists the LPs adjacent to LP `i` — the profiled run's
    /// [`RunReport::lp_neighbors`](crate::metrics::RunReport::lp_neighbors).
    /// The wavefront recurrence lets an LP start its next window as soon as
    /// its *neighbors* finished the previous one, instead of waiting for the
    /// global maximum — CMB's local-synchronization advantage.
    pub fn nullmsg(&self, neighbors: &[Vec<u32>]) -> ModelResult {
        let n = self.lp_count();
        assert_eq!(neighbors.len(), n, "neighbor list must cover every LP");
        let mut t = vec![0.0f64; n];
        let mut psm = vec![Psm::default(); n];
        let mut s_ratio = Vec::with_capacity(self.profile.len());
        for rec in self.profile {
            let prev = t.clone();
            let mut s_sum = 0.0f64;
            let mut round_span = 0.0f64;
            for i in 0..n {
                let mut start = prev[i];
                for &j in &neighbors[i] {
                    start = start.max(prev[j as usize]);
                }
                let p = rec.lp_cost_ns[i] as f64;
                let m = rec.lp_recv[i] as f64 * self.params.per_msg_ns
                    + self.params.nullmsg_ns * neighbors[i].len().max(1) as f64;
                let wait = start - prev[i];
                t[i] = start + p + m;
                psm[i].p_ns += p as u64;
                psm[i].m_ns += m as u64;
                psm[i].s_ns += wait as u64;
                s_sum += wait;
                round_span = round_span.max(t[i] - prev[i]);
            }
            if round_span > 0.0 {
                s_ratio.push((s_sum / (n as f64 * round_span)) as f32);
            } else {
                s_ratio.push(0.0);
            }
        }
        let total = t.iter().cloned().fold(0.0, f64::max);
        // Charge trailing wait: every LP idles until the last one finishes.
        for (i, x) in psm.iter_mut().enumerate() {
            x.s_ns += (total - t[i]) as u64;
        }
        ModelResult {
            algorithm: "nullmsg".into(),
            cores: n,
            total_ns: total,
            psm,
            s_ratio_per_round: s_ratio,
        }
    }

    /// Unison with `cores` workers and the given scheduling configuration.
    pub fn unison(&self, cores: usize, sched: SchedConfig) -> ModelResult {
        self.unison_detailed(cores, sched).result
    }

    /// Unison replay with extra diagnostics (slowdown factor, per-round
    /// thread loads).
    pub fn unison_detailed(&self, cores: usize, sched: SchedConfig) -> UnisonModel {
        self.replay_unison(cores, sched, |_, _| {})
    }

    /// The replayed per-worker loads summed into `bucket`-round buckets
    /// (Fig. 13's Unison heat map): `out[bucket][worker]`, nanoseconds.
    pub fn bucketed_worker_loads(
        &self,
        cores: usize,
        sched: SchedConfig,
        bucket: usize,
    ) -> Vec<Vec<f64>> {
        assert!(bucket > 0);
        let mut out: Vec<Vec<f64>> = Vec::new();
        self.replay_unison(cores, sched, |r, loads| {
            if r % bucket == 0 {
                out.push(vec![0.0; cores]);
            }
            // INVARIANT: round 0 pushes the first bucket (0 % bucket == 0).
            let last = out.last_mut().expect("bucket pushed");
            for (acc, &load) in last.iter_mut().zip(loads) {
                *acc += load;
            }
        });
        out
    }

    /// The Unison replay; `on_round(r, loads)` sees each round's per-worker
    /// loads.
    fn replay_unison(
        &self,
        cores: usize,
        sched: SchedConfig,
        mut on_round: impl FnMut(usize, &[f64]),
    ) -> UnisonModel {
        assert!(cores > 0);
        let n = self.lp_count();
        let period = sched.effective_period(n) as usize;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut psm = vec![Psm::default(); cores];
        let mut s_ratio = Vec::with_capacity(self.profile.len());
        let mut total = 0.0f64;
        let mut ideal_total = 0.0f64;
        let mut sched_cost_total = 0.0f64;
        let mut prev_costs: Vec<u64> = vec![0; n];
        for (r, rec) in self.profile.iter().enumerate() {
            // Re-sort on the period boundary using the metric's estimates,
            // exactly as the kernel does.
            let mut sched_cost = 0.0;
            if r > 0 && r % period == 0 && sched.metric != SchedMetric::None {
                let estimates: Vec<u64> = match sched.metric {
                    SchedMetric::ByLastRoundTime => prev_costs.clone(),
                    SchedMetric::ByPendingEvents => {
                        rec.lp_events.iter().map(|&e| e as u64).collect()
                    }
                    SchedMetric::None => unreachable!(),
                };
                order = order_by_estimate(&estimates);
                sched_cost = self.params.sched_per_lp_ns * n as f64;
            }
            let actual: Vec<f64> = (0..n)
                .map(|i| rec.lp_cost_ns[i] as f64 + rec.lp_recv[i] as f64 * self.params.per_msg_ns)
                .collect();
            // Replay LPT: greedy longest-estimate-first onto least-loaded.
            let mut loads = vec![0.0f64; cores];
            for &lp in &order {
                let (idx, _) = loads
                    .iter()
                    .enumerate()
                    // INVARIANT: loads are finite sums of finite profiled
                    // costs; `loads` has `cores > 0` entries.
                    .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    // INVARIANT: `loads` has `cores > 0` entries.
                    .expect("cores > 0");
                loads[idx] += actual[lp as usize];
            }
            let makespan = loads.iter().cloned().fold(0.0, f64::max);
            let round = makespan + self.params.unison_round_ns + sched_cost;
            total += round;
            sched_cost_total += sched_cost;
            ideal_total += ideal_makespan(&actual, cores) + self.params.unison_round_ns;
            let mut s_sum = 0.0f64;
            for (t, &load) in loads.iter().enumerate() {
                let p = load;
                let s = round - load;
                psm[t].p_ns += p as u64;
                psm[t].s_ns += s as u64;
                s_sum += s;
            }
            s_ratio.push((s_sum / (cores as f64 * round)) as f32);
            on_round(r, &loads);
            for (prev, &cost) in prev_costs.iter_mut().zip(&rec.lp_cost_ns) {
                *prev = cost as u64;
            }
        }
        UnisonModel {
            result: ModelResult {
                algorithm: format!("unison({cores})"),
                cores,
                total_ns: total,
                psm,
                s_ratio_per_round: s_ratio,
            },
            slowdown: if ideal_total > 0.0 {
                total / ideal_total
            } else {
                1.0
            },
            sched_cost_ns: sched_cost_total,
        }
    }

    /// The hybrid kernel (§5.2) over `groups` simulated hosts: within each
    /// host, its LPs are LPT-scheduled onto `threads_per_host` workers;
    /// across hosts the round is a barrier (the window all-reduce), so the
    /// round time is the slowest host's makespan plus the all-reduce cost.
    pub fn hybrid(&self, groups: &[Vec<u32>], threads_per_host: usize) -> ModelResult {
        assert!(threads_per_host > 0);
        assert!(!groups.is_empty());
        let total_threads = groups.len() * threads_per_host;
        let mut psm = vec![Psm::default(); total_threads];
        let mut s_ratio = Vec::with_capacity(self.profile.len());
        let mut total = 0.0f64;
        for rec in self.profile {
            let mut round_max = 0.0f64;
            let mut loads_all: Vec<f64> = Vec::with_capacity(total_threads);
            for group in groups {
                let mut loads = vec![0.0f64; threads_per_host];
                // LPT within the host: longest actual cost first (the
                // kernel sorts by estimate; exact costs keep the model
                // conservative in the host's favor).
                let mut lps: Vec<u32> = group.clone();
                lps.sort_by(|&a, &b| {
                    rec.lp_cost_ns[b as usize]
                        // INVARIANT: profiled costs are finite u64 counters.
                        .partial_cmp(&rec.lp_cost_ns[a as usize])
                        // INVARIANT: see above — total order on finite costs.
                        .expect("finite costs")
                });
                for lp in lps {
                    let (idx, _) = loads
                        .iter()
                        .enumerate()
                        // INVARIANT: loads are finite sums of finite costs;
                        // `loads` has `threads_per_host > 0` entries.
                        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                        // INVARIANT: `loads` is non-empty.
                        .expect("threads_per_host > 0");
                    loads[idx] += rec.lp_cost_ns[lp as usize] as f64;
                }
                round_max = round_max.max(loads.iter().cloned().fold(0.0, f64::max));
                loads_all.extend(loads);
            }
            let round = round_max + self.params.barrier_ns + self.params.unison_round_ns;
            total += round;
            let mut s_sum = 0.0;
            for (t, &load) in loads_all.iter().enumerate() {
                psm[t].p_ns += load as u64;
                let s = round - load;
                psm[t].s_ns += s as u64;
                s_sum += s;
            }
            s_ratio.push((s_sum / (total_threads as f64 * round)) as f32);
        }
        ModelResult {
            algorithm: format!("hybrid({}x{})", groups.len(), threads_per_host),
            cores: total_threads,
            total_ns: total,
            psm,
            s_ratio_per_round: s_ratio,
        }
    }

    /// Sums per-LP costs into `bucket`-round buckets (Fig. 13 heat maps).
    /// Returns `out[bucket][lp]` in nanoseconds.
    pub fn bucketed_costs(&self, bucket: usize) -> Vec<Vec<f64>> {
        assert!(bucket > 0);
        let n = self.lp_count();
        let mut out: Vec<Vec<f64>> = Vec::new();
        for (r, rec) in self.profile.iter().enumerate() {
            if r % bucket == 0 {
                out.push(vec![0.0; n]);
            }
            // INVARIANT: round 0 pushes the first bucket (0 % bucket == 0).
            let last = out.last_mut().expect("bucket pushed");
            for (acc, &cost) in last.iter_mut().zip(&rec.lp_cost_ns) {
                *acc += cost as f64;
            }
        }
        out
    }
}

/// Mean within-row coefficient of variation of `rows` (Fig. 13's imbalance
/// summary over bucketed per-executor costs); all-zero rows count as 0.
pub fn mean_cv(rows: &[Vec<f64>]) -> f64 {
    let cv_sum: f64 = rows
        .iter()
        .map(|r| {
            let mean = r.iter().sum::<f64>() / r.len() as f64;
            if mean > 0.0 {
                let var = r.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / r.len() as f64;
                var.sqrt() / mean
            } else {
                0.0
            }
        })
        .sum();
    cv_sum / rows.len().max(1) as f64
}

/// Unison replay with diagnostics.
pub struct UnisonModel {
    /// The plain model result.
    pub result: ModelResult,
    /// Slowdown factor α: Σ actual round time / Σ idealistic round time
    /// (Fig. 12c's metric).
    pub slowdown: f64,
    /// Total modeled scheduler cost.
    pub sched_cost_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    fn profile(rounds: usize, costs: &[&[f32]]) -> Vec<RoundRecord> {
        (0..rounds)
            .map(|r| RoundRecord {
                window_start: Time(r as u64 * 10),
                window_end: Time((r as u64 + 1) * 10),
                fused: false,
                lp_cost_ns: costs[r % costs.len()].to_vec(),
                lp_events: vec![1; costs[0].len()],
                lp_recv: vec![0; costs[0].len()],
            })
            .collect()
    }

    fn zero_overhead() -> CostParams {
        CostParams {
            barrier_ns: 0.0,
            unison_round_ns: 0.0,
            nullmsg_ns: 0.0,
            per_msg_ns: 0.0,
            sched_per_lp_ns: 0.0,
        }
    }

    #[test]
    fn sequential_is_sum() {
        let p = profile(3, &[&[1.0, 2.0, 3.0]]);
        let m = PerfModel::new(&p).with_params(zero_overhead());
        assert_eq!(m.sequential().total_ns, 18.0);
    }

    #[test]
    fn barrier_is_sum_of_maxima() {
        let p = profile(2, &[&[1.0, 5.0], &[4.0, 2.0]]);
        let m = PerfModel::new(&p).with_params(zero_overhead());
        let r = m.barrier();
        assert_eq!(r.total_ns, 9.0); // 5 + 4
                                     // LP0 waits 4 in round 1, 0 in round 2 => wait? round1 max 5, lp0
                                     // busy 1 -> s 4; round2 max 4, lp0 busy 4 -> s 0.
        assert_eq!(r.psm[0].s_ns, 4);
        assert_eq!(r.psm[1].s_ns, 2);
    }

    #[test]
    fn unison_single_core_equals_sequential() {
        let p = profile(4, &[&[3.0, 1.0, 2.0]]);
        let m = PerfModel::new(&p).with_params(zero_overhead());
        let u = m.unison(1, SchedConfig::default());
        assert_eq!(u.total_ns, m.sequential().total_ns);
    }

    #[test]
    fn unison_beats_barrier_under_skew() {
        // One hot LP (incast victim) and seven cold ones: the barrier
        // kernel's round = hot cost; Unison with 4 cores packs cold LPs
        // beside it.
        let costs: Vec<f32> = vec![80.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0];
        let refs: &[f32] = &costs;
        let p = profile(50, &[refs]);
        let m = PerfModel::new(&p).with_params(zero_overhead());
        let bar = m.barrier();
        let uni = m.unison(4, SchedConfig::default());
        // Barrier: 80/round on 8 cores. Unison on 4 cores: makespan 80 too
        // (hot LP dominates) -> equal totals here, but S differs: barrier
        // wastes 7 cores, unison only 3.
        assert!(uni.total_ns <= bar.total_ns + 1e-6);
        assert!(uni.s_total() < bar.s_total());
    }

    #[test]
    fn unison_scales_with_cores_on_balanced_load() {
        let costs = vec![10.0f32; 16];
        let refs: &[f32] = &costs;
        let p = profile(20, &[refs]);
        let m = PerfModel::new(&p).with_params(zero_overhead());
        let t1 = m.unison(1, SchedConfig::default()).total_ns;
        let t4 = m.unison(4, SchedConfig::default()).total_ns;
        let t16 = m.unison(16, SchedConfig::default()).total_ns;
        assert!((t1 / t4 - 4.0).abs() < 1e-9);
        assert!((t1 / t16 - 16.0).abs() < 1e-9);
    }

    #[test]
    fn nullmsg_wavefront_is_local() {
        // Chain of 3 LPs; only LP2 is slow in round 1, others race ahead.
        let p = vec![
            RoundRecord {
                window_start: Time(0),
                window_end: Time(10),
                fused: false,
                lp_cost_ns: vec![1.0, 1.0, 10.0],
                lp_events: vec![1, 1, 1],
                lp_recv: vec![0, 0, 0],
            },
            RoundRecord {
                window_start: Time(10),
                window_end: Time(20),
                fused: false,
                lp_cost_ns: vec![1.0, 1.0, 1.0],
                lp_events: vec![1, 1, 1],
                lp_recv: vec![0, 0, 0],
            },
        ];
        let neighbors = vec![vec![1], vec![0, 2], vec![1]];
        let m = PerfModel::new(&p).with_params(zero_overhead());
        let nm = m.nullmsg(&neighbors);
        let bar = m.barrier();
        // Barrier total: 10 + ... round2 max over (1,1,1)=1 => 11.
        assert_eq!(bar.total_ns, 11.0);
        // Wavefront: LP0 ends r1 at 1, r2 start max(1, t1_prev=1)=1 -> 2.
        // LP2 ends at 10 + ... r2 start max(10, t1=1)=10 -> 11. Total 11,
        // but LP0's S is smaller than under barrier.
        assert!(nm.total_ns <= bar.total_ns + 1e-9);
        assert!(nm.psm[0].s_ns <= bar.psm[0].s_ns);
    }

    #[test]
    fn slowdown_factor_at_least_one() {
        let p = profile(40, &[&[5.0, 1.0, 9.0, 2.0], &[2.0, 8.0, 1.0, 3.0]]);
        let m = PerfModel::new(&p).with_params(zero_overhead());
        let d = m.unison_detailed(2, SchedConfig::default());
        assert!(d.slowdown >= 1.0 - 1e-9, "alpha = {}", d.slowdown);
    }

    #[test]
    fn hybrid_never_beats_flat_unison() {
        // Global load balancing (flat Unison) dominates per-host balancing
        // with the same total thread count.
        let p = profile(30, &[&[9.0, 1.0, 1.0, 1.0, 8.0, 2.0, 2.0, 2.0]]);
        let m = PerfModel::new(&p).with_params(zero_overhead());
        let groups = vec![vec![0u32, 1, 2, 3], vec![4, 5, 6, 7]];
        let hybrid = m.hybrid(&groups, 2);
        let flat = m.unison(4, SchedConfig::default());
        assert!(flat.total_ns <= hybrid.total_ns + 1e-6);
        assert_eq!(hybrid.cores, 4);
    }

    #[test]
    fn hybrid_single_group_equals_unison_shape() {
        let p = profile(10, &[&[4.0, 3.0, 2.0, 1.0]]);
        let m = PerfModel::new(&p).with_params(zero_overhead());
        let hybrid = m.hybrid(&[vec![0, 1, 2, 3]], 2);
        // LPT with exact costs on 2 threads: loads (4+1, 3+2) => 5/round.
        assert!((hybrid.total_ns - 50.0).abs() < 1e-9, "{}", hybrid.total_ns);
    }

    #[test]
    fn bucketed_worker_loads_sum_to_p_and_balanced_rows_have_no_cv() {
        let p = profile(10, &[&[4.0, 3.0, 2.0, 1.0]]);
        let m = PerfModel::new(&p).with_params(zero_overhead());
        let b = m.bucketed_worker_loads(2, SchedConfig::default(), 4);
        assert_eq!(b.len(), 3); // 4 + 4 + 2 rounds
        let total: f64 = b.iter().flatten().sum();
        assert_eq!(total, m.unison(2, SchedConfig::default()).p_total());
        assert_eq!(mean_cv(&[vec![5.0, 5.0], vec![0.0, 0.0]]), 0.0);
        assert!((mean_cv(&[vec![1.0, 3.0]]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bucketed_costs_shape() {
        let p = profile(10, &[&[1.0, 2.0]]);
        let m = PerfModel::new(&p);
        let b = m.bucketed_costs(4);
        assert_eq!(b.len(), 3); // 4 + 4 + 2 rounds
        assert_eq!(b[0], vec![4.0, 8.0]);
        assert_eq!(b[2], vec![2.0, 4.0]);
    }
}
