//! Virtual-core performance model.
//!
//! The paper's performance evaluation ran on 24–144 physical cores. This
//! reproduction targets machines where that parallelism may not exist (the
//! reference environment has two cores), so parallel wall-clock speedup
//! beyond two threads cannot be measured directly. Instead, a run is first executed with the
//! instrumented single-thread engine (`MetricsLevel::PerRound`), producing
//! the exact per-round, per-LP processing-cost matrix `P_i(r)` plus message
//! counts, from which an LP's messaging cost is `M_i(r) = recv_i(r) ×
//! per_msg_ns`. This module then *replays* the synchronization structure of
//! each algorithm over that matrix for any number of virtual cores:
//!
//! - **sequential**: `T = Σ_r Σ_i P_i(r)`;
//! - **null message** (local sync): wavefront recurrence
//!   `t_i(r) = max(t_i(r-1), max_{j∈nbr(i)} t_j(r-1)) + P_i(r) + M_i(r)`;
//! - **barriered** algorithms, one round loop ([`PerfModel::replay`]) that
//!   differs only in where each LP runs and in the round's fixed cost `C`:
//!   `T = Σ_r (max_e Σ_{i on e} (P_i(r) + M_i(r)) + C)`, every executor `e`
//!   charged the P and M of its own LPs and S for the rest of the round.
//!   **Barrier** pins LP `i` to core `i` (`C_bar`); **Unison** (T workers,
//!   load-adaptive) LPT-places the LPs in the order the configured
//!   scheduling metric gives, exactly as the real kernel would (estimates
//!   from the previous round, re-sorted every scheduling period;
//!   `C_round` + the re-sort); **hybrid** LPT-places each host's LPs on
//!   that host's workers by their exact cost (`C_bar + C_round`).
//!
//! Because every quantity the figures report (total time, per-round S/T
//! ratio, per-thread P/S/M, slowdown factor α, speedup curves, crossover
//! points) is a deterministic function of these recurrences over measured
//! load vectors, the *shape* of each figure is preserved; only the absolute
//! nanoseconds inherit this machine's single-core event rate.

use crate::metrics::{Psm, RoundRecord};
use crate::sched::{
    ideal_makespan, ideal_order, lpt_assign, order_by_estimate, SchedConfig, SchedMetric,
};

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
    /// Unison only: the slowdown factor α, Σ actual round time / Σ
    /// idealistic round time (Fig. 12c's metric).
    pub alpha: Option<f64>,
    /// Unison only: the modelled cost of re-sorting, nanoseconds.
    pub sched_cost_ns: Option<f64>,
}

impl ModelResult {
    fn new(algorithm: String, total_ns: f64, psm: Vec<Psm>, s_ratio_per_round: Vec<f32>) -> Self {
        ModelResult {
            algorithm,
            cores: psm.len(),
            total_ns,
            psm,
            s_ratio_per_round,
            alpha: None,
            sched_cost_ns: None,
        }
    }

    /// P/S/M summed over the executors.
    pub fn psm_sum(&self) -> Psm {
        self.psm.iter().copied().sum()
    }

    /// Aggregate S/(P+S+M) over the whole run.
    pub fn s_ratio(&self) -> f64 {
        self.psm_sum().s_ratio()
    }

    /// Aggregate P over executors, nanoseconds.
    pub fn p_total(&self) -> f64 {
        self.psm_sum().p_ns as f64
    }

    /// Aggregate S over executors, nanoseconds.
    pub fn s_total(&self) -> f64 {
        self.psm_sum().s_ns as f64
    }

    /// Aggregate M over executors, nanoseconds.
    pub fn m_total(&self) -> f64 {
        self.psm_sum().m_ns as f64
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
        let psm = Psm {
            p_ns: total as u64,
            ..Psm::default()
        };
        ModelResult::new("sequential".into(), total, vec![psm], Vec::new())
    }

    /// The barriered round loop. Each round, LP `i` costs its measured P
    /// and its receives' M; `plan(r, rec, busy, owner)` sees each LP's P+M
    /// in `busy`, puts every LP on one of the `executors` (`owner[i]`) and
    /// returns the round's fixed cost. The round lasts the slowest
    /// executor's P+M plus that cost; each executor is charged the P and M
    /// of its own LPs and waits out the rest of the round as S.
    fn replay(
        &self,
        algorithm: String,
        executors: usize,
        mut plan: impl FnMut(usize, &RoundRecord, &[f64], &mut [usize]) -> f64,
    ) -> ModelResult {
        let n = self.lp_count();
        let mut psm = vec![Psm::default(); executors];
        let mut s_ratio = Vec::with_capacity(self.profile.len());
        let mut total = 0.0f64;
        let mut owner = vec![0; n];
        for (r, rec) in self.profile.iter().enumerate() {
            let p = |i: usize| rec.lp_cost_ns[i] as f64;
            let m = |i: usize| rec.lp_recv[i] as f64 * self.params.per_msg_ns;
            let busy: Vec<f64> = (0..n).map(|i| p(i) + m(i)).collect();
            let fixed = plan(r, rec, &busy, &mut owner);
            let mut charged = vec![(0.0f64, 0.0f64); executors];
            for (i, &e) in owner.iter().enumerate() {
                charged[e].0 += p(i);
                charged[e].1 += m(i);
            }
            let round = charged.iter().map(|(p, m)| p + m).fold(0.0, f64::max) + fixed;
            total += round;
            let mut s_sum = 0.0f64;
            for (x, (p, m)) in psm.iter_mut().zip(charged) {
                let s = round - (p + m);
                x.p_ns += p as u64;
                x.m_ns += m as u64;
                x.s_ns += s as u64;
                s_sum += s;
            }
            s_ratio.push((s_sum / (executors as f64 * round)) as f32);
        }
        ModelResult::new(algorithm, total, psm, s_ratio)
    }

    /// Barrier synchronization with each LP pinned to its own core.
    pub fn barrier(&self) -> ModelResult {
        self.replay("barrier".into(), self.lp_count(), |_, _, _, owner| {
            for (i, e) in owner.iter_mut().enumerate() {
                *e = i;
            }
            self.params.barrier_ns
        })
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
        ModelResult::new("nullmsg".into(), total, psm, s_ratio)
    }

    /// Unison with `cores` workers and the given scheduling configuration,
    /// with its slowdown factor α and modelled scheduler cost.
    pub fn unison(&self, cores: usize, sched: SchedConfig) -> ModelResult {
        self.replay_unison(cores, sched, |_| {})
    }

    /// The replayed per-worker loads (P+M) summed into `bucket`-round
    /// buckets (Fig. 13's Unison heat map): `out[bucket][worker]`,
    /// nanoseconds.
    pub fn bucketed_worker_loads(
        &self,
        cores: usize,
        sched: SchedConfig,
        bucket: usize,
    ) -> Vec<Vec<f64>> {
        let mut rows = Vec::with_capacity(self.profile.len());
        self.replay_unison(cores, sched, |loads| rows.push(loads));
        bucketed(rows, bucket)
    }

    /// The Unison plan: LPT over the metric's order, re-sorted on the
    /// period boundary exactly as the kernel does; `on_round` sees each
    /// round's per-worker loads.
    fn replay_unison(
        &self,
        cores: usize,
        sched: SchedConfig,
        mut on_round: impl FnMut(Vec<f64>),
    ) -> ModelResult {
        assert!(cores > 0);
        let n = self.lp_count();
        let period = sched.effective_period(n) as usize;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let (mut ideal_total, mut sched_total) = (0.0f64, 0.0f64);
        let label = format!("unison({cores})");
        let mut result = self.replay(label, cores, |r, rec, busy, owner| {
            let mut sched_cost = 0.0;
            if r > 0 && r % period == 0 && sched.metric != SchedMetric::None {
                let estimates: Vec<u64> = match sched.metric {
                    SchedMetric::ByLastRoundTime => self.profile[r - 1]
                        .lp_cost_ns
                        .iter()
                        .map(|&c| c as u64)
                        .collect(),
                    SchedMetric::ByPendingEvents => {
                        rec.lp_events.iter().map(|&e| e as u64).collect()
                    }
                    SchedMetric::None => unreachable!(),
                };
                order = order_by_estimate(&estimates);
                sched_cost = self.params.sched_per_lp_ns * n as f64;
            }
            on_round(lpt_assign(&order, busy, cores, owner));
            ideal_total += ideal_makespan(busy, cores) + self.params.unison_round_ns;
            sched_total += sched_cost;
            self.params.unison_round_ns + sched_cost
        });
        result.alpha = Some(if ideal_total > 0.0 {
            result.total_ns / ideal_total
        } else {
            1.0
        });
        result.sched_cost_ns = Some(sched_total);
        result
    }

    /// The paper's hybrid kernel (§5.2) over `groups` simulated hosts, which
    /// partition the LPs: each host LPT-places its own LPs, longest P+M
    /// first (exact costs keep the model conservative in the host's favor),
    /// on its `per_host` workers; across hosts the round is a barrier (the
    /// window all-reduce), so it costs both fixed costs.
    pub fn hybrid(&self, groups: &[Vec<u32>], per_host: usize) -> ModelResult {
        assert!(per_host > 0);
        assert!(!groups.is_empty());
        let label = format!("hybrid({}x{per_host})", groups.len());
        let mut order = Vec::new();
        self.replay(label, groups.len() * per_host, |_, _, busy, owner| {
            for (h, group) in groups.iter().enumerate() {
                order.clone_from(group);
                ideal_order(&mut order, busy);
                lpt_assign(&order, busy, per_host, owner);
                for &lp in group {
                    owner[lp as usize] += h * per_host;
                }
            }
            self.params.barrier_ns + self.params.unison_round_ns
        })
    }

    /// Sums per-LP costs into `bucket`-round buckets (Fig. 13 heat maps).
    /// Returns `out[bucket][lp]` in nanoseconds.
    pub fn bucketed_costs(&self, bucket: usize) -> Vec<Vec<f64>> {
        let rows = self
            .profile
            .iter()
            .map(|rec| rec.lp_cost_ns.iter().map(|&c| c as f64).collect());
        bucketed(rows, bucket)
    }
}

/// Sums consecutive `bucket`-round runs of per-round rows.
fn bucketed(rows: impl IntoIterator<Item = Vec<f64>>, bucket: usize) -> Vec<Vec<f64>> {
    assert!(bucket > 0);
    let mut out: Vec<Vec<f64>> = Vec::new();
    for (r, row) in rows.into_iter().enumerate() {
        match out.last_mut() {
            Some(sum) if r % bucket != 0 => {
                for (acc, x) in sum.iter_mut().zip(row) {
                    *acc += x;
                }
            }
            _ => out.push(row),
        }
    }
    out
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
        let alpha = m
            .unison(2, SchedConfig::default())
            .alpha
            .expect("unison has α");
        assert!(alpha >= 1.0 - 1e-9, "alpha = {alpha}");
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
