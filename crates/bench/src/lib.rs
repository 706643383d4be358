//! # unison-bench
//!
//! The one place a *modelled* number is produced. A scenario row with a
//! `[model]` table (DESIGN.md §4.10) is profiled on the instrumented
//! one-thread engine — once under its own partition, once more under the
//! baselines' static partition if it names one — and the virtual-core
//! performance model replays each algorithm's synchronization structure
//! over the recorded per-round, per-LP cost matrix (DESIGN.md §3.2).
//! `unison-run` prints the resulting fixed record after the row's real run;
//! every paper figure is a filter over it.
//!
//! The model is *uncalibrated* (`CostParams::default()`) and its Unison
//! recurrence is the paper's single-order LPT, not this kernel's home-first
//! claims (ROADMAP item 4).

use std::io::{self, Write};

use unison_core::sched::home_range;
use unison_core::{ModelResult, SimError};
use unison_netsim::{NetworkBuilder, SimResult};
use unison_scenario::{PartitionSpec, ScenarioSpec};
use unison_stats::Summary;
use unison_topology::Topology;

/// One algorithm replayed over one profiled partition.
pub struct ModelRecord {
    /// The replay: algorithm label (`sequential`, `barrier`, `nullmsg`,
    /// `unison(c)`, `hybrid(hxt)`), virtual cores, modelled wall time T,
    /// per-executor P/S/M, the per-round S/T series and, for `unison`, α
    /// and the modelled cost of re-sorting.
    pub result: ModelResult,
    /// The partition the profile was recorded under, as the file names it.
    pub partition: String,
    /// LPs and events of the profiled run (deterministic per partition).
    pub lp_count: u32,
    pub events: u64,
}

impl ModelRecord {
    fn new(run: &SimResult, partition: &PartitionSpec, result: ModelResult) -> Self {
        ModelRecord {
            result,
            partition: partition.to_string(),
            lp_count: run.kernel.lp_count,
            events: run.kernel.events,
        }
    }

    /// Per-round S/T as (mean, min, max); `None` for the sequential record,
    /// which has no rounds to wait in.
    pub fn round_s_ratio(&self) -> Option<(f64, f64, f64)> {
        let mut rounds = Summary::new();
        for &s in &self.result.s_ratio_per_round {
            rounds.add(s as f64);
        }
        (rounds.count() > 0).then(|| (rounds.mean(), rounds.min(), rounds.max()))
    }
}

/// Profiles `spec` as its `[model]` table asks and replays every algorithm:
/// `sequential`, `barrier` and `nullmsg` on the baseline partition (when one
/// is named), then `sequential` and `unison` at `cores` under the row's own
/// `[run]` partition and the `[model]` scheduler settings, and `hybrid` when
/// `hybrid_hosts` is set. No `[model]`, no records.
pub fn model_records(topo: &Topology, spec: &ScenarioSpec) -> Result<Vec<ModelRecord>, SimError> {
    let Some(model) = &spec.model else {
        return Ok(Vec::new());
    };
    let profile = |partition: &PartitionSpec| {
        NetworkBuilder::from_scenario(topo, spec)
            .build()
            .profile(partition.mode(topo))
    };
    let mut out = Vec::new();
    if let Some(partition) = &model.baseline {
        let run = profile(partition)?;
        let m = run.perf_model();
        for result in [
            m.sequential(),
            m.barrier(),
            m.nullmsg(&run.kernel.lp_neighbors),
        ] {
            out.push(ModelRecord::new(&run, partition, result));
        }
    }
    let partition = &spec.run.partition;
    let run = profile(partition)?;
    let m = run.perf_model();
    out.push(ModelRecord::new(&run, partition, m.sequential()));
    let unison = m.unison(model.cores, model.sched);
    out.push(ModelRecord::new(&run, partition, unison));
    if let Some(hosts) = model.hybrid_hosts {
        // The modelled hosts: the kernel's own home cut of the LP ids,
        // one contiguous equal-count (±1) range per simulated host.
        let lps = run.kernel.lp_count as usize;
        let groups: Vec<Vec<u32>> = (0..hosts)
            .map(|h| home_range(lps, hosts, h).map(|lp| lp as u32).collect())
            .collect();
        let hybrid = m.hybrid(&groups, model.cores / hosts);
        out.push(ModelRecord::new(&run, partition, hybrid));
    }
    Ok(out)
}

/// Prints the records as one aligned long-format table.
pub fn write_records(records: &[ModelRecord], out: &mut impl Write) -> io::Result<()> {
    let secs = |ns: f64| format!("{:.6}", ns / 1e9);
    let opt = |v: Option<String>| v.unwrap_or_else(|| "-".into());
    writeln!(
        out,
        "model:    uncalibrated model, paper-LPT recurrence; T P S M sched in seconds, \
         S/T-round = per-round S/T mean/min/max"
    )?;
    writeln!(
        out,
        "  {:<13} {:<20} {:>5} {:>9} {:>5} {:>10} {:>10} {:>10} {:>10} {:>7} {:>20} {:>7} {:>9}",
        "algorithm",
        "partition",
        "#lp",
        "events",
        "cores",
        "T",
        "P",
        "S",
        "M",
        "S/T",
        "S/T-round",
        "alpha",
        "sched"
    )?;
    for r in records {
        let m = &r.result;
        writeln!(
            out,
            "  {:<13} {:<20} {:>5} {:>9} {:>5} {:>10} {:>10} {:>10} {:>10} {:>7.4} {:>20} {:>7} {:>9}",
            m.algorithm,
            r.partition,
            r.lp_count,
            r.events,
            m.cores,
            secs(m.total_ns),
            secs(m.p_total()),
            secs(m.s_total()),
            secs(m.m_total()),
            m.s_ratio(),
            opt(r
                .round_s_ratio()
                .map(|(mean, min, max)| format!("{mean:.4}/{min:.4}/{max:.4}"))),
            opt(m.alpha.map(|a| format!("{a:.4}"))),
            opt(m.sched_cost_ns.map(secs)),
        )?;
    }
    Ok(())
}
