//! The self-healing resilient driver (DESIGN.md §4.7).
//!
//! [`kernel::try_run`] makes worker failures *containable*: a panic in any
//! phase, or a round that stops making progress under the watchdog, comes
//! back as a structured [`SimError`] instead of hanging or aborting the
//! process. This module makes them *survivable*: [`run_resilient`] pins the
//! partition, writes an initial (t = 0) checkpoint, installs the periodic
//! checkpoint chain, and on any contained failure rolls back to the newest
//! usable checkpoint (skipping corrupt files), optionally degrades the
//! thread pool, sleeps an exponential backoff, and retries — recording every
//! rollback in the [`RecoveryLog`] it returns beside the world and report.
//!
//! Checkpoints are bit-deterministic (DESIGN.md §4.2) and thread-count
//! invariance is a core kernel property, so a recovered run — even one that
//! finished on fewer workers than it started with — produces a final world
//! digest bit-identical to the run that never failed. The kernels carry no
//! injection hooks: faults come from the model (a handler that panics or
//! sleeps, a `Snapshot::save` that fails), and the fault matrix
//! (`crates/core/tests/fault_matrix.rs`) pins the recovery contract with
//! exactly such faults.

use std::time::Duration;
// Instant is waived for this file by xtask lint (recovery wall-cost
// accounting happens between attempts, never on a simulation hot path).
use std::time::Instant;

use crate::checkpoint::{self, CheckpointConfig, Snapshot, SnapshotError};
use crate::error::{RunPhase, SimError};
use crate::kernel::{self, KernelKind, PartitionMode, RunConfig};
use crate::metrics::RunReport;
use crate::time::Time;
use crate::world::{SimNode, World};

// ---------------------------------------------------------------------------
// Recovery policy and log
// ---------------------------------------------------------------------------

/// How [`run_resilient`] reacts to a contained failure.
#[derive(Clone, Debug)]
pub struct RecoveryPolicy {
    /// Where and how often checkpoints are written. The directory is
    /// created if missing; an initial (t = 0) image is always written so a
    /// failure before the first periodic checkpoint can still roll back.
    pub checkpoints: CheckpointConfig,
    /// Retry budget: total rollbacks allowed before the failure is
    /// returned to the caller (default 3).
    pub max_retries: u32,
    /// Base of the exponential retry backoff: attempt *n* sleeps
    /// `backoff_base * 2^n` before resuming (default 10 ms).
    pub backoff_base: Duration,
    /// Rebuild the pool *degraded* on retry: each rollback halves the
    /// Unison worker count, never below 1 — the "failed worker stays dead"
    /// model. Thread count does not affect results, so degraded replays
    /// stay digest-identical (default off).
    pub degrade: bool,
}

impl RecoveryPolicy {
    /// A policy with the default retry budget (3), backoff base (10 ms)
    /// and no degradation.
    pub fn new(checkpoints: CheckpointConfig) -> Self {
        RecoveryPolicy {
            checkpoints,
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
            degrade: false,
        }
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the exponential-backoff base.
    pub fn with_backoff_base(mut self, d: Duration) -> Self {
        self.backoff_base = d;
        self
    }

    /// Enables worker-pool degradation on retry.
    pub fn with_degrade(mut self, on: bool) -> Self {
        self.degrade = on;
        self
    }
}

/// One rollback performed by [`run_resilient`].
#[derive(Clone, Debug)]
pub struct RollbackRecord {
    /// Display form of the contained [`SimError`] that forced the rollback.
    pub fault: String,
    /// Synchronization round the failed attempt died in (the watchdog
    /// reports the last round that made progress).
    pub round: u64,
    /// Phase the failure happened in ([`RunPhase::Control`] for stalls).
    pub phase: RunPhase,
    /// Virtual time of the checkpoint the run rolled back to.
    pub rolled_back_to: Time,
    /// Rounds executed by the aborted attempt — an upper bound on the
    /// discarded work (checkpoints the attempt wrote before dying are
    /// reused, but the round ↔ checkpoint mapping is not recorded).
    pub rounds_lost: u64,
    /// Wall time spent on the aborted attempt plus the rollback itself
    /// (checkpoint scan + decode), excluding the backoff sleep.
    pub wall_cost: Duration,
    /// Corrupt checkpoint files skipped while scanning for a usable one.
    pub skipped_corrupt: u32,
    /// Worker count the pool was rebuilt with, when the policy degraded it
    /// (`None` when the count was unchanged).
    pub degraded_threads: Option<u32>,
    /// Backoff slept before this retry.
    pub backoff: Duration,
}

/// Rollback history of a resilient run, returned by [`run_resilient`].
#[derive(Clone, Debug, Default)]
pub struct RecoveryLog {
    /// Every rollback, in order.
    pub rollbacks: Vec<RollbackRecord>,
    /// Total wall time lost to failures: aborted attempts, rollbacks and
    /// backoff sleeps.
    pub total_recovery_wall: Duration,
}

impl RecoveryLog {
    /// Number of rollbacks performed.
    pub fn rollback_count(&self) -> usize {
        self.rollbacks.len()
    }
}

// ---------------------------------------------------------------------------
// The resilient driver
// ---------------------------------------------------------------------------

/// Runs a world with automatic rollback-and-retry on contained failures.
///
/// The driver:
///
/// 1. pins the partition (LP identity is part of the deterministic
///    tie-break keys, so every attempt must use the same assignment);
/// 2. writes an initial checkpoint at t = 0 and — for the Unison kernel,
///    the one that executes global events — installs the periodic
///    checkpoint chain of `policy.checkpoints`;
/// 3. runs [`kernel::try_run`]; on [`SimError::WorkerPanic`] or
///    [`SimError::Stalled`] it rolls back to the newest *usable* checkpoint
///    (corrupt files are skipped, older ones tried), optionally degrades
///    the worker pool, sleeps an exponential backoff and retries, up to
///    `policy.max_retries` rollbacks.
///
/// On success it returns the world, the final attempt's report and the
/// [`RecoveryLog`] — empty if no failure happened. Configuration errors,
/// checkpoint I/O errors and exhausted retry budgets are returned as the
/// original [`SimError`].
///
/// Checkpoints are bit-deterministic and results are thread-count
/// invariant, so a recovered run is digest-identical to one that never
/// failed — the invariant pinned by `crates/core/tests/fault_matrix.rs`.
///
/// Limitations (DESIGN.md §4.7): worlds carrying *user* global events
/// cannot be checkpointed (closures do not serialize) and are rejected
/// with [`SimError::Checkpoint`]; the sequential, barrier and null-message
/// kernels take no mid-run checkpoints (no global-event execution), so
/// recovery under them restarts from the initial image.
pub fn run_resilient<N>(
    world: World<N>,
    cfg: &RunConfig,
    policy: &RecoveryPolicy,
) -> Result<(World<N>, RunReport, RecoveryLog), SimError>
where
    N: SimNode + Snapshot,
    N::Payload: Snapshot,
{
    let partition = kernel::build_partition(&world.graph, &cfg.partition)?;
    let assignment: Vec<u32> = partition.node_lp.iter().map(|lp| lp.0).collect();
    let mut run_cfg = cfg.clone();
    run_cfg.partition = PartitionMode::Manual(assignment);

    std::fs::create_dir_all(&policy.checkpoints.dir).map_err(SnapshotError::Io)?;
    let initial = policy.checkpoints.file_at(Time::ZERO);
    let mut world = checkpoint::write_initial(world, &partition, cfg.fel, &initial)?;

    // Only the kernel whose global events checkpoint (Unison) can run the
    // periodic chain; the others roll back to t = 0.
    let with_chain = matches!(cfg.kernel, KernelKind::Unison { .. });
    if with_chain {
        checkpoint::schedule_checkpoints(&mut world, &policy.checkpoints);
    }

    let mut log = RecoveryLog::default();
    let mut attempt: u32 = 0;
    loop {
        let attempt_start = Instant::now();
        match kernel::try_run(world, &run_cfg) {
            Ok((w, report)) => return Ok((w, report, log)),
            Err(err @ (SimError::WorkerPanic { .. } | SimError::Stalled { .. })) => {
                if attempt >= policy.max_retries {
                    return Err(err);
                }
                let attempt_wall = attempt_start.elapsed();
                let rollback_start = Instant::now();

                let degraded_threads = if policy.degrade {
                    degrade_kernel(&mut run_cfg.kernel)
                } else {
                    None
                };
                let (restored, rolled_back_to, skipped_corrupt) =
                    select_rollback::<N>(policy, with_chain)?;
                world = restored;
                let wall_cost = attempt_wall + rollback_start.elapsed();

                let backoff = policy
                    .backoff_base
                    .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
                std::thread::sleep(backoff);

                let (round, phase, rounds_lost) = match &err {
                    SimError::WorkerPanic { diag, partial } => {
                        (diag.round, diag.phase, partial.rounds)
                    }
                    SimError::Stalled { diag, partial } => {
                        (diag.round, RunPhase::Control, partial.rounds)
                    }
                    // INVARIANT: the outer match arm only binds the two
                    // variants above into `err`.
                    _ => unreachable!("non-recoverable error in recovery arm"),
                };
                log.rollbacks.push(RollbackRecord {
                    fault: err.to_string(),
                    round,
                    phase,
                    rolled_back_to,
                    rounds_lost,
                    wall_cost,
                    skipped_corrupt,
                    degraded_threads,
                    backoff,
                });
                log.total_recovery_wall += wall_cost + backoff;
                attempt += 1;
            }
            Err(other) => return Err(other),
        }
    }
}

/// Halves the worker count of a degraded retry (never below 1). Returns
/// the new count, or `None` when the kernel has no pool to shrink (or is
/// already at 1 worker).
fn degrade_kernel(kernel: &mut KernelKind) -> Option<u32> {
    match kernel {
        KernelKind::Unison { threads } if *threads > 1 => {
            *threads = (*threads / 2).max(1);
            Some(*threads as u32)
        }
        _ => None,
    }
}

/// Restores the newest usable checkpoint: corrupt files are skipped (and
/// counted), older checkpoints tried, I/O errors propagated. Errors with
/// [`SimError::CorruptSnapshot`] when no file in the directory decodes.
fn select_rollback<N>(
    policy: &RecoveryPolicy,
    with_chain: bool,
) -> Result<(World<N>, Time, u32), SimError>
where
    N: SimNode + Snapshot,
    N::Payload: Snapshot,
{
    let mut skipped = 0u32;
    let mut files = checkpoint::list_checkpoints(&policy.checkpoints.dir)?;
    while let Some(path) = files.pop() {
        let chain = if with_chain {
            Some(&policy.checkpoints)
        } else {
            None
        };
        match checkpoint::resume::<N>(&path, chain) {
            Ok(resumed) => return Ok((resumed.world, resumed.time, skipped)),
            Err(SnapshotError::Corrupt(_)) => {
                skipped += 1;
                continue;
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(SimError::CorruptSnapshot {
        detail: format!(
            "no usable checkpoint in {} ({skipped} corrupt file(s) skipped)",
            policy.checkpoints.dir.display()
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrade_halves_down_to_one_worker() {
        let mut k = KernelKind::Unison { threads: 4 };
        assert_eq!(degrade_kernel(&mut k), Some(2));
        assert_eq!(degrade_kernel(&mut k), Some(1));
        assert_eq!(degrade_kernel(&mut k), None, "floor at 1 worker");
        let mut k = KernelKind::Sequential { compat_keys: true };
        assert_eq!(degrade_kernel(&mut k), None, "no pool to shrink");
    }
}
