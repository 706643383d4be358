//! # unison-bench
//!
//! Shared harness for the per-figure/per-table experiment binaries (see
//! `src/bin/`). The pattern, following DESIGN.md §3.2: a workload is
//! executed once per partition scheme on the instrumented single-thread
//! engine (recording the exact per-round, per-LP cost matrix), and the
//! virtual-core performance model replays each algorithm's synchronization
//! structure over that matrix. Single-thread quantities (absolute event
//! rate, locality) are measured for real.

pub mod args;
pub mod harness;
pub mod surrogate;

pub use harness::{partition_info, profile_run, Scale, Scenario};
