//! unison-telemetry: the analysis and export side of the run profiler.
//!
//! The *recording* side lives in `unison-core` (`unison_core::telemetry`):
//! per-worker bounded span buffers written lock-free from the kernels' hot
//! loops. This crate consumes the merged [`unison_core::RunTelemetry`]
//! attached to a [`unison_core::RunReport`] and provides:
//!
//! - [`chrome_trace_json`]: Chrome-trace/Perfetto JSON export (and
//!   [`validate_chrome_trace`], its round-trip validator);
//! - [`write_report`]: the textual run report `unison-run --explain`
//!   prints — P/S/M and the header from the `RunReport`, the per-round
//!   load imbalance and the mailbox traffic from the spans. It prints only
//!   what was measured.
//!
//! See DESIGN.md §4.3 for the observability contract: recording is
//! provably non-perturbing (one writer per buffer, no new synchronization
//! edges, no scheduling decision that reads whether it records) and costs
//! one branch per recording site below `MetricsLevel::Spans`.

pub mod chrome;
pub mod json;
pub mod report;

pub use chrome::{chrome_trace_json, chrome_trace_value, validate_chrome_trace, TraceSummary};
pub use report::{report_string, write_report};
