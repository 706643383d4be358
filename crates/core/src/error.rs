//! Structured failure reporting for kernel runs.
//!
//! The crash-safety layer (DESIGN.md §4.2) turns the two historically fatal
//! failure modes of a parallel run — a panicking worker and a stalled round
//! — into values: [`SimError`] carries a diagnostic bundle plus the partial
//! [`RunReport`] accumulated up to the abort, so a multi-hour simulation
//! that dies at 99% still tells the operator *where* (kernel, round, phase,
//! LP, virtual time) and *why* (panic payload or stall diagnosis) instead
//! of hanging the process.
//!
//! [`kernel::try_run`](crate::kernel::try_run) is the fallible entry point;
//! the legacy [`kernel::run`](crate::kernel::run) remains a thin wrapper
//! that panics (with the same diagnostics) on contained failures.

use std::any::Any;
use std::fmt;
use std::time::Duration;

use crate::event::LpId;
use crate::kernel::KernelError;
use crate::metrics::RunReport;
use crate::time::Time;

/// Which part of a synchronization round a failure happened in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunPhase {
    /// Executing node events (Unison phase 1, or the sequential kernel's
    /// event loop).
    Process,
    /// Executing a global event on the public LP.
    Global,
    /// Draining cross-LP mailboxes (Unison phase 3).
    Receive,
    /// Outside any event-processing phase (window computation, setup).
    Control,
}

impl fmt::Display for RunPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RunPhase::Process => "process",
            RunPhase::Global => "global",
            RunPhase::Receive => "receive",
            RunPhase::Control => "control",
        };
        f.write_str(s)
    }
}

/// Diagnostic bundle describing a contained worker panic.
#[derive(Debug)]
pub struct FailureDiagnostics {
    /// Kernel that produced the failure (e.g. `"unison"`).
    pub kernel: &'static str,
    /// Synchronization round at the time of the panic (0 for sequential).
    pub round: u64,
    /// Round phase the panic happened in.
    pub phase: RunPhase,
    /// LP whose event was executing, when known.
    pub lp: Option<LpId>,
    /// Virtual time of the event being executed (or the round's window
    /// start when no event was in flight).
    pub virtual_time: Time,
    /// Worker/thread index that panicked.
    pub worker: usize,
    /// Stringified panic payload (`&str`/`String` payloads verbatim).
    pub panic_message: String,
}

impl fmt::Display for FailureDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel {} worker {} panicked in round {} ({} phase",
            self.kernel, self.worker, self.round, self.phase
        )?;
        if let Some(lp) = self.lp {
            write!(f, ", LP {}", lp.0)?;
        }
        write!(f, ") at t={}: {}", self.virtual_time, self.panic_message)
    }
}

/// Diagnosis of a stalled run, produced by the round-progress watchdog.
#[derive(Debug)]
pub struct StallDiagnostics {
    /// Kernel that stalled.
    pub kernel: &'static str,
    /// Last round that made progress before the stall.
    pub round: u64,
    /// The configured per-round wall-clock deadline that expired.
    pub deadline: Duration,
    /// Virtual time the run had reached when it stalled.
    pub virtual_time: Time,
    /// LPs that still had pending work but could not advance.
    pub blocked: Vec<LpId>,
}

impl fmt::Display for StallDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel {} made no progress for {:?} after round {} (t={})",
            self.kernel, self.deadline, self.round, self.virtual_time
        )?;
        if !self.blocked.is_empty() {
            let ids: Vec<String> = self.blocked.iter().map(|l| l.0.to_string()).collect();
            write!(f, "; blocked LPs: [{}]", ids.join(", "))?;
        }
        Ok(())
    }
}

/// Error type of the fallible [`kernel::try_run`](crate::kernel::try_run)
/// entry point.
#[derive(Debug)]
pub enum SimError {
    /// The configuration or world was rejected before the run started
    /// (same cases as [`KernelError`]).
    Config(KernelError),
    /// A worker thread panicked. The run was aborted via barrier poisoning
    /// and every surviving worker drained out cleanly.
    WorkerPanic {
        /// Where and why the panic happened.
        diag: FailureDiagnostics,
        /// Totals accumulated up to the abort.
        partial: Box<RunReport>,
    },
    /// The round-progress watchdog saw no progress within its deadline and
    /// aborted the run.
    Stalled {
        /// Stall diagnosis (the blocked LPs).
        diag: StallDiagnostics,
        /// Totals accumulated up to the abort.
        partial: Box<RunReport>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::WorkerPanic { diag, .. } => write!(f, "{diag}"),
            SimError::Stalled { diag, .. } => write!(f, "watchdog: {diag}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<KernelError> for SimError {
    fn from(e: KernelError) -> Self {
        SimError::Config(e)
    }
}

/// Renders a `catch_unwind` payload: `&str`/`String` payloads verbatim,
/// anything else as a placeholder.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_diagnostics_display_mentions_site() {
        let d = FailureDiagnostics {
            kernel: "unison",
            round: 7,
            phase: RunPhase::Process,
            lp: Some(LpId(3)),
            virtual_time: Time(1_000),
            worker: 2,
            panic_message: "boom".into(),
        };
        let s = d.to_string();
        assert!(s.contains("unison"), "{s}");
        assert!(s.contains("round 7"), "{s}");
        assert!(s.contains("LP 3"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }

    #[test]
    fn stall_diagnostics_display_mentions_blocked_lps() {
        let d = StallDiagnostics {
            kernel: "unison",
            round: 0,
            deadline: Duration::from_millis(50),
            virtual_time: Time(5),
            blocked: vec![LpId(0), LpId(1)],
        };
        let s = d.to_string();
        assert!(s.contains("after round 0 (t=5"), "{s}");
        assert!(s.contains("blocked LPs: [0, 1]"), "{s}");
    }

    #[test]
    fn panic_message_downcasts() {
        let b: Box<dyn Any + Send> = Box::new("static");
        assert_eq!(panic_message(b.as_ref()), "static");
        let b: Box<dyn Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(b.as_ref()), "owned");
        let b: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(b.as_ref()), "<non-string panic payload>");
    }
}
