//! # unison-core
//!
//! Simulation kernels for the unison-rs workspace — a from-scratch Rust
//! reproduction of *Unison: A Parallel-Efficient and User-Transparent
//! Network Simulation Kernel* (EuroSys '24).
//!
//! The crate provides:
//!
//! - the discrete-event foundation: [`Time`], [`Event`], the deterministic
//!   tie-breaking [`EventKey`] (§5.2), and the future event list [`Fel`];
//! - the model interface: [`SimNode`], [`SimCtx`], [`WorldBuilder`] — model
//!   code is identical under every kernel (*user transparency*);
//! - the fine-grained partitioner (Algorithm 1, [`fine_grained_partition`])
//!   and manual/static partitions for the baselines;
//! - two kernels ([`kernel::run`]): sequential DES and the Unison kernel;
//! - load-adaptive scheduling ([`sched`]), P/S/M metrics ([`RunReport`],
//!   [`Psm`]), and the virtual-core performance replay ([`PerfModel`]),
//!   which is where the barrier and null-message PDES baselines come from;
//! - failure containment: [`kernel::try_run`] ends a run whose model
//!   panics, or whose rounds stall past the watchdog, with a [`SimError`]
//!   and a partial report — nothing is checkpointed or retried;
//! - the canonical state encoding ([`Snapshot`]) that golden digests hash.
//!
//! # Public surface
//!
//! Model code names items of the crate root only. Every other module is
//! private, so the compiler's dead-code lint sees the kernel's internals.
//! Five modules stay public, each because a path outside the crate names
//! it:
//!
//! - [`kernel`]: `kernel::run`, `kernel::MAX_WORKERS` and
//!   `kernel::build_partition`, which the scenario layer checks a
//!   partition with before any run;
//! - [`sched`]: the scheduler's ordering and makespan functions, which the
//!   run report (`unison-telemetry`), the figure binaries and the paper
//!   claims replay;
//! - [`telemetry`]: the span and scheduler-decision records that
//!   `unison-telemetry` exports as traces;
//! - [`sync`] and [`mailbox`]: the barriers and the per-pair mailbox that
//!   the repository benchmark's micro rows time (the barriers are also
//!   the loom models' subject);
//! - `sync_shim`, under `--cfg loom` only: the atomics the loom models
//!   build their harnesses from.
//!
//! # Example: user transparency
//!
//! The same world runs on any kernel; only the configuration changes.
//!
//! ```
//! use unison_core::{
//!     kernel, NodeId, RunConfig, SimCtx, SimCtxExt, SimNode, Time, WorldBuilder,
//! };
//!
//! /// A node that bounces a token to its peer with 3 µs link delay.
//! struct Pinger {
//!     peer: NodeId,
//!     received: u64,
//! }
//!
//! impl SimNode for Pinger {
//!     type Payload = ();
//!     fn handle(&mut self, _p: (), ctx: &mut dyn SimCtx<Self>) {
//!         self.received += 1;
//!         ctx.schedule(Time::from_micros(3), self.peer, ());
//!     }
//! }
//!
//! let mut b = WorldBuilder::new();
//! let n0 = b.add_node(Pinger { peer: NodeId(1), received: 0 });
//! let n1 = b.add_node(Pinger { peer: NodeId(0), received: 0 });
//! b.add_link(n0, n1, Time::from_micros(3));
//! b.schedule(Time::ZERO, n0, ());
//! b.stop_at(Time::from_millis(1));
//! let world = b.build();
//!
//! let (world, report) = kernel::run(world, &RunConfig::unison(2)).unwrap();
//! assert!(report.events > 0);
//! assert_eq!(
//!     world.node(n0).received + world.node(n1).received,
//!     report.events
//! );
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

mod error;
mod event;
mod fel;
mod global;
mod graph;
pub mod kernel;
mod lp;
pub mod mailbox;
mod metrics;
mod partition;
mod perfmodel;
mod rng;
pub mod sched;
mod snapshot;
pub mod sync;
#[cfg(loom)]
pub mod sync_shim;
#[cfg(not(loom))]
mod sync_shim;
pub mod telemetry;
mod time;
mod world;

pub use error::{FailureDiagnostics, RunPhase, SimError, StallDiagnostics};
pub use event::{Event, EventKey, LpId, NodeId};
pub use fel::{Fel, FelImpl};
pub use global::{GlobalFn, WorldAccess};
pub use graph::{LinkGraph, LinkSpec};
pub use kernel::{run, try_run, KernelError, KernelKind, PartitionMode, RunConfig};
pub use metrics::{EngineStats, LpTotals, MetricsLevel, Psm, RoundRecord, RunReport, SchedStats};
pub use partition::{fine_grained_partition, partition_below_bound, Partition};
pub use perfmodel::{mean_cv, CostParams, ModelResult, PerfModel};
pub use rng::Rng;
pub use sched::{scheduling_regret, SchedConfig, SchedMetric, SchedPolicyKind};
pub use snapshot::{Snapshot, SnapshotWriter};
pub use telemetry::{RunTelemetry, SchedDecision, Span, SpanKind, WorkerSpans};
pub use time::{DataRate, Time};
pub use world::{SimCtx, SimCtxExt, SimNode, World, WorldBuilder};
