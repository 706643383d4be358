//! # unison-netsim
//!
//! The packet-level network model stack of the unison-rs workspace — the
//! substrate the paper gets from ns-3, rebuilt from scratch:
//!
//! - point-to-point full-duplex links with serialization + propagation
//!   delay ([`node::Device`]);
//! - DropTail and RED/ECN egress queues, including DCTCP step marking
//!   ([`queue`]);
//! - global shortest-path routing with ECMP, and RIP dynamic routing with
//!   split horizon, poisoned reverse and triggered updates ([`route`]);
//! - TCP NewReno and DCTCP transports ([`tcp`]);
//! - applications (finite TCP flows driven by `FlowStart` events);
//! - deterministic, lock-free global flow monitoring ([`flowmon`]);
//! - topology-change helpers for reconfigurable-DCN experiments, plus a
//!   deterministic simulated-network fault axis — link flaps, node
//!   crashes, loss bursts ([`reconfig`]).
//!
//! The model is kernel-agnostic: a built [`NetSim`] runs unmodified on the
//! sequential kernel or on Unison, under any partition — which is the
//! paper's user-transparency claim, demonstrated in Rust. The barrier and
//! null-message PDES baselines are replays of a Unison profile of their
//! partition ([`NetSim::profile`], [`SimResult::perf_model`]).
//!
//! # Example
//!
//! ```
//! use unison_core::{KernelKind, Time};
//! use unison_netsim::{NetworkBuilder, TransportKind};
//! use unison_topology::fat_tree;
//! use unison_traffic::TrafficConfig;
//!
//! let topo = fat_tree(4);
//! let traffic = TrafficConfig::random_uniform(0.2)
//!     .with_seed(7)
//!     .with_window(Time::ZERO, Time::from_millis(1));
//! let sim = NetworkBuilder::new(&topo)
//!     .transport(TransportKind::NewReno)
//!     .traffic(&traffic)
//!     .stop_at(Time::from_millis(3))
//!     .build();
//! let result = sim.run(KernelKind::Unison { threads: 2 });
//! assert!(result.kernel.events > 0);
//! ```

pub mod app;
pub mod build;
pub mod flowmon;
pub mod node;
pub mod packet;
pub mod queue;
pub mod reconfig;
pub mod route;
pub mod scenario;
pub(crate) mod snapshot;
pub mod tcp;
pub mod trace;

pub use app::{OnOffAction, OnOffApp, OnOffConfig};
pub use build::{BuiltLink, NetSim, NetworkBuilder, RoutingKind, SimResult};
pub use flowmon::{FlowReport, FlowStat};
pub use node::{Device, LossState, NetEvent, NetNode};
pub use packet::{FlowId, Packet, PacketKind, MSS};
pub use queue::{Enqueue, Queue, QueueConfig};
pub use reconfig::{install_faults, recompute_static_routes, set_link_state, NetFault};
pub use scenario::world_digest;
pub use tcp::{TcpConfig, TcpReceiver, TcpSender, TransportKind};
pub use trace::{Trace, TraceBuffer, TraceEntry, TraceKind};
