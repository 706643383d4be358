//! # unison-rs
//!
//! A from-scratch Rust reproduction of *Unison: A Parallel-Efficient and
//! User-Transparent Network Simulation Kernel* (EuroSys '24).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`core`]: simulation kernels (sequential DES, barrier PDES, null-message
//!   PDES and the Unison kernel), the
//!   fine-grained partitioner, the load-adaptive scheduler, P/S/M metrics and
//!   the virtual-core performance model.
//! - [`netsim`]: the packet-level network model stack (links, queues, routing,
//!   TCP NewReno / DCTCP, applications, flow monitoring).
//! - [`topology`]: topology builders (fat-tree, BCube, torus, spine-leaf,
//!   dumbbell, WAN graphs) and manual partition schemes for the baselines.
//! - [`traffic`]: workload generation (web-search / gRPC CDFs, incast mixes,
//!   Poisson flow arrivals) on a deterministic RNG.
//! - [`scenario`]: the declarative scenario layer — one `scenarios/*.toml`
//!   file per experiment, parsed into an AST that builds the topology,
//!   traffic, and run configuration (consumed by `unison-run`).
//! - [`stats`]: summary statistics, histograms and percentile estimation.
//!
//! # Quick start
//!
//! ```
//! use unison::core::{KernelKind, Time};
//! use unison::netsim::{NetworkBuilder, TransportKind};
//! use unison::topology::fat_tree;
//! use unison::traffic::TrafficConfig;
//!
//! let topo = fat_tree(4);
//! let traffic = TrafficConfig::random_uniform(0.3)
//!     .with_seed(7)
//!     .with_window(Time::ZERO, Time::from_millis(1));
//! let sim = NetworkBuilder::new(&topo)
//!     .transport(TransportKind::NewReno)
//!     .traffic(&traffic)
//!     .stop_at(Time::from_millis(4))
//!     .build();
//! let result = sim.run(KernelKind::Unison { threads: 2 });
//! assert!(result.flows.total_flows() > 0);
//! ```

pub use unison_core as core;
pub use unison_netsim as netsim;
pub use unison_scenario as scenario;
pub use unison_stats as stats;
pub use unison_topology as topology;
pub use unison_traffic as traffic;
