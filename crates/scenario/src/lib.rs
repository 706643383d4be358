//! # unison-scenario
//!
//! The declarative scenario layer for the unison-rs workspace.
//!
//! The paper's core promise is *user transparency*: describe the network,
//! and the kernel does the rest. This crate makes the description a config
//! file instead of a hand-assembled binary — one `scenarios/*.toml` per
//! experiment, parsed by a dependency-free TOML dialect ([`toml`]) into a
//! typed, validated AST ([`ScenarioSpec`]), which then produces the
//! concrete artifacts the other layers consume:
//!
//! - [`ScenarioSpec::build_topology`] → `unison_topology::Topology`,
//! - [`ScenarioSpec::traffic_config`] → `unison_traffic::TrafficConfig`,
//! - [`ScenarioSpec::run_config`] → `unison_core::RunConfig` (kernel,
//!   partition, watchdog),
//! - the transport/queue/routing specs, mapped onto netsim types by
//!   `NetworkBuilder::from_scenario` in `unison-netsim` (that crate sits
//!   above this one in the dependency graph).
//!
//! Parsing is strict — unknown sections, unknown keys, and out-of-range
//! values are rejected with line/column spans — because committed scenario
//! files are pinned by golden digests in CI: silently-ignored typos would
//! silently change the experiment. The schema and defaulting rules are
//! documented in DESIGN.md §4.10 (the "scenario contract").
//!
//! ```
//! use unison_scenario::parse_scenario;
//!
//! let spec = parse_scenario(
//!     r#"
//!     name = "smoke"
//!     [topology]
//!     kind = "fat_tree"
//!     k = 4
//!     [traffic]
//!     load = 0.3
//!     sizes = "grpc"
//!     seed = 7
//!     duration_us = 2000
//!     [run]
//!     stop_us = 6000
//!     kernel = "unison"
//!     threads = 2
//!     "#,
//! )
//! .unwrap();
//! let topo = spec.build_topology();
//! assert_eq!(topo.hosts().len(), 16);
//! let cfg = spec.run_config(&topo);
//! assert_eq!(cfg.kernel.name(), "unison");
//! ```

pub mod ast;
pub mod toml;

pub use ast::{
    parse_rows, parse_scenario, ManualLink, ModelSpec, PartitionSpec, QueueSpec, RoutingSpec,
    RunSpec, ScenarioError, ScenarioRow, ScenarioSpec, TcpProfile, TopoKind, TopologySpec,
    TrafficPattern, TrafficSpec, TransportKindSpec, TransportSpec,
};
