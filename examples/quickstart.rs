//! Quickstart: run the committed `scenarios/quickstart.toml` — a fat-tree
//! datacenter under web-search-style traffic — on the Unison kernel, then
//! on every other kernel, unchanged (the user-transparency property).
//!
//! The scenario file carries the whole experiment (DESIGN.md §4.10); the
//! `unison-run` CLI executes the same file directly:
//!
//!     cargo run --release --example quickstart
//!     cargo run --release -p unison-bench --bin unison-run -- scenarios/quickstart.toml

use unison::core::KernelKind;
use unison::netsim::NetworkBuilder;
use unison::scenario::parse_scenario;

fn main() {
    // One declarative file: topology, traffic, transport, kernel.
    let spec = parse_scenario(include_str!("../scenarios/quickstart.toml"))
        .expect("committed scenario parses");
    let topo = spec.build_topology();
    println!(
        "scenario: {}\ntopology: {} ({} nodes, {} links)",
        spec.name,
        topo.name,
        topo.node_count(),
        topo.links.len()
    );

    // Zero configuration: no manual partitioning, no result aggregation.
    let sim = NetworkBuilder::from_scenario(&topo, &spec).build();
    let result = sim
        .run_with(&spec.run_config(&topo))
        .expect("quickstart run");
    println!("\n== Unison (2 threads) ==");
    println!(
        "events: {}  rounds: {}  LPs: {}  lookahead: {}  wall: {:?}",
        result.kernel.events,
        result.kernel.rounds,
        result.kernel.lp_count,
        result.kernel.lookahead,
        result.kernel.wall
    );
    println!("flows:  {}", result.flows.one_line());
    println!(
        "p50/p99 FCT: {:.0}/{:.0} us   Jain fairness: {:.3}",
        result.flows.fct_us.percentile(50.0),
        result.flows.fct_us.percentile(99.0),
        result.flows.jain_index()
    );

    // The same scenario, different kernels — nothing else changes.
    for kernel in [
        KernelKind::Sequential { compat_keys: false },
        KernelKind::Sequential { compat_keys: true },
        KernelKind::Unison { threads: 4 },
    ] {
        let sim = NetworkBuilder::from_scenario(&topo, &spec).build();
        let r = sim
            .run_with(&spec.run_config_with_kernel(&topo, kernel))
            .expect("kernel sweep run");
        println!(
            "{:<22} events={}  completed={}  wall={:?}",
            r.kernel.kernel,
            r.kernel.events,
            r.flows.completed_flows(),
            r.kernel.wall
        );
    }
    println!("\n(all kernels execute the same events; Unison and compat-sequential agree bitwise)");
}
