//! Hostile `partition = "manual"` input (ROADMAP 4c): an `assignment` array
//! a scenario file controls must yield a spanned `ScenarioError` or a
//! `KernelError::InvalidPartition` — never a panic, a silently different
//! partition, or tables sized by a value in the file.
//!
//! Each input goes the way `unison-run` takes it: `parse_scenario` →
//! `NetworkBuilder::from_scenario` → `kernel::try_run`.
//!
//! The same holds for the other sizes a file controls — a worker count
//! (which sizes the W × W outbox table) and a topology builder's parameters:
//! a typed error before anything is allocated, not an aborted process.

use unison::core::{kernel, KernelError, KernelKind, RunConfig, SimError};
use unison::netsim::NetworkBuilder;
use unison::scenario::{parse_scenario, ScenarioError};

const QUICKSTART: &str = include_str!("../scenarios/quickstart.toml");

#[derive(Debug)]
enum Rejected {
    Parse(ScenarioError),
    Run(KernelError),
}

/// Runs the quickstart scenario under a manual partition that assigns every
/// node to LP 0 except the last, which gets `last`.
fn run_with_last_lp(last: u64) -> Rejected {
    let nodes = parse_scenario(QUICKSTART)
        .expect("quickstart parses")
        .build_topology()
        .node_count();
    let mut assignment = vec!["0".to_string(); nodes - 1];
    assignment.push(last.to_string());
    let src = format!(
        "{QUICKSTART}partition = \"manual\"\nassignment = [{}]\n",
        assignment.join(", ")
    );
    let spec = match parse_scenario(&src) {
        Ok(spec) => spec,
        Err(e) => return Rejected::Parse(e),
    };
    let topo = spec.build_topology();
    let cfg = spec.run_config(&topo);
    let world = NetworkBuilder::from_scenario(&topo, &spec).build().world;
    match kernel::try_run(world, &cfg) {
        Err(SimError::Config(e)) => Rejected::Run(e),
        Err(e) => panic!("assignment ending in {last}: unexpected error {e}"),
        Ok((_, report)) => panic!(
            "assignment ending in {last} ran to completion on {} LPs",
            report.lp_count
        ),
    }
}

#[test]
fn sparse_lp_ids_are_a_typed_error() {
    // LP 1 has no node: the ids are in range but not dense.
    match run_with_last_lp(2) {
        Rejected::Run(KernelError::InvalidPartition(m)) => {
            assert!(m.contains("dense"), "{m}")
        }
        other => panic!("expected InvalidPartition, got {other:?}"),
    }
}

#[test]
fn out_of_range_lp_ids_are_a_spanned_error() {
    // u32::MAX (`max + 1` wrapped to 0 LPs), u32::MAX + 1 (truncated to LP
    // 0 by `as u32`), and an in-range u32 that would size gigabytes of
    // per-LP tables.
    let assignment_line = QUICKSTART.lines().count() + 2;
    for last in [4_294_967_295u64, 4_294_967_296, 3_000_000_000] {
        match run_with_last_lp(last) {
            Rejected::Parse(e) => {
                assert!(e.msg.contains("out of range"), "{last}: {e}");
                assert!(e.msg.contains(&last.to_string()), "{last}: {e}");
                assert_eq!((e.line, e.col), (assignment_line, 1), "{last}: {e}");
            }
            other => panic!("{last}: expected a ScenarioError, got {other:?}"),
        }
    }
}

/// The direct API (no scenario layer in front) gets the same guarantees
/// from `kernel::build_partition`.
#[test]
fn kernel_rejects_hostile_assignments_without_the_scenario_layer() {
    let spec = parse_scenario(QUICKSTART).expect("quickstart parses");
    let topo = spec.build_topology();
    let nodes = topo.node_count();
    for last in [2u32, 3_000_000_000, u32::MAX] {
        let mut assignment = vec![0u32; nodes];
        assignment[nodes - 1] = last;
        let mut cfg = spec.run_config(&topo);
        cfg.partition = unison::core::PartitionMode::Manual(assignment);
        let world = NetworkBuilder::from_scenario(&topo, &spec).build().world;
        match kernel::try_run(world, &cfg) {
            Err(SimError::Config(KernelError::InvalidPartition(_))) => {}
            Err(e) => panic!("{last}: expected InvalidPartition, got {e}"),
            Ok(_) => panic!("{last}: hostile assignment ran to completion"),
        }
    }
}

/// Each case is `replace this | by this | key (or header) blamed | message`.
#[test]
fn sizes_a_file_controls_are_a_spanned_error() {
    for case in [
        "threads = 2 | threads = 200000 | threads | `threads` must be in 1..=1024",
        "\"unison\" | \"hybrid\"\nhosts = 1000000\nthreads_per_host = 1000000 | hosts | `hosts` must",
        "\"unison\" | \"hybrid\"\nhosts = 64\nthreads_per_host = 64 | threads_per_host | 4096 workers",
        "\nk = 4\n | \nk = 4000\n | [topology] | at least 16020000000 nodes",
        "\nk = 4\n | \nk = 3\n | [topology] | even `k`",
    ] {
        let fields: Vec<&str> = case.split(" | ").collect();
        let (from, to, key, want) = (fields[0], fields[1], fields[2], fields[3]);
        assert!(QUICKSTART.contains(from), "{case}");
        let src = QUICKSTART.replacen(from, to, 1);
        let line = src.lines().position(|l| l.starts_with(key)).expect(key) + 1;
        match parse_scenario(&src) {
            Err(e) => {
                assert!(e.msg.contains(want), "{case}: {e}");
                assert_eq!((e.line, e.col), (line, 1), "{case}: {e}");
            }
            Ok(_) => panic!("{case}: parsed"),
        }
    }
}

/// The direct API: a worker count past `kernel::MAX_WORKERS` is refused by
/// the kernel's own preamble.
#[test]
fn kernel_rejects_hostile_worker_counts_without_the_scenario_layer() {
    let spec = parse_scenario(QUICKSTART).expect("quickstart parses");
    let topo = spec.build_topology();
    let hybrid = |hosts, threads_per_host| RunConfig {
        kernel: KernelKind::Hybrid {
            hosts,
            threads_per_host,
        },
        ..RunConfig::unison(1)
    };
    for cfg in [
        RunConfig::unison(200_000),
        RunConfig::unison(kernel::MAX_WORKERS + 1),
        hybrid(1_000_000, 1_000_000),
        hybrid(usize::MAX, 2),
    ] {
        let world = NetworkBuilder::from_scenario(&topo, &spec).build().world;
        match kernel::try_run(world, &cfg) {
            Err(SimError::Config(KernelError::InvalidConfig(m))) => {
                assert!(m.contains("at most 1024"), "{:?}: {m}", cfg.kernel)
            }
            Err(e) => panic!("{:?}: expected InvalidConfig, got {e}", cfg.kernel),
            Ok(_) => panic!("{:?}: ran to completion", cfg.kernel),
        }
    }
}
