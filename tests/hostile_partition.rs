//! Hostile `partition = "manual"` input (ROADMAP 4c): an `assignment` array
//! a scenario file controls must yield a spanned `ScenarioError` or a
//! `KernelError::InvalidPartition` — never a panic, a silently different
//! partition, or tables sized by a value in the file.
//!
//! Each input goes the way `unison-run` takes it: `parse_scenario` →
//! `NetworkBuilder::from_scenario` → `kernel::try_run`.

use unison::core::{kernel, KernelError, SimError};
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
