//! Figure 10d: reconfigurable DCN — simulation time vs topology-change
//! interval, sequential kernel vs Unison, measured for real (single
//! thread; topology changes are global events on the public LP).
//!
//! At every interval the core layer is swapped for an "optical" plane and
//! back (link state toggles + route recomputation), as in the TDTCP-style
//! configuration the paper uses.
//!
//! Expected shape: both curves rise only slightly as the change frequency
//! increases — the cost of dynamic topologies is negligible.

use std::time::Duration;

use unison_bench::harness::{header, row, Scale};
use unison_core::WorldAccess;
use unison_core::{KernelKind, MetricsLevel, PartitionMode, RunConfig, SchedConfig, Time};
use unison_netsim::{recompute_static_routes, set_link_state, BuiltLink, NetNode, NetworkBuilder};
use unison_topology::{fat_tree, NodeKind};
use unison_traffic::TrafficConfig;

/// Schedules one plane toggle at `at` (state → `down`), with the opposite
/// toggle following `restore_after` later, both via public-LP global
/// events.
fn schedule_toggle(
    world: &mut unison_core::World<NetNode>,
    core_links: Vec<BuiltLink>,
    restore_after: Time,
    at: Time,
    down: bool,
) {
    world.add_global_event(
        at,
        Box::new(move |wa: &mut WorldAccess<'_, NetNode>| {
            for l in &core_links {
                set_link_state(wa, l, down);
            }
            recompute_static_routes(wa);
            let links = core_links.clone();
            wa.schedule_global(
                wa.now() + restore_after,
                Box::new(move |wa2: &mut WorldAccess<'_, NetNode>| {
                    for l in &links {
                        set_link_state(wa2, l, !down);
                    }
                    recompute_static_routes(wa2);
                }),
            );
        }),
    );
}

fn run_once(interval: Time, kernel: KernelKind, window: Time) -> (Duration, u64) {
    let topo = fat_tree(4)
        .with_rate(unison_core::DataRate::gbps(10))
        .with_delay(Time::from_micros(3));
    let traffic = TrafficConfig::random_uniform(0.3)
        .with_seed(23)
        .with_window(Time::ZERO, window);
    let sim = NetworkBuilder::new(&topo)
        .traffic(&traffic)
        .stop_at(window + Time::from_millis(1))
        .build();
    // Core switches are the first (k/2)^2 nodes; "optical plane swap" =
    // take down half the core links, then restore, every interval.
    let core_count = topo
        .nodes
        .iter()
        .take_while(|k| **k == NodeKind::Switch)
        .count()
        .min(4);
    let plane: Vec<BuiltLink> = sim
        .links
        .iter()
        .filter(|l| l.a < core_count / 2 || l.b < core_count / 2)
        .copied()
        .collect();
    let mut world = sim.world;
    // Pre-register toggles across the whole horizon (each event toggles
    // down at t and back up at t + interval/2).
    let mut t = interval;
    while t < window {
        schedule_toggle(&mut world, plane.clone(), Time(interval.0 / 2), t, true);
        t += interval;
    }
    let cfg = RunConfig {
        watchdog: Default::default(),
        kernel,
        partition: PartitionMode::Auto,
        sched: SchedConfig::default(),
        metrics: MetricsLevel::Summary,
        fel: Default::default(),
        fault: Default::default(),
    };
    let (_, report) = unison_core::run(world, &cfg).expect("run");
    (report.wall, report.global_events)
}

fn main() {
    let scale = Scale::from_args();
    let window = scale.pick(Time::from_millis(4), Time::from_millis(20));
    println!("Figure 10d: reconfigurable DCN, wall time vs topology-change interval");
    let widths = [13, 9, 12, 12];
    header(
        &["interval", "#changes", "seq wall(s)", "unison wall(s)"],
        &widths,
    );
    for interval_us in [4000u64, 2000, 1000, 500, 250] {
        let interval = Time::from_micros(interval_us);
        let (seq_wall, changes) = run_once(
            interval,
            KernelKind::Sequential { compat_keys: false },
            window,
        );
        let (uni_wall, _) = run_once(interval, KernelKind::Unison { threads: 1 }, window);
        row(
            &[
                format!("{interval_us}us"),
                changes.to_string(),
                format!("{:.3}", seq_wall.as_secs_f64()),
                format!("{:.3}", uni_wall.as_secs_f64()),
            ],
            &widths,
        );
    }
    println!(
        "\n(paper: both kernels' time rises only slightly with change frequency; \
         the dynamic-topology overhead of Unison is negligible)"
    );
}
