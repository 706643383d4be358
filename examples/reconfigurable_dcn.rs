//! Reconfigurable datacenter (the paper's Fig. 10d): a fat-tree whose
//! electrical core plane is periodically swapped for an optical circuit —
//! half the core links go down and routes are recomputed, then the plane
//! comes back — at shorter and shorter intervals, on the sequential kernel
//! and on Unison. Topology changes are global events on the public LP; the
//! kernel recomputes the lookahead automatically (§4.2).
//!
//! Expected shape: both kernels' wall time rises only slightly as the
//! change frequency increases — dynamic topologies cost little.
//!
//! Run with: `cargo run --release --example reconfigurable_dcn`

use unison::core::{DataRate, KernelKind, Time};
use unison::netsim::{recompute_static_routes, set_link_state, NetworkBuilder, SimResult};
use unison::topology::{fat_tree, NodeKind};
use unison::traffic::TrafficConfig;

const WINDOW: Time = Time::from_millis(4);

/// One run with plane A taken down every `interval` and restored half an
/// interval later.
fn run(interval: Time, kernel: KernelKind) -> SimResult {
    let topo = fat_tree(4)
        .with_rate(DataRate::gbps(10))
        .with_delay(Time::from_micros(3));
    let traffic = TrafficConfig::random_uniform(0.3)
        .with_seed(23)
        .with_window(Time::ZERO, WINDOW);
    let mut sim = NetworkBuilder::new(&topo)
        .traffic(&traffic)
        .stop_at(WINDOW + Time::from_millis(1))
        .build();

    // Plane A = links touching the first half of the core switches.
    let cores = topo
        .nodes
        .iter()
        .take_while(|k| **k == NodeKind::Switch)
        .count()
        .min(4);
    let plane: Vec<_> = sim
        .links
        .iter()
        .filter(|l| l.a < cores / 2 || l.b < cores / 2)
        .copied()
        .collect();
    let mut t = interval;
    while t < WINDOW {
        for (at, up) in [(t, false), (t + Time(interval.0 / 2), true)] {
            let links = plane.clone();
            sim.world.add_global_event(
                at,
                Box::new(move |wa| {
                    for l in &links {
                        set_link_state(wa, l, up);
                    }
                    recompute_static_routes(wa);
                }),
            );
        }
        t += interval;
    }
    sim.run(kernel)
}

fn main() {
    println!("fat-tree k=4, plane A of the core swapped out and back every interval");
    println!(
        "{:>10}  {:>8}  {:>12}  {:>14}  {:>10}",
        "interval", "#changes", "seq wall(s)", "unison wall(s)", "completed"
    );
    for interval_us in [4000u64, 2000, 1000, 500, 250] {
        let interval = Time::from_micros(interval_us);
        let seq = run(interval, KernelKind::Sequential { compat_keys: false });
        let uni = run(interval, KernelKind::Unison { threads: 2 });
        // The stop event is a global event too.
        println!(
            "{:>8}us  {:>8}  {:>12.3}  {:>14.3}  {:>10}",
            interval_us,
            uni.kernel.global_events - 1,
            seq.kernel.wall.as_secs_f64(),
            uni.kernel.wall.as_secs_f64(),
            uni.flows.completed_flows()
        );
        assert!(uni.flows.completed_flows() > 0);
    }
    println!(
        "\n(the simulation reroutes through the surviving plane during each swap; \
         per Fig. 10d the reconfiguration overhead is negligible)"
    );
}
