//! Figure 12b: partition schemes on the DCTCP dumbbell — automatic
//! fine-grained vs "avoid cutting the bottleneck" vs coarse two-halves.
//!
//! Bespoke because neither half fits the scenario dialect: the flows come
//! from a formula and two of the three partitions are hand-built
//! assignments. Real single-thread measurements (wall time, node switches)
//! plus the 4-core virtual replay of each scheme's makespan.
//!
//! Expected shape: the automatic fine-grained partition has the lowest
//! simulated time; the coarse scheme pays imbalance, the bottleneck-
//! preserving scheme pays interleaving.

use unison_core::{DataRate, PartitionMode, SchedConfig, Time};
use unison_netsim::{NetworkBuilder, QueueConfig, TransportKind};
use unison_topology::{dumbbell, manual};
use unison_traffic::FlowSpec;

fn main() {
    let senders = 8;
    let topo = dumbbell(
        senders,
        senders,
        DataRate::gbps(1),
        DataRate::gbps(1),
        Time::from_micros(20),
    );
    let hosts = topo.hosts();
    let flows: Vec<FlowSpec> = (0..senders * 6)
        .map(|i| FlowSpec {
            src: hosts[i % senders],
            dst: hosts[senders + (i % senders)],
            bytes: 200_000,
            start: Time::from_micros(40 * i as u64),
        })
        .collect();

    // "Avoid the bottleneck": every link of the dumbbell has one delay, so
    // the automatic partition is one LP per node; this is that partition
    // with the two bottleneck switches (nodes 0 and 1) sharing LP 0.
    let mut bottleneck = manual::per_node(&topo);
    for lp in &mut bottleneck[1..] {
        *lp -= 1;
    }

    println!("Figure 12b: DCTCP dumbbell, partition schemes (flows injected explicitly)");
    println!(
        "{:>12}  {:>6}  {:>14}  {:>12}  {:>14}",
        "scheme", "#lp", "node-switches", "wall(s)", "t_4core(s)"
    );
    for (name, mode) in [
        ("auto", PartitionMode::Auto),
        ("bottleneck", PartitionMode::Manual(bottleneck)),
        (
            "coarse",
            PartitionMode::Manual(manual::dumbbell_halves(&topo)),
        ),
    ] {
        let res = NetworkBuilder::new(&topo)
            .transport(TransportKind::Dctcp)
            .queue(QueueConfig::dctcp(1 << 20, 8_000))
            .flows(flows.clone())
            .stop_at(Time::from_millis(60))
            .build()
            .profile(mode)
            .expect("closed, terminating model");
        let t4 = res.perf_model().unison(4, SchedConfig::default());
        println!(
            "{name:>12}  {:>6}  {:>14}  {:>12.3}  {:>14.6}",
            res.kernel.lp_count,
            res.kernel.node_switches(),
            res.kernel.wall.as_secs_f64(),
            t4.total_ns / 1e9
        );
    }
    println!(
        "\n(paper: fine-grained partition wins; coarse pays imbalance, keeping the \
         bottleneck uncut pays interleaving)"
    );
}
