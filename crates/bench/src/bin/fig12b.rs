//! Figure 12b: partition schemes on the DCTCP dumbbell — automatic
//! fine-grained vs "avoid cutting the bottleneck" vs coarse two-halves.
//!
//! Real single-thread measurements (wall time, node switches) plus the
//! 4-core virtual replay of each scheme's makespan.
//!
//! Expected shape: the automatic fine-grained partition has the lowest
//! simulated time; the coarse scheme pays imbalance, the bottleneck-
//! preserving scheme pays interleaving.

use unison_bench::harness::{header, partition_info, row, Scale, Scenario};
use unison_core::{DataRate, PartitionMode, PerfModel, SchedConfig, Time};
use unison_netsim::{QueueConfig, TransportKind};
use unison_topology::{dumbbell, manual};
use unison_traffic::{FlowSpec, TrafficConfig};

fn main() {
    let scale = Scale::from_args();
    let senders = scale.pick(8, 16);
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
    let mut scenario = Scenario::new(
        topo.clone(),
        TrafficConfig::random_uniform(0.0), // flows injected explicitly
        Time::from_millis(60),
    );
    scenario.transport = TransportKind::Dctcp;
    scenario.queue = Some(QueueConfig::dctcp(1 << 20, 8_000));

    // "Avoid the bottleneck": fine-grained everywhere except the two
    // bottleneck switches share one LP.
    let (auto, _) = partition_info(&topo, &PartitionMode::Auto);
    let mut bottleneck = Vec::with_capacity(topo.node_count());
    for node in 0..topo.node_count() {
        let lp = auto.node_lp[node].0;
        bottleneck.push(if node == 1 { auto.node_lp[0].0 } else { lp });
    }
    // Re-densify LP ids.
    let mut remap = std::collections::BTreeMap::new();
    for &lp in &bottleneck {
        let next = remap.len() as u32;
        remap.entry(lp).or_insert(next);
    }
    let bottleneck: Vec<u32> = bottleneck.iter().map(|l| remap[l]).collect();

    println!("Figure 12b: DCTCP dumbbell, partition schemes (flows injected explicitly)");
    let widths = [12, 6, 14, 12, 14];
    header(
        &["scheme", "#lp", "node-switches", "wall(s)", "t_4core(s)"],
        &widths,
    );
    for (name, mode) in [
        ("auto", PartitionMode::Auto),
        ("bottleneck", PartitionMode::Manual(bottleneck)),
        (
            "coarse",
            PartitionMode::Manual(manual::dumbbell_halves(&topo)),
        ),
    ] {
        let mut s = scenario.clone();
        s.traffic = TrafficConfig::random_uniform(0.0);
        let sim = {
            let mut b = unison_netsim::NetworkBuilder::new(&s.topo)
                .transport(s.transport)
                .stop_at(s.stop)
                .flows(flows.clone());
            if let Some(q) = s.queue {
                b = b.queue(q);
            }
            b.build()
        };
        let res = sim
            .run_with(&unison_core::RunConfig {
                watchdog: Default::default(),
                kernel: unison_core::KernelKind::Unison { threads: 1 },
                partition: mode,
                sched: SchedConfig::default(),
                metrics: unison_core::MetricsLevel::PerRound,
                fel: Default::default(),
                fault: Default::default(),
            })
            .expect("run");
        let profile = res.kernel.rounds_profile.as_deref().unwrap_or(&[]);
        let t4 = PerfModel::new(profile).unison(4, SchedConfig::default());
        row(
            &[
                name.to_string(),
                res.kernel.lp_count.to_string(),
                res.kernel.node_switches().to_string(),
                format!("{:.3}", res.kernel.wall.as_secs_f64()),
                format!("{:.6}", t4.total_ns / 1e9),
            ],
            &widths,
        );
    }
    println!(
        "\n(paper: fine-grained partition wins; coarse pays imbalance, keeping the \
         bottleneck uncut pays interleaving)"
    );
}
