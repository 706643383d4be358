//! Figure 12a: cache locality vs partition granularity — a 12×12 torus run
//! with ONE thread while the number of LPs sweeps from 1 to one-per-node
//! (the paper's manual-granularity experiment).
//!
//! Measured for real: wall-clock time and the node-switch locality proxy
//! (consecutive events touching different nodes — the quantity hardware
//! cache-miss counters track in the paper).
//!
//! Expected shape: node switches (and wall time) fall as LP count rises;
//! the paper reports ~1.5x faster at 144 LPs than at 1 LP.

use unison_bench::harness::{header, row, Scale};
use unison_core::{KernelKind, MetricsLevel, PartitionMode, RunConfig, SchedConfig, Time};
use unison_netsim::NetworkBuilder;
use unison_topology::{manual, torus2d};
use unison_traffic::{SizeDist, TrafficConfig};

fn main() {
    let scale = Scale::from_args();
    let window = scale.pick(Time::from_millis(3), Time::from_millis(10));
    let topo = torus2d(
        12,
        12,
        unison_core::DataRate::gbps(10),
        Time::from_micros(30),
    );
    let traffic = TrafficConfig::random_uniform(0.3)
        .with_seed(13)
        .with_sizes(SizeDist::WebSearch)
        .with_window(Time::ZERO, window);

    println!("Figure 12a: 12x12 torus, 1 thread, granularity sweep (real measurements)");
    let widths = [6, 12, 14, 14];
    header(&["#lp", "wall(s)", "node-switches", "events"], &widths);
    for lps in [1u32, 4, 16, 48, 144] {
        let sim = NetworkBuilder::new(&topo)
            .traffic(&traffic)
            .stop_at(window + Time::from_millis(1))
            .build();
        let res = sim
            .run_with(&RunConfig {
                watchdog: Default::default(),
                kernel: KernelKind::Unison { threads: 1 },
                partition: PartitionMode::Manual(manual::by_id_range(&topo, lps)),
                sched: SchedConfig::default(),
                metrics: MetricsLevel::Summary,
                fel: Default::default(),
                fault: Default::default(),
            })
            .expect("run");
        row(
            &[
                lps.to_string(),
                format!("{:.3}", res.kernel.wall.as_secs_f64()),
                res.kernel.node_switches().to_string(),
                res.kernel.events.to_string(),
            ],
            &widths,
        );
    }
    println!(
        "\n(paper: cache misses and simulation time fall as granularity rises; \
         the node-switch proxy must fall monotonically here)"
    );
}
