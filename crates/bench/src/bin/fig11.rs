//! Figure 11: determinism — event count and mean end-to-end delay across
//! repeated *real* parallel runs (epochs) of the same workload.
//!
//! Expected shape: Unison's event count and statistics are bit-identical
//! across every epoch and every thread count; the barrier and null-message
//! baselines fluctuate from run to run (real-time arrival interleaving of
//! simultaneous events).

use unison_bench::harness::{header, row, Scale};
use unison_core::{KernelKind, MetricsLevel, PartitionMode, RunConfig, SchedConfig, Time};
use unison_netsim::{NetworkBuilder, TransportKind};
use unison_topology::{fat_tree, manual};
use unison_traffic::{SizeDist, TrafficConfig};

fn run_epoch(kernel: KernelKind, partition: PartitionMode) -> (u64, f64) {
    let topo = fat_tree(4);
    let traffic = TrafficConfig::random_uniform(0.25)
        .with_seed(31)
        .with_sizes(SizeDist::Grpc)
        .with_window(Time::ZERO, Time::from_millis(2));
    let sim = NetworkBuilder::new(&topo)
        .transport(TransportKind::NewReno)
        .traffic(&traffic)
        .stop_at(Time::from_millis(5))
        .build();
    let res = sim
        .run_with(&RunConfig {
            watchdog: Default::default(),
            kernel,
            partition,
            sched: SchedConfig::default(),
            metrics: MetricsLevel::Summary,
            fel: Default::default(),
            fault: Default::default(),
        })
        .expect("run");
    (res.kernel.events, res.flows.fct_us.mean())
}

fn main() {
    let scale = Scale::from_args();
    let epochs = scale.pick(5, 10);
    let topo = fat_tree(4);
    let pods = manual::by_cluster(&topo);

    println!("Figure 11: determinism across {epochs} epochs (real parallel runs)");
    let widths = [7, 12, 14, 12, 14, 12, 14];
    header(
        &[
            "epoch",
            "uni #event",
            "uni delay(us)",
            "bar #event",
            "bar delay(us)",
            "nm #event",
            "nm delay(us)",
        ],
        &widths,
    );
    let mut uni_counts = Vec::new();
    let mut bar_counts = Vec::new();
    let mut nm_counts = Vec::new();
    for e in 0..epochs {
        let (ue, ud) = run_epoch(KernelKind::Unison { threads: 4 }, PartitionMode::Auto);
        let (be, bd) = run_epoch(KernelKind::Barrier, PartitionMode::Manual(pods.clone()));
        let (ne, nd) = run_epoch(KernelKind::NullMessage, PartitionMode::Manual(pods.clone()));
        uni_counts.push(ue);
        bar_counts.push(be);
        nm_counts.push(ne);
        row(
            &[
                (e + 1).to_string(),
                ue.to_string(),
                format!("{ud:.3}"),
                be.to_string(),
                format!("{bd:.3}"),
                ne.to_string(),
                format!("{nd:.3}"),
            ],
            &widths,
        );
    }
    let spread = |v: &[u64]| v.iter().max().unwrap() - v.iter().min().unwrap();
    println!(
        "\nevent-count spread over epochs: unison = {}, barrier = {}, nullmsg = {}",
        spread(&uni_counts),
        spread(&bar_counts),
        spread(&nm_counts)
    );
    // The stronger determinism axis: Unison across thread counts.
    let mut per_thread = Vec::new();
    for threads in [1usize, 2, 4, 8, 16] {
        let (e, d) = run_epoch(KernelKind::Unison { threads }, PartitionMode::Auto);
        per_thread.push((threads, e, d));
    }
    let all_equal = per_thread
        .windows(2)
        .all(|w| w[0].1 == w[1].1 && w[0].2.to_bits() == w[1].2.to_bits());
    println!(
        "unison across 1/2/4/8/16 threads: event counts {:?} -> {}",
        per_thread.iter().map(|p| p.1).collect::<Vec<_>>(),
        if all_equal {
            "IDENTICAL (bitwise)"
        } else {
            "DIVERGED"
        }
    );
    assert!(all_equal, "Unison must be thread-count invariant");
    println!(
        "(paper: Unison identical every run and for any thread count; baselines \
         fluctuate. Note: on a single-core host the baselines' races interleave \
         less, so their spread may be small — rerun on a multi-core machine to \
         widen it.)"
    );
}
