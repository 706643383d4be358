//! Figure 13: processing-time heat maps — per-LP P under the barrier
//! baseline vs per-thread P under Unison, summed over consecutive
//! 100-round buckets, for the workload `scenarios/fig13.toml` describes
//! (`unison-run` prints its model record; this binary draws the glyphs).
//!
//! Expected shape: the barrier map is *striped* (the same LPs stay hot for
//! long stretches — temporal locality of network load, the basis of the
//! `ByLastRoundTime` metric) while the Unison map is *flat* (threads finish
//! in unison).

use unison_core::mean_cv;
use unison_netsim::NetworkBuilder;
use unison_scenario::{parse_scenario, PartitionSpec};

/// Renders one bucket row as coarse intensity glyphs.
fn render(row: &[f64], max: f64) -> String {
    row.iter()
        .map(|&v| {
            let level = if max <= 0.0 { 0.0 } else { v / max };
            match (level * 5.0) as u32 {
                0 => ' ',
                1 => '.',
                2 => ':',
                3 => 'o',
                4 => 'O',
                _ => '#',
            }
        })
        .collect()
}

fn print_map(title: &str, buckets: &[Vec<f64>]) {
    println!("{title}");
    let max = buckets.iter().flatten().cloned().fold(0.0f64, f64::max);
    for (i, b) in buckets.iter().take(40).enumerate() {
        println!("{i:>3} |{}|", render(b, max));
    }
}

fn main() {
    let spec = parse_scenario(include_str!("../../../../scenarios/fig13.toml"))
        .expect("committed scenario parses");
    let model = spec.model.as_ref().expect("fig13.toml has a [model] table");
    let baseline = model.baseline.as_ref().expect("and a baseline partition");
    let topo = spec.build_topology();
    let profile = |partition: &PartitionSpec| {
        NetworkBuilder::from_scenario(&topo, &spec)
            .build()
            .profile(partition.mode(&topo))
            .expect("closed, terminating model")
    };

    let base = profile(baseline);
    let barrier = base.perf_model().bucketed_costs(100);
    print_map(
        "Figure 13a: barrier — P per LP (columns) per 100-round bucket (rows)",
        &barrier,
    );
    let own = profile(&spec.run.partition);
    let unison = own
        .perf_model()
        .bucketed_worker_loads(model.cores, model.sched, 100);
    print_map(
        "\nFigure 13b: Unison — P per thread (columns) per 100-round bucket (rows)",
        &unison,
    );
    println!(
        "\nmean within-bucket imbalance (CV): barrier LPs = {:.2}, Unison threads = {:.2}",
        mean_cv(&barrier),
        mean_cv(&unison)
    );
    println!("(paper: the barrier map is striped/unbalanced; the Unison map is flat)");
}
