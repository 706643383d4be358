//! Figure 10c: wide-area networks (GEANT, ChinaNet) with RIP dynamic
//! routing and web-search traffic at 50% load — sequential DES vs Unison
//! with 8 threads.
//!
//! The base row (GEANT, quick window) is the committed
//! `scenarios/fig10c.toml`, digest-pinned by the golden corpus test; the
//! ChinaNet row and the full-scale window mutate the parsed spec.
//!
//! No symmetric manual partition exists for these irregular graphs (the
//! paper opts the baselines out for the same reason). Expected shape:
//! Unison several-fold faster (paper: >10x incl. cache effects).

use unison_bench::harness::{header, row, secs, Scale};
use unison_core::{KernelKind, MetricsLevel, PerfModel, SchedConfig, Time};
use unison_netsim::NetworkBuilder;
use unison_scenario::{parse_scenario, TopoKind};

fn main() {
    let scale = Scale::from_args();
    let base = parse_scenario(include_str!("../../../../scenarios/fig10c.toml"))
        .expect("committed scenario parses");
    let window = scale.pick(Time::from_millis(30), Time::from_millis(120));

    println!("Figure 10c: WAN with RIP routing, sequential vs Unison(8)");
    let widths = [10, 9, 12, 12, 10];
    header(
        &["network", "#lp", "seq(s)", "unison(s)", "speedup"],
        &widths,
    );
    for kind in [TopoKind::Geant, TopoKind::Chinanet] {
        let mut spec = base.clone();
        spec.topology.kind = kind;
        if let Some(t) = spec.traffic.as_mut() {
            t.duration = window;
        }
        spec.run.stop = Time::from_millis(20) + window + Time::from_millis(10);

        let topo = spec.build_topology();
        // Profile on the instrumented single-thread engine; the scenario's
        // RIP routing and traffic come along via the builder.
        let mut cfg = spec.run_config_with_kernel(&topo, KernelKind::Unison { threads: 1 });
        cfg.metrics = MetricsLevel::PerRound;
        let sim = NetworkBuilder::from_scenario(&topo, &spec).build();
        let res = sim.run_with(&cfg).expect("profiled run");
        let profile = res.kernel.rounds_profile.as_deref().unwrap_or(&[]);
        let model = PerfModel::new(profile);
        let seq = model.sequential().total_ns;
        let uni = model.unison(8, SchedConfig::default()).total_ns;
        row(
            &[
                topo.name.clone(),
                res.kernel.lp_count.to_string(),
                secs(seq),
                secs(uni),
                format!("{:.1}x", seq / uni),
            ],
            &widths,
        );
    }
    println!("\n(paper: >10x over sequential DES with 8 threads incl. cache gains)");
}
