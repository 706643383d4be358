//! Workspace-level integration: self-checking versions of the paper's
//! claims. The figures themselves are `scenarios/fig*.toml` run by
//! `unison-run` (EXPERIMENTS.md); these assert that the *directions* hold
//! at test scale, so a kernel change that breaks a shape fails tier-1
//! instead of a document.
//!
//! Every modelled claim goes through the one profiling helper
//! (`NetSim::profile`). Where wall-clock noise at this tiny scale could
//! flip a comparison, per-LP costs are taken as event counts
//! ([`event_costs`]), which makes the replay deterministic.

use unison::core::perfmodel::mean_cv;
use unison::core::{
    DataRate, KernelKind, PartitionMode, PerfModel, RoundRecord, RunConfig, SchedConfig,
    SchedMetric, Time,
};
use unison::netsim::{NetworkBuilder, SimResult};
use unison::topology::{bcube, fat_tree, fat_tree_clusters, manual, torus2d, Topology};
use unison::traffic::{SizeDist, TrafficConfig};

fn profile(
    topo: &Topology,
    traffic: &TrafficConfig,
    partition: PartitionMode,
    stop: Time,
) -> SimResult {
    NetworkBuilder::new(topo)
        .traffic(traffic)
        .stop_at(stop)
        .build()
        .profile(partition)
        .expect("profiled run")
}

/// The run's profile with every LP's cost replaced by 100 ns per event.
fn event_costs(run: &SimResult) -> Vec<RoundRecord> {
    let profile = run.kernel.rounds_profile.as_deref().unwrap_or(&[]);
    profile
        .iter()
        .map(|r| RoundRecord {
            window_start: r.window_start,
            window_end: r.window_end,
            fused: r.fused,
            lp_cost_ns: r.lp_events.iter().map(|&e| e as f32 * 100.0).collect(),
            lp_events: r.lp_events.clone(),
            lp_recv: r.lp_recv.clone(),
        })
        .collect()
}

/// The §3.2 profiling workload at test scale: k = 4 fat-tree, 1 ms of
/// incast traffic at `ratio`.
fn fat_tree_incast(ratio: f64) -> (Topology, TrafficConfig, Time) {
    let traffic = TrafficConfig::incast(0.3, ratio)
        .with_seed(7)
        .with_window(Time::ZERO, Time::from_millis(1));
    (fat_tree(4), traffic, Time::from_millis(2))
}

#[test]
fn claim_unison_beats_pdes_baselines_under_incast() {
    // Claims 1 & 5 (Fig. 1 / Fig. 9): at equal cores, Unison's replayed
    // time is below barrier and null message, and its S ratio is far below
    // the barrier's.
    let topo = fat_tree_clusters(8, 4);
    let traffic = TrafficConfig::incast(0.4, 1.0)
        .with_seed(42)
        .with_window(Time::ZERO, Time::from_millis(1));
    let stop = Time::from_millis(2);
    let base = profile(
        &topo,
        &traffic,
        PartitionMode::Manual(manual::by_cluster(&topo)),
        stop,
    );
    let auto = profile(&topo, &traffic, PartitionMode::Auto, stop);
    let mb = base.perf_model();
    let bar = mb.barrier();
    let nm = mb.nullmsg(&base.kernel.lp_neighbors);
    let uni = auto.perf_model().unison(8, SchedConfig::default());
    assert!(
        uni.total_ns < bar.total_ns && uni.total_ns < nm.total_ns,
        "unison {} vs barrier {} / nullmsg {}",
        uni.total_ns,
        bar.total_ns,
        nm.total_ns
    );
    assert!(
        uni.s_ratio() < bar.s_ratio(),
        "unison S ratio {} !< barrier {}",
        uni.s_ratio(),
        bar.s_ratio()
    );
}

#[test]
fn claim_sync_time_grows_with_incast_ratio() {
    // Claim 2 (Fig. 5a): the barrier baseline's S/T rises with skew.
    let s_at = |ratio| {
        let (topo, traffic, stop) = fat_tree_incast(ratio);
        let pods = PartitionMode::Manual(manual::by_cluster(&topo));
        let base = profile(&topo, &traffic, pods, stop);
        PerfModel::new(&event_costs(&base)).barrier().s_ratio()
    };
    let balanced = s_at(0.0);
    let skewed = s_at(1.0);
    assert!(
        skewed > balanced,
        "S/T should rise with incast: balanced {balanced}, skewed {skewed}"
    );
}

#[test]
fn claim_lookahead_shrinks_sync_share() {
    // Claim 4 (Fig. 5c): larger link delay -> lower barrier S/T.
    let stop = Time::from_millis(2);
    let s_at = |delay| {
        let topo = fat_tree(4).with_rate(DataRate::gbps(10)).with_delay(delay);
        let traffic = TrafficConfig::random_uniform(0.3)
            .with_seed(7)
            .with_sizes(SizeDist::Grpc)
            .with_window(Time::ZERO, Time::from_millis(1));
        let pods = PartitionMode::Manual(manual::by_cluster(&topo));
        profile(&topo, &traffic, pods, stop)
            .perf_model()
            .barrier()
            .s_ratio()
    };
    let small = s_at(Time::from_micros(1));
    let large = s_at(Time::from_micros(300));
    assert!(
        small > large,
        "S/T should fall with delay: 1us {small}, 300us {large}"
    );
}

#[test]
fn claim_barrier_saturates_at_its_lp_count_while_unison_keeps_scaling() {
    // Fig. 8b: the barrier baseline cannot use more cores than its
    // partition has LPs, so its speedup over sequential DES is capped
    // there; Unison's is strictly higher at every core count >= 4.
    let (topo, traffic, stop) = fat_tree_incast(0.0);
    let auto = event_costs(&profile(&topo, &traffic, PartitionMode::Auto, stop));
    let model = PerfModel::new(&auto);
    let seq = model.sequential().total_ns;
    let mut best_barrier: f64 = 0.0;
    for lps in [1u32, 2, 4] {
        let pods = PartitionMode::Manual(manual::by_cluster_group(&topo, lps));
        let base = event_costs(&profile(&topo, &traffic, pods, stop));
        let base = PerfModel::new(&base);
        let speedup = base.sequential().total_ns / base.barrier().total_ns;
        assert!(
            speedup <= lps as f64,
            "barrier at {lps} LPs cannot exceed {lps}x, got {speedup}"
        );
        best_barrier = best_barrier.max(speedup);
    }
    let mut last = 0.0;
    for cores in [4usize, 8, 16, 24] {
        let speedup = seq / model.unison(cores, SchedConfig::default()).total_ns;
        assert!(
            speedup > best_barrier,
            "unison({cores}) {speedup}x must beat the barrier's best {best_barrier}x"
        );
        assert!(speedup >= last, "unison({cores}) fell below {last}x");
        last = speedup;
    }
}

#[test]
fn claim_unison_beats_both_baselines_on_torus_and_bcube() {
    // Fig. 10a / 10b: at equal core counts Unison's replayed time is below
    // barrier and null message on the 2-D torus (baselines split the id
    // range into #core sub-arrays) and on BCube (BCube0 groups).
    let stop = Time::from_millis(2);
    let torus = torus2d(6, 6, DataRate::gbps(10), Time::from_micros(30));
    let cube = bcube(4, 2, DataRate::gbps(10), Time::from_micros(3));
    let cases = [
        (
            &torus,
            manual::by_id_range(&torus, 4),
            4,
            SizeDist::WebSearch,
        ),
        (
            &torus,
            manual::by_id_range(&torus, 12),
            12,
            SizeDist::WebSearch,
        ),
        (&cube, manual::by_cluster(&cube), 8, SizeDist::Grpc),
    ];
    for (topo, assignment, cores, sizes) in cases {
        let traffic = TrafficConfig::incast(0.3, 0.1)
            .with_seed(5)
            .with_sizes(sizes)
            .with_window(Time::ZERO, Time::from_millis(1));
        let base = profile(topo, &traffic, PartitionMode::Manual(assignment), stop);
        let costs = event_costs(&base);
        let mb = PerfModel::new(&costs);
        let (bar, nm) = (mb.barrier(), mb.nullmsg(&base.kernel.lp_neighbors));
        let auto = event_costs(&profile(topo, &traffic, PartitionMode::Auto, stop));
        let uni = PerfModel::new(&auto).unison(cores, SchedConfig::default());
        assert!(
            uni.total_ns < bar.total_ns && uni.total_ns < nm.total_ns,
            "{} at {cores} cores: unison {} vs barrier {} / nullmsg {}",
            topo.name,
            uni.total_ns,
            bar.total_ns,
            nm.total_ns
        );
    }
}

#[test]
fn claim_fine_granularity_improves_locality() {
    // Claim 9 (Fig. 12a): node switches fall monotonically with LP count.
    let topo = torus2d(6, 6, DataRate::gbps(10), Time::from_micros(30));
    let traffic = TrafficConfig::random_uniform(0.3)
        .with_seed(13)
        .with_sizes(SizeDist::Grpc)
        .with_window(Time::ZERO, Time::from_millis(1));
    let switches_at = |lps: u32| {
        let sim = NetworkBuilder::new(&topo)
            .traffic(&traffic)
            .stop_at(Time::from_millis(3))
            .build();
        let res = sim
            .run_with(&RunConfig {
                partition: PartitionMode::Manual(manual::by_id_range(&topo, lps)),
                ..RunConfig::unison(1)
            })
            .expect("run");
        res.kernel.node_switches()
    };
    let coarse = switches_at(1);
    let medium = switches_at(6);
    let fine = switches_at(36);
    assert!(
        coarse > medium && medium > fine,
        "locality proxy must fall with granularity: {coarse} > {medium} > {fine}"
    );
}

#[test]
fn claim_load_adaptive_scheduling_beats_none() {
    // Claim 10 (Fig. 12c): the default metric's slowdown factor is below
    // the no-scheduling slowdown.
    let (topo, traffic, stop) = fat_tree_incast(0.5);
    let costs = event_costs(&profile(&topo, &traffic, PartitionMode::Auto, stop));
    let model = PerfModel::new(&costs);
    let alpha = |metric| {
        let sched = SchedConfig {
            metric,
            ..Default::default()
        };
        model.unison_detailed(8, sched).slowdown
    };
    let with = alpha(SchedMetric::ByLastRoundTime);
    let without = alpha(SchedMetric::None);
    assert!(with >= 1.0 - 1e-9);
    assert!(
        with <= without,
        "scheduling should not hurt: with {with}, without {without}"
    );
}

#[test]
fn claim_auto_period_is_near_the_best_fixed_period() {
    // Fig. 12d: the automatic scheduling period (ceil(log2(#lp))) is
    // within 10% of the best fixed period's modelled time.
    let (topo, traffic, stop) = fat_tree_incast(0.0);
    let costs = event_costs(&profile(&topo, &traffic, PartitionMode::Auto, stop));
    let model = PerfModel::new(&costs);
    let time_at = |period| {
        let sched = SchedConfig {
            period,
            ..Default::default()
        };
        model.unison(8, sched).total_ns
    };
    let best = [1u32, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|p| time_at(Some(p)))
        .fold(f64::INFINITY, f64::min);
    let auto = time_at(None);
    assert!(
        auto <= best * 1.10,
        "auto period {auto} ns vs best fixed {best} ns"
    );
}

#[test]
fn claim_barrier_lps_are_striped_while_unison_threads_are_flat() {
    // Fig. 13: within 100-round buckets, processing time varies more
    // across the barrier's LPs than across Unison's threads.
    let (topo, traffic, stop) = fat_tree_incast(0.6);
    let pods = PartitionMode::Manual(manual::by_cluster(&topo));
    let base = event_costs(&profile(&topo, &traffic, pods, stop));
    let auto = event_costs(&profile(&topo, &traffic, PartitionMode::Auto, stop));
    let barrier = mean_cv(&PerfModel::new(&base).bucketed_costs(100));
    let unison =
        mean_cv(&PerfModel::new(&auto).bucketed_worker_loads(4, SchedConfig::default(), 100));
    assert!(
        barrier > unison,
        "imbalance (CV): barrier LPs {barrier} !> unison threads {unison}"
    );
}

/// Body lines of `pub fn <name>` in the manual-partition module.
fn manual_fn_lines(name: &str) -> usize {
    const MANUAL_SRC: &str = include_str!("../crates/topology/src/manual.rs");
    let start = MANUAL_SRC
        .find(&format!("pub fn {name}("))
        .unwrap_or_else(|| panic!("function {name} not found in manual.rs"));
    let mut depth = 0usize;
    let mut lines = 0usize;
    for line in MANUAL_SRC[start..].lines() {
        lines += 1;
        depth += line.matches('{').count();
        let closes = line.matches('}').count();
        if closes >= depth && depth > 0 {
            break;
        }
        depth -= closes;
    }
    lines
}

#[test]
fn claim_pdes_needs_per_model_code_and_unison_needs_none() {
    // Table 1: adapting a model to classic PDES means hand-writing a static
    // partition per topology plus baseline-specific run glue (choose the
    // kernel, pass the assignment, gather per-LP outputs: at most 9 lines
    // here) — no more than the paper's "added" column — while Unison's
    // configuration names no partition at all: its column is 0.
    const BASELINE_GLUE: usize = 9;
    for (model, helper, paper_added) in [
        ("Fat-tree", "by_cluster", 36),
        ("BCube", "by_cluster", 44),
        ("Spine-leaf", "by_cluster_group", 40),
        ("2D-torus", "by_id_range", 33),
    ] {
        let ours = manual_fn_lines(helper) + BASELINE_GLUE;
        assert!(
            ours <= paper_added,
            "{model}: {ours} added lines > the paper's {paper_added}"
        );
    }
    assert_eq!(RunConfig::unison(2).partition, PartitionMode::Auto);
}

#[test]
fn claim_unison_matches_ground_truth_under_skew() {
    // Table 2: Unison stays equal to the sequential ground truth in both
    // the balanced and the incast-skewed scenario (`scenarios/table2.toml`
    // at test scale).
    let tput_err = |clusters: usize| {
        let topo = fat_tree_clusters(clusters, 4)
            .with_rate(DataRate::mbps(100))
            .with_delay(Time::from_micros(500));
        let traffic = TrafficConfig {
            incast_ratio: 0.1,
            incast_cluster: Some(clusters as u32 - 1),
            ..TrafficConfig::random_uniform(0.7)
                .with_seed(9)
                .with_window(Time::ZERO, Time::from_millis(50))
        };
        let build = || {
            NetworkBuilder::new(&topo)
                .traffic(&traffic)
                .stop_at(Time::from_millis(120))
                .build()
        };
        let seq = build().run(KernelKind::Sequential { compat_keys: false });
        let uni = build().run(KernelKind::Unison { threads: 2 });
        assert_eq!(seq.kernel.events, uni.kernel.events);
        (
            seq.flows.throughput_bps.mean(),
            uni.flows.throughput_bps.mean(),
        )
    };
    let (seq2, uni2) = tput_err(2);
    assert_eq!(
        seq2.to_bits(),
        uni2.to_bits(),
        "Unison must match sequential"
    );
    let (seq4, uni4) = tput_err(4);
    assert_eq!(seq4.to_bits(), uni4.to_bits());
}
