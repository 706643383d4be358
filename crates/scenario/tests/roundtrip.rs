//! Round-trip tests: scenario text → AST → `RunConfig`/`Topology`/
//! `TrafficConfig`, for every kernel, partitioner, and FEL variant the
//! dialect can name. The builder-equivalence half (AST → `NetworkBuilder`
//! vs. hand-assembled) lives in `crates/bench/tests/scenario_corpus.rs`,
//! where netsim is in scope.

use std::time::Duration;

use unison_core::kernel::{KernelKind, PartitionMode};
use unison_core::sched::SchedMetric;
use unison_core::Time;
use unison_scenario::{
    parse_rows, parse_scenario, ModelSpec, PartitionSpec, QueueSpec, RoutingSpec, ScenarioSpec,
    TrafficPattern,
};
use unison_traffic::SizeDist;

/// A minimal valid scenario with `$RUN` spliced into the `[run]` section.
fn with_run(extra: &str) -> ScenarioSpec {
    let src = format!(
        r#"
name = "roundtrip"
[topology]
kind = "fat_tree_clusters"
clusters = 2
hosts_per_cluster = 4
[traffic]
load = 0.2
[run]
stop_us = 1000
{extra}
"#
    );
    parse_scenario(&src).unwrap_or_else(|e| panic!("parse failed for {extra:?}: {e}"))
}

#[test]
fn every_kernel_variant_maps() {
    let cases: &[(&str, KernelKind)] = &[
        (
            "kernel = \"sequential\"",
            KernelKind::Sequential { compat_keys: false },
        ),
        (
            "kernel = \"sequential_compat\"",
            KernelKind::Sequential { compat_keys: true },
        ),
        ("kernel = \"barrier\"", KernelKind::Barrier),
        ("kernel = \"nullmsg\"", KernelKind::NullMessage),
        (
            "kernel = \"unison\"\nthreads = 3",
            KernelKind::Unison { threads: 3 },
        ),
        // The frozen benchmark's spelling of a deleted kernel: read as unison.
        (
            "kernel = \"async_cons\"\nthreads = 2",
            KernelKind::Unison { threads: 2 },
        ),
        (
            "kernel = \"hybrid\"\nhosts = 2\nthreads_per_host = 2",
            KernelKind::Hybrid {
                hosts: 2,
                threads_per_host: 2,
            },
        ),
    ];
    for (run, want) in cases {
        let spec = with_run(run);
        let topo = spec.build_topology();
        let cfg = spec.run_config(&topo);
        assert_eq!(&cfg.kernel, want, "for {run:?}");
    }
}

#[test]
fn kernel_default_partitions() {
    let seq = with_run("kernel = \"sequential\"");
    let topo = seq.build_topology();
    assert_eq!(seq.run_config(&topo).partition, PartitionMode::SingleLp);

    let uni = with_run("kernel = \"unison\"\nthreads = 2");
    assert_eq!(uni.run_config(&topo).partition, PartitionMode::Auto);

    // barrier/nullmsg default to one LP per topology cluster.
    let bar = with_run("kernel = \"barrier\"");
    let mode = bar.run_config(&topo).partition;
    let PartitionMode::Manual(assign) = mode else {
        panic!("expected manual partition, got {mode:?}");
    };
    assert_eq!(assign, unison_topology::manual::by_cluster(&topo));
}

#[test]
fn every_partition_variant_maps() {
    let base = "kernel = \"unison\"\nthreads = 2\n";
    let topo = with_run(base).build_topology();
    let cases: &[(&str, PartitionMode)] = &[
        ("partition = \"auto\"", PartitionMode::Auto),
        ("partition = \"single_lp\"", PartitionMode::SingleLp),
        (
            "partition = \"bound\"\nbound_us = 5",
            PartitionMode::Bound(Time::from_micros(5)),
        ),
        (
            "partition = \"by_cluster\"",
            PartitionMode::Manual(unison_topology::manual::by_cluster(&topo)),
        ),
        (
            "partition = \"by_id_range\"\nlps = 3",
            PartitionMode::Manual(unison_topology::manual::by_id_range(&topo, 3)),
        ),
        (
            "partition = \"by_cluster_group\"\nlps = 1",
            PartitionMode::Manual(unison_topology::manual::by_cluster_group(&topo, 1)),
        ),
    ];
    for (part, want) in cases {
        let spec = with_run(&format!("{base}{part}"));
        assert_eq!(&spec.run_config(&topo).partition, want, "for {part:?}");
    }
    // An explicit per-node assignment (2 clusters of 4 hosts → node count
    // from the built topology).
    let n = topo.node_count();
    let assignment: Vec<String> = (0..n).map(|i| (i % 2).to_string()).collect();
    let spec = with_run(&format!(
        "{base}partition = \"manual\"\nassignment = [{}]",
        assignment.join(", ")
    ));
    let PartitionMode::Manual(got) = spec.run_config(&topo).partition else {
        panic!("expected manual");
    };
    assert_eq!(got.len(), n);
}

#[test]
fn sched_and_knobs_map() {
    let spec = with_run(
        "kernel = \"unison\"\nthreads = 2\n\
         sched_metric = \"by-pending-events\"\n\
         sched_period = 4\nfusion_threshold = 64\n\
         watchdog_ms = 2000",
    );
    let topo = spec.build_topology();
    let cfg = spec.run_config(&topo);
    assert_eq!(cfg.sched.metric, SchedMetric::ByPendingEvents);
    assert_eq!(cfg.sched.period, Some(4));
    assert!(cfg.sched.fusion.enabled);
    assert_eq!(cfg.sched.fusion.threshold, 64);
    assert_eq!(
        cfg.watchdog.round_deadline,
        Some(Duration::from_millis(2000))
    );

    let spec = with_run("kernel = \"unison\"\nthreads = 2\nfusion = false");
    let cfg = spec.run_config(&topo);
    assert!(!cfg.sched.fusion.enabled);
    // Defaults when the keys are absent.
    let spec = with_run("kernel = \"unison\"\nthreads = 2");
    let cfg = spec.run_config(&topo);
    assert_eq!(cfg.sched.metric, SchedMetric::ByLastRoundTime);
    assert_eq!(cfg.watchdog.round_deadline, None);
}

#[test]
fn faults_ride_along() {
    let src = r#"
[topology]
kind = "fat_tree"
k = 4
[traffic]
load = 0.1
[run]
stop_us = 1000
kernel = "unison"
threads = 2
[[fault]]
kind = "worker_panic"
round = 3
phase = "receive"
worker = 1
[[fault]]
kind = "checkpoint_fail"
at_us = 500
"#;
    let spec = parse_scenario(src).unwrap();
    assert_eq!(spec.run.fault.specs().len(), 2);
    let topo = spec.build_topology();
    let cfg = spec.run_config(&topo);
    assert_eq!(cfg.fault.specs().len(), 2);
}

#[test]
fn traffic_and_topology_sections_map() {
    let src = r#"
name = "map"
[topology]
kind = "fat_tree_clusters"
clusters = 4
hosts_per_cluster = 4
rate_mbps = 100
delay_us = 500
[traffic]
pattern = "incast"
load = 0.5
incast_ratio = 0.7
sizes = "grpc"
seed = 11
start_us = 0
duration_us = 40000
[run]
stop_us = 60000
kernel = "unison"
threads = 2
"#;
    let spec = parse_scenario(src).unwrap();
    let topo = spec.build_topology();
    assert_eq!(topo.clusters, 4);
    assert_eq!(topo.hosts().len(), 16);
    // The rate/delay overrides hit every link.
    assert!(topo
        .links
        .iter()
        .all(|l| l.rate.as_bps() == 100_000_000 && l.delay == Time::from_micros(500)));
    let t = spec.traffic_config().unwrap();
    assert_eq!(t.load, 0.5);
    assert_eq!(t.incast_ratio, 0.7);
    assert_eq!(t.size_dist, SizeDist::Grpc);
    assert_eq!(t.seed, 11);
    assert_eq!(t.duration, Time::from_micros(40_000));
    assert_eq!(
        spec.traffic.as_ref().unwrap().pattern,
        TrafficPattern::Incast
    );
}

#[test]
fn transport_queue_routing_specs_parse() {
    let src = r#"
[topology]
kind = "dumbbell"
senders = 2
receivers = 2
edge_rate_mbps = 1000
bottleneck_rate_mbps = 1000
delay_us = 20
[transport]
kind = "dctcp"
profile = "dcn"
[queue]
kind = "dctcp"
limit_bytes = 400000
k_bytes = 8000
[routing]
kind = "rip"
update_interval_us = 10000
[[flow]]
src = 2
dst = 4
bytes = 2000000
start_us = 50
[run]
stop_us = 400000
kernel = "unison"
threads = 2
"#;
    let spec = parse_scenario(src).unwrap();
    assert_eq!(
        spec.queue,
        Some(QueueSpec::Dctcp {
            limit_bytes: 400_000,
            k_bytes: 8_000
        })
    );
    assert_eq!(
        spec.routing,
        RoutingSpec::Rip {
            update_interval: Time::from_millis(10)
        }
    );
    assert_eq!(spec.flows.len(), 1);
    assert_eq!(spec.flows[0].bytes, 2_000_000);
}

#[test]
fn strictness_rejects_mistakes() {
    let ok = r#"
[topology]
kind = "fat_tree"
k = 4
[traffic]
load = 0.1
[run]
stop_us = 1000
kernel = "unison"
threads = 2
"#;
    assert!(parse_scenario(ok).is_ok());
    // Unknown key in a known section.
    let e = parse_scenario(&ok.replace("k = 4", "k = 4\nkk = 9")).unwrap_err();
    assert!(e.msg.contains("unknown key `kk`"), "{e}");
    // Unknown section.
    let e = parse_scenario(&format!("{ok}[wat]\nx = 1\n")).unwrap_err();
    assert!(e.msg.contains("unknown section"), "{e}");
    // Unknown enum value, with the options listed.
    let e = parse_scenario(&ok.replace("\"unison\"", "\"warp\"")).unwrap_err();
    assert!(e.msg.contains("unknown kernel `warp`"), "{e}");
    assert!(e.msg.contains("nullmsg | unison | hybrid"), "{e}");
    // Missing required key.
    let e = parse_scenario(&ok.replace("threads = 2", "")).unwrap_err();
    assert!(e.msg.contains("missing required key `threads`"), "{e}");
    // Type mismatch.
    let e = parse_scenario(&ok.replace("threads = 2", "threads = \"two\"")).unwrap_err();
    assert!(e.msg.contains("must be a"), "{e}");
    // `threads` on a kernel that has none.
    let e = parse_scenario(&ok.replace("kernel = \"unison\"", "kernel = \"barrier\"")).unwrap_err();
    assert!(e.msg.contains("not valid for kernel"), "{e}");
    // Semantic validation: flow endpoints must be hosts.
    let e = parse_scenario(&format!(
        "{ok}[[flow]]\nsrc = 0\ndst = 1\nbytes = 100\nstart_us = 0\n"
    ))
    .unwrap_err();
    assert!(e.msg.contains("is not a host"), "{e}");
    // Duplicate section.
    let e = parse_scenario(&format!("{ok}[run]\nstop_us = 1\nkernel = \"barrier\"\n")).unwrap_err();
    assert!(e.msg.contains("duplicate"), "{e}");
}

/// The placement-layer keys retired with the pluggable claim policies,
/// staged partitioners and pinning, the `fel` key (the event list is not a
/// scenario choice: the heap is the ladder's test reference) and
/// `per_round_metrics` (what a run records is the caller's choice —
/// `unison-run --explain` — not the file's) are rejected like any other
/// unknown key or value, at their own span.
#[test]
fn retired_run_keys_are_rejected_with_their_span() {
    let head = "[topology]\nkind = \"fat_tree\"\nk = 4\n[traffic]\nload = 0.1\n\
                [run]\nstop_us = 1000\nkernel = \"unison\"\nthreads = 2\n";
    for (line, want) in [
        (
            "sched_policy = \"steal-deque\"",
            "unknown key `sched_policy`",
        ),
        ("pin = \"compact\"", "unknown key `pin`"),
        ("pipeline = \"refined\"", "unknown key `pipeline`"),
        ("partition = \"pipeline\"", "unknown partition `pipeline`"),
        ("fel = \"binary_heap\"", "unknown key `fel`"),
        (
            "per_round_metrics = true",
            "unknown key `per_round_metrics`",
        ),
    ] {
        let e = parse_scenario(&format!("{head}  {line}\n")).unwrap_err();
        assert!(e.msg.contains(want), "{line}: {e}");
        assert_eq!((e.line, e.col), (10, 3), "{line}: {e}");
    }
}

#[test]
fn errors_carry_spans() {
    let e = parse_scenario(
        "[topology]\nkind = \"fat_tree\"\nk = 4\n  kindd = 9\n[run]\nstop_us = 1\nkernel = \"sequential\"\n",
    )
    .unwrap_err();
    assert_eq!((e.line, e.col), (4, 3), "{e}");
}

/// The semantic checks — the ones that compare one section with another, or
/// with the built topology — point at the value they reject, never at
/// line 0. Each case is `replace this | by this | error line | message`.
#[test]
fn semantic_errors_point_at_the_offending_value() {
    // 1 [topology] … 5, 8, 11 [[link]] 14 [traffic] 16 [run] 19 [[flow]]
    // 24 [[on_off]]: one key a line.
    let ok = "[topology]\nkind = \"manual\"\nnodes = 4\nhosts = [0, 3]\n\
              [[link]]\na = 0\nb = 1\n[[link]]\na = 1\nb = 2\n[[link]]\na = 2\nb = 3\n\
              [traffic]\nload = 0.1\n[run]\nstop_us = 10\nkernel = \"sequential\"\n\
              [[flow]]\nsrc = 0\ndst = 3\nbytes = 9\nstart_us = 0\n\
              [[on_off]]\nsrc = 3\ndst = 0\nrate_mbps = 1\nmean_on_us = 1\n\
              mean_off_us = 1\nuntil_us = 5\n";
    parse_scenario(ok).unwrap_or_else(|e| panic!("{e}"));
    for case in [
        "nodes = 4 | nodes = 0 | 3 | `nodes >= 1`",
        "hosts = [0, 3] | hosts = [0, 4] | 4 | host id 4 out of range",
        "hosts = [0, 3] | hosts = [0, 3]\nclusters = [0] | 5 | `clusters` has 1",
        "b = 3 | b = 7 | 13 | link 2-7 out of range",
        "a = 2\nb = 3 | a = 0\nb = 1 | 1 | is not connected",
        "load = 0.1 | load = 11 | 15 | load 11 out of range",
        "load = 0.1 | load = 0.1\nincast_ratio = 2 | 16 | incast_ratio 2 out",
        "load = 0.1 | load = 0.1\nincast_cluster = 5 | 16 | incast_cluster 5 out",
        "stop_us = 10 | stop_us = 0 | 17 | must be positive",
        "stop_us = 10 | stop_us = 10\npartition = \"manual\"\nassignment = [0] | 19 | 1 entries",
        "src = 0 | src = 1 | 20 | flow src 1 is not a host",
        "dst = 3 | dst = 9 | 21 | flow dst 9 out of range",
        "dst = 3 | dst = 0 | 21 | src == dst",
        "src = 3 | src = 4 | 25 | on_off src 4 out of range",
    ] {
        let fields: Vec<&str> = case.split(" | ").collect();
        let (from, to, line, want) = (fields[0], fields[1], fields[2], fields[3]);
        assert!(ok.contains(from), "{case}");
        let e = parse_scenario(&ok.replacen(from, to, 1)).unwrap_err();
        assert!(e.msg.contains(want), "{case}: {e}");
        assert_eq!((e.line, e.col), (line.parse().unwrap(), 1), "{case}: {e}");
    }
}

/// `TopoKind::size` is what a topology is bounded by before it is built,
/// so it has to say what the builder would build.
#[test]
fn the_size_computed_from_the_parameters_is_the_size_built() {
    for topology in [
        "kind = \"fat_tree\"\nk = 2",
        "kind = \"fat_tree\"\nk = 6",
        "kind = \"fat_tree_clusters\"\nclusters = 3\nhosts_per_cluster = 1",
        "kind = \"fat_tree_clusters\"\nclusters = 2\nhosts_per_cluster = 13",
        "kind = \"spine_leaf\"\nspines = 3\nleaves = 5\nhosts_per_leaf = 2",
        "kind = \"dumbbell\"\nsenders = 3\nreceivers = 2\nedge_rate_mbps = 10\n\
         bottleneck_rate_mbps = 10",
        "kind = \"bcube\"\nn = 3\nlevels = 3",
        "kind = \"bcube\"\nn = 2\nlevels = 1",
        "kind = \"torus2d\"\nrows = 2\ncols = 2",
        "kind = \"torus2d\"\nrows = 2\ncols = 5",
        "kind = \"torus2d\"\nrows = 4\ncols = 3",
    ] {
        let src = format!("[topology]\n{topology}\n[run]\nstop_us = 1\nkernel = \"sequential\"\n");
        let spec = parse_scenario(&src).unwrap_or_else(|e| panic!("{topology}: {e}"));
        let topo = spec.build_topology();
        assert_eq!(
            spec.topology.kind.size(),
            Ok((topo.node_count(), topo.links.len())),
            "{topology}"
        );
    }
}

/// A scenario whose `[topology]`, `[run]` and `[model]` sections the sweep
/// tests extend: `$TAIL` is appended after the `[model]` table.
fn sweep_src(tail: &str) -> String {
    format!(
        "name = \"sweep\"\n\
         [topology]\nkind = \"fat_tree_clusters\"\nclusters = 2\nhosts_per_cluster = 4\n\
         delay_us = 3\n\
         [traffic]\nload = 0.2\n\
         [run]\nstop_us = 1000\nkernel = \"unison\"\nthreads = 2\n\
         [model]\ncores = 4\n{tail}"
    )
}

#[test]
fn sweep_rows_are_the_file_with_each_listed_value_in_place() {
    let src = sweep_src(
        "baseline_partition = \"by_cluster\"\nhybrid_hosts = 2\n\
         [sweep.topology]\nclusters = [2, 4, 8]\ndelay_us = [0.3, 3, 30]\n\
         [sweep.model]\ncores = [2, 4,\n  8]\n",
    );
    let rows = parse_rows(&src).unwrap();
    assert_eq!(rows.len(), 3);
    for (row, (clusters, delay_ns, cores)) in
        rows.iter()
            .zip([(2, 300, 2), (4, 3_000, 4), (8, 30_000, 8)])
    {
        let topo = row.spec.build_topology();
        assert_eq!(topo.clusters, clusters);
        assert!(topo
            .links
            .iter()
            .all(|l| l.delay == Time::from_nanos(delay_ns)));
        assert_eq!(
            row.spec.model,
            Some(ModelSpec {
                cores,
                baseline: Some(PartitionSpec::ByCluster),
                hybrid_hosts: Some(2),
            })
        );
    }
    assert_eq!(
        rows[1].label,
        "topology.clusters = 4, topology.delay_us = 3, model.cores = 4"
    );
    // More than one row is not what `parse_scenario` reads; the error sits
    // on the first sweep table (line 17 of the source above).
    let e = parse_scenario(&src).unwrap_err();
    assert!(e.msg.contains("sweeps 3 rows"), "{e}");
    assert_eq!((e.line, e.col), (17, 1), "{e}");
    // A `[model]` alone changes nothing but `spec.model`; its
    // `baseline_lps` defaults to `cores`.
    let one = parse_scenario(&sweep_src("baseline_partition = \"by_id_range\"\n")).unwrap();
    assert_eq!(
        one.model.unwrap().baseline,
        Some(PartitionSpec::ByIdRange(4))
    );
    assert!(with_run("kernel = \"sequential\"").model.is_none());
}

/// ROADMAP aim 3: a hostile sweep is a spanned error, never a panic. The
/// spans are (line, col) into `sweep_src`, whose tail starts on line 15.
#[test]
fn hostile_sweeps_are_spanned_errors() {
    let check = |tail: &str, want: &str, at: (usize, usize)| {
        let e = parse_rows(&sweep_src(tail)).unwrap_err();
        assert!(e.msg.contains(want), "{tail:?}: {e}");
        assert_eq!((e.line, e.col), at, "{tail:?}: {e}");
    };
    // Unequal lengths: reported at the shorter list.
    let two = "[sweep.topology]\nclusters = [2, 4]\n[sweep.model]\ncores = [1]\n";
    check(two, "one length", (18, 1));
    let one = "[sweep.topology]\nclusters = [2]\n[sweep.model]\ncores = [1, 2]\n";
    check(one, "one length", (16, 1));
    check("[sweep.model]\ncores = []\n", "lists 0 rows", (16, 1));
    let long = format!("[sweep.model]\ncores = [{}]\n", "1, ".repeat(257));
    check(&long, "lists 257 rows", (16, 1));
    // A section or key the file does not have; a value that is no list.
    let section = "naming a single section of this file";
    check("[sweep.queue]\nlimit_bytes = [1]\n", section, (15, 1));
    check("[sweep]\ncores = [1]\n", section, (15, 1));
    check("[[sweep.model]]\ncores = [1]\n", section, (15, 1));
    let key = "[model] does not set `hybrid_hosts`";
    check("[sweep.model]\nhybrid_hosts = [1]\n", key, (16, 1));
    check("[sweep.model]\ncores = 4\n", "must be an array", (16, 1));
    // A row that fails in its section parser: the element's span — or,
    // when the check names another key of the section, that key's.
    let zero = "row 2 (model.cores = 0): `cores` must be in 1..=1024";
    check("[sweep.model]\ncores = [1, 2,\n    0]\n", zero, (17, 5));
    let text = "row 1 (model.cores = \"x\"): `cores` in [model] must be a integer";
    check("[sweep.model]\ncores = [2, \"x\"]\n", text, (16, 13));
    let odd = "row 1 (model.cores = 3): `hybrid_hosts` = 2 must divide `cores` = 3";
    check(
        "hybrid_hosts = 2\n[sweep.model]\ncores = [4, 3]\n",
        odd,
        (15, 1),
    );
    // A row that fails `validate`, which has no span of its own.
    let stop = "row 1 (run.stop_us = 0): `stop_us` must be positive";
    check("[sweep.run]\nstop_us = [1000, 0]\n", stop, (16, 18));
    // `[model]` on its own.
    check("hybrid_hosts = 3\n", "must divide `cores` = 4", (15, 1));
    let lps = "baseline_partition = \"by_cluster_group\"\nbaseline_lps = 0\n";
    check(lps, "`baseline_lps` must be >= 1", (16, 1));
    let manual = "baseline_partition = \"manual\"\n";
    check(manual, "unknown partition `manual`", (15, 1));
    // `lps` belongs to the two partitions that take it; times are >= 0.
    let run_with = |line: &str| {
        let src = sweep_src("").replace("threads = 2", &format!("threads = 2\n{line}"));
        parse_scenario(&src).unwrap_err().msg
    };
    assert!(run_with("lps = 2").contains("unknown key `lps`"));
    let e = run_with("partition = \"by_id_range\"");
    assert!(e.contains("missing required key `lps`"), "{e}");
    let e = parse_scenario(&sweep_src("").replace("delay_us = 3", "delay_us = -0.5")).unwrap_err();
    assert!(e.msg.contains("non-negative number"), "{e}");
}
