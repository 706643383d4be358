//! The golden scenario corpus (DESIGN.md §4.10): every row of every
//! committed file under `scenarios/` must load, run on the Unison kernel at
//! one worker thread — the first row of each file at 1/2/4 — and reproduce
//! its committed digest from `scenarios/goldens.toml` bit-for-bit: the
//! executable form of the scenario contract's digest-stability guarantee.
//!
//! The equivalence tests pin the other half of the contract: building a
//! simulation through `NetworkBuilder::from_scenario` is *structurally
//! identical* to the hand-assembled builder chains the experiment binaries
//! used before the scenario layer existed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use unison_core::{DataRate, KernelKind, Time};
use unison_netsim::{world_digest, NetworkBuilder, QueueConfig, TcpConfig, TransportKind};
use unison_scenario::{parse_rows, toml, ScenarioSpec};
use unison_topology::{dumbbell, fat_tree_clusters, geant};
use unison_traffic::{FlowSpec, SizeDist, TrafficConfig};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// The rows of every committed scenario, keyed by file stem.
fn load_corpus() -> Vec<(String, Vec<ScenarioSpec>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("scenarios/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 file stem")
            .to_string();
        if stem == "goldens" {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("readable scenario");
        let rows = parse_rows(&src)
            .unwrap_or_else(|e| panic!("scenarios/{stem}.toml failed to parse: {e}"));
        out.push((stem, rows.into_iter().map(|r| r.spec).collect()));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(
        out.len() >= 4,
        "the committed corpus holds at least the four ported experiments"
    );
    out
}

/// The committed goldens — one digest per row — keyed by scenario stem.
fn load_goldens() -> BTreeMap<String, Vec<u64>> {
    let src = std::fs::read_to_string(corpus_dir().join("goldens.toml")).expect("goldens.toml");
    let tables = toml::parse(&src).expect("goldens.toml parses");
    tables
        .iter()
        .filter(|t| !t.name.is_empty())
        .map(|t| {
            let hexes = t
                .get_array("digest")
                .or_else(|| t.get_array("digests"))
                .unwrap_or_else(|| panic!("[{}] needs digest = \"<hex>\" or digests", t.name));
            let digests = hexes.iter().map(|hex| {
                u64::from_str_radix(hex, 16)
                    .unwrap_or_else(|e| panic!("[{}] digest `{hex}`: {e}", t.name))
            });
            (t.name.clone(), digests.collect())
        })
        .collect()
}

/// Runs a scenario with its kernel swapped for `Unison { threads }` and
/// digests the final model state.
fn digest_at(spec: &ScenarioSpec, threads: usize) -> u64 {
    let topo = spec.build_topology();
    let cfg = spec.run_config_with_kernel(&topo, KernelKind::Unison { threads });
    let sim = NetworkBuilder::from_scenario(&topo, spec).build();
    let res = sim.run_with(&cfg).expect("corpus scenario run");
    world_digest(&res.world)
}

/// Every row of every corpus file reproduces its golden at one thread, the
/// first row of each file also at 2 and 4 — and every golden entry still
/// has a scenario file behind it.
#[test]
fn corpus_digests_are_thread_invariant_and_match_goldens() {
    let goldens = load_goldens();
    let mut seen = BTreeSet::new();
    for (stem, rows) in load_corpus() {
        let digests: Vec<u64> = rows.iter().map(|spec| digest_at(spec, 1)).collect();
        for threads in [2usize, 4] {
            assert_eq!(
                digest_at(&rows[0], threads),
                digests[0],
                "{stem}: digest diverged at {threads} threads"
            );
        }
        let hex: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
        assert_eq!(
            goldens.get(&stem),
            Some(&digests),
            "{stem}: the rows' digests are {hex:?} — if the model change is \
             intentional, regenerate scenarios/goldens.toml"
        );
        seen.insert(stem);
    }
    for stem in goldens.keys() {
        assert!(
            seen.contains(stem),
            "goldens.toml entry [{stem}] has no scenarios/{stem}.toml behind it"
        );
    }
}

/// Loads the first row of one committed scenario by stem.
fn committed(stem: &str) -> ScenarioSpec {
    let src = std::fs::read_to_string(corpus_dir().join(format!("{stem}.toml")))
        .expect("committed scenario");
    parse_rows(&src)
        .expect("committed scenario parses")
        .remove(0)
        .spec
}

/// Digest of a freshly built (un-run) simulation: pins that the scenario
/// mapping assembles the exact same initial world as a hand-written
/// builder chain — sockets, queues, routing tables, RNGs and all.
fn built_digest(sim: unison_netsim::NetSim) -> u64 {
    world_digest(&sim.world)
}

#[test]
fn quickstart_matches_hand_assembled_builder() {
    let spec = committed("quickstart");
    let topo = spec.build_topology();
    let via_scenario = built_digest(NetworkBuilder::from_scenario(&topo, &spec).build());
    // The original examples/quickstart.rs assembly.
    let traffic = TrafficConfig::random_uniform(0.3)
        .with_seed(7)
        .with_sizes(SizeDist::Grpc)
        .with_window(Time::ZERO, Time::from_millis(2));
    let hand = NetworkBuilder::new(&topo)
        .transport(TransportKind::NewReno)
        .traffic(&traffic)
        .stop_at(Time::from_millis(6))
        .build();
    assert_eq!(via_scenario, built_digest(hand));
}

#[test]
fn datacenter_dctcp_matches_hand_assembled_builder() {
    let spec = committed("datacenter_dctcp");
    let topo = spec.build_topology();
    let via_scenario = built_digest(NetworkBuilder::from_scenario(&topo, &spec).build());
    // The original examples/datacenter_dctcp.rs DCTCP arm.
    let hand_topo = dumbbell(
        8,
        8,
        DataRate::gbps(1),
        DataRate::gbps(1),
        Time::from_micros(20),
    );
    let hosts = hand_topo.hosts();
    let flows: Vec<FlowSpec> = (0..8)
        .map(|i| FlowSpec {
            src: hosts[i],
            dst: hosts[8 + i],
            bytes: 2_000_000,
            start: Time::from_micros(50 * i as u64),
        })
        .collect();
    let dctcp_dcn = TcpConfig {
        kind: TransportKind::Dctcp,
        ..TcpConfig::newreno_dcn()
    };
    let hand = NetworkBuilder::new(&hand_topo)
        .tcp_config(dctcp_dcn)
        .queue(QueueConfig::dctcp(400_000, 8_000))
        .flows(flows)
        .stop_at(Time::from_millis(400))
        .build();
    assert_eq!(via_scenario, built_digest(hand));
}

#[test]
fn fig08a_matches_hand_assembled_builder() {
    let spec = committed("fig08a");
    let topo = spec.build_topology();
    let via_scenario = built_digest(NetworkBuilder::from_scenario(&topo, &spec).build());
    // The original fig08a.rs base row (quick scale).
    let hand_topo = fat_tree_clusters(4, 4)
        .with_rate(DataRate::mbps(100))
        .with_delay(Time::from_micros(500));
    let traffic = TrafficConfig::random_uniform(0.5)
        .with_seed(11)
        .with_sizes(SizeDist::Grpc)
        .with_window(Time::ZERO, Time::from_millis(40));
    let hand = NetworkBuilder::new(&hand_topo)
        .transport(TransportKind::NewReno)
        .traffic(&traffic)
        .stop_at(Time::from_millis(60))
        .build();
    assert_eq!(via_scenario, built_digest(hand));
}

#[test]
fn fig10c_matches_hand_assembled_builder() {
    let spec = committed("fig10c");
    let topo = spec.build_topology();
    let via_scenario = built_digest(NetworkBuilder::from_scenario(&topo, &spec).build());
    // The original fig10c.rs GEANT row (quick scale).
    let hand_topo = geant();
    let traffic = TrafficConfig::random_uniform(0.5)
        .with_seed(17)
        .with_sizes(SizeDist::WebSearch)
        .with_window(Time::from_millis(20), Time::from_millis(30));
    let hand = NetworkBuilder::new(&hand_topo)
        .routing(unison_netsim::RoutingKind::Rip {
            update_interval: Time::from_millis(10),
        })
        .traffic(&traffic)
        .stop_at(Time::from_millis(60))
        .build();
    assert_eq!(via_scenario, built_digest(hand));
}
