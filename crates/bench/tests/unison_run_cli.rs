//! The `unison-run` command line, driven as a process (DESIGN.md §4.10):
//! `--check` accepts every committed scenario and validates every row of a
//! sweep, a command line it does not understand is a usage error (exit 2)
//! rather than a silently ignored flag, a sweep file runs row by row in
//! file order with its `[model]` record after each real run, the `--json`
//! report (`unison-run/v2`) carries the scenario's golden digest, and
//! `--explain`/`--profile` print the run report and write a valid trace
//! (DESIGN.md §4.3) without moving that digest.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use unison_scenario::toml;
use unison_telemetry::{json, validate_chrome_trace};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn unison_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_unison-run"))
        .args(args)
        .output()
        .expect("spawn unison-run")
}

#[test]
fn check_accepts_every_committed_scenario() {
    let mut checked = 0;
    for entry in std::fs::read_dir(corpus_dir()).expect("scenarios/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml")
            || path.file_stem().and_then(|s| s.to_str()) == Some("goldens")
        {
            continue;
        }
        let file = path.to_str().expect("utf-8 path");
        let out = unison_run(&[file, "--check"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.starts_with(&format!("OK {file}: ")),
            "{file}: {:?}\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} scenarios found");
}

#[test]
fn command_lines_it_does_not_understand_exit_2() {
    let quickstart = corpus_dir().join("quickstart.toml");
    let quickstart = quickstart.to_str().expect("utf-8 path");
    for args in [
        &[quickstart, "--threads"][..],
        &[quickstart, "--json"],
        &[quickstart, "--profile", "--check"],
        &[quickstart, "--explain", "--profile"],
        &[quickstart, "--threads", "0"],
        &[quickstart, "--no-such-flag"],
        &[quickstart, quickstart],
        &["--check"],
    ] {
        let out = unison_run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a simulation");
        assert!(stderr.contains("unison-run"), "{args:?}: {stderr}");
    }
}

/// The committed digest of `scenarios/quickstart.toml`.
fn quickstart_golden() -> String {
    let goldens = std::fs::read_to_string(corpus_dir().join("goldens.toml")).expect("goldens.toml");
    let goldens = toml::parse(&goldens).expect("goldens.toml parses");
    let golden = goldens
        .iter()
        .find(|t| t.name == "quickstart")
        .and_then(|t| match t.get("digest") {
            Some(toml::Value::Str(s)) => Some(s.clone()),
            _ => None,
        });
    golden.expect("[quickstart] digest")
}

#[test]
fn explain_prints_the_report_and_profile_writes_a_valid_trace() {
    let quickstart = corpus_dir().join("quickstart.toml");
    let traces = std::env::temp_dir().join(format!("unison-run-cli-{}-traces", std::process::id()));
    let out = unison_run(&[
        quickstart.to_str().expect("utf-8 path"),
        "--threads",
        "2",
        "--explain",
        "--profile",
        traces.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Recording spans does not move the result.
    assert!(stdout.contains(&format!("digest:   {}", quickstart_golden())));
    for section in [
        "-- P/S/M per worker",
        "worker   1: P ",
        "-- load imbalance",
        "-- mailbox traffic",
        "total cross-LP events",
        "-- receive columns",
    ] {
        assert!(stdout.contains(section), "no `{section}` in:\n{stdout}");
    }
    let mut written = 0;
    for entry in std::fs::read_dir(&traces).expect("--profile created its directory") {
        let path = entry.expect("readable dir entry").path();
        let text = std::fs::read_to_string(&path).expect("trace is readable");
        let summary = validate_chrome_trace(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(summary.durations > 0, "{path:?} holds no spans");
        written += 1;
    }
    std::fs::remove_dir_all(&traces).ok();
    assert_eq!(written, 1, "one run, one trace");
}

/// The sequential kernel has no rounds, LPs or scheduler to attribute
/// time to: its report is the P/S/M row (all P) over a coarse timeline,
/// not an error.
#[test]
fn explain_renders_a_sequential_run() {
    let text = std::fs::read_to_string(corpus_dir().join("quickstart.toml")).expect("quickstart");
    let file = std::env::temp_dir().join(format!("unison-run-cli-{}-seq.toml", std::process::id()));
    let sequential = text.replace(
        "kernel = \"unison\"\nthreads = 2",
        "kernel = \"sequential\"",
    );
    assert_ne!(
        sequential, text,
        "quickstart.toml no longer selects unison(2)"
    );
    std::fs::write(&file, sequential).expect("temp scenario written");
    let out = unison_run(&[file.to_str().expect("utf-8 path"), "--explain"]);
    std::fs::remove_file(&file).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("== run report: sequential"), "{stdout}");
    assert!(stdout.contains("worker   0: P "), "{stdout}");
    assert!(stdout.contains("sync   0.00%"), "{stdout}");
    assert!(stdout.contains("spans: "), "{stdout}");
    assert!(stdout.contains("(no lp-task spans"), "{stdout}");
}

#[test]
fn json_report_carries_the_golden_digest() {
    let quickstart = corpus_dir().join("quickstart.toml");
    let report = std::env::temp_dir().join(format!("unison-run-cli-{}.json", std::process::id()));
    let out = unison_run(&[
        quickstart.to_str().expect("utf-8 path"),
        "--json",
        report.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&report).expect("report written");
    std::fs::remove_file(&report).ok();
    let value = json::parse(&text).expect("report is JSON");
    assert_eq!(
        value.get("schema").and_then(json::Value::as_str),
        Some("unison-run/v2")
    );
    let rows = value.get("rows").and_then(json::Value::as_arr);
    let [value] = rows.expect("rows is an array") else {
        panic!("a plain file is one row: {text}");
    };
    let str_of = |key: &str| value.get(key).and_then(json::Value::as_str);
    assert_eq!(str_of("scenario"), Some("quickstart"));
    assert_eq!(str_of("sweep"), Some(""));

    let golden = quickstart_golden();
    assert_eq!(str_of("digest"), Some(golden.as_str()));
    // The printed line and the report agree.
    assert!(String::from_utf8_lossy(&out.stdout).contains(&format!("digest:   {golden}")));
    let events = value.get("events").and_then(json::Value::as_num);
    assert!(events.is_some_and(|n| n > 0.0), "events = {events:?}");
}

/// A two-row sweep with a full `[model]` table, small enough for a test.
const SWEEP: &str = r#"
name = "cli-sweep"
[topology]
kind = "fat_tree"
k = 4
[traffic]
pattern = "incast"
load = 0.3
incast_ratio = 0.0
seed = 7
duration_us = 300
[run]
stop_us = 600
kernel = "unison"
threads = 2
[model]
cores = 4
baseline_partition = "by_cluster"
hybrid_hosts = 2
[sweep.traffic]
incast_ratio = [0.0, 1.0]
"#;

fn temp_file(tag: &str, text: &str) -> PathBuf {
    let file = std::env::temp_dir().join(format!("unison-run-cli-{}-{tag}", std::process::id()));
    std::fs::write(&file, text).expect("temp file written");
    file
}

#[test]
fn a_sweep_runs_row_by_row_with_its_model_record() {
    let file = temp_file("sweep.toml", SWEEP);
    let report = temp_file("sweep.json", "");
    let out = unison_run(&[
        file.to_str().expect("utf-8 path"),
        "--threads",
        "1",
        "--json",
        report.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let text = std::fs::read_to_string(&report).expect("report written");
    std::fs::remove_file(&file).ok();
    std::fs::remove_file(&report).ok();
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // One block per row, in file order, each on the overridden thread
    // count, each followed by the fixed model record.
    let blocks: Vec<&str> = stdout.split("== row ").skip(1).collect();
    assert_eq!(blocks.len(), 2, "{stdout}");
    let algorithms = [
        "sequential",
        "barrier",
        "nullmsg",
        "sequential",
        "unison(4)",
        "hybrid(2x2)",
    ];
    for (block, head) in blocks.iter().zip([
        "1/2 (traffic.incast_ratio = 0)",
        "2/2 (traffic.incast_ratio = 1)",
    ]) {
        assert!(block.starts_with(head), "{block}");
        assert!(block.contains("kernel:   unison(1) — "), "{block}");
        assert!(block.contains("node switches"), "{block}");
        let model = block.split("model:    ").nth(1).expect("a model record");
        let printed: Vec<&str> = model
            .lines()
            .skip(2)
            .map_while(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(printed, algorithms, "{block}");
    }

    let value = json::parse(&text).expect("report is JSON");
    let rows = value.get("rows").and_then(json::Value::as_arr);
    let rows = rows.expect("rows is an array");
    assert_eq!(rows.len(), 2);
    for (row, label) in rows
        .iter()
        .zip(["traffic.incast_ratio = 0", "traffic.incast_ratio = 1"])
    {
        assert_eq!(row.get("sweep").and_then(json::Value::as_str), Some(label));
        assert_eq!(row.get("threads").and_then(json::Value::as_num), Some(1.0));
        let model = row.get("model").and_then(json::Value::as_arr);
        let model = model.expect("model is an array");
        let names: Vec<_> = model
            .iter()
            .map(|m| m.get("algorithm").and_then(json::Value::as_str))
            .collect();
        assert_eq!(names, algorithms.map(Some));
        // The barrier pins an LP per core; unison's count is the file's.
        let num = |m: &json::Value, key: &str| m.get(key).and_then(json::Value::as_num);
        assert_eq!(num(&model[1], "cores"), Some(4.0));
        assert_eq!(num(&model[1], "lp_count"), Some(4.0));
        assert_eq!(num(&model[4], "cores"), Some(4.0));
        assert!(num(&model[4], "alpha").is_some_and(|a| a >= 1.0 - 1e-9));
        assert!(num(&model[0], "alpha").is_none());
        for m in model {
            let parts = ["p_ns", "s_ns", "m_ns"].map(|k| num(m, k).expect("a number"));
            assert!(num(m, "t_ns").is_some_and(|t| t > 0.0));
            assert!(parts.iter().all(|p| *p >= 0.0));
        }
    }
}

/// The modelled hosts are the hosts asked for: 132 LPs over 16 hosts is
/// 16 hosts of one worker each (8 or 9 LPs apiece), where ranges of
/// `⌈132/16⌉ = 9` LPs would have made 15.
#[test]
fn hybrid_models_every_host_it_is_asked_for() {
    let scenario = r#"
name = "cli-hybrid-hosts"
[topology]
kind = "fat_tree_clusters"
clusters = 16
hosts_per_cluster = 4
[traffic]
pattern = "incast"
load = 0.3
incast_ratio = 0.0
seed = 21
duration_us = 50
[run]
stop_us = 100
kernel = "unison"
threads = 1
[model]
cores = 16
hybrid_hosts = 16
"#;
    let file = temp_file("hybrid-hosts.toml", scenario);
    let out = unison_run(&[file.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&file).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let hybrid = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("hybrid("))
        .unwrap_or_else(|| panic!("no hybrid record:\n{stdout}"));
    let columns: Vec<&str> = hybrid.split_whitespace().collect();
    assert_eq!(columns[..3], ["hybrid(16x1)", "auto", "132"], "{hybrid}");
    assert_eq!(columns[4], "16", "cores: {hybrid}");
}

#[test]
fn check_validates_every_row() {
    let bad = SWEEP.replace("[0.0, 1.0]", "[0.0, 1.5]");
    let file = temp_file("bad-sweep.toml", &bad);
    let out = unison_run(&[file.to_str().expect("utf-8 path"), "--check"]);
    std::fs::remove_file(&file).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "no row is OK until all are");
    assert!(
        stderr.contains("line 21, col 22: row 1 (traffic.incast_ratio = 1.5): incast_ratio 1.5"),
        "{stderr}"
    );
}

/// `--check` prices static ECMP by the tables it would build: a k = 34 fat
/// tree (11 271 nodes, 9 826 of them leaf hosts) is 1 445 columns, about
/// 81 MB, and is admitted. RIP keeps an entry per node pair and refuses
/// it, and a 100 × 100 torus has no leaves and is refused under either.
/// Only `--check` runs here: nothing is routed.
#[test]
fn check_prices_static_ecmp_by_the_tables_it_builds() {
    let check = |tag: &str, topology: &str, routing: &str| {
        let text = format!(
            "[topology]\n{topology}\n{routing}[run]\nstop_us = 1\nkernel = \"sequential\"\n"
        );
        let file = temp_file(&format!("priced-{tag}.toml"), &text);
        let out = unison_run(&[file.to_str().expect("utf-8 path"), "--check"]);
        std::fs::remove_file(&file).ok();
        out
    };
    let fat_tree = "kind = \"fat_tree\"\nk = 34";
    let out = check("k34", fat_tree, "[routing]\nkind = \"static_ecmp\"\n");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("(11271 nodes,"), "{stdout}");
    for (tag, topology, routing, message) in [
        (
            "k34-rip",
            fat_tree,
            "[routing]\nkind = \"rip\"\n",
            "line 4, col 1: this topology would have 11271 nodes, and `rip` routing keeps \
             an entry per node pair, 508141764 bytes of tables",
        ),
        (
            "torus",
            "kind = \"torus2d\"\nrows = 100\ncols = 100",
            "",
            "line 1, col 1: this topology would have 10000 nodes, and `static_ecmp` routing \
             would build 800120000 bytes of tables for its 10000 columns (0 nodes are leaves)",
        ),
    ] {
        let out = check(tag, topology, routing);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(out.stdout.is_empty(), "{tag}");
        assert!(stderr.contains(message), "{tag}: {stderr}");
    }
}

/// Sizes a file (or `--threads`) controls end in a spanned message and
/// exit 1 — a failed allocation would abort the process instead, as would
/// the routing tables of a fat-tree with 70 656 nodes (priced at 1.8 GB)
/// — and so does a watchdog deadline of 0, which would stall the first
/// round, a retired kernel name, and a deleted section or key (UDP On/Off
/// sources, a `[transport]` field override). Each case is `replace this |
/// by this | message`.
#[test]
fn hostile_sizes_exit_1_with_a_spanned_message() {
    let path = corpus_dir().join("quickstart.toml");
    let quickstart = std::fs::read_to_string(&path).expect("read");
    for (i, case) in [
        "threads = 2 | threads = 200000 | col 1: `threads` must be in 1..=1024",
        "kind = \"fat_tree\"\nk = 4 | kind = \"fat_tree_clusters\"\nclusters = 0\nhosts_per_cluster = 4 | line 12, col 1: `clusters` must be >= 1",
        "kind = \"fat_tree\"\nk = 4 | kind = \"fat_tree_clusters\"\nclusters = 2\nhosts_per_cluster = 4\n[sweep.topology]\nclusters = [0, 4] | line 15, col 13: row 0 (topology.clusters = 0): `clusters` must be >= 1",
        "\nk = 4\n | \nk = 4000\n | col 1: this topology would have at least 16020000000 nodes",
        "\nk = 4\n | \nk = 64\n | line 10, col 1: this topology would have 70656 nodes, and `static_ecmp`",
        "threads = 2 | threads = 2\nwatchdog_ms = 0 | col 1: `watchdog_ms` must be positive",
        "\nk = 4\n | \nk = 4\nrate_mbps = 18000000000000\n | line 15, col 1: this traffic would generate about",
        "kernel = \"unison\"\nthreads = 2 | kernel = \"nullmsg\" | line 23, col 1: unknown kernel `nullmsg` (expected sequential | sequential_compat | unison)",
        "threads = 2 | threads = 2\n[[on_off]]\nsrc = 0 | line 25, col 1: unknown section `[on_off]`",
        "threads = 2 | threads = 2\n[transport]\n  init_cwnd = 4 | line 26, col 3: unknown key `init_cwnd`",
    ]
    .into_iter()
    .enumerate()
    {
        let fields: Vec<&str> = case.split(" | ").collect();
        assert!(quickstart.contains(fields[0]), "{case}");
        let text = quickstart.replacen(fields[0], fields[1], 1);
        let file = temp_file(&format!("hostile-{i}.toml"), &text);
        for check in [&["--check"][..], &[]] {
            let out = unison_run(&[&[file.to_str().expect("utf-8 path")], check].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{case} {check:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{case} {check:?} ran");
            assert!(stderr.contains(fields[2]), "{case} {check:?}: {stderr}");
        }
        std::fs::remove_file(&file).ok();
    }
    // The flag reaches the kernel's own check.
    let out = unison_run(&[path.to_str().expect("utf-8 path"), "--threads", "200000"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("200000 worker threads; at most 1024"),
        "{stderr}"
    );
}
