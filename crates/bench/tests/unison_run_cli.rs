//! The `unison-run` command line, driven as a process (DESIGN.md §4.10):
//! `--check` accepts every committed scenario, a command line it does not
//! understand is a usage error (exit 2) rather than a silently ignored
//! flag, and the `--json` report carries the scenario's golden digest.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use unison_scenario::toml;
use unison_telemetry::json;

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
    let str_of = |key: &str| value.get(key).and_then(json::Value::as_str);
    assert_eq!(str_of("schema"), Some("unison-run/v1"));
    assert_eq!(str_of("scenario"), Some("quickstart"));

    let goldens = std::fs::read_to_string(corpus_dir().join("goldens.toml")).expect("goldens.toml");
    let goldens = toml::parse(&goldens).expect("goldens.toml parses");
    let golden = goldens
        .iter()
        .find(|t| t.name == "quickstart")
        .and_then(|t| match t.get("digest") {
            Some(toml::Value::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .expect("[quickstart] digest");
    assert_eq!(str_of("digest"), Some(golden));
    // The printed line and the report agree.
    assert!(String::from_utf8_lossy(&out.stdout).contains(&format!("digest:   {golden}")));
    let events = value.get("events").and_then(json::Value::as_num);
    assert!(events.is_some_and(|n| n > 0.0), "events = {events:?}");
}
