//! Mutation fuzz of the scenario layer: every committed scenario file, cut
//! and corrupted the ways a hand edit goes wrong, must parse to a spec whose
//! topology builds, or to an error with a span — never a panic.
//!
//! The mutants of a file are every single-line deletion, every `key =
//! value` line with its value replaced by each of [`HOSTILE`], and the text
//! truncated every 13 bytes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use unison::scenario::parse_scenario;

/// Values that sit on a boundary of some key's type or range.
const HOSTILE: [&str; 21] = [
    "-1",
    "0",
    "18446744073709551615",
    "9223372036854775807",
    "9999999999999999999999",
    "1e308",
    "-1e308",
    "nan",
    "\"\"",
    "[]",
    "[1, 2",
    "\"x\"",
    "true",
    "[[1]]",
    "0.0000001",
    "4294967296",
    "-9223372036854775808",
    "[0, 4294967295]",
    "[\"a\"]",
    "1.5",
    "[-1]",
];

/// Every mutant of `src`, with a description of the mutation.
fn mutants(src: &str) -> Vec<(String, String)> {
    let lines: Vec<&str> = src.lines().collect();
    let with_line = |i: usize, line: Option<String>| {
        let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        match line {
            Some(l) => out[i] = l,
            None => {
                out.remove(i);
            }
        }
        out.join("\n")
    };
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        out.push((format!("line {} deleted", i + 1), with_line(i, None)));
        let trimmed = line.trim_start();
        if trimmed.starts_with('#') || trimmed.starts_with('[') {
            continue;
        }
        if let Some((key, _)) = line.split_once('=') {
            for value in HOSTILE {
                let what = format!("line {}: value {value}", i + 1);
                out.push((what, with_line(i, Some(format!("{key}= {value}")))));
            }
        }
    }
    for mut end in (0..src.len()).step_by(13) {
        while !src.is_char_boundary(end) {
            end -= 1;
        }
        out.push((format!("truncated at byte {end}"), src[..end].to_string()));
    }
    out
}

#[test]
fn mutated_scenarios_parse_or_fail_with_a_span() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .filter(|p| p.file_name().is_some_and(|n| n != "goldens.toml"))
        .collect();
    files.sort();
    assert!(files.len() >= 10, "committed scenarios: {files:?}");
    let mut count = 0;
    for path in &files {
        let src = std::fs::read_to_string(path).expect("read scenario");
        let name = path.file_name().expect("file name").to_string_lossy();
        for (what, text) in mutants(&src) {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                parse_scenario(&text).map(|spec| spec.build_topology().node_count())
            }));
            match outcome {
                Err(_) => panic!("{name}, {what}: panicked\n{text}"),
                Ok(Err(e)) => assert!(e.line >= 1, "{name}, {what}: no line in `{e}`"),
                Ok(Ok(_)) => {}
            }
            count += 1;
        }
    }
    assert!(count > 1000, "only {count} mutants");
}
