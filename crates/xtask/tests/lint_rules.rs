//! The lint pass must (a) report zero findings on the real workspace and
//! (b) demonstrably fail on each fixture under `crates/xtask/fixtures/`.
//! Fixtures are fed through `lint_file` with a chosen workspace-relative
//! path so each test isolates exactly one rule.

use std::path::{Path, PathBuf};

use xtask::lint::{check_crate_deny_attr, lint_file, lint_workspace};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn rules_of(findings: &[xtask::lint::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

/// The acceptance gate: running the full pass over the actual repository
/// reports nothing. Any new violation in any crate fails this test.
#[test]
fn repo_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .expect("workspace root two levels above crates/xtask");
    assert!(
        root.join("Cargo.toml").is_file(),
        "expected workspace root at {}",
        root.display()
    );
    let (findings, checked) = lint_workspace(&root).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "xtask lint found {} violation(s) in the repo:\n{}",
        findings.len(),
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually visited the workspace (core alone has more
    // than a dozen source files).
    assert!(checked > 20, "only {checked} files checked — walk broken?");
}

#[test]
fn missing_safety_comment_is_flagged() {
    // Allow-listed path, so only the safety-comment rule may fire.
    let f = lint_file(
        "crates/core/src/kernel/fixture.rs",
        &fixture("missing_safety_comment.rs"),
    );
    assert_eq!(rules_of(&f), vec!["safety-comment"], "{f:?}");
}

#[test]
fn stale_safety_comment_is_flagged() {
    // A SAFETY comment separated by a blank + code line must not count.
    let f = lint_file(
        "crates/core/src/kernel/fixture.rs",
        &fixture("stale_safety_comment.rs"),
    );
    assert_eq!(rules_of(&f), vec!["safety-comment"], "{f:?}");
}

#[test]
fn attr_line_with_trailing_code_breaks_safety_association() {
    // Regression: `#[inline] pub fn ...` used to count as attribute-only,
    // letting a SAFETY comment above it leak down to an unrelated
    // `unsafe impl`. Exactly the first impl must be flagged; the second
    // (true attribute-only line between comment and keyword) stays clean.
    let f = lint_file(
        "crates/core/src/kernel/fixture.rs",
        &fixture("stale_safety_attr_code.rs"),
    );
    assert_eq!(rules_of(&f), vec!["safety-comment"], "{f:?}");
    assert!(
        fixture("stale_safety_attr_code.rs")
            .lines()
            .nth(f[0].line - 1)
            .unwrap()
            .contains("Send"),
        "flagged the wrong impl: {f:?}"
    );
}

#[test]
fn unsafe_outside_allowlist_is_flagged() {
    let f = lint_file(
        "crates/stats/src/fixture.rs",
        &fixture("unsafe_outside_allowlist.rs"),
    );
    assert_eq!(rules_of(&f), vec!["unsafe-allowlist"], "{f:?}");
}

#[test]
fn allowlisted_file_with_comment_is_clean() {
    // The same source is clean when it lives in an audited file.
    let f = lint_file(
        "crates/core/src/lp.rs",
        &fixture("unsafe_outside_allowlist.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn hash_collections_in_core_and_netsim_are_flagged() {
    for path in ["crates/core/src/fixture.rs", "crates/netsim/src/node.rs"] {
        let f = lint_file(path, &fixture("hash_collection_in_core.rs"));
        assert!(f.iter().all(|x| x.rule == "no-hash-collections"), "{f:?}");
        // The use-declaration line, the signature line and the hasher.
        assert!(f.len() >= 3, "{path}: {f:?}");
        assert!(f.iter().any(|x| x.msg.contains("RandomState")), "{f:?}");
    }
}

#[test]
fn hash_collections_elsewhere_are_fine() {
    // Other crates, and the one model file that defines the fixed-hash
    // table the rest of the model uses.
    for path in [
        "crates/stats/src/fixture.rs",
        "crates/netsim/src/snapshot.rs",
    ] {
        let f = lint_file(path, &fixture("hash_collection_in_core.rs"));
        assert!(f.is_empty(), "{path}: {f:?}");
    }
}

#[test]
fn wall_clock_in_core_is_flagged() {
    let f = lint_file(
        "crates/core/src/fixture.rs",
        &fixture("wall_clock_in_core.rs"),
    );
    assert!(f.iter().all(|x| x.rule == "no-wall-clock"), "{f:?}");
    assert!(f.len() >= 2, "expected Instant and SystemTime hits: {f:?}");
}

#[test]
fn instant_is_allowed_in_kernel_but_systemtime_is_not() {
    let f = lint_file(
        "crates/core/src/kernel/fixture.rs",
        &fixture("wall_clock_in_core.rs"),
    );
    // Instant::now is waived for kernel wall-clock metrics; SystemTime never.
    assert!(!f.is_empty(), "SystemTime must still be flagged");
    assert!(
        f.iter()
            .all(|x| x.rule == "no-wall-clock" && x.msg.contains("SystemTime")),
        "{f:?}"
    );
}

#[test]
fn telemetry_marker_exempts_gated_instant_reads() {
    let f = lint_file(
        "crates/core/src/fixture.rs",
        &fixture("telemetry_gated_instant.rs"),
    );
    // Only the unmarked read trips; the `// TELEMETRY:`-covered one passes
    // and a marker does not carry across intervening code lines.
    assert_eq!(rules_of(&f), vec!["no-wall-clock"], "{f:?}");
    assert_eq!(f[0].line, 11, "{f:?}");
}

#[test]
fn telemetry_recorder_file_is_instant_allowlisted() {
    let f = lint_file(
        "crates/core/src/telemetry.rs",
        &fixture("wall_clock_in_core.rs"),
    );
    // Instant is waived for the span recorder; SystemTime never is.
    assert!(!f.is_empty(), "SystemTime must still be flagged");
    assert!(
        f.iter()
            .all(|x| x.rule == "no-wall-clock" && x.msg.contains("SystemTime")),
        "{f:?}"
    );
}

#[test]
fn missing_deny_attr_is_flagged() {
    let files = vec![(
        "crates/fake/src/lib.rs".to_string(),
        fixture("missing_deny_attr.rs"),
    )];
    let f = check_crate_deny_attr("crates/fake/src/lib.rs", &files);
    assert_eq!(rules_of(&f), vec!["deny-unsafe-op"], "{f:?}");

    // Adding the attribute clears the finding.
    let fixed = format!("#![deny(unsafe_op_in_unsafe_fn)]\n{}", files[0].1);
    let files = vec![("crates/fake/src/lib.rs".to_string(), fixed)];
    let f = check_crate_deny_attr("crates/fake/src/lib.rs", &files);
    assert!(f.is_empty(), "{f:?}");

    // A crate with no unsafe at all needs no attribute.
    let files = vec![(
        "crates/fake/src/lib.rs".to_string(),
        "pub fn safe() {}\n".to_string(),
    )];
    let f = check_crate_deny_attr("crates/fake/src/lib.rs", &files);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn unchecked_unwrap_in_core_is_flagged() {
    let f = lint_file(
        "crates/core/src/fixture.rs",
        &fixture("unchecked_unwrap.rs"),
    );
    // Exactly the two bare calls in `flagged()`: annotated, non-method and
    // test-module forms stay clean.
    assert_eq!(
        rules_of(&f),
        vec!["unchecked-unwrap", "unchecked-unwrap"],
        "{f:?}"
    );
    assert_eq!(f[0].line, 5, "{f:?}");
    assert_eq!(f[1].line, 6, "{f:?}");
}

#[test]
fn unchecked_unwrap_applies_to_bench_harness() {
    let f = lint_file(
        "crates/bench/src/harness.rs",
        &fixture("unchecked_unwrap.rs"),
    );
    assert_eq!(
        rules_of(&f),
        vec!["unchecked-unwrap", "unchecked-unwrap"],
        "{f:?}"
    );
}

#[test]
fn unchecked_unwrap_outside_scope_is_fine() {
    // Other crates (and other bench files) may unwrap freely.
    for rel in ["crates/stats/src/fixture.rs", "crates/bench/src/report.rs"] {
        let f = lint_file(rel, &fixture("unchecked_unwrap.rs"));
        assert!(f.is_empty(), "{rel}: {f:?}");
    }
}

#[test]
fn comments_strings_and_identifiers_never_false_positive() {
    // Treated as a core src file — the strictest rule set — and still clean.
    let f = lint_file(
        "crates/core/src/fixture.rs",
        &fixture("clean_false_positive_bait.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn string_line_continuations_keep_line_numbers_aligned() {
    // Regression: a `\` line continuation inside a string literal used to
    // swallow the newline in the lexer, shifting every later finding's
    // line number.
    let src = "fn f() -> &'static str {\n    \"a multi-line \\\n     literal\"\n}\nfn g(m: &HashMap<u32, u32>) {}\n";
    let f = lint_file("crates/core/src/fixture.rs", src);
    assert_eq!(rules_of(&f), vec!["no-hash-collections"], "{f:?}");
    assert_eq!(f[0].line, 5, "continuation must not shift line numbers");
}

#[test]
fn unpadded_kernel_atomics_are_flagged() {
    // Exactly three declaration sites: the two struct fields and the
    // `Vec<AtomicU64>` return type. Constructor expressions and the
    // CachePadded field must not report.
    let f = lint_file(
        "crates/core/src/kernel/fixture.rs",
        &fixture("atomic_padding_unpadded.rs"),
    );
    assert_eq!(
        rules_of(&f),
        vec!["atomic-padding", "atomic-padding", "atomic-padding"],
        "{f:?}"
    );
    assert!(f[0].msg.contains("AtomicBool"), "{f:?}");
    assert!(f[1].msg.contains("AtomicU64"), "{f:?}");
}

#[test]
fn atomic_padding_exemptions_pass() {
    // CachePadded wrappers, borrowed storage, `::new` value expressions,
    // `// PADDING:` markers (leading and trailing), and test modules.
    let f = lint_file(
        "crates/core/src/kernel/fixture.rs",
        &fixture("atomic_padding_ok.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn atomic_padding_only_covers_kernel_and_sync() {
    // The same violating source is clean outside the rule's scope — core
    // files off the hot path and other crates are not audited.
    for rel in ["crates/core/src/metrics.rs", "crates/bench/src/fixture.rs"] {
        let f = lint_file(rel, &fixture("atomic_padding_unpadded.rs"));
        assert!(f.is_empty(), "{rel}: {f:?}");
    }
    // `sync.rs` and `sched.rs` (the claim cursors) ARE in scope.
    for rel in ["crates/core/src/sync.rs", "crates/core/src/sched.rs"] {
        let f = lint_file(rel, &fixture("atomic_padding_unpadded.rs"));
        assert!(!f.is_empty(), "{rel} must be audited");
    }
}

#[test]
fn valid_scenario_files_pass() {
    let f = xtask::lint::lint_scenario_file("scenarios/fixture.toml", &fixture("scenario_ok.toml"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn invalid_scenario_files_are_flagged_with_spans() {
    let f = xtask::lint::lint_scenario_file(
        "scenarios/fixture.toml",
        &fixture("scenario_bad_key.toml"),
    );
    assert_eq!(rules_of(&f), vec!["scenario-validate"], "{f:?}");
    assert!(f[0].msg.contains("unknown key `thread`"), "{f:?}");
    // The span points at the typo'd key, not the file head.
    assert_eq!(f[0].line, 14, "{f:?}");
    // Every row of a sweep is checked; the span is the bad list element's.
    let sweep = format!(
        "{}[sweep.traffic]\nload = [0.2,\n  99]\n",
        fixture("scenario_ok.toml")
    );
    let f = xtask::lint::lint_scenario_file("scenarios/fixture.toml", &sweep);
    assert_eq!(rules_of(&f), vec!["scenario-validate"], "{f:?}");
    assert!(f[0].msg.contains("row 1 (traffic.load = 99)"), "{f:?}");
    assert_eq!(f[0].line, 18, "{f:?}");
}
