//! The atomics pass must (a) report zero findings on the real workspace
//! against `crates/core/ATOMICS.toml` and (b) demonstrably fail on each
//! fixture under `crates/xtask/fixtures/`. Fixture sources are analyzed
//! under a chosen workspace-relative path inside the manifest's enforce
//! scope, paired with a purpose-built fixture manifest, so each test
//! isolates exactly one failure class.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use xtask::atomics::{analyze_file, atomics_workspace, check, parse_manifest};
use xtask::lint::Finding;

/// Path the fixture sources pretend to live at (inside enforce scope).
const REL: &str = "crates/core/src/atomics_fixture.rs";
/// Path manifest-level findings are labelled with.
const MANIFEST: &str = "crates/core/ATOMICS.toml";

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

/// Analyze one fixture source against one fixture manifest, with `models`
/// standing in for the loom test-function names found in the models file.
fn run(src_fixture: &str, manifest_fixture: &str, models: &[&str]) -> Vec<Finding> {
    let files = vec![analyze_file(REL, &fixture(src_fixture))];
    let manifest = parse_manifest(&fixture(manifest_fixture))
        .unwrap_or_else(|e| panic!("fixture manifest {manifest_fixture} must parse: {e}"));
    let loom_fns: BTreeSet<String> = models.iter().map(|s| s.to_string()).collect();
    check(&files, &manifest, &loom_fns, MANIFEST)
}

/// The acceptance gate: the real workspace inventory checks clean against
/// the real manifest, and the inventory is non-trivially large (every
/// kernel plus the queue/deque/sync substrate is atomic-bearing).
#[test]
fn workspace_atomics_is_clean() {
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
    let (findings, summary, report) = atomics_workspace(&root).expect("analyze workspace");
    assert!(
        findings.is_empty(),
        "xtask atomics found {} violation(s) in the repo:\n{}",
        findings.len(),
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the inventory actually covered the concurrent core.
    assert!(
        summary.fields_declared >= 27,
        "only {} fields declared — inventory broken?",
        summary.fields_declared
    );
    assert!(
        summary.sites_checked >= 78,
        "only {} call sites checked — inventory broken?",
        summary.sites_checked
    );
    assert!(
        report.contains("unison-atomics-inventory-v1"),
        "report lost its schema marker"
    );
}

#[test]
fn undeclared_field_is_flagged() {
    let f = run(
        "atomics_undeclared_field.rs",
        "atomics_manifest_empty.toml",
        &[],
    );
    assert_eq!(rules_of(&f), vec!["atomics-undeclared-field"], "{f:?}");
    assert_eq!(f[0].path, REL);
}

#[test]
fn ordering_mismatches_are_flagged() {
    // One conforming site, three bad ones: a SeqCst load where the manifest
    // permits Acquire, a swap the manifest never declares, and a
    // non-literal `Ordering` argument.
    let f = run(
        "atomics_ordering_mismatch.rs",
        "atomics_manifest_gate.toml",
        &["gate_publish"],
    );
    assert_eq!(rules_of(&f), vec!["atomics-ordering-mismatch"; 3], "{f:?}");
    let msgs = f
        .iter()
        .map(|x| x.msg.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(msgs.contains("disagrees with the manifest"), "{msgs}");
    assert!(
        msgs.contains("not an operation the manifest declares"),
        "{msgs}"
    );
    assert!(msgs.contains("non-literal"), "{msgs}");
}

#[test]
fn one_sided_pairing_is_flagged() {
    // `ready` is stored Release but only loaded Relaxed: the release side
    // has no acquire partner anywhere in the inventory.
    let f = run(
        "atomics_unmatched_pairing.rs",
        "atomics_manifest_one_sided.toml",
        &["one_sided_publish"],
    );
    assert_eq!(rules_of(&f), vec!["atomics-unmatched-pairing"], "{f:?}");
    assert!(f[0].msg.contains("no matching acquire-side"), "{f:?}");
    assert_eq!(f[0].path, MANIFEST);
}

#[test]
fn claim_relaxed_rmw_is_flagged_at_both_levels() {
    // The manifest permitting a Relaxed swap on a claim field is itself a
    // finding, and so is the call site using it.
    let f = run(
        "atomics_claim_relaxed_rmw.rs",
        "atomics_manifest_claim.toml",
        &[],
    );
    assert_eq!(rules_of(&f), vec!["atomics-claim-relaxed-rmw"; 2], "{f:?}");
    let paths: BTreeSet<&str> = f.iter().map(|x| x.path.as_str()).collect();
    assert!(paths.contains(MANIFEST) && paths.contains(REL), "{f:?}");
}

#[test]
fn unresolved_receiver_is_flagged() {
    // The store is laundered through a helper fn; the analyzer must report
    // that it cannot check the site rather than silently skipping it.
    let f = run(
        "atomics_unresolved_receiver.rs",
        "atomics_manifest_holder.toml",
        &["holder_publish"],
    );
    assert_eq!(rules_of(&f), vec!["atomics-unresolved-receiver"], "{f:?}");
    assert!(f[0].msg.contains("`w`"), "{f:?}");
}

#[test]
fn stale_manifest_entries_are_flagged() {
    // Four kinds of rot in one manifest: wrong type, ghost entry, dangling
    // loom citations, a dangling pairs_with, and an unknown role.
    let f = run(
        "atomics_undeclared_field.rs",
        "atomics_manifest_stale.toml",
        &[],
    );
    let mut rules = rules_of(&f);
    rules.sort_unstable();
    assert_eq!(
        rules,
        vec![
            "atomics-role",
            "atomics-stale-entry",
            "atomics-stale-entry",
            "atomics-stale-loom-model",
            "atomics-stale-loom-model",
            "atomics-unmatched-pairing",
        ],
        "{f:?}"
    );
    assert!(f.iter().all(|x| x.path == MANIFEST), "{f:?}");
}

#[test]
fn missing_justifications_are_flagged() {
    // Relaxed and SeqCst each demand a written happens-before argument.
    let f = run(
        "atomics_undeclared_field.rs",
        "atomics_manifest_missing_why.toml",
        &["counter_model"],
    );
    assert_eq!(
        rules_of(&f),
        vec!["atomics-missing-justification"; 2],
        "{f:?}"
    );
    let msgs = f
        .iter()
        .map(|x| x.msg.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        msgs.contains("relaxed_why") && msgs.contains("seqcst_why"),
        "{msgs}"
    );
}

#[test]
fn bad_manifest_syntax_is_rejected_with_line() {
    let err = parse_manifest(&fixture("atomics_manifest_bad_syntax.toml"))
        .expect_err("inline tables are outside the supported subset");
    assert!(err.contains("line"), "error lost its location: {err}");
}

#[test]
fn clean_bait_produces_zero_findings() {
    // Strings/comments naming orderings, Vec::swap, a non-atomic `.load`,
    // indexed receivers, zip'd loop bindings, let-aliases, a trait-impl
    // `for`, and a #[cfg(test)] module must all pass without findings.
    let f = run(
        "atomics_clean_bait.rs",
        "atomics_manifest_bait.toml",
        &["bait_publication"],
    );
    assert!(f.is_empty(), "false positives on bait: {f:?}");
    // And the analyzer genuinely saw the real sites (didn't just skip all).
    let fa = analyze_file(REL, &fixture("atomics_clean_bait.rs"));
    assert_eq!(fa.decls.len(), 3, "{:?}", fa.decls);
    let resolved = fa.sites.iter().filter(|s| s.resolved.is_some()).count();
    assert!(
        resolved >= 5,
        "expected >=5 resolved sites, got {resolved}: {:?}",
        fa.sites
    );
}
