//! The workspace lint rules (see `cargo xtask lint`).
//!
//! Nine rules, motivated by the kernel's concurrency-, crash-safety-, and
//! reproducibility contracts (DESIGN.md):
//!
//! 1. **`safety-comment`** — every `unsafe` block or `unsafe impl` must be
//!    immediately preceded by a `// SAFETY:` comment (attributes may sit
//!    between the comment and the keyword; a blank or code line breaks the
//!    association). `unsafe fn` *declarations* are exempt here — their
//!    contract lives in `# Safety` docs and their bodies are covered by
//!    `unsafe_op_in_unsafe_fn` (rule 5).
//! 2. **`unsafe-allowlist`** — `unsafe` may only appear in the audited
//!    files that implement the claim discipline (`lp.rs`, `queue.rs`,
//!    `global.rs`, `kernel/*`), the loom checker's `cell.rs`,
//!    and test code. New unsafe anywhere else must be reviewed and added here.
//! 3. **`no-hash-collections`** — `HashMap`/`HashSet`/`RandomState` are
//!    banned in `crates/core/src` and `crates/netsim/src`: their iteration
//!    order is nondeterministic across runs, which would silently break
//!    the bit-identical determinism guarantee, and in the model a
//!    `RandomState` map puts SipHash on the per-packet path (a tenth of a
//!    WAN run before PR 22). Use `BTreeMap`/`BTreeSet`, dense vectors, or
//!    the model's one fixed-hash table, `FlowMap` — whose defining file,
//!    `crates/netsim/src/snapshot.rs`, is the one exemption.
//! 4. **`no-wall-clock`** — `Instant`/`SystemTime` are banned in
//!    `crates/core/src` simulation paths; simulation time is
//!    `unison_core::time::Time` only. Exceptions: `kernel/*` may use
//!    `Instant` for the wall-clock P/S/M metrics in `RunReport`, and
//!    `telemetry.rs` (the span recorder) is allow-listed wholesale (those
//!    measure the simulator, they never feed back into simulation state).
//!    Elsewhere in core a line may read the clock only when covered by a
//!    `// TELEMETRY:` comment naming it a telemetry-gated measurement —
//!    the reviewed escape hatch for a timing helper that has to live
//!    outside `kernel/`. `SystemTime` has no legitimate use anywhere in
//!    core.
//! 5. **`deny-unsafe-op`** — any crate whose `src/` contains `unsafe` must
//!    carry `#![deny(unsafe_op_in_unsafe_fn)]` in its crate root, so
//!    `unsafe fn` bodies still require explicit `unsafe {}` blocks (which
//!    rule 1 then forces to carry `// SAFETY:` comments).
//! 6. **`unchecked-unwrap`** — `.unwrap()`/`.expect(…)` on the fallible
//!    paths (`crates/core/src`, `crates/bench/src/harness.rs`) must carry
//!    an `// INVARIANT:` comment stating why the value cannot be
//!    absent/Err (same placement rules as `// SAFETY:`), be converted to a
//!    structured `SimError`, or live on the reviewed allow-list. A bare
//!    unwrap in kernel code turns a recoverable condition into an
//!    uncontained panic — the crash-safety contract (DESIGN.md §4.2) wants
//!    either a documented invariant or an error. Test modules (everything
//!    at and below a `#[cfg(test)]`-style attribute, by the bottom-of-file
//!    convention) are exempt.
//! 7. **`fault-gate`** — calls to the fault-injection hooks (`fire_phase`,
//!    `fire_stall`, `fire_barrier_delay`, `fire_ckpt_fail`,
//!    `alloc_check`) anywhere in `crates/core/src` outside `fault.rs`
//!    itself must be covered by a `#[cfg(feature = "fault-inject")]`
//!    attribute — either directly on the statement or on an enclosing
//!    block/item the attribute opens. This pins the resilience contract's
//!    zero-cost clause (DESIGN.md §4.7): default builds compile every
//!    injection site out, so production hot paths carry no fault-plan
//!    checks. Test modules are exempt.
//! 8. **`atomic-padding`** — atomic storage *declared* in the kernel hot
//!    paths (`crates/core/src/kernel/`, `crates/core/src/sync.rs`,
//!    `crates/core/src/sched.rs`) must be wrapped in `CachePadded`, or the
//!    line must carry a `// PADDING:`
//!    comment stating why an unpadded slot cannot false-share (cold path,
//!    all waiters deliberately share the line, or padding already applied
//!    at an enclosing level). Borrowed atomics (`&AtomicBool`,
//!    `&'a [AtomicU64]`) are exempt — the padding decision lives at the
//!    owner's declaration — as are value expressions (`AtomicU64::new(…)`),
//!    `use` items, and test modules. This pins the false-sharing audit the
//!    round-fusion work introduced (DESIGN.md §4.9): a new per-worker
//!    counter dropped next to a neighbour's hot word silently costs more
//!    than a barrier crossing.
//! 9. **`scenario-validate`** — every `scenarios/*.toml` file must parse
//!    and validate against the scenario contract (DESIGN.md §4.10), every
//!    row of a `[sweep]` included. The
//!    corpus is pinned by golden digests in CI, so a file that stops
//!    parsing — or parses with a typo'd key that strict parsing would
//!    reject — must fail the lint gate, not be discovered at run time.
//!    Non-scenario TOML (crate manifests, `ATOMICS.toml`) is out of scope;
//!    only the `scenarios/` directory is checked.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Line, TokKind};

/// One rule violation.
#[derive(Debug)]
pub struct Finding {
    /// Path relative to the workspace root (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// Files allowed to contain `unsafe` (rule 2).
fn unsafe_allowed(rel: &str) -> bool {
    const EXACT: &[&str] = &[
        "crates/core/src/lp.rs",
        // SAFETY: `queue.rs` covers both the intrusive MPSC list and its
        // node pool — `MaybeUninit` payload slots whose init state is
        // tracked structurally (initialized iff reachable from `head`,
        // uninit iff on the freelist). The take-all/splice-back freelist
        // protocol is model-checked by `mailbox_pool_no_aba` in
        // `crates/core/tests/loom_models.rs`.
        "crates/core/src/queue.rs",
        "crates/core/src/global.rs",
        "crates/loom/src/cell.rs",
    ];
    EXACT.contains(&rel)
        || rel.starts_with("crates/core/src/kernel/")
        || rel.starts_with("tests/")
        || rel.contains("/tests/")
}

/// Files where `Instant` is allowed (wall-clock kernel metrics, rule 4).
/// `telemetry.rs` is the span recorder itself: every clock read there is
/// behind the run's telemetry switch and feeds only the observability
/// report, never simulation state.
fn instant_allowed(rel: &str) -> bool {
    rel.starts_with("crates/core/src/kernel/")
        || rel == "crates/core/src/telemetry.rs"
        // `fault.rs` measures recovery wall cost (rollback + backoff) for
        // the RecoveryLog — like telemetry, those readings report on the
        // simulator and never feed simulation state.
        || rel == "crates/core/src/fault.rs"
}

fn in_core_src(rel: &str) -> bool {
    rel.starts_with("crates/core/src/")
}

/// Files subject to rule 3: the kernel and the network model.
fn hash_collections_banned(rel: &str) -> bool {
    // `snapshot.rs` defines `FlowMap`, the model's one keyed table — a
    // `HashMap` under a fixed hasher — together with the `save_map`/
    // `load_map` pair that keeps its iteration order out of the encoding.
    // Everything else in the model names the alias.
    const DEFINES_FLOW_MAP: &str = "crates/netsim/src/snapshot.rs";
    in_core_src(rel) || (rel.starts_with("crates/netsim/src/") && rel != DEFINES_FLOW_MAP)
}

/// Files subject to rule 6: code that runs inside (or drives) the kernels,
/// where a stray panic bypasses the containment machinery's diagnostics.
fn unwrap_checked(rel: &str) -> bool {
    in_core_src(rel) || rel == "crates/bench/src/harness.rs"
}

/// Reviewed call sites exempt from rule 6. Extend only after review: every
/// entry is a file whose unchecked unwraps have been audited as
/// unreachable-by-construction AND too noisy to annotate individually.
fn unwrap_allowed(rel: &str) -> bool {
    const EXACT: &[&str] = &[];
    EXACT.contains(&rel)
}

/// The fault-injection hook names covered by rule 7. Calling any of these
/// is how a kernel consults the run's `FaultPlan`, so each call site must
/// be compiled out of default builds.
const FAULT_HOOKS: &[&str] = &[
    "fire_phase",
    "fire_stall",
    "fire_barrier_delay",
    "fire_ckpt_fail",
    "alloc_check",
];

/// Files subject to rule 7: core sources, minus `fault.rs` itself (the
/// hooks' definitions and their unit tests live there, behind the feature).
fn fault_gate_checked(rel: &str) -> bool {
    in_core_src(rel) && rel != "crates/core/src/fault.rs"
}

/// The atomic type names covered by rule 8.
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// Files subject to rule 8: the kernel hot paths, where every atomic word
/// is potentially contended by all workers every round.
fn padding_checked(rel: &str) -> bool {
    rel.starts_with("crates/core/src/kernel/")
        || rel == "crates/core/src/sync.rs"
        || rel == "crates/core/src/sched.rs"
}

/// The significant token following the `unsafe` keyword at `(line, col)`:
/// `Some("{")` for a block, `Some("impl")`, `Some("fn")`, etc.
fn token_after_unsafe(lines: &[Line], line: usize, col: usize) -> Option<String> {
    let mut li = line;
    loop {
        for t in lexer::tokenize_code(&lines[li].code) {
            if li > line || t.col > col {
                return Some(t.text);
            }
        }
        li += 1;
        if li >= lines.len() {
            return None;
        }
    }
}

/// True if the construct at `line` is covered by a `// <marker>` comment
/// (e.g. `SAFETY:`, `INVARIANT:`): either on the same line, or in the
/// contiguous comment block immediately above (attribute-only lines may
/// intervene; blank/code lines break it).
fn has_marker_comment(lines: &[Line], line: usize, marker: &str) -> bool {
    if lines[line].comment.contains(marker) {
        return true;
    }
    let mut j = line;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        // Comment and attribute lines may both carry the marker text (a
        // trailing comment on an attribute counts); anything else breaks
        // the association with the construct below.
        if l.is_pure_comment() || l.is_attr_only() {
            if l.comment.contains(marker) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

fn has_safety_comment(lines: &[Line], line: usize) -> bool {
    has_marker_comment(lines, line, "SAFETY:")
}

/// True if the token at char offset `col` is a method call receiver — the
/// token immediately before it on the line is `.` (multi-line chains keep
/// the dot on the call's line in this codebase's style).
fn is_method_call(code: &str, col: usize) -> bool {
    let toks = lexer::tokenize_code(code);
    let mut prev: Option<String> = None;
    for t in toks {
        if t.col == col {
            return prev.as_deref() == Some(".");
        }
        prev = Some(t.text);
    }
    false
}

/// Lints a single file's source text. `rel` is the workspace-relative path
/// with forward slashes; it decides which rules apply.
pub fn lint_file(rel: &str, src: &str) -> Vec<Finding> {
    let lines = lexer::scan(src);
    // Raw lines, for rule 7: the feature name sits inside a string literal,
    // which `Line::code` strips to bare delimiters.
    let raw: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();
    let mut reported_allowlist = false;
    // Rule 6 exempts test modules; by repo convention a `#[cfg(test)]` (or
    // `#[cfg(all(test, not(loom)))]`) attribute starts the bottom-of-file
    // test module, so everything after it is test code.
    let mut in_tests = false;
    // Rule 7 gate tracker: `gate_pending` marks the code line right below a
    // `#[cfg(feature = "fault-inject")]` attribute; if that line opens more
    // braces than it closes, the whole brace-balanced region it opens stays
    // gated (`gated_above` holds the depth the region returns to).
    let mut depth: i32 = 0;
    let mut gate_pending = false;
    let mut gated_above: Option<i32> = None;

    for (i, l) in lines.iter().enumerate() {
        if l.code.contains("#[cfg(") && lexer::has_token(&l.code, "test") {
            in_tests = true;
        }

        // Rule 7: fault-injection hooks must be feature-gated out of
        // default builds.
        if fault_gate_checked(rel) && !in_tests && !gate_pending && gated_above.is_none() {
            for hook in FAULT_HOOKS {
                if lexer::has_token(&l.code, hook) {
                    findings.push(Finding {
                        path: rel.to_string(),
                        line: i + 1,
                        rule: "fault-gate",
                        msg: format!(
                            "fault-injection hook `{hook}` outside a \
                             `#[cfg(feature = \"fault-inject\")]` gate: hooks must be \
                             compiled out of default builds (DESIGN.md §4.7)"
                        ),
                    });
                }
            }
        }
        // Rule 7 bookkeeping (independent of whether the rule applies, so
        // the tracker is warm if a file mixes gated/ungated regions).
        let net: i32 = l
            .code
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        let is_gate_attr = l.is_attr_only()
            && lexer::has_token(&l.code, "feature")
            && raw.get(i).is_some_and(|r| r.contains("fault-inject"));
        if is_gate_attr {
            gate_pending = true;
        } else if !l.code.trim().is_empty() && gate_pending {
            // This code line is the attribute's target; a net brace opening
            // extends the gate to the whole region it opens.
            if net > 0 {
                gated_above = Some(depth);
            }
            gate_pending = false;
        }
        depth += net;
        if let Some(d) = gated_above {
            if depth <= d {
                gated_above = None;
            }
        }
        for col in lexer::find_tokens(&l.code, "unsafe") {
            // Rule 2: allow-list.
            if !unsafe_allowed(rel) && !reported_allowlist {
                reported_allowlist = true;
                findings.push(Finding {
                    path: rel.to_string(),
                    line: i + 1,
                    rule: "unsafe-allowlist",
                    msg: "`unsafe` outside the audited allow-list; move the code into an \
                          audited module or extend the allow-list in crates/xtask/src/lint.rs \
                          after review"
                        .into(),
                });
            }
            // Rule 1: SAFETY comment for blocks and impls.
            let next = token_after_unsafe(&lines, i, col);
            let needs_comment = matches!(next.as_deref(), Some("{") | Some("impl"));
            if needs_comment && !has_safety_comment(&lines, i) {
                let kind = if next.as_deref() == Some("impl") {
                    "`unsafe impl`"
                } else {
                    "`unsafe` block"
                };
                findings.push(Finding {
                    path: rel.to_string(),
                    line: i + 1,
                    rule: "safety-comment",
                    msg: format!(
                        "{kind} without an immediately preceding `// SAFETY:` comment \
                         stating why the contract holds"
                    ),
                });
            }
        }

        if hash_collections_banned(rel) {
            // Rule 3: hash collections.
            for word in ["HashMap", "HashSet", "RandomState"] {
                if lexer::has_token(&l.code, word) {
                    findings.push(Finding {
                        path: rel.to_string(),
                        line: i + 1,
                        rule: "no-hash-collections",
                        msg: format!(
                            "`{word}` in simulation code: iteration order is \
                             nondeterministic and breaks bit-identical replay; use \
                             `BTreeMap`/`BTreeSet`, a dense index, or (in netsim) \
                             `FlowMap` instead"
                        ),
                    });
                }
            }
        }

        if in_core_src(rel) {
            // Rule 4: wall-clock time.
            if lexer::has_token(&l.code, "SystemTime") {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: i + 1,
                    rule: "no-wall-clock",
                    msg: "`SystemTime` in core simulation code: simulation time is \
                          `time::Time`; wall-clock readings are nondeterministic"
                        .into(),
                });
            }
            if !instant_allowed(rel)
                && lexer::has_token(&l.code, "Instant")
                && !has_marker_comment(&lines, i, "TELEMETRY:")
            {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: i + 1,
                    rule: "no-wall-clock",
                    msg: "`Instant` in core simulation code outside kernel metrics: \
                          simulation time is `time::Time`; only kernel/* and the \
                          telemetry recorder may read wall-clock for P/S/M or span \
                          reporting (telemetry-gated measurements elsewhere need a \
                          `// TELEMETRY:` comment)"
                        .into(),
                });
            }
        }

        // Rule 6: unchecked `.unwrap()`/`.expect(…)` on fallible paths.
        if unwrap_checked(rel) && !unwrap_allowed(rel) && !in_tests {
            for word in ["unwrap", "expect"] {
                for col in lexer::find_tokens(&l.code, word) {
                    if is_method_call(&l.code, col) && !has_marker_comment(&lines, i, "INVARIANT:")
                    {
                        findings.push(Finding {
                            path: rel.to_string(),
                            line: i + 1,
                            rule: "unchecked-unwrap",
                            msg: format!(
                                "`.{word}` without an `// INVARIANT:` comment stating why \
                                 it cannot fail; document the invariant, return a \
                                 structured `SimError`, or add the file to the reviewed \
                                 allow-list in crates/xtask/src/lint.rs"
                            ),
                        });
                    }
                }
            }
        }

        // Rule 8: atomics declared on the kernel hot paths must be
        // cache-padded (or carry a reviewed `// PADDING:` justification).
        if padding_checked(rel) && !in_tests && !lexer::has_token(&l.code, "CachePadded") {
            let toks = lexer::tokenize_code(&l.code);
            let is_use = toks
                .iter()
                .take(2) // `use …` or `pub use …`
                .any(|t| t.text == "use");
            if !is_use {
                for (ti, t) in toks.iter().enumerate() {
                    if t.kind != TokKind::Ident || !ATOMIC_TYPES.contains(&t.text.as_str()) {
                        continue;
                    }
                    // `AtomicU64::new(…)` is a value expression; the storage
                    // it initializes is declared (and checked) elsewhere.
                    if toks.get(ti + 1).is_some_and(|n| n.text == "::") {
                        continue;
                    }
                    // `&AtomicBool` / `&'a [AtomicU64]` / `&mut AtomicU64`:
                    // borrowed storage — padding is the owner's decision.
                    let mut j = ti;
                    while j > 0
                        && (toks[j - 1].text == "["
                            || toks[j - 1].text == "mut"
                            || toks[j - 1].kind == TokKind::Lifetime)
                    {
                        j -= 1;
                    }
                    if j > 0 && toks[j - 1].text == "&" {
                        continue;
                    }
                    if has_marker_comment(&lines, i, "PADDING:") {
                        continue;
                    }
                    findings.push(Finding {
                        path: rel.to_string(),
                        line: i + 1,
                        rule: "atomic-padding",
                        msg: format!(
                            "unpadded `{}` declared in kernel hot-path code: wrap it in \
                             `CachePadded` to prevent false sharing, or add a \
                             `// PADDING:` comment stating why an unpadded slot is safe \
                             (cold path, deliberately shared line, or padded at an \
                             enclosing level)",
                            t.text
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// Rule 5 over a whole crate: `files` maps workspace-relative path → source
/// for every `.rs` file under one crate's `src/`; `root_rel` is the crate
/// root file (`…/src/lib.rs` or `…/src/main.rs`).
pub fn check_crate_deny_attr(root_rel: &str, files: &[(String, String)]) -> Vec<Finding> {
    let mut has_unsafe = false;
    for (_, src) in files {
        for l in lexer::scan(src) {
            if lexer::has_token(&l.code, "unsafe") {
                has_unsafe = true;
                break;
            }
        }
        if has_unsafe {
            break;
        }
    }
    if !has_unsafe {
        return Vec::new();
    }
    let root_src = files.iter().find(|(rel, _)| rel == root_rel);
    let ok = root_src.is_some_and(|(_, src)| {
        lexer::scan(src)
            .iter()
            .any(|l| l.code.contains("#![deny(unsafe_op_in_unsafe_fn)]"))
    });
    if ok {
        Vec::new()
    } else {
        vec![Finding {
            path: root_rel.to_string(),
            line: 1,
            rule: "deny-unsafe-op",
            msg: "crate contains `unsafe` but its root is missing \
                  `#![deny(unsafe_op_in_unsafe_fn)]`"
                .into(),
        }]
    }
}

/// Directories skipped by the workspace walk.
fn skip_dir(rel: &str) -> bool {
    rel == "target"
        || rel == ".git"
        || rel == ".claude"
        || rel == "crates/xtask/fixtures"
        || rel.ends_with("/target")
}

fn walk_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let path = e.path();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if !skip_dir(&rel) {
                walk_rs(root, &path, out)?;
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Crate root file (`src/lib.rs` preferred, else `src/main.rs`) for the
/// crate containing `rel`, or `None` for files outside any `src/` tree.
fn crate_root_of(rel: &str) -> Option<String> {
    let idx = rel.find("src/")?;
    // Only treat `src/` directly under the crate dir (not e.g. tests/src).
    let prefix = &rel[..idx];
    if !prefix.is_empty() && !prefix.ends_with('/') {
        return None;
    }
    Some(format!("{prefix}src/"))
}

/// Collects every `.rs` file under `root` (same walk and skip list as the
/// lint pass) as `(workspace-relative path, source text)` pairs. Shared by
/// `lint_workspace` and the atomics analyzer so both passes see exactly the
/// same file set.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    walk_rs(root, root, &mut files)?;
    let mut sources = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        sources.push((rel, src));
    }
    Ok(sources)
}

/// Rule 9 over one scenario file: every row of the file must parse and
/// validate against the scenario contract. `rel` is the workspace-relative
/// path.
pub fn lint_scenario_file(rel: &str, src: &str) -> Vec<Finding> {
    match unison_scenario::parse_rows(src) {
        Ok(_) => Vec::new(),
        Err(e) => vec![Finding {
            path: rel.to_string(),
            line: e.line,
            rule: "scenario-validate",
            msg: format!(
                "scenario fails validation (col {}): {} — committed scenarios are \
                 digest-pinned in CI and must stay loadable (DESIGN.md §4.10)",
                e.col, e.msg
            ),
        }],
    }
}

/// Collects and checks every `.toml` under `<root>/scenarios/` (rule 9).
/// Returns the findings and the number of scenario files checked.
fn lint_scenarios(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let dir = root.join("scenarios");
    let mut findings = Vec::new();
    let mut checked = 0;
    if !dir.is_dir() {
        return Ok((findings, checked));
    }
    let mut entries: Vec<_> = std::fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let path = e.path();
        if path.extension().is_none_or(|x| x != "toml") {
            continue;
        }
        // The golden-digest table is corpus metadata, not a scenario.
        if path.file_name().is_some_and(|n| n == "goldens.toml") {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        findings.extend(lint_scenario_file(&rel, &src));
        checked += 1;
    }
    Ok((findings, checked))
}

/// Runs all rules over every `.rs` file under `root`, plus the scenario
/// corpus check (rule 9) over `scenarios/*.toml`.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let sources = collect_sources(root)?;
    let mut findings = Vec::new();
    for (rel, src) in &sources {
        findings.extend(lint_file(rel, src));
    }
    let (scenario_findings, scenario_count) = lint_scenarios(root)?;
    findings.extend(scenario_findings);

    // Rule 5: group `src/` files by crate and check the root attribute.
    let mut crate_prefixes: Vec<String> = sources
        .iter()
        .filter_map(|(rel, _)| crate_root_of(rel))
        .collect();
    crate_prefixes.sort();
    crate_prefixes.dedup();
    for prefix in crate_prefixes {
        let crate_files: Vec<(String, String)> = sources
            .iter()
            .filter(|(rel, _)| rel.starts_with(&prefix))
            .cloned()
            .collect();
        let lib = format!("{prefix}lib.rs");
        let main = format!("{prefix}main.rs");
        let root_rel = if crate_files.iter().any(|(r, _)| *r == lib) {
            lib
        } else {
            main
        };
        findings.extend(check_crate_deny_attr(&root_rel, &crate_files));
    }

    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok((findings, sources.len() + scenario_count))
}

/// Ascends from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
