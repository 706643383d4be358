//! Unified command-line parsing for the experiment binaries.
//!
//! Every figure binary historically re-scanned `std::env::args()` with its
//! own loop; the shared flag vocabulary now lives in one place, so a flag
//! means the same thing — and is parsed the same way — everywhere:
//!
//! - `--scale quick|full` (with `--full` as shorthand): experiment scale,
//!   see [`Scale`];
//! - `--profile <dir>`: per-run Chrome-trace telemetry export
//!   ([`crate::harness::profile_dir`]).
//!
//! `unison-run` scans its own command line (it has a positional operand
//! and rejects what it does not know); it shares only `--profile`.

use crate::harness::Scale;

/// True iff the bare flag `name` appears anywhere on the command line.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The operand following `name` (the `--flag value` form), if any.
pub fn value_of(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Parses `--scale quick|full` (with `--full` kept as shorthand for
/// `--scale full`), exiting with a usage message on an unknown value.
pub fn scale() -> Scale {
    let mut scale = if flag("--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    if flag("--scale") {
        scale = match value_of("--scale").as_deref() {
            Some("quick") => Scale::Quick,
            Some("full") => Scale::Full,
            other => {
                eprintln!(
                    "--scale expects quick|full, got {:?}",
                    other.unwrap_or("<missing>")
                );
                std::process::exit(2);
            }
        };
    }
    scale
}
