//! Unified command-line parsing for the experiment binaries.
//!
//! The figure binaries share one flag, parsed in one place so it means
//! the same thing everywhere: `--scale quick|full` (with `--full` as
//! shorthand), the experiment scale — see [`Scale`].
//!
//! `unison-run` scans its own command line (it has a positional operand
//! and rejects what it does not know).

use crate::harness::Scale;

/// Parses `--scale quick|full` (with `--full` kept as shorthand for
/// `--scale full`), exiting with a usage message on an unknown value.
pub fn scale() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    let Some(at) = args.iter().position(|a| a == "--scale") else {
        return if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        };
    };
    match args.get(at + 1).map(String::as_str) {
        Some("quick") => Scale::Quick,
        Some("full") => Scale::Full,
        other => {
            eprintln!(
                "--scale expects quick|full, got {:?}",
                other.unwrap_or("<missing>")
            );
            std::process::exit(2);
        }
    }
}
