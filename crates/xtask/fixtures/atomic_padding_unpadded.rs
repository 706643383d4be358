//! Fixture: unpadded atomics declared in kernel hot-path code (rule 7).
//! Fed through `lint_file` as `crates/core/src/kernel/fixture.rs`.

use crate::sync_shim::{AtomicBool, AtomicU64, AtomicUsize, CachePadded};

struct Shared {
    // VIOLATION: bare field atomic in a kernel struct.
    claim: AtomicBool,
    // VIOLATION: bare atomic behind a Vec — every element shares lines.
    clocks: Vec<AtomicU64>,
    padded: CachePadded<AtomicUsize>, // ok: explicitly padded
}

fn build(n: usize) -> Vec<AtomicU64> {
    // VIOLATION on the signature line above; the constructor expression
    // below is a value, not a declaration, and must NOT double-report.
    (0..n).map(|_| AtomicU64::new(0)).collect()
}
