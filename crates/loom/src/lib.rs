//! A minimal, dependency-free stand-in for the [loom] concurrency model
//! checker, implementing the API subset used by the unison-rs workspace.
//!
//! The build environment has no registry access, so this crate provides the
//! model-checking capability in-repo. Code written against `loom`'s API
//! (`loom::model`, `loom::sync::atomic`, `loom::cell::UnsafeCell`,
//! `loom::thread`, `loom::hint`) compiles and checks unchanged.
//!
//! # What it checks
//!
//! [`model()`] runs a closure under **every thread interleaving** (up to a
//! CHESS-style preemption bound, default
//! [`model::DEFAULT_PREEMPTION_BOUND`], override with `LOOM_MAX_PREEMPTIONS`;
//! blocking switches are always fully explored). Within each execution it
//! verifies:
//!
//! - **assertions** — any panic on any managed thread fails the model and
//!   replays deterministically (the failing schedule is a decision path);
//! - **data races** — [`cell::UnsafeCell`] accesses are checked against a
//!   vector-clock happens-before relation derived from `Acquire`/`Release`
//!   atomics, spawn, and join edges; unordered conflicting accesses panic
//!   with a "data race" message;
//! - **deadlocks / lost wake-ups** — `yield_now` (and `hint::spin_loop`)
//!   park until an unobserved atomic write lands, so a spin loop that can
//!   never succeed is reported as a deadlock.
//!
//! # What it does not check
//!
//! Atomic *values* are sequentially consistent: the checker explores every
//! interleaving of accesses but not weak-memory value reorderings (a
//! `Relaxed` load here always returns the latest store). Synchronization
//! metadata, however, follows the C11 rules — a `Relaxed` store publishes
//! nothing and breaks the release sequence — so missing-edge bugs are still
//! caught as data races on the protected data; they are just never allowed
//! to produce stale values silently.
//!
//! [loom]: https://github.com/tokio-rs/loom

#![deny(unsafe_op_in_unsafe_fn)]

pub mod cell;
pub mod hint;
pub mod model;
mod rt;
pub mod sync;
pub mod thread;

pub use model::{model, Builder};
