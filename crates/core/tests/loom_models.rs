//! Model-checked verification of unison-core's lock-free building blocks.
//!
//! Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p unison-core --test loom_models
//! ```
//!
//! Under `--cfg loom`, [`unison_core::sync_shim`] swaps the std atomics and
//! spin hints used by the barriers and the claim cursor for the in-repo loom
//! model checker's instrumented types, and each test below explores every
//! thread interleaving (up to the CHESS-style preemption bound, see the
//! `loom` crate docs). Without the cfg this file compiles to an empty test
//! harness.
//!
//! The models cover the load-bearing claims of the kernel's
//! concurrency-safety contract (see DESIGN.md):
//!
//! 1. the sense-reversing barrier is reusable across generations and its
//!    `Relaxed` count reset cannot double-count arrivals;
//! 2. exactly one participant per generation is told it is the leader;
//! 3. the home-first claim cursor hands each position to exactly one
//!    claimant, owner or thief, so per-slot mutable access is exclusive
//!    even with `Relaxed` claims;
//! 5. poisoning the barrier releases every current and future waiter — no
//!    interleaving lets a worker spin past a poisoned generation — and the
//!    Release-poison / Acquire-observe pair publishes the poisoner's
//!    diagnostics writes (the crash-containment drain path, DESIGN.md §4.2).
//!
//! (Claims 4 and 6 covered the lock-free mailbox queue and its node pool and
//! went with them: the LP-pinned baselines' inboxes are a `Mutex<Vec>` —
//! DESIGN.md §4.4, §7.)
//!
//! Claims 7–10 back the protocol entries of `crates/core/ATOMICS.toml`
//! (checked by `cargo xtask atomics`; each entry's `loom` key names the
//! model covering it). They model the protocol *shapes* with raw shim
//! atomics — same technique as claim 3 — because the concrete carriers
//! (`Watchdog`, the kernels' stop flags and channel clocks) are crate-
//! private runtime plumbing:
//!
//! 7. a Release store of a stop/abort flag publishes the stopper's
//!    diagnostics writes to every worker that Acquire-observes the flag
//!    (`RunEnv::halt` → kernel poll sites, `watchdog.stalled`);
//! 8. the watchdog's `Relaxed` progress word is a pure liveness heuristic —
//!    monotone under concurrent ticks, never used to guard data — while the
//!    `stalled` Release/Acquire pair carries the stall diagnosis;
//! 9. a channel clock advanced with `fetch_max(AcqRel)` publishes the
//!    events appended before the advance to a receiver that Acquire-reads
//!    a clock value at or past its promise, and concurrent advances keep
//!    the clock monotone (`nullmsg.chan_clock`);
//! 10. per-producer clock words stored with Release and min-reduced with
//!     Acquire loads publish each producer's state as of the published
//!     timestamp (`barrier.next_ts` LBTS reduction, `nullmsg.stall_clocks`).
//!
//! (Claim 11 covered the asynchronous conservative kernel's grants and went
//! with it — DESIGN.md §7; the numbering of the later claims is kept.)
//!
//! 12. the hierarchical tree barrier ([`TreeBarrier`]) releases a crossing
//!     only after every participant arrived, elects exactly one root winner
//!     per generation, carries the happens-before edge from every
//!     participant's pre-barrier writes to every participant's post-barrier
//!     reads through the arrival chain + release broadcast, and its
//!     `Relaxed` per-node arrival reset cannot double-count across
//!     generations — the monotone `release_gen` clock replacing the flat
//!     barrier's sense bit (DESIGN.md §4.9);
//!
//! 13. the outbox hand-off (`lp::LpSlots`, DESIGN.md §4.4): a plain,
//!     non-atomic push by a row's writer in the process phase is ordered
//!     before the plain drain by the column's reader in the receive phase
//!     by nothing but the barrier crossing between the phases; a fused
//!     round's control thread may write row 0 and drain every column —
//!     rows it did not write, columns it does not own — ordered after the
//!     workers' last accesses by the crossing they are parked behind, and
//!     before their next ones by the crossing that releases them.
//!
//! A final, deliberately broken model double-checks the checker: weakening
//! a publish to `Relaxed` must be reported as a data race.

#![cfg(loom)]

use loom::cell::UnsafeCell;
use loom::sync::Arc;
use loom::thread;

use unison_core::sched::LjfCursor;
use unison_core::sync::{SpinBarrier, TreeBarrier};
use unison_core::sync_shim::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Claim 1: generation reuse. Two threads cross the same barrier twice with
/// plain (non-atomic) data handed back and forth: generation 1 must order
/// the child's write before the parent's read, generation 2 must order the
/// parent's read before the child's second write. A stale count from the
/// `Relaxed` reset would trip the `debug_assert` inside `wait` (active in
/// test builds) or surface as a deadlock.
#[test]
fn barrier_generation_reuse() {
    loom::model(|| {
        let bar = Arc::new(SpinBarrier::new(2));
        let cell = Arc::new(UnsafeCell::new(0u64));

        let t = {
            let bar = Arc::clone(&bar);
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                cell.with_mut(|p| {
                    // SAFETY: the parent only reads this cell after its
                    // generation-1 `wait` returns, which happens-after this
                    // write; loom verifies exactly that.
                    unsafe { *p = 1 }
                });
                bar.wait(); // generation 1
                bar.wait(); // generation 2
                cell.with_mut(|p| {
                    // SAFETY: ordered after the parent's read by the
                    // generation-2 barrier crossing.
                    unsafe { *p += 10 }
                });
            })
        };

        bar.wait(); // generation 1
        let v = cell.with(|p| {
            // SAFETY: ordered after the child's first write by the
            // generation-1 barrier crossing.
            unsafe { *p }
        });
        assert_eq!(v, 1, "barrier generation 1 did not publish the write");
        bar.wait(); // generation 2
        t.join().unwrap();
        let v = cell.with(|p| {
            // SAFETY: ordered after the child's second write by the join.
            unsafe { *p }
        });
        assert_eq!(v, 11, "barrier generation 2 lost an update");
    });
}

/// Claim 2: exactly one `wait` call per generation returns `true`, across
/// three concurrent participants.
#[test]
fn barrier_leader_uniqueness() {
    loom::model(|| {
        let bar = Arc::new(SpinBarrier::new(3));
        let leaders = Arc::new(AtomicUsize::new(0));

        let handles: Vec<_> = (0..2)
            .map(|_| {
                let bar = Arc::clone(&bar);
                let leaders = Arc::clone(&leaders);
                thread::spawn(move || {
                    if bar.wait() {
                        leaders.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        if bar.wait() {
            leaders.fetch_add(1, Ordering::Relaxed);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            leaders.load(Ordering::Relaxed),
            1,
            "a barrier generation must elect exactly one leader"
        );
    });
}

/// Claim 3: the kernels' work-claiming pattern, on the real [`LjfCursor`]
/// with two homes. Each worker bumps its own home's counter with `Relaxed`
/// ordering and mutates the slot at the returned position; once its home is
/// exhausted it bumps the other's. Worker 0 owns position 0 and then turns
/// thief, racing worker 1 (the owner of positions 1 and 2) for home 1's
/// one-position tail. Exclusivity comes purely from the RMW's atomicity on
/// one home's counter — owner and thief can never observe the same position
/// — so the per-slot accesses are race-free even though the claim itself
/// synchronizes nothing, and both workers end on `None`.
#[test]
fn work_cursor_claim_exclusivity() {
    loom::model(|| {
        const SLOTS: usize = 3;
        let cursor = Arc::new(LjfCursor::new(2));
        cursor.publish(&[0; SLOTS], &[]); // homes 0..1 and 1..3
        let slots: Arc<Vec<UnsafeCell<u64>>> =
            Arc::new((0..SLOTS).map(|_| UnsafeCell::new(0)).collect());

        let work = |home: usize, cursor: Arc<LjfCursor>, slots: Arc<Vec<UnsafeCell<u64>>>| {
            while let Some(i) = cursor.claim(home) {
                slots[i].with_mut(|p| {
                    // SAFETY: the claim handed position `i` to this
                    // claimant exclusively; no other thread touches slot
                    // `i` this phase.
                    unsafe { *p += 1 }
                });
            }
            assert_eq!(cursor.claim(home), None, "an exhausted round stays so");
        };

        let t = {
            let cursor = Arc::clone(&cursor);
            let slots = Arc::clone(&slots);
            thread::spawn(move || work(1, cursor, slots))
        };
        work(0, Arc::clone(&cursor), Arc::clone(&slots));
        t.join().unwrap();

        for (i, s) in slots.iter().enumerate() {
            let v = s.with(|p| {
                // SAFETY: both claimants are joined (or are this thread);
                // their writes happen-before these reads.
                unsafe { *p }
            });
            assert_eq!(v, 1, "slot {i} claimed {v} times, expected exactly 1");
        }
        cursor.begin_round();
        assert_eq!(cursor.claims(), SLOTS as u64);
    });
}

/// Claim 13: the outbox hand-off. The round kernels' outboxes are plain
/// `Vec`s, one per (sending worker, receiving home): in a process phase
/// worker `w` pushes into row `w`, in a receive phase worker `h` drains
/// column `h`, and the only synchronization between the two is the
/// [`TreeBarrier`] crossing that separates the phases. Two workers and a
/// 2 × 2 table go through a fused round (the control thread alone writes
/// row 0 and drains all four outboxes while the worker has not passed B0),
/// a parallel round (B0, row writers, B1, column readers, B3) and a second
/// fused round behind B3 — whose drains reach the row the worker wrote and
/// the column the worker drained.
#[test]
fn outbox_handoff_happens_before() {
    type Table = [[UnsafeCell<Vec<u64>>; 2]; 2];
    fn push(table: &Table, row: usize, home: usize, v: u64) {
        table[row][home].with_mut(|p| {
            // SAFETY: process phase — only row `row`'s writer touches this
            // outbox; its last drain is ordered before this push by the
            // crossing that ended that receive phase or fused round.
            unsafe { (*p).push(v) }
        });
    }
    fn drain(table: &Table, row: usize, home: usize) -> Vec<u64> {
        table[row][home].with_mut(|p| {
            // SAFETY: receive phase — only column `home`'s reader (a fused
            // round: the control thread, alone) touches this outbox; every
            // push is ordered before this drain by a crossing.
            unsafe { (*p).drain(..).collect() }
        })
    }
    /// The control thread's fused round: sends `v`, `v + 1` from row 0 and
    /// drains every column; the worker's row must be empty.
    fn fused_round(table: &Table, v: u64) {
        push(table, 0, 0, v);
        push(table, 0, 1, v + 1);
        let got: Vec<Vec<u64>> = [(0, 0), (0, 1), (1, 0), (1, 1)]
            .iter()
            .map(|&(row, home)| drain(table, row, home))
            .collect();
        assert_eq!(got, [vec![v], vec![v + 1], vec![], vec![]]);
    }
    loom::model(|| {
        // spin_limit 0: always yield on a failed check so the model
        // scheduler can run the other participant.
        let bar = Arc::new(TreeBarrier::with_shape(2, 2, 0));
        let table: Arc<Table> =
            Arc::new([(); 2].map(|_| [(); 2].map(|_| UnsafeCell::new(Vec::new()))));

        let worker = {
            let bar = Arc::clone(&bar);
            let table = Arc::clone(&table);
            thread::spawn(move || {
                let mut w = bar.waiter(1);
                bar.wait(&mut w); // B0: parked through the first fused round
                push(&table, 1, 0, 20);
                push(&table, 1, 1, 21);
                bar.wait(&mut w); // B1: process -> receive
                assert_eq!(drain(&table, 0, 1), vec![31], "row 0 -> home 1");
                assert_eq!(drain(&table, 1, 1), vec![21], "row 1 -> home 1");
                bar.wait(&mut w); // B3: receive -> control thread's window
            })
        };

        let mut w = bar.waiter(0);
        fused_round(&table, 10);
        bar.wait(&mut w); // B0
        push(&table, 0, 0, 30);
        push(&table, 0, 1, 31);
        bar.wait(&mut w); // B1
        assert_eq!(drain(&table, 0, 0), vec![30], "row 0 -> home 0");
        assert_eq!(drain(&table, 1, 0), vec![20], "row 1 -> home 0");
        bar.wait(&mut w); // B3
        fused_round(&table, 40);
        worker.join().unwrap();
    });
}

/// Claim 5: poison releases waiters. One of two participants arrives and
/// spins; the other poisons the barrier instead of ever arriving. In every
/// interleaving the waiter must fall out of `wait` with `false` (a worker
/// spinning past a poisoned generation would show up here as a deadlock),
/// and its subsequent read of the poisoner's plain diagnostics write must
/// be ordered by the Release-poison / Acquire-observe edge. Late arrivals
/// after the poison must drain immediately as well.
#[test]
fn barrier_poison_releases_waiters() {
    loom::model(|| {
        // spin_limit 0: every failed check yields, so the model scheduler
        // can always run the poisoner.
        let bar = Arc::new(SpinBarrier::with_spin_limit(2, 0));
        let diag = Arc::new(UnsafeCell::new(0u32));

        let waiter = {
            let bar = Arc::clone(&bar);
            let diag = Arc::clone(&diag);
            thread::spawn(move || {
                let led = bar.wait();
                assert!(!led, "a poisoned generation must not elect a leader");
                assert!(bar.is_poisoned(), "wait may only drain via poison here");
                diag.with(|p| {
                    // SAFETY: `wait` can only have returned by observing the
                    // poison flag with Acquire, which orders this read after
                    // the poisoner's write below.
                    unsafe { *p }
                })
            })
        };

        diag.with_mut(|p| {
            // SAFETY: written before the Release poison; the waiter reads
            // only after its Acquire observation of the flag.
            unsafe { *p = 42 }
        });
        bar.poison();
        let v = waiter.join().unwrap();
        assert_eq!(v, 42, "poison did not publish the diagnostics write");
        // A participant arriving after the poison drains immediately too.
        assert!(!bar.wait());
    });

    // Tree path: same contract on the hierarchical barrier. Fan-in 2 with
    // 3 participants forces a two-level tree, so the parked waiter spins on
    // a *leaf* node while the third participant never arrives — poison must
    // release it (and publish the diagnostics) exactly as on the flat
    // barrier, and late arrivals must drain.
    loom::model(|| {
        let bar = Arc::new(TreeBarrier::with_shape(3, 2, 0));
        let diag = Arc::new(UnsafeCell::new(0u32));

        let waiter = {
            let bar = Arc::clone(&bar);
            let diag = Arc::clone(&diag);
            thread::spawn(move || {
                let mut w = bar.waiter(0);
                let led = bar.wait(&mut w);
                assert!(!led, "a poisoned generation must not elect a leader");
                assert!(bar.is_poisoned(), "wait may only drain via poison here");
                diag.with(|p| {
                    // SAFETY: `wait` can only have returned by observing the
                    // poison flag with Acquire, which orders this read after
                    // the poisoner's write below.
                    unsafe { *p }
                })
            })
        };

        diag.with_mut(|p| {
            // SAFETY: written before the Release poison; the waiter reads
            // only after its Acquire observation of the flag.
            unsafe { *p = 43 }
        });
        bar.poison();
        let v = waiter.join().unwrap();
        assert_eq!(v, 43, "tree poison did not publish the diagnostics write");
        let mut w = bar.waiter(1);
        assert!(!bar.wait(&mut w), "late arrival must drain via poison");
    });
}

/// Claim 12: the tree barrier's release publication. Fan-in 2 with three
/// participants forces a two-level tree (two leaves + a root), so the model
/// exercises the full protocol: the winner chain up (leaf winner's
/// `fetch_add` at the root), the `Relaxed` arrival reset before the climb,
/// the root winner's top-down `Release` broadcast of the generation, and a
/// waiter's `Acquire` spin-exit on its own node. Two back-to-back crossings
/// with plain cells handed around verify:
///
/// - generation 1 publishes every participant's pre-barrier write to every
///   participant (a missing edge is a loom data race);
/// - exactly one `wait` per generation returns `true`;
/// - the reset cannot double-count: a stale arrival count trips the
///   `debug_assert` inside `wait`, and the monotone `release_gen` keeps an
///   early climber of generation 2 from sailing through a stale value (the
///   failure mode a sense bit would have — it surfaces here as a deadlock).
#[test]
fn tree_barrier_release_publication() {
    // Three participants over a two-level tree cross twice, and every failed
    // spin yields — full exploration at the default preemption bound of 3
    // exceeds the execution backstop. Bound 2 keeps the search exhaustive
    // over schedules with up to two involuntary switches (yield-driven
    // blocking switches are still explored fully), which is where the
    // reset/sense hazards this model guards against live.
    let builder = loom::model::Builder {
        preemption_bound: Some(2),
        max_iterations: 400_000,
    };
    builder.check(|| {
        // spin_limit 0: always yield on a failed check so the model
        // scheduler can run the release-wave writer.
        let bar = Arc::new(TreeBarrier::with_shape(3, 2, 0));
        let cells: Arc<Vec<UnsafeCell<u64>>> =
            Arc::new((0..3).map(|_| UnsafeCell::new(0)).collect());
        let leaders = Arc::new(AtomicUsize::new(0));

        // Each participant: write its own cell, cross (gen 1), read every
        // cell — all writes are sequenced before the first crossing, so the
        // reads are safe from any interleaving and verify exactly the
        // barrier's publication edge — then cross again (gen 2), which
        // exercises the arrival reset and the monotone generation clock (a
        // stale count trips the debug_assert; a stale release value shows
        // up as a deadlock or a double leader).
        let cross2 =
            |id: usize, bar: &TreeBarrier, cells: &[UnsafeCell<u64>], leaders: &AtomicUsize| {
                let mut w = bar.waiter(id);
                cells[id].with_mut(|p| {
                    // SAFETY: participant `id` owns its cell before the first
                    // crossing; others read it only after the release wave.
                    unsafe { *p = id as u64 + 1 }
                });
                if bar.wait(&mut w) {
                    leaders.fetch_add(1, Ordering::Relaxed);
                }
                for (i, c) in cells.iter().enumerate() {
                    let v = c.with(|p| {
                        // SAFETY: ordered after participant `i`'s write by the
                        // arrival chain + release broadcast of generation 1,
                        // and no participant writes after its crossing.
                        unsafe { *p }
                    });
                    assert_eq!(
                        v,
                        i as u64 + 1,
                        "participant {i}'s pre-barrier write not published"
                    );
                }
                if bar.wait(&mut w) {
                    leaders.fetch_add(1, Ordering::Relaxed);
                }
            };

        let handles: Vec<_> = (1..3)
            .map(|id| {
                let bar = Arc::clone(&bar);
                let cells = Arc::clone(&cells);
                let leaders = Arc::clone(&leaders);
                thread::spawn(move || cross2(id, &bar, &cells, &leaders))
            })
            .collect();
        cross2(0, &bar, &cells, &leaders);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            leaders.load(Ordering::Relaxed),
            2,
            "each tree generation must elect exactly one root winner"
        );
    });
}

/// Claim 7: stop-flag abort handoff. The containment path writes its
/// failure diagnostics first and then raises the flag with a Release store
/// (`RunEnv::halt` in `kernel/harness.rs`: contained panic, `watchdog`
/// abort, `nullmsg` stall report); a worker that Acquire-observes the flag
/// must therefore see the complete diagnostics. Covers the harness's
/// `stop_flag` entry in ATOMICS.toml.
#[test]
fn stop_flag_publishes_abort() {
    loom::model(|| {
        let stop = Arc::new(AtomicBool::new(false));
        let diagnostics = Arc::new(UnsafeCell::new(0u32));

        let stopper = {
            let stop = Arc::clone(&stop);
            let diagnostics = Arc::clone(&diagnostics);
            thread::spawn(move || {
                diagnostics.with_mut(|p| {
                    // SAFETY: written before the Release store below; the
                    // worker reads only after Acquire-observing the flag.
                    unsafe { *p = 0xDEAD }
                });
                stop.store(true, Ordering::Release);
            })
        };

        while !stop.load(Ordering::Acquire) {
            thread::yield_now();
        }
        let seen = diagnostics.with(|p| {
            // SAFETY: ordered after the stopper's write by the
            // Release-store / Acquire-load edge on `stop`.
            unsafe { *p }
        });
        assert_eq!(seen, 0xDEAD, "abort observer must see full diagnostics");
        stopper.join().unwrap();
    });
}

/// Claim 8: watchdog stall protocol. The kernel thread ticks the `Relaxed`
/// progress word; the monitor samples it only for equality comparison
/// (never dereferencing anything guarded by it) and, on declaring a stall,
/// writes its diagnosis and raises `stalled` with Release. The kernel
/// thread that Acquire-observes `stalled` must see the diagnosis. The
/// `Relaxed` ticks must stay monotone under any interleaving.
#[test]
fn watchdog_stall_publication() {
    loom::model(|| {
        let progress = Arc::new(AtomicU64::new(0));
        let stalled = Arc::new(AtomicBool::new(false));
        let diagnosis = Arc::new(UnsafeCell::new(0u32));

        let monitor = {
            let progress = Arc::clone(&progress);
            let stalled = Arc::clone(&stalled);
            let diagnosis = Arc::clone(&diagnosis);
            thread::spawn(move || {
                let a = progress.load(Ordering::Relaxed);
                let b = progress.load(Ordering::Relaxed);
                assert!(b >= a, "progress heuristic must be monotone");
                diagnosis.with_mut(|p| {
                    // SAFETY: written before the Release store of `stalled`;
                    // the worker reads only after Acquire-observing it.
                    unsafe { *p = 7 }
                });
                stalled.store(true, Ordering::Release);
            })
        };

        progress.fetch_add(1, Ordering::Relaxed);
        while !stalled.load(Ordering::Acquire) {
            thread::yield_now();
        }
        let seen = diagnosis.with(|p| {
            // SAFETY: ordered after the monitor's write by the
            // Release/Acquire edge on `stalled`.
            unsafe { *p }
        });
        assert_eq!(seen, 7, "stall observer must see the diagnosis");
        monitor.join().unwrap();
    });
}

/// Claim 9: channel-clock publication (`nullmsg.chan_clock`). A sender
/// appends an event (plain write) and then advances the channel clock with
/// `fetch_max(AcqRel)`; a receiver that Acquire-reads a clock value at or
/// past the sender's promise is guaranteed to see the event. A concurrent
/// lower `fetch_max` from another sender must neither regress the clock
/// nor disturb the edge.
#[test]
fn channel_clock_fetch_max_publication() {
    loom::model(|| {
        let clock = Arc::new(AtomicU64::new(0));
        let event = Arc::new(UnsafeCell::new(0u64));

        let sender = {
            let clock = Arc::clone(&clock);
            let event = Arc::clone(&event);
            thread::spawn(move || {
                event.with_mut(|p| {
                    // SAFETY: written before the AcqRel fetch_max publishes
                    // promise 5; the receiver reads only at clock >= 5.
                    unsafe { *p = 42 }
                });
                clock.fetch_max(5, Ordering::AcqRel);
            })
        };
        let laggard = {
            let clock = Arc::clone(&clock);
            thread::spawn(move || {
                // A slower channel's smaller promise: must not regress.
                clock.fetch_max(3, Ordering::AcqRel);
            })
        };

        while clock.load(Ordering::Acquire) < 5 {
            thread::yield_now();
        }
        let seen = event.with(|p| {
            // SAFETY: ordered after the sender's write by the
            // fetch_max(AcqRel) / load(Acquire) edge at value >= 5.
            unsafe { *p }
        });
        assert_eq!(seen, 42, "clock promise must publish the event");
        sender.join().unwrap();
        laggard.join().unwrap();
        assert_eq!(
            clock.load(Ordering::Acquire),
            5,
            "concurrent fetch_max must keep the clock at the maximum"
        );
    });
}

/// Claim 10: per-producer clock words min-reduced by a reader (the LBTS
/// reduction over `barrier.next_ts`, and `stall_clocks` snapshots). Each
/// producer publishes its state with a Release store of its timestamp; the
/// reader Acquire-loads every word, takes the min, and must then see each
/// producer's writes as of its published time.
#[test]
fn clock_word_release_acquire_publication() {
    loom::model(|| {
        let clocks = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let states = Arc::new([UnsafeCell::new(0u64), UnsafeCell::new(0u64)]);

        let mut producers = Vec::new();
        for (i, ts) in [(0usize, 10u64), (1usize, 20u64)] {
            let clocks = Arc::clone(&clocks);
            let states = Arc::clone(&states);
            producers.push(thread::spawn(move || {
                states[i].with_mut(|p| {
                    // SAFETY: written before this producer's Release store;
                    // the reader touches it only after Acquire-loading a
                    // nonzero timestamp for slot `i`.
                    unsafe { *p = ts }
                });
                clocks[i].store(ts, Ordering::Release);
            }));
        }

        // Reader: wait for both clock words, then min-reduce (the LBTS).
        let mut ts = [0u64; 2];
        for (i, c) in clocks.iter().enumerate() {
            loop {
                ts[i] = c.load(Ordering::Acquire);
                if ts[i] != 0 {
                    break;
                }
                thread::yield_now();
            }
        }
        let lbts = ts[0].min(ts[1]);
        assert_eq!(lbts, 10, "min-reduction over published timestamps");
        for (i, s) in states.iter().enumerate() {
            let seen = s.with(|p| {
                // SAFETY: ordered after producer `i`'s write by the
                // Release-store / Acquire-load edge on its clock word.
                unsafe { *p }
            });
            assert_eq!(seen, ts[i], "state as of the published timestamp");
        }
        for t in producers {
            t.join().unwrap();
        }
    });
}

/// Checker sanity: the same publish pattern with the store weakened to
/// `Relaxed` is a real bug (no happens-before edge for the payload) and the
/// model checker must catch it. This is the regression test proving the
/// models above are actually capable of failing.
#[test]
#[should_panic(expected = "data race")]
fn broken_relaxed_publish_is_detected() {
    loom::model(|| {
        let flag = Arc::new(AtomicBool::new(false));
        let data = Arc::new(UnsafeCell::new(0u32));

        let t = {
            let flag = Arc::clone(&flag);
            let data = Arc::clone(&data);
            thread::spawn(move || {
                data.with_mut(|p| {
                    // SAFETY: not actually sound — the Relaxed publish below
                    // is the bug this model exists to detect.
                    unsafe { *p = 9 }
                });
                flag.store(true, Ordering::Relaxed); // BUG: should be Release
            })
        };

        while !flag.load(Ordering::Acquire) {
            thread::yield_now();
        }
        let _ = data.with(|p| {
            // SAFETY: not reached with a valid edge; the checker reports the
            // race at this access.
            unsafe { *p }
        });
        t.join().unwrap();
    });
}
