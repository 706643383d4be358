//! The recovery acceptance matrix (DESIGN.md §4.7).
//!
//! {handler panic, handler stall, checkpoint-write failure} ×
//! {sequential, unison} × {1, 2, 4 threads}: every recovered
//! [`fault::run_resilient`] run must be digest-identical to the fault-free
//! run — and to a plain [`kernel::try_run`] under the same pinned
//! partition — with the rollback recorded in the `RecoveryLog`. The faults
//! come from the model: a router misbehaves when it handles an event at or
//! after a virtual time, so the same fault fires at the same virtual point
//! at every thread count, fused or not, and the whole matrix is
//! reproducible across reruns.
//!
//! Cells that cannot apply (the sequential kernel has no watchdog to end a
//! stall and takes no mid-run checkpoints) must degrade gracefully: the
//! run completes without a rollback.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use unison_core::{
    fault, kernel, snapshot_struct, CheckpointConfig, KernelKind, MetricsLevel, NodeId,
    PartitionMode, RecoveryLog, RecoveryPolicy, Rng, RunConfig, RunPhase, SimCtx, SimError,
    SimNode, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter, Time, World, WorldBuilder,
};

/// The checkpoint-suite model: a token with its own deterministic
/// randomness, routers keeping an order-sensitive checksum.
#[derive(Debug)]
struct Token {
    id: u64,
    rng: Rng,
    hops: u64,
}

snapshot_struct!(Token { id, rng, hops });

/// What a router does when its fault fires.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// The handler panics (process phase).
    Panic,
    /// The handler sleeps this many milliseconds — a stall that only the
    /// watchdog ends.
    Stall(u64),
    /// The router's next `Snapshot::save` panics — a failed checkpoint
    /// write (global phase).
    FailSave,
}

/// One test's fault: router `node` misbehaves the first `shots` times it
/// handles an event at or after `at`.
#[derive(Clone, Copy, Debug)]
struct Plan {
    node: NodeId,
    at: Time,
    fault: Fault,
    shots: u32,
}

/// One plan slot per test (tests run concurrently). The plans live outside
/// the world and so outside every checkpoint: a replay after a rollback
/// finds the shots it already fired spent — a transient fault.
static PLANS: [Mutex<Option<Plan>>; 6] = [const { Mutex::new(None) }; 6];
const NO_FAULT: u32 = 0;

fn arm(slot: u32, plan: Plan) {
    *PLANS[slot as usize].lock().unwrap() = Some(plan);
}

/// Takes one shot of `slot`'s plan when it targets `node` at `now`.
fn fire(slot: u32, node: NodeId, now: Time) -> Option<Fault> {
    let mut plan = PLANS[slot as usize].lock().unwrap();
    let p = plan.as_mut()?;
    if p.node != node || now < p.at || p.shots == 0 {
        return None;
    }
    p.shots -= 1;
    Some(p.fault)
}

struct Router {
    neighbors: Vec<(NodeId, Time)>,
    checksum: u64,
    seen: u64,
    /// Which test's plan this router consults.
    slot: u32,
    /// Set by a fired [`Fault::FailSave`]; never saved, so a world
    /// restored from a checkpoint starts healthy.
    fail_save: bool,
}

impl Snapshot for Router {
    fn save(&self, w: &mut SnapshotWriter) {
        assert!(!self.fail_save, "injected fault: checkpoint write failure");
        self.neighbors.save(w);
        self.checksum.save(w);
        self.seen.save(w);
        self.slot.save(w);
    }

    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Router {
            neighbors: Snapshot::load(r)?,
            checksum: Snapshot::load(r)?,
            seen: Snapshot::load(r)?,
            slot: Snapshot::load(r)?,
            fail_save: false,
        })
    }
}

impl SimNode for Router {
    type Payload = Token;

    fn handle(&mut self, mut token: Token, ctx: &mut dyn SimCtx<Self>) {
        match fire(self.slot, ctx.self_node(), ctx.now()) {
            Some(Fault::Panic) => panic!(
                "injected fault at node {} t={}",
                ctx.self_node().0,
                ctx.now()
            ),
            Some(Fault::Stall(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(Fault::FailSave) => self.fail_save = true,
            None => {}
        }
        self.seen += 1;
        self.checksum = self
            .checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(ctx.now().as_nanos())
            .wrapping_add(token.id.wrapping_mul(0x9E3779B97F4A7C15));
        token.hops += 1;
        let pick = token.rng.next_below(self.neighbors.len() as u64) as usize;
        let (next, delay) = self.neighbors[pick];
        ctx.schedule(delay, next, token);
    }
}

const N: usize = 12;
const DELAY: Time = Time(3_000);
const TOKENS: u64 = 24;
const STOP: Time = Time(600_000);
const EVERY: Time = Time(50_000);
/// A virtual time safely past several periodic checkpoints and safely
/// before the run ends: a fault here rolls back to the checkpoint at
/// `LATE_TARGET`.
const LATE: Time = Time(180_000);
const LATE_TARGET: Time = Time(150_000);
const FAULTY: NodeId = NodeId(5);

fn late_panic(shots: u32) -> Plan {
    Plan {
        node: FAULTY,
        at: LATE,
        fault: Fault::Panic,
        shots,
    }
}

fn ring_world(slot: u32) -> World<Router> {
    let mut b = WorldBuilder::new();
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    for i in 0..N {
        let prev = ids[(i + N - 1) % N];
        let next = ids[(i + 1) % N];
        b.add_node(Router {
            neighbors: vec![(prev, DELAY), (next, DELAY)],
            checksum: 0,
            seen: 0,
            slot,
            fail_save: false,
        });
    }
    for i in 0..N {
        b.add_link(ids[i], ids[(i + 1) % N], DELAY);
    }
    let mut seed_rng = Rng::new(0xFA_117);
    for t in 0..TOKENS {
        b.schedule(
            Time::from_nanos(t % 7),
            ids[(t as usize) % N],
            Token {
                id: t,
                rng: seed_rng.fork(t),
                hops: 0,
            },
        );
    }
    b.stop_at(STOP);
    b.build()
}

/// The fixed partition every run executes under (4 LPs): LP identity is
/// part of the tie-break keys, so digests compare only within it.
fn assignment() -> Vec<u32> {
    (0..N as u32).map(|i| i / 3).collect()
}

fn cfg(kernel: KernelKind) -> RunConfig {
    RunConfig {
        kernel,
        partition: PartitionMode::Manual(assignment()),
        fusion: true,
        metrics: MetricsLevel::Summary,
        fel: Default::default(),
        watchdog: Default::default(),
    }
}

fn digest(world: &World<Router>) -> Vec<(u64, u64)> {
    world.nodes().map(|n| (n.checksum, n.seen)).collect()
}

/// The fault-free digest under `kernel`.
fn reference(kernel: KernelKind) -> Vec<(u64, u64)> {
    let (w, _) = kernel::try_run(ring_world(NO_FAULT), &cfg(kernel)).expect("plain run");
    digest(&w)
}

/// A fresh checkpoint directory under the cargo-managed tmp dir.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fault-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean stale checkpoint dir");
    }
    dir
}

fn policy(tag: &str) -> RecoveryPolicy {
    RecoveryPolicy::new(CheckpointConfig::new(EVERY, ckpt_dir(tag)))
        .with_backoff_base(Duration::from_millis(1))
}

/// Runs `slot`'s world through the resilient driver and removes the
/// checkpoint directory.
fn recover(slot: u32, cfg: &RunConfig, p: &RecoveryPolicy) -> (Vec<(u64, u64)>, RecoveryLog) {
    let (w, _, log) = fault::run_resilient(ring_world(slot), cfg, p).expect("recovers");
    std::fs::remove_dir_all(&p.checkpoints.dir).ok();
    (digest(&w), log)
}

/// Every kernel under test, with its thread axis baked in.
fn kernels() -> Vec<(String, KernelKind)> {
    let mut v = vec![(
        "sequential".to_string(),
        KernelKind::Sequential { compat_keys: false },
    )];
    for threads in [1usize, 2, 4] {
        v.push((format!("unison-{threads}"), KernelKind::Unison { threads }));
    }
    v
}

/// The acceptance matrix: each fault cell recovers to the fault-free
/// digest with the rollback on record; inapplicable cells stay clean.
#[test]
fn fault_matrix_recovers_to_fault_free_digest() {
    const SLOT: u32 = 1;
    for (name, kind) in kernels() {
        // Fault-free reference, both through the resilient driver and the
        // plain kernel entry point.
        let base = cfg(kind.clone());
        let reference = reference(kind.clone());
        let (d, log) = recover(NO_FAULT, &base, &policy(&format!("{name}-base")));
        assert_eq!(log.rollback_count(), 0, "{name}: clean run rolled back");
        assert_eq!(d, reference, "{name}: driver changed results");

        // Only the Unison kernel runs the periodic checkpoint chain and the
        // watchdog.
        let windowed = matches!(kind, KernelKind::Unison { .. });

        // --- handler panic ---
        arm(SLOT, late_panic(1));
        let (d, log) = recover(SLOT, &base, &policy(&format!("{name}-panic")));
        assert_eq!(d, reference, "{name}: panic recovery diverged");
        assert_eq!(log.rollback_count(), 1, "{name}: expected one rollback");
        let rb = &log.rollbacks[0];
        assert_eq!(rb.phase, RunPhase::Process, "{name}");
        assert!(rb.fault.contains("injected fault"), "{name}: {}", rb.fault);
        let target = if windowed { LATE_TARGET } else { Time::ZERO };
        assert_eq!(rb.rolled_back_to, target, "{name}");

        // --- handler stall (needs the watchdog) ---
        arm(
            SLOT,
            Plan {
                node: FAULTY,
                at: Time(120_000),
                fault: Fault::Stall(500),
                shots: 1,
            },
        );
        let c = base.clone().with_watchdog(Duration::from_millis(100));
        let (d, log) = recover(SLOT, &c, &policy(&format!("{name}-stall")));
        assert_eq!(d, reference, "{name}: stall recovery diverged");
        if windowed {
            assert_eq!(log.rollback_count(), 1, "{name}: stall must roll back");
            assert_eq!(log.rollbacks[0].phase, RunPhase::Control, "{name}");
            assert_eq!(log.rollbacks[0].rolled_back_to, Time(100_000), "{name}");
        } else {
            // No watchdog: the stall only slows the run down.
            assert_eq!(log.rollback_count(), 0, "{name}");
        }

        // --- checkpoint-write failure (second periodic checkpoint) ---
        arm(
            SLOT,
            Plan {
                node: FAULTY,
                at: Time(75_000),
                fault: Fault::FailSave,
                shots: 1,
            },
        );
        let (d, log) = recover(SLOT, &base, &policy(&format!("{name}-ckpt")));
        assert_eq!(d, reference, "{name}: ckpt-fail recovery diverged");
        if windowed {
            assert_eq!(log.rollback_count(), 1, "{name}");
            let rb = &log.rollbacks[0];
            assert_eq!(
                rb.phase,
                RunPhase::Global,
                "{name}: fails in the global phase"
            );
            assert!(rb.fault.contains("checkpoint write failure"), "{name}");
            // The first periodic checkpoint (t = 50k) predates the failure
            // and must be the rollback target.
            assert_eq!(rb.rolled_back_to, EVERY, "{name}");
        } else {
            // No mid-run checkpoints are ever written.
            assert_eq!(log.rollback_count(), 0, "{name}");
        }
    }
}

/// Degraded retry: the pool is rebuilt with half the workers and — thread
/// count being free — still reproduces the reference digest.
#[test]
fn degraded_retry_is_digest_identical() {
    const SLOT: u32 = 2;
    let kind = KernelKind::Unison { threads: 4 };
    arm(SLOT, late_panic(1));
    let p = policy("degrade").with_degrade(true);
    let (d, log) = recover(SLOT, &cfg(kind.clone()), &p);
    assert_eq!(d, reference(kind));
    assert_eq!(log.rollback_count(), 1);
    let rb = &log.rollbacks[0];
    assert_eq!(
        (rb.phase, rb.rolled_back_to),
        (RunPhase::Process, LATE_TARGET)
    );
    assert_eq!(rb.degraded_threads, Some(2));
}

/// An exhausted retry budget surfaces the original structured error.
#[test]
fn exhausted_retry_budget_returns_the_fault() {
    const SLOT: u32 = 3;
    // Three shots: the first attempt and both replays fire.
    arm(
        SLOT,
        Plan {
            node: FAULTY,
            at: Time(15_000),
            fault: Fault::Panic,
            shots: 3,
        },
    );
    let p = policy("budget").with_max_retries(2);
    let res = fault::run_resilient(
        ring_world(SLOT),
        &cfg(KernelKind::Unison { threads: 2 }),
        &p,
    );
    std::fs::remove_dir_all(&p.checkpoints.dir).ok();
    match res {
        Err(SimError::WorkerPanic { diag, .. }) => {
            assert!(diag.panic_message.contains("injected fault"));
            assert_eq!(diag.phase, RunPhase::Process);
        }
        Err(e) => panic!("expected WorkerPanic, got {e}"),
        Ok(_) => panic!("three shots with two retries must fail"),
    }
}

/// A corrupt checkpoint file that sorts newest is skipped by the rollback
/// scan — recorded in `skipped_corrupt` — and the run still recovers to
/// the fault-free digest from the next older usable image.
#[test]
fn rollback_skips_corrupt_checkpoints() {
    const SLOT: u32 = 4;
    let kind = KernelKind::Unison { threads: 2 };
    arm(SLOT, late_panic(1));
    let p = policy("corrupt-skip");
    // Seed the directory with a plausible-looking file (right name
    // pattern, right magic, garbage body) that sorts newest: the scan
    // must reject it rather than trust it.
    std::fs::create_dir_all(&p.checkpoints.dir).expect("create ckpt dir");
    let garbage = p.checkpoints.file_at(Time(u64::MAX));
    std::fs::write(&garbage, b"UNISCKPTgarbage-after-the-magic").expect("plant garbage");
    let (d, log) = recover(SLOT, &cfg(kind.clone()), &p);
    assert_eq!(d, reference(kind));
    assert_eq!(log.rollback_count(), 1);
    let rb = &log.rollbacks[0];
    assert_eq!(rb.skipped_corrupt, 1);
    assert_eq!(
        (rb.phase, rb.rolled_back_to),
        (RunPhase::Process, LATE_TARGET)
    );
}

/// The same fault fires at the same point on every rerun: recovery logs
/// and digests are bit-stable.
#[test]
fn fault_matrix_is_deterministic_across_reruns() {
    const SLOT: u32 = 5;
    let run_once = |tag: &str| {
        arm(SLOT, late_panic(1));
        let (d, log) = recover(SLOT, &cfg(KernelKind::Unison { threads: 2 }), &policy(tag));
        let shape: Vec<(u64, RunPhase, Time)> = log
            .rollbacks
            .iter()
            .map(|r| (r.round, r.phase, r.rolled_back_to))
            .collect();
        (d, shape)
    };
    let first = run_once("rerun-a");
    assert_eq!(first.1.len(), 1, "the fault fired once");
    assert_eq!(first, run_once("rerun-b"));
}
