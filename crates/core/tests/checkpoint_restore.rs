//! Checkpoint/restore determinism (DESIGN.md §4.2).
//!
//! The acceptance bar: a run resumed from a mid-flight checkpoint must
//! produce an event-trace digest (order-sensitive per-node checksums plus
//! totals) bit-identical to the uninterrupted run — at any worker thread
//! count, with round fusion on and off. LP identity is part of the
//! deterministic tie-break keys, so every run here (checkpointed,
//! uninterrupted, resumed) uses the same fixed manual partition; only the
//! thread count varies.

use std::path::PathBuf;

use unison_core::{
    checkpoint, kernel, snapshot_struct, CheckpointConfig, FelImpl, KernelKind, MetricsLevel,
    NodeId, PartitionMode, Rng, RunConfig, SimCtx, SimError, SimNode, Time, WorldBuilder,
};

/// A token with its own deterministic randomness (same model as the
/// cross-kernel tests, plus `Snapshot`).
#[derive(Debug)]
struct Token {
    id: u64,
    rng: Rng,
    hops: u64,
}

snapshot_struct!(Token { id, rng, hops });

/// A graph node that forwards tokens to random neighbors and keeps an
/// order-sensitive checksum of everything it saw.
struct Router {
    neighbors: Vec<(NodeId, Time)>,
    checksum: u64,
    seen: u64,
}

snapshot_struct!(Router {
    neighbors,
    checksum,
    seen
});

impl SimNode for Router {
    type Payload = Token;

    fn handle(&mut self, mut token: Token, ctx: &mut dyn SimCtx<Self>) {
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
const EVERY: Time = Time(150_000); // checkpoints at 150k, 300k, 450k

fn ring_world(stop: Time) -> unison_core::World<Router> {
    let mut b = WorldBuilder::new();
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    for i in 0..N {
        let prev = ids[(i + N - 1) % N];
        let next = ids[(i + 1) % N];
        b.add_node(Router {
            neighbors: vec![(prev, DELAY), (next, DELAY)],
            checksum: 0,
            seen: 0,
        });
    }
    for i in 0..N {
        b.add_link(ids[i], ids[(i + 1) % N], DELAY);
    }
    let mut seed_rng = Rng::new(0xC0FFEE);
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
    b.stop_at(stop);
    b.build()
}

/// The fixed partition every run in this suite executes under (4 LPs).
fn assignment() -> Vec<u32> {
    (0..N as u32).map(|i| i / 3).collect()
}

fn cfg(threads: usize) -> RunConfig {
    RunConfig {
        kernel: KernelKind::Unison { threads },
        partition: PartitionMode::Manual(assignment()),
        fusion: true,
        metrics: MetricsLevel::Summary,
        fel: Default::default(),
        watchdog: Default::default(),
    }
}

/// Order-sensitive digest of a finished run.
fn digest(world: &unison_core::World<Router>) -> Vec<(u64, u64)> {
    world.nodes().map(|n| (n.checksum, n.seen)).collect()
}

/// A fresh checkpoint directory under the cargo-managed tmp dir.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("ckpt-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean stale checkpoint dir");
    }
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir
}

#[test]
fn resume_is_bit_identical_across_threads_and_fusion() {
    // Reference: uninterrupted, no checkpoints.
    let (w_ref, rep_ref) = kernel::try_run(ring_world(STOP), &cfg(2)).unwrap();
    let ref_digest = digest(&w_ref);

    // Checkpointed run: same digest, and it leaves files behind.
    let dir = ckpt_dir("det");
    let ck = CheckpointConfig::new(EVERY, &dir);
    let mut world = ring_world(STOP);
    checkpoint::schedule_checkpoints(&mut world, &ck);
    let (w_ck, rep_ck) = kernel::try_run(world, &cfg(2)).unwrap();
    assert_eq!(digest(&w_ck), ref_digest, "checkpointing changed results");
    assert_eq!(rep_ck.events, rep_ref.events);

    // Resume from EVERY checkpoint, at every thread count, under the same
    // partition: bit-identical final state. Every round of this ring fuses
    // with fusion on; the fusion-off resumes cross the barriers.
    for t in [150_000u64, 300_000, 450_000] {
        let path = ck.file_at(Time(t));
        assert!(path.exists(), "missing checkpoint {path:?}");
        for (threads, fusion) in [(1usize, true), (2, true), (4, true), (2, false), (4, false)] {
            let resumed = checkpoint::resume::<Router>(&path, None).unwrap();
            assert_eq!(resumed.time, Time(t));
            assert_eq!(resumed.assignment, assignment());
            let rcfg = RunConfig {
                partition: PartitionMode::Manual(resumed.assignment.clone()),
                fusion,
                ..cfg(threads)
            };
            let (w_res, rep_res) = kernel::try_run(resumed.world, &rcfg).unwrap();
            let what = format!("resume from t={t} at {threads} threads, fusion {fusion}");
            assert_eq!(digest(&w_res), ref_digest, "{what} diverged");
            if !fusion {
                assert_eq!(rep_res.fused_rounds, 0, "{what}: a round fused");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_is_bit_identical_across_fel_impls() {
    // The snapshot format is FEL-implementation-independent (events are
    // canonically sorted by key before encoding, DESIGN.md §4.4): a
    // checkpoint written by a heap-FEL run must resume under a ladder-FEL
    // run to the exact same digest, and vice versa.
    let (w_ref, _) = kernel::try_run(ring_world(STOP), &cfg(2)).unwrap();
    let ref_digest = digest(&w_ref);

    for (writer, resumer) in [
        (FelImpl::BinaryHeap, FelImpl::Ladder),
        (FelImpl::Ladder, FelImpl::BinaryHeap),
    ] {
        let dir = ckpt_dir(&format!("xfel-{}", writer.name()));
        let ck = CheckpointConfig::new(EVERY, &dir);
        let mut world = ring_world(STOP);
        checkpoint::schedule_checkpoints(&mut world, &ck);
        let wcfg = RunConfig {
            fel: writer,
            ..cfg(2)
        };
        let (w_ck, _) = kernel::try_run(world, &wcfg).unwrap();
        assert_eq!(
            digest(&w_ck),
            ref_digest,
            "{} run diverged from the default-FEL reference",
            writer.name()
        );

        for t in [150_000u64, 300_000, 450_000] {
            let path = ck.file_at(Time(t));
            assert!(path.exists(), "missing checkpoint {path:?}");
            for threads in [1usize, 2, 4] {
                let resumed = checkpoint::resume::<Router>(&path, None).unwrap();
                let rcfg = RunConfig {
                    partition: PartitionMode::Manual(resumed.assignment.clone()),
                    fel: resumer,
                    ..cfg(threads)
                };
                let (w_res, _) = kernel::try_run(resumed.world, &rcfg).unwrap();
                assert_eq!(
                    digest(&w_res),
                    ref_digest,
                    "{} snapshot resumed under {} diverged at t={t}, {threads} threads",
                    writer.name(),
                    resumer.name()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn resumed_run_with_chain_writes_later_checkpoints() {
    let dir = ckpt_dir("chain");
    let ck = CheckpointConfig::new(EVERY, &dir);
    let mut world = ring_world(STOP);
    checkpoint::schedule_checkpoints(&mut world, &ck);
    let (w_ref, _) = kernel::try_run(world, &cfg(2)).unwrap();
    let ref_digest = digest(&w_ref);

    // Resume from the FIRST checkpoint with the chain re-installed: the
    // later checkpoint files are recreated. (They are not byte-identical —
    // re-installed stop/chain globals consume fresh external sequence
    // numbers — but they must resume to the same final state.)
    let first = ck.file_at(Time(150_000));
    let third = ck.file_at(Time(450_000));
    std::fs::remove_file(&third).unwrap();
    let resumed = checkpoint::resume::<Router>(&first, Some(&ck)).unwrap();
    let rcfg = RunConfig {
        partition: PartitionMode::Manual(resumed.assignment.clone()),
        ..cfg(4)
    };
    let (w_chain, _) = kernel::try_run(resumed.world, &rcfg).unwrap();
    assert_eq!(digest(&w_chain), ref_digest, "chained resume diverged");
    let latest = checkpoint::latest_checkpoint(&dir).unwrap().unwrap();
    assert_eq!(latest, third, "chain must recreate the later checkpoint");
    let resumed = checkpoint::resume::<Router>(&third, None).unwrap();
    assert_eq!(resumed.time, Time(450_000));
    let rcfg = RunConfig {
        partition: PartitionMode::Manual(resumed.assignment.clone()),
        ..cfg(1)
    };
    let (w_res, _) = kernel::try_run(resumed.world, &rcfg).unwrap();
    assert_eq!(
        digest(&w_res),
        ref_digest,
        "resume from a re-taken checkpoint diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sequential_kernel_reports_checkpoint_unsupported() {
    // The sequential kernel keeps its global FEL outside `WorldAccess`, so
    // a checkpoint request is a structured failure, not silent corruption.
    let dir = ckpt_dir("seq");
    let ck = CheckpointConfig::new(EVERY, &dir);
    let mut world = ring_world(STOP);
    checkpoint::schedule_checkpoints(&mut world, &ck);
    let seq = RunConfig {
        kernel: KernelKind::Sequential { compat_keys: true },
        ..cfg(1)
    };
    match kernel::try_run(world, &seq) {
        Err(SimError::WorkerPanic { diag, .. }) => {
            assert!(
                diag.panic_message.contains("checkpoint"),
                "{}",
                diag.panic_message
            );
        }
        Err(e) => panic!("expected a contained checkpoint failure, got {e}"),
        Ok(_) => panic!("sequential kernel silently accepted a checkpoint"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoint_is_a_structured_error() {
    let dir = ckpt_dir("corrupt");
    let path = dir.join("ckpt-00000000000000000001.bin");
    std::fs::write(&path, b"NOTACKPT").unwrap();
    match checkpoint::resume::<Router>(&path, None) {
        Err(unison_core::SnapshotError::Corrupt(_)) => {}
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(_) => panic!("resumed from garbage"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
