//! Workspace-level integration: the sparse many-LP regime.
//!
//! The other tier-1 suites run the network stack on fat-trees, where a few
//! dozen LPs each hold hundreds of events. The paper's fine-grained
//! partition also produces the opposite shape — hundreds of LPs holding a
//! handful of events each, a few of them due per round — and that is where
//! the engine (event lists, outboxes, claim loop) is all of the cost. This
//! suite drives that shape with a PHOLD-style model whose handler does
//! nothing but fold what it saw into a hash and schedule one successor.

use unison::core::{
    kernel, FelImpl, KernelKind, NodeId, PartitionMode, Rng, RunConfig, SimCtx, SimNode, Time,
    World, WorldBuilder,
};
use unison::topology::torus2d;

const ROWS: usize = 16;
const COLS: usize = 16;
const LINK_DELAY_NS: u64 = 1_000;
const INITIAL_EVENTS: u64 = 4;
const STOP: Time = Time::from_micros(200);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

struct Phold {
    rng: Rng,
    /// `[self, up, down, left, right]`.
    targets: [NodeId; 5],
    /// FNV over `(time, token)` of every handled event, in handling order.
    hash: u64,
    handled: u64,
}

impl SimNode for Phold {
    type Payload = u64;

    fn handle(&mut self, token: u64, ctx: &mut dyn SimCtx<Self>) {
        self.handled += 1;
        self.hash = fold(fold(self.hash, ctx.now().as_nanos()), token);
        // Half the successors stay here, half cross to a torus neighbour;
        // either way at least one link delay ahead, so the same call is
        // legal under every partition.
        let target = if self.rng.next_bool(0.5) {
            self.targets[1 + self.rng.next_below(4) as usize]
        } else {
            self.targets[0]
        };
        let delay = LINK_DELAY_NS + self.rng.next_exp(2_000.0) as u64;
        ctx.schedule(Time::from_nanos(delay), target, self.rng.next_u64());
    }
}

fn world() -> World<Phold> {
    let topo = torus2d(
        ROWS,
        COLS,
        unison::core::DataRate::gbps(100),
        Time::from_nanos(LINK_DELAY_NS),
    );
    let id = |i: usize, j: usize| NodeId((i + ROWS * j) as u32);
    let mut root = Rng::new(2024);
    let mut wb = WorldBuilder::new();
    let mut initial = Vec::new();
    for n in 0..ROWS * COLS {
        let (i, j) = (n % ROWS, n / ROWS);
        let mut rng = root.fork(n as u64);
        for _ in 0..INITIAL_EVENTS {
            let at = Time::from_nanos(rng.next_exp(2_000.0) as u64);
            initial.push((at, id(i, j), rng.next_u64()));
        }
        wb.add_node(Phold {
            rng,
            targets: [
                id(i, j),
                id((i + ROWS - 1) % ROWS, j),
                id((i + 1) % ROWS, j),
                id(i, (j + COLS - 1) % COLS),
                id(i, (j + 1) % COLS),
            ],
            hash: FNV_OFFSET,
            handled: 0,
        });
    }
    for l in &topo.links {
        wb.add_link(NodeId(l.a as u32), NodeId(l.b as u32), l.delay);
    }
    for (at, node, token) in initial {
        wb.schedule(at, node, token);
    }
    wb.stop_at(STOP);
    wb.build()
}

/// `(events, handled, digest, LPs)` of one run.
fn run(kernel: &KernelKind, fel: FelImpl) -> (u64, u64, u64, u32) {
    let cfg = RunConfig {
        kernel: kernel.clone(),
        partition: PartitionMode::Auto,
        fel,
        ..RunConfig::unison(1)
    };
    let (world, report) = kernel::run(world(), &cfg).expect("run");
    let handled = world.nodes().map(|n| n.handled).sum();
    let digest = world
        .nodes()
        .fold(FNV_OFFSET, |h, n| fold(fold(h, n.hash), n.handled));
    (report.events, handled, digest, report.lp_count)
}

/// One event order on 256 single-node LPs — a few events per LP per
/// round — whichever kernel schedules them and whichever event list holds
/// them.
#[test]
fn sparse_many_lp_runs_agree_across_kernels_and_event_lists() {
    let reference = run(
        &KernelKind::Sequential { compat_keys: true },
        FelImpl::BinaryHeap,
    );
    let (events, handled, _, lps) = reference;
    assert_eq!(lps as usize, ROWS * COLS, "one LP per torus node");
    assert_eq!(events, handled);
    // ~4 events resident per LP, each living ~3 µs, for 200 µs.
    assert!(
        (50_000..100_000).contains(&events),
        "{events} events: not the sparse regime this suite is for"
    );
    for fel in [FelImpl::Ladder, FelImpl::BinaryHeap] {
        for kernel in [
            KernelKind::Sequential { compat_keys: true },
            KernelKind::Unison { threads: 1 },
            KernelKind::Unison { threads: 2 },
        ] {
            assert_eq!(
                run(&kernel, fel),
                reference,
                "{} with the {} event list",
                kernel.name(),
                fel.name()
            );
        }
    }
}
