//! Workspace-level integration: the model-facing global-event API, reached
//! through the facade. A global event that rewrites every node
//! (`WorldAccess::for_each_node`) and shortens every link
//! (`WorldAccess::set_link_delay`) — the paper's dynamic topologies — must
//! leave the same world behind under every deterministic configuration.

use unison::core::{
    kernel, KernelKind, NodeId, PartitionMode, Rng, RunConfig, SimCtx, SimNode, Time, WorldBuilder,
};

const NODES: u32 = 16;
const TOKENS: u64 = 24;
const OLD_DELAY: Time = Time::from_micros(4);
const NEW_DELAY: Time = Time::from_micros(1);
const CHANGE_AT: Time = Time::from_micros(50);
const STOP: Time = Time::from_micros(200);

/// A token that picks its own next hop from its own RNG.
struct Token {
    id: u64,
    rng: Rng,
}

/// A ring node that forwards tokens to a random neighbour after its
/// current link delay.
struct Hop {
    neighbors: [NodeId; 2],
    delay: Time,
    /// Order-sensitive checksum of every arrival.
    checksum: u64,
    /// Topology changes this node has seen.
    epoch: u64,
}

impl SimNode for Hop {
    type Payload = Token;

    fn handle(&mut self, mut token: Token, ctx: &mut dyn SimCtx<Self>) {
        self.checksum = self
            .checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(ctx.now().as_nanos())
            .wrapping_add(token.id.wrapping_mul(0x9E3779B97F4A7C15));
        let next = self.neighbors[token.rng.next_below(2) as usize];
        ctx.schedule(self.delay, next, token);
    }
}

/// Runs the ring under `cfg` and returns its digest and lookahead.
fn run(cfg: &RunConfig) -> (u64, Time) {
    let mut b = WorldBuilder::new();
    for i in 0..NODES {
        b.add_node(Hop {
            neighbors: [NodeId((i + NODES - 1) % NODES), NodeId((i + 1) % NODES)],
            delay: OLD_DELAY,
            checksum: 0,
            epoch: 0,
        });
    }
    let links: Vec<usize> = (0..NODES)
        .map(|i| b.add_link(NodeId(i), NodeId((i + 1) % NODES), OLD_DELAY))
        .collect();
    let mut seeds = Rng::new(7);
    for t in 0..TOKENS {
        let token = Token {
            id: t,
            rng: seeds.fork(t),
        };
        b.schedule(Time::from_nanos(t % 5), NodeId(t as u32 % NODES), token);
    }
    b.schedule_global(
        CHANGE_AT,
        Box::new(move |wa| {
            let mut visited = Vec::new();
            wa.for_each_node(|id, node| {
                visited.push(id);
                node.delay = NEW_DELAY;
                node.epoch += 1;
                node.checksum ^= u64::from(id.0) << 32;
            });
            assert_eq!(visited, (0..NODES).map(NodeId).collect::<Vec<_>>());
            for &link in &links {
                wa.set_link_delay(link, NEW_DELAY);
            }
        }),
    );
    b.stop_at(STOP);
    let (world, report) = kernel::run(b.build(), cfg).unwrap();
    let mut digest = report.events;
    for node in world.nodes() {
        assert_eq!((node.epoch, node.delay), (1, NEW_DELAY));
        digest = digest.wrapping_mul(0x100000001B3) ^ node.checksum;
    }
    (digest, report.lookahead)
}

#[test]
fn a_global_that_rewrites_nodes_and_links_runs_alike_on_every_kernel() {
    let compat = RunConfig {
        kernel: KernelKind::Sequential { compat_keys: true },
        partition: PartitionMode::Auto,
        ..RunConfig::sequential()
    };
    let reference = run(&compat);
    assert_eq!(reference.1, NEW_DELAY, "the lookahead follows the links");
    for threads in [1, 2] {
        for cfg in [
            RunConfig::unison(threads),
            RunConfig::unison(threads).without_fusion(),
        ] {
            assert_eq!(
                run(&cfg),
                reference,
                "unison({threads}), fusion {}",
                cfg.fusion
            );
        }
    }
}
