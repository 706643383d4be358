//! A PHOLD model: a `SimNode` whose handler does no work beyond drawing the
//! next hop, so a run measures the engine (event lists, mailboxes, claim
//! loop, barriers) and nothing of the network model.
//!
//! Every event carries a token that the receiving node folds, in handling
//! order, into an FNV hash; the digest over all node hashes therefore
//! changes if any kernel handles any node's events in a different order.
//!
//! The plain sequential kernel breaks timestamp ties by insertion order and
//! the other kernels by the sender's key, so the model never lets two
//! *different* senders tie at one receiver: the low three bits of every
//! arrival time name the sender's direction (0 self, 1-4 the torus
//! neighbours, 5 the initial population). Two events from one sender are
//! ordered the same way by both rules, which makes one digest valid for
//! every kernel.

use unison_core::{NodeId, Rng, SimCtx, SimNode, Time, World, WorldBuilder};
use unison_scenario::toml::Table;
use unison_topology::Topology;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Arrival-time slot of the initial population.
const INITIAL_SLOT: u64 = 5;

fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// The first time at or after `earliest` whose low three bits are `slot`.
fn slotted(earliest: u64, slot: u64) -> u64 {
    (((earliest >> 3) + 1) << 3) | slot
}

/// Parameters of a PHOLD run (the `[phold]` table of the generated file).
#[derive(Clone, Debug, PartialEq)]
pub struct PholdParams {
    pub rows: usize,
    pub cols: usize,
    pub link_delay_ns: u64,
    pub initial_events: u64,
    pub mean_extra_delay_ns: f64,
    pub p_remote: f64,
    pub seed: u64,
}

impl PholdParams {
    pub fn from_table(t: &Table) -> Result<Self, String> {
        let int = |key: &str| {
            t.get_int(key)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("[phold] needs a non-negative integer `{key}`"))
        };
        let float = |key: &str| {
            t.get_float(key)
                .ok_or_else(|| format!("[phold] needs a number `{key}`"))
        };
        let p = PholdParams {
            rows: int("rows")? as usize,
            cols: int("cols")? as usize,
            link_delay_ns: int("link_delay_ns")?,
            initial_events: int("initial_events")?,
            mean_extra_delay_ns: float("mean_extra_delay_ns")?,
            p_remote: float("p_remote")?,
            seed: int("seed")?,
        };
        // Four distinct neighbours per node need three rows and columns;
        // the upper bounds keep a hostile file from exhausting memory.
        if !(3..=1024).contains(&p.rows) || !(3..=1024).contains(&p.cols) {
            return Err("[phold] rows and cols must be in 3..=1024".into());
        }
        if p.initial_events > 1024 || p.link_delay_ns == 0 {
            return Err("[phold] needs initial_events <= 1024 and link_delay_ns > 0".into());
        }
        if !(0.0..=1.0).contains(&p.p_remote) || !(0.0..=1e12).contains(&p.mean_extra_delay_ns) {
            return Err(
                "[phold] needs p_remote in [0, 1] and mean_extra_delay_ns in [0, 1e12]".into(),
            );
        }
        Ok(p)
    }

    /// The torus the model runs on (`unison_topology::torus2d` numbering:
    /// row `i`, column `j` is node `i + rows * j`).
    pub fn topology(&self) -> Topology {
        unison_topology::torus2d(
            self.rows,
            self.cols,
            unison_core::DataRate::gbps(100),
            Time::from_nanos(self.link_delay_ns),
        )
    }

    /// `[self, up, down, left, right]` of `node`.
    fn targets(&self, node: usize) -> [NodeId; 5] {
        let (i, j) = (node % self.rows, node / self.rows);
        let id = |i: usize, j: usize| NodeId((i + self.rows * j) as u32);
        [
            id(i, j),
            id((i + self.rows - 1) % self.rows, j),
            id((i + 1) % self.rows, j),
            id(i, (j + self.cols - 1) % self.cols),
            id(i, (j + 1) % self.cols),
        ]
    }
}

pub struct PholdNode {
    rng: Rng,
    targets: [NodeId; 5],
    link_delay_ns: u64,
    mean_extra_delay_ns: f64,
    p_remote: f64,
    hash: u64,
    handled: u64,
}

impl SimNode for PholdNode {
    type Payload = u64;

    fn handle(&mut self, token: u64, ctx: &mut dyn SimCtx<Self>) {
        let now = ctx.now().as_nanos();
        self.handled += 1;
        self.hash = fold(fold(self.hash, now), token);
        let slot = if self.rng.next_bool(self.p_remote) {
            1 + self.rng.next_below(4)
        } else {
            0
        };
        let extra = self.rng.next_exp(self.mean_extra_delay_ns) as u64;
        let at = slotted(now + self.link_delay_ns + extra, slot);
        ctx.schedule(
            Time::from_nanos(at - now),
            self.targets[slot as usize],
            self.rng.next_u64(),
        );
    }
}

/// The nodes and the initial event population, drawn from per-node
/// generators forked off `seed`.
pub struct Population {
    nodes: Vec<PholdNode>,
    initial: Vec<(Time, NodeId, u64)>,
}

pub fn populate(p: &PholdParams) -> Population {
    let mut root = Rng::new(p.seed);
    let mut nodes = Vec::with_capacity(p.rows * p.cols);
    let mut initial = Vec::new();
    for n in 0..p.rows * p.cols {
        let mut rng = root.fork(n as u64);
        for _ in 0..p.initial_events {
            let at = slotted(rng.next_exp(p.mean_extra_delay_ns) as u64, INITIAL_SLOT);
            initial.push((Time::from_nanos(at), NodeId(n as u32), rng.next_u64()));
        }
        nodes.push(PholdNode {
            rng,
            targets: p.targets(n),
            link_delay_ns: p.link_delay_ns,
            mean_extra_delay_ns: p.mean_extra_delay_ns,
            p_remote: p.p_remote,
            hash: FNV_OFFSET,
            handled: 0,
        });
    }
    Population { nodes, initial }
}

/// Assembles the runnable world: nodes, the torus links (which the kernel
/// uses for partitioning and lookahead), initial events and the stop time.
pub fn build_world(topo: &Topology, population: Population, stop: Time) -> World<PholdNode> {
    let mut wb = WorldBuilder::new();
    for node in population.nodes {
        wb.add_node(node);
    }
    for l in &topo.links {
        wb.add_link(NodeId(l.a as u32), NodeId(l.b as u32), l.delay);
    }
    for (at, node, token) in population.initial {
        wb.schedule(at, node, token);
    }
    wb.stop_at(stop);
    wb.build()
}

/// Events handled over all nodes.
pub fn handled(world: &World<PholdNode>) -> u64 {
    world.nodes().map(|n| n.handled).sum()
}

/// FNV over every node's order-sensitive token hash and handled count.
pub fn digest(world: &World<PholdNode>) -> u64 {
    world
        .nodes()
        .fold(FNV_OFFSET, |h, n| fold(fold(h, n.hash), n.handled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_core::{kernel, RunConfig};

    fn params(seed: u64) -> PholdParams {
        PholdParams {
            rows: 6,
            cols: 5,
            link_delay_ns: 1000,
            initial_events: 4,
            mean_extra_delay_ns: 2000.0,
            p_remote: 0.5,
            seed,
        }
    }

    fn run(p: &PholdParams, cfg: &RunConfig) -> (u64, u64, u64) {
        let topo = p.topology();
        let world = build_world(&topo, populate(p), Time::from_micros(300));
        let (world, report) = kernel::run(world, cfg).unwrap();
        (report.events, handled(&world), digest(&world))
    }

    #[test]
    fn slots_name_the_sender_and_never_move_time_backwards() {
        for earliest in [0u64, 1, 7, 8, 1001, 4095] {
            for slot in 0..=INITIAL_SLOT {
                let at = slotted(earliest, slot);
                assert!(at > earliest && at - earliest <= 16);
                assert_eq!(at & 7, slot);
            }
        }
    }

    #[test]
    fn targets_are_torus_links_and_distinct() {
        let p = params(1);
        let topo = p.topology();
        for n in 0..p.rows * p.cols {
            let t = p.targets(n);
            assert_eq!(t[0], NodeId(n as u32));
            for a in 0..5 {
                for b in a + 1..5 {
                    assert_ne!(t[a], t[b], "node {n}");
                }
            }
            for peer in &t[1..] {
                let (x, y) = (n, peer.index());
                assert!(
                    topo.links
                        .iter()
                        .any(|l| (l.a, l.b) == (x, y) || (l.a, l.b) == (y, x)),
                    "{x}-{y} is not a torus link"
                );
            }
        }
    }

    #[test]
    fn digest_is_equal_across_kernels() {
        let p = params(42);
        let reference = run(&p, &RunConfig::sequential());
        assert!(reference.0 > 5_000, "only {} events", reference.0);
        assert_eq!(reference.0, reference.1);
        for cfg in [
            RunConfig::unison(1),
            RunConfig::unison(2),
            RunConfig::async_cons(2),
        ] {
            assert_eq!(run(&p, &cfg), reference, "{:?}", cfg.kernel);
        }
        assert_ne!(run(&params(43), &RunConfig::sequential()).2, reference.2);
    }
}
