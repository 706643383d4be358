//! The simulation world and the model interface.
//!
//! A *model* (e.g. the network stack in `unison-netsim`) implements
//! [`SimNode`] for its node type and describes the topology to the kernel
//! through a [`WorldBuilder`]: nodes, stateless links (with delays, for
//! partitioning and lookahead), initial events and global events. The kernel
//! choice is entirely orthogonal — the same [`World`] runs unmodified on the
//! sequential kernel, the PDES baselines, or Unison. This is the paper's
//! *user transparency*: zero model changes to go parallel.

use crate::event::{Event, EventKey, LpId, NodeId};
use crate::global::GlobalFn;
use crate::graph::LinkGraph;
use crate::time::Time;

/// A simulated node: the unit of state exclusively owned by one LP.
///
/// Handlers receive events addressed to this node and react by mutating
/// their own state and scheduling further events through the [`SimCtx`].
/// All interaction between nodes goes through events — handlers never touch
/// other nodes directly — which is what makes the partitioned execution
/// sound.
pub trait SimNode: Send + Sized + 'static {
    /// The message type carried by events.
    type Payload: Send + 'static;

    /// Handles one event addressed to this node at virtual time `ctx.now()`.
    fn handle(&mut self, payload: Self::Payload, ctx: &mut dyn SimCtx<Self>);
}

/// Scheduling interface handed to [`SimNode::handle`].
///
/// The same interface is implemented by every kernel; models cannot tell
/// whether they run sequentially or in parallel.
pub trait SimCtx<N: SimNode> {
    /// Current virtual time.
    fn now(&self) -> Time;

    /// The node whose handler is currently executing.
    fn self_node(&self) -> NodeId;

    /// Schedules `payload` for `target` at `now() + delay`.
    ///
    /// When `target` lives in another LP, `delay` must be at least the
    /// partition lookahead (guaranteed by construction for packet events,
    /// whose delay includes the cut link's propagation delay); this is
    /// checked with a debug assertion.
    fn schedule(&mut self, delay: Time, target: NodeId, payload: N::Payload);

    /// Schedules a *global event*: a function that may inspect and mutate
    /// the entire world (topology changes, global statistics, progress
    /// reporting). Runs on the public LP at `now() + delay`.
    ///
    /// This is also the one deterministic way to end a run early: a global
    /// event that calls [`WorldAccess::stop`](crate::global::WorldAccess::stop)
    /// stops every kernel at the same virtual time. A node handler has no
    /// stop call of its own — its effect would depend on how far the other
    /// LPs had got.
    fn schedule_global(&mut self, delay: Time, f: GlobalFn<N>);
}

/// Convenience extension methods for [`SimCtx`] users.
pub trait SimCtxExt<N: SimNode>: SimCtx<N> {
    /// Schedules an event for the executing node itself.
    fn schedule_self(&mut self, delay: Time, payload: N::Payload) {
        let me = self.self_node();
        self.schedule(delay, me, payload);
    }
}

impl<N: SimNode, C: SimCtx<N> + ?Sized> SimCtxExt<N> for C {}

/// A pre-run global event (scheduled from the builder).
pub(crate) struct InitGlobal<N: SimNode> {
    pub ts: Time,
    pub f: GlobalFn<N>,
}

/// The complete description of one simulation run: nodes, links, initial
/// events and the stop time. Built by [`WorldBuilder`], consumed by a
/// kernel, and returned (with final node state) when the run completes.
pub struct World<N: SimNode> {
    pub(crate) nodes: Vec<N>,
    pub(crate) graph: LinkGraph,
    pub(crate) init_events: Vec<Event<N::Payload>>,
    pub(crate) init_globals: Vec<InitGlobal<N>>,
    pub(crate) stop_at: Option<Time>,
}

impl<N: SimNode> World<N> {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node (e.g. to read statistics after a run).
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node (only meaningful before or after a run).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// The stateless link graph (used for partitioning and lookahead).
    pub fn graph(&self) -> &LinkGraph {
        &self.graph
    }

    /// The configured stop time, if any.
    pub fn stop_at(&self) -> Option<Time> {
        self.stop_at
    }

    /// Appends a global event to a built world (harnesses inject topology
    /// changes this way after `NetworkBuilder`-style builders finish).
    pub fn add_global_event(&mut self, ts: Time, f: GlobalFn<N>) {
        self.init_globals.push(InitGlobal { ts, f });
    }
}

/// Builder for a [`World`].
///
/// # Examples
///
/// ```
/// use unison_core::{NodeId, SimCtx, SimNode, Time, WorldBuilder};
///
/// struct Counter {
///     hits: u64,
/// }
///
/// impl SimNode for Counter {
///     type Payload = ();
///     fn handle(&mut self, _p: (), _ctx: &mut dyn SimCtx<Self>) {
///         self.hits += 1;
///     }
/// }
///
/// let mut b = WorldBuilder::new();
/// let n0 = b.add_node(Counter { hits: 0 });
/// b.schedule(Time::from_micros(1), n0, ());
/// let world = b.stop_at(Time::from_millis(1)).build();
/// assert_eq!(world.node_count(), 1);
/// ```
pub struct WorldBuilder<N: SimNode> {
    nodes: Vec<N>,
    graph: LinkGraph,
    init_events: Vec<Event<N::Payload>>,
    init_globals: Vec<InitGlobal<N>>,
    stop_at: Option<Time>,
    ext_seq: u64,
}

impl<N: SimNode> Default for WorldBuilder<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: SimNode> WorldBuilder<N> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        WorldBuilder {
            nodes: Vec::new(),
            graph: LinkGraph::new(0),
            init_events: Vec::new(),
            init_globals: Vec::new(),
            stop_at: None,
            ext_seq: 0,
        }
    }

    /// Adds a node and returns its id (dense, insertion order).
    pub fn add_node(&mut self, node: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.graph.ensure_nodes(self.nodes.len());
        id
    }

    /// Declares a stateless link between `a` and `b` with propagation
    /// `delay`, returning its stable link id. The kernel uses links only for
    /// partitioning and lookahead; the model is responsible for actually
    /// moving packets (with at least this delay across the link).
    pub fn add_link(&mut self, a: NodeId, b: NodeId, delay: Time) -> usize {
        self.graph.add_link(a, b, delay)
    }

    /// Schedules an initial event at absolute time `ts`.
    pub fn schedule(&mut self, ts: Time, target: NodeId, payload: N::Payload) {
        let key = EventKey::external(ts, self.ext_seq);
        self.ext_seq += 1;
        self.init_events.push(Event {
            key,
            node: target,
            payload,
        });
    }

    /// Schedules an initial global event at absolute time `ts`.
    pub fn schedule_global(&mut self, ts: Time, f: GlobalFn<N>) {
        self.init_globals.push(InitGlobal { ts, f });
    }

    /// Sets the stop time. Events with timestamps `>= ts` are not executed.
    pub fn stop_at(&mut self, ts: Time) -> &mut Self {
        self.stop_at = Some(ts);
        self
    }

    /// Finalizes the world.
    pub fn build(&mut self) -> World<N> {
        World {
            nodes: std::mem::take(&mut self.nodes),
            graph: std::mem::take(&mut self.graph),
            init_events: std::mem::take(&mut self.init_events),
            init_globals: std::mem::take(&mut self.init_globals),
            stop_at: self.stop_at,
        }
    }
}

/// Identifier kept by [`LpId`] bookkeeping: maps every node to its LP and
/// local slot. Computed once per run from the partition.
#[derive(Clone, Debug)]
pub struct NodeDirectory {
    /// `(lp, local index)` per node.
    pub slot: Vec<(LpId, u32)>,
}

impl NodeDirectory {
    /// Builds the directory from a partition's `lp_nodes` lists.
    pub fn from_lp_nodes(node_count: usize, lp_nodes: &[Vec<NodeId>]) -> Self {
        let mut slot = vec![(LpId(u32::MAX), 0u32); node_count];
        for (lp, nodes) in lp_nodes.iter().enumerate() {
            for (local, node) in nodes.iter().enumerate() {
                slot[node.index()] = (LpId(lp as u32), local as u32);
            }
        }
        debug_assert!(slot.iter().all(|(lp, _)| *lp != LpId(u32::MAX)));
        NodeDirectory { slot }
    }

    /// LP owning `node`.
    #[inline]
    pub fn lp_of(&self, node: NodeId) -> LpId {
        self.slot[node.index()].0
    }

    /// `(lp, local index)` of `node`.
    #[inline]
    pub fn locate(&self, node: NodeId) -> (LpId, u32) {
        self.slot[node.index()]
    }
}
