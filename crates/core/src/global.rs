//! Global events and the public LP (§4.2).
//!
//! Global events can affect every LP at once: stopping the simulator,
//! changing the topology, collecting global statistics. They live in the
//! *public LP*, whose next-event timestamp participates in the window bound
//! of Eq. (2): `LBTS = min(N_pub, min_i N_i + lookahead)`. Because the
//! public LP is conceptually connected to every LP with zero delay, a round
//! never extends past the next global event; the kernel executes global
//! events on the main thread with exclusive access to the entire world.

use crate::event::{Event, EventKey};
use crate::event::{LpId, NodeId};
use crate::graph::LinkGraph;
use crate::lp::LpSlots;
use crate::partition::Partition;
use crate::time::Time;
use crate::world::SimNode;

/// A global event body: runs on the main thread with exclusive world access.
pub type GlobalFn<N> = Box<dyn FnOnce(&mut WorldAccess<'_, N>) + Send>;

/// Exclusive, whole-world view handed to global events.
///
/// Topology mutations go through this type so the kernel can recompute the
/// lookahead before the next round (§4.2).
pub struct WorldAccess<'a, N: SimNode> {
    now: Time,
    lps: &'a LpSlots<N>,
    graph: &'a mut LinkGraph,
    partition: &'a mut Partition,
    topology_dirty: &'a mut bool,
    stop: &'a mut bool,
    new_globals: &'a mut Vec<(Time, GlobalFn<N>)>,
    ext_seq: &'a mut u64,
}

impl<'a, N: SimNode> WorldAccess<'a, N> {
    /// Assembles a world view.
    ///
    /// # Safety
    ///
    /// The caller must guarantee exclusive access to every LP in `lps` for
    /// the lifetime of the returned value (i.e. no worker thread is running;
    /// the kernel constructs this only between phase barriers, on the main
    /// thread).
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn new(
        now: Time,
        lps: &'a LpSlots<N>,
        graph: &'a mut LinkGraph,
        partition: &'a mut Partition,
        topology_dirty: &'a mut bool,
        stop: &'a mut bool,
        new_globals: &'a mut Vec<(Time, GlobalFn<N>)>,
        ext_seq: &'a mut u64,
    ) -> Self {
        WorldAccess {
            now,
            lps,
            graph,
            partition,
            topology_dirty,
            stop,
            new_globals,
            ext_seq,
        }
    }

    /// Current virtual time (the timestamp of the executing global event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of nodes in the world.
    pub fn node_count(&self) -> usize {
        self.lps.directory().slot.len()
    }

    /// Mutable access to any node.
    pub fn node_mut(&mut self, node: NodeId) -> &mut N {
        let (lp, local) = self.lps.directory().locate(node);
        // SAFETY: `WorldAccess::new` requires exclusive access to all LPs,
        // and `&mut self` prevents overlapping `node_mut` borrows.
        let state = unsafe { self.lps.get_mut(lp.index()) };
        &mut state.nodes[local as usize]
    }

    /// Runs `f` for every node in a deterministic order.
    pub fn for_each_node(&mut self, mut f: impl FnMut(NodeId, &mut N)) {
        for i in 0..self.node_count() {
            let id = NodeId(i as u32);
            f(id, self.node_mut(id));
        }
    }

    /// Schedules an event to any node at absolute time `ts >= now`.
    ///
    /// Because global events run while every LP is quiescent at a window
    /// boundary, direct FEL insertion is safe and deterministic (the kernel
    /// assigns keys from a dedicated monotone sequence).
    pub fn schedule(&mut self, ts: Time, target: NodeId, payload: N::Payload) {
        assert!(ts >= self.now, "cannot schedule into the past");
        let key = EventKey::new(ts, self.now, LpId::EXTERNAL, *self.ext_seq);
        *self.ext_seq += 1;
        let (lp, _) = self.lps.directory().locate(target);
        // SAFETY: exclusive access per `WorldAccess::new` contract.
        let state = unsafe { self.lps.get_mut(lp.index()) };
        state.push(Event {
            key,
            node: target,
            payload,
        });
    }

    /// Schedules another global event at absolute time `ts >= now`.
    pub fn schedule_global(&mut self, ts: Time, f: GlobalFn<N>) {
        assert!(ts >= self.now, "cannot schedule into the past");
        self.new_globals.push((ts, f));
    }

    /// Stops the simulation after this global event completes.
    pub fn stop(&mut self) {
        *self.stop = true;
    }

    /// Changes the propagation delay of a link (by stable link id) and marks
    /// the lookahead for recomputation.
    pub fn set_link_delay(&mut self, link: usize, delay: Time) {
        self.graph.set_delay(link, delay);
        *self.topology_dirty = true;
    }

    /// Tears a link down. The model must stop sending across it itself; the
    /// kernel only updates lookahead bookkeeping.
    pub fn remove_link(&mut self, link: usize) {
        self.graph.remove_link(link);
        *self.topology_dirty = true;
    }

    /// Restores a previously removed link.
    pub fn restore_link(&mut self, link: usize) {
        self.graph.restore_link(link);
        *self.topology_dirty = true;
    }

    /// The current lookahead value.
    pub fn lookahead(&self) -> Time {
        self.partition.lookahead
    }

    /// The partition (read-only; the LP structure is fixed for the run).
    pub fn partition(&self) -> &Partition {
        self.partition
    }
}
