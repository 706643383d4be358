//! Global events and the public LP (§4.2).
//!
//! Global events can affect every LP at once: stopping the simulator,
//! changing the topology, collecting global statistics. They live in the
//! *public LP*, whose next-event timestamp participates in the window bound
//! of Eq. (2): `LBTS = min(N_pub, min_i N_i + lookahead)`. Because the
//! public LP is conceptually connected to every LP with zero delay, a round
//! never extends past the next global event; the kernel executes global
//! events on the main thread with exclusive access to the entire world.

use crate::checkpoint::{self, Snapshot, SnapshotError};
use crate::event::{Event, EventKey};
use crate::event::{LpId, NodeId};
use crate::graph::LinkGraph;
use crate::lp::{LpSlots, LpState};
use crate::partition::Partition;
use crate::time::Time;
use crate::world::SimNode;

/// A global event body: runs on the main thread with exclusive world access.
pub type GlobalFn<N> = Box<dyn FnOnce(&mut WorldAccess<'_, N>) + Send>;

/// Kernel facilities a checkpoint needs beyond the LP slots (whose
/// outboxes carry the round kernels' in-flight events) and the configured
/// stop time. Provided by kernels whose global events run with
/// full world access (Unison).
pub(crate) struct CkptEnv<'a> {
    pub stop_at: Option<Time>,
    /// The round-progress watchdog, paused for the duration of the write:
    /// checkpoint serialization runs in-round on the main thread with wall
    /// cost proportional to state size (and disk speed), which the deadline
    /// must not count as a stall (DESIGN.md §4.7).
    pub wd: &'a crate::kernel::watchdog::Watchdog,
}

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
    ckpt: Option<&'a CkptEnv<'a>>,
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
        ckpt: Option<&'a CkptEnv<'a>>,
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
            ckpt,
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
        let key = EventKey {
            ts,
            sender_ts: self.now,
            sender_lp: LpId::EXTERNAL,
            seq: *self.ext_seq,
        };
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

    /// Writes a deterministic checkpoint of the entire simulation state to
    /// `path` (see [`crate::checkpoint`]).
    ///
    /// In-flight cross-LP events are first drained into their destination
    /// FELs — safe at any point of the global phase because FEL ordering is
    /// purely key-driven, so early delivery cannot change results. Only
    /// kernels that provide full world access to globals support this
    /// (Unison); elsewhere it returns [`SnapshotError::Unsupported`].
    pub fn write_checkpoint(&mut self, path: &std::path::Path) -> Result<(), SnapshotError>
    where
        N: Snapshot,
        N::Payload: Snapshot,
    {
        let env = match self.ckpt {
            Some(env) => env,
            None => {
                return Err(SnapshotError::Unsupported(
                    "this kernel does not expose checkpoint state; \
                     checkpoints require the Unison kernel"
                        .into(),
                ))
            }
        };
        // Serialization + disk write can exceed any reasonable round
        // deadline; suspend the watchdog until the write resolves. Every
        // return path below must go through `unpause`.
        env.wd.pause();
        let lp_count = self.lps.len();
        // SAFETY: `WorldAccess::new` guarantees main-thread exclusivity
        // over every LP slot, and every worker is parked behind a barrier
        // that follows its last send.
        unsafe { self.lps.receive_all() };

        let dir = self.lps.directory();
        let node_count = dir.slot.len();
        let mut assignment = vec![0u32; node_count];
        for (i, (lp, _)) in dir.slot.iter().enumerate() {
            assignment[i] = lp.0;
        }

        let mut lp_seqs = Vec::with_capacity(lp_count);
        let mut events: Vec<&Event<N::Payload>> = Vec::new();
        let mut node_refs: Vec<Option<&N>> = (0..node_count).map(|_| None).collect();
        for i in 0..lp_count {
            // SAFETY: main-thread exclusivity as above; the `&mut` is
            // immediately reborrowed immutably, and each iteration touches a
            // distinct slot, so the collected references never alias.
            let lp: &LpState<N> = unsafe { self.lps.get_mut(i) };
            lp_seqs.push(lp.seq);
            events.extend(lp.fel.iter());
            for (local, node) in lp.nodes.iter().enumerate() {
                let id = self.partition.lp_nodes[i][local];
                node_refs[id.index()] = Some(node);
            }
        }
        events.sort_unstable_by_key(|e| e.key);
        let nodes: Vec<&N> = node_refs
            .into_iter()
            // INVARIANT: every node id is owned by exactly one LP (directory
            // construction), so the loop above filled each entry.
            .map(|n| n.expect("every node captured"))
            .collect();

        let img = checkpoint::StateImage::<N> {
            time: self.now,
            stop_at: env.stop_at,
            ext_seq: *self.ext_seq,
            assignment,
            graph: self.graph,
            lp_seqs,
            events,
            nodes,
        };
        let bytes = checkpoint::encode_state(&img);
        let written = std::fs::write(path, bytes);
        env.wd.unpause();
        written?;
        Ok(())
    }
}
