//! Per-node packet tracing (the equivalent of ns-3's trace sources).
//!
//! Tracing is opt-in per node: enabled nodes record one [`TraceEntry`] per
//! packet event (arrival, transmission start, queue drop) into a bounded
//! local buffer — no shared state, so tracing composes with parallel
//! execution and stays deterministic. [`Trace::collect`] merges the
//! buffers into one global, time-ordered log after the run.

use unison_core::{snapshot_struct, Snapshot, SnapshotWriter, Time, World};

use crate::node::NetNode;
use crate::packet::FlowId;

/// What happened to a packet at a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// Packet arrived from a link.
    Arrive,
    /// Packet started serializing on an egress device.
    TxStart,
    /// Packet was dropped by an egress queue.
    Drop,
}

/// One traced packet event.
#[derive(Clone, Copy, Debug)]
pub struct TraceEntry {
    /// Virtual time of the event.
    pub ts: Time,
    /// Node where it happened.
    pub node: u32,
    /// Device index involved.
    pub dev: u8,
    /// Event kind.
    pub kind: TraceKind,
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Wire bytes.
    pub bytes: u32,
    /// Egress queue backlog (bytes) after the event, when applicable.
    pub backlog: u32,
}

/// A bounded per-node trace buffer.
#[derive(Debug)]
pub struct TraceBuffer {
    entries: Vec<TraceEntry>,
    capacity: usize,
    /// Events not recorded because the buffer was full.
    pub truncated: u64,
}

impl TraceBuffer {
    /// Creates a buffer holding up to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            entries: Vec::new(),
            capacity,
            truncated: 0,
        }
    }

    /// Records one event (drops it when full, counting the truncation).
    #[inline]
    pub fn push(&mut self, entry: TraceEntry) {
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            self.truncated += 1;
        }
    }

    /// Recorded entries in insertion order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }
}

impl Snapshot for TraceKind {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(match self {
            TraceKind::Arrive => 0,
            TraceKind::TxStart => 1,
            TraceKind::Drop => 2,
        });
    }
}

snapshot_struct!(TraceEntry {
    ts,
    node,
    dev,
    kind,
    flow,
    bytes,
    backlog
});

snapshot_struct!(TraceBuffer {
    entries,
    capacity,
    truncated
});

/// A merged global trace.
#[derive(Debug, Default)]
pub struct Trace {
    /// Entries in `(ts, node, kind order)` order.
    pub entries: Vec<TraceEntry>,
    /// Total entries dropped across nodes due to buffer capacity.
    pub truncated: u64,
}

impl Trace {
    /// Merges every enabled node's buffer from a finished world.
    pub fn collect(world: &World<NetNode>) -> Self {
        let mut out = Trace::default();
        for node in world.nodes() {
            if let Some(buf) = &node.trace {
                out.entries.extend_from_slice(buf.entries());
                out.truncated += buf.truncated;
            }
        }
        out.entries
            .sort_by_key(|e| (e.ts, e.node, e.kind as u8, e.flow));
        out
    }

    /// Entries of one flow, in time order.
    pub fn flow(&self, flow: FlowId) -> Vec<TraceEntry> {
        self.entries
            .iter()
            .filter(|e| e.flow == flow)
            .copied()
            .collect()
    }

    /// The per-hop forwarding path of a flow: node ids in first-arrival
    /// order (the source's first TxStart node prepended).
    pub fn path_of(&self, flow: FlowId) -> Vec<u32> {
        let mut path = Vec::new();
        for e in self.entries.iter().filter(|e| e.flow == flow) {
            let relevant = match e.kind {
                TraceKind::TxStart => e.node == flow.src,
                TraceKind::Arrive => true,
                TraceKind::Drop => false,
            };
            if relevant && !path.contains(&e.node) {
                path.push(e.node);
            }
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ts: u64, node: u32, kind: TraceKind) -> TraceEntry {
        TraceEntry {
            ts: Time(ts),
            node,
            dev: 0,
            kind,
            flow: FlowId {
                src: 0,
                dst: 9,
                sport: 1,
                dport: 80,
            },
            bytes: 1500,
            backlog: 0,
        }
    }

    #[test]
    fn buffer_bounds_and_counts_truncation() {
        let mut b = TraceBuffer::new(2);
        b.push(entry(1, 0, TraceKind::TxStart));
        b.push(entry(2, 0, TraceKind::TxStart));
        b.push(entry(3, 0, TraceKind::TxStart));
        assert_eq!(b.entries().len(), 2);
        assert_eq!(b.truncated, 1);
    }

    #[test]
    fn path_reconstruction() {
        let mut t = Trace::default();
        t.entries.push(entry(0, 0, TraceKind::TxStart)); // src
        t.entries.push(entry(5, 3, TraceKind::Arrive)); // switch
        t.entries.push(entry(6, 3, TraceKind::TxStart));
        t.entries.push(entry(9, 9, TraceKind::Arrive)); // dst
        let flow = t.entries[0].flow;
        assert_eq!(t.path_of(flow), vec![0, 3, 9]);
    }
}
