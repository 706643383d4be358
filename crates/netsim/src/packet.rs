//! Packets and headers.
//!
//! Packets are metadata-only (no payload bytes are materialized), as is
//! standard for performance-oriented packet-level simulation: a packet
//! carries its flow identity, a TCP-like header variant, its send time and
//! ECN state. Its wire size follows from its kind ([`Packet::bytes`]), and
//! it carries no per-hop state: the queue a packet waits in keeps its
//! enqueue time (DESIGN.md §4.11). 48 bytes, so an in-flight
//! `Event<NetEvent>` is 88.

use unison_core::{snapshot_struct, Snapshot, SnapshotWriter, Time};

/// Flow identity: a 4-tuple over node ids and ports.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FlowId {
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Source port (unique per flow at the source).
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
}

/// Maximum TCP payload bytes per segment.
pub const MSS: u32 = 1448;
/// Header overhead per segment (Ethernet + IP + TCP).
pub const HEADER_BYTES: u32 = 52;
/// Wire size of a pure ACK.
pub const ACK_BYTES: u32 = 64;
/// Wire size of a RIP advertisement with no routes.
const RIP_HEADER_BYTES: u32 = 32;
/// Wire bytes each route adds to a RIP advertisement.
const RIP_ROUTE_BYTES: u32 = 4;

/// Transport-level content of a packet.
#[derive(Clone, Debug)]
pub enum PacketKind {
    /// A TCP data segment `[seq, seq + len)` of a flow totalling `size`
    /// bytes (carried so receivers can detect completion statelessly).
    Data {
        /// First payload byte number.
        seq: u64,
        /// Payload length.
        len: u32,
        /// Total flow size in bytes.
        size: u64,
        /// Set on retransmissions (Karn's rule: no RTT sample).
        retx: bool,
    },
    /// A cumulative ACK.
    Ack {
        /// Next expected byte.
        ack: u64,
        /// ECN echo: the data packet that triggered this ACK carried a CE
        /// mark.
        ece: bool,
        /// Echoed send timestamp of the triggering data packet.
        echo_ts: Time,
        /// Echoed retransmission flag of the triggering data packet.
        echo_retx: bool,
    },
    /// A RIP distance-vector advertisement.
    Rip(Box<RipMsg>),
}

/// A RIP advertisement: `(destination node, metric)` pairs.
#[derive(Clone, Debug)]
pub struct RipMsg {
    /// Advertising node.
    pub from: u32,
    /// Route entries.
    pub routes: Vec<(u32, u8)>,
}

/// A simulated packet.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Flow identity.
    pub flow: FlowId,
    /// Transport content.
    pub kind: PacketKind,
    /// ECN-capable transport (ECT set).
    pub ecn_capable: bool,
    /// Congestion-experienced mark.
    pub ecn_ce: bool,
    /// Time the packet left its source's transport layer.
    pub sent_at: Time,
}

impl Packet {
    /// Builds a data segment for `flow`.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        flow: FlowId,
        seq: u64,
        len: u32,
        size: u64,
        retx: bool,
        ecn_capable: bool,
        now: Time,
    ) -> Self {
        Packet {
            flow,
            kind: PacketKind::Data {
                seq,
                len,
                size,
                retx,
            },
            ecn_capable,
            ecn_ce: false,
            sent_at: now,
        }
    }

    /// Builds an ACK for the reverse direction of `flow`.
    pub fn ack(
        flow: FlowId,
        ack: u64,
        ece: bool,
        echo_ts: Time,
        echo_retx: bool,
        now: Time,
    ) -> Self {
        Packet {
            flow: FlowId {
                src: flow.dst,
                dst: flow.src,
                sport: flow.dport,
                dport: flow.sport,
            },
            kind: PacketKind::Ack {
                ack,
                ece,
                echo_ts,
                echo_retx,
            },
            ecn_capable: false,
            ecn_ce: false,
            sent_at: now,
        }
    }

    /// Bytes on the wire, headers included: a data segment is its payload plus [`HEADER_BYTES`], an ACK [`ACK_BYTES`], a RIP
    /// advertisement 32 bytes plus 4 per route.
    #[inline]
    pub fn bytes(&self) -> u32 {
        match &self.kind {
            PacketKind::Data { len, .. } => len + HEADER_BYTES,
            PacketKind::Ack { .. } => ACK_BYTES,
            PacketKind::Rip(msg) => RIP_HEADER_BYTES + RIP_ROUTE_BYTES * msg.routes.len() as u32,
        }
    }

    /// Deterministic per-flow hash used for ECMP path selection.
    pub fn ecmp_hash(&self, salt: u32) -> u64 {
        let f = &self.flow;
        let mut h = (f.src as u64) << 32 | f.dst as u64;
        h ^= ((f.sport as u64) << 16 | f.dport as u64) << 13;
        h ^= (salt as u64) << 47;
        // SplitMix-style finalizer.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }
}

snapshot_struct!(FlowId {
    src,
    dst,
    sport,
    dport
});

snapshot_struct!(RipMsg { from, routes });

impl Snapshot for PacketKind {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            PacketKind::Data {
                seq,
                len,
                size,
                retx,
            } => {
                w.u8(0);
                seq.save(w);
                len.save(w);
                size.save(w);
                retx.save(w);
            }
            PacketKind::Ack {
                ack,
                ece,
                echo_ts,
                echo_retx,
            } => {
                w.u8(1);
                ack.save(w);
                ece.save(w);
                echo_ts.save(w);
                echo_retx.save(w);
            }
            PacketKind::Rip(msg) => {
                w.u8(2);
                msg.save(w);
            }
        }
    }
}

impl Snapshot for Packet {
    /// Writes the derived wire size between the kind and the ECN flags, the
    /// order golden digests rest on (DESIGN.md §4.7); a queue writes the
    /// packet's enqueue time after it.
    fn save(&self, w: &mut SnapshotWriter) {
        let Packet {
            flow,
            kind,
            ecn_capable,
            ecn_ce,
            sent_at,
        } = self;
        flow.save(w);
        kind.save(w);
        self.bytes().save(w);
        ecn_capable.save(w);
        ecn_ce.save(w);
        sent_at.save(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowId {
        FlowId {
            src: 1,
            dst: 2,
            sport: 100,
            dport: 200,
        }
    }

    #[test]
    fn data_wire_size_includes_header() {
        let p = Packet::data(flow(), 0, MSS, 10_000, false, true, Time::ZERO);
        assert_eq!(p.bytes(), 1500);
    }

    #[test]
    fn ack_reverses_flow() {
        let p = Packet::ack(flow(), 1448, false, Time(5), false, Time(9));
        assert_eq!(p.flow.src, 2);
        assert_eq!(p.flow.dst, 1);
        assert_eq!(p.flow.sport, 200);
        assert_eq!(p.flow.dport, 100);
        assert_eq!(p.bytes(), ACK_BYTES);
    }

    #[test]
    fn wire_size_follows_the_kind() {
        let rip = |routes: usize| Packet {
            flow: flow(),
            kind: PacketKind::Rip(Box::new(RipMsg {
                from: 1,
                routes: vec![(0, 1); routes],
            })),
            ecn_capable: false,
            ecn_ce: false,
            sent_at: Time::ZERO,
        };
        assert_eq!(rip(0).bytes(), 32);
        assert_eq!(rip(3).bytes(), 44);
    }

    #[test]
    fn ecmp_hash_is_flow_stable_and_salt_sensitive() {
        let a = Packet::data(flow(), 0, 100, 1_000, false, false, Time::ZERO);
        let b = Packet::data(flow(), 5000, 100, 1_000, false, false, Time(99));
        assert_eq!(a.ecmp_hash(7), b.ecmp_hash(7));
        assert_ne!(a.ecmp_hash(7), a.ecmp_hash(8));
    }
}
