//! Egress queue disciplines: DropTail and RED (with ECN marking).
//!
//! RED follows the classic Floyd/Jacobson algorithm: an EWMA of the queue
//! length drives a probabilistic early drop (or ECN mark). Setting
//! `min_th == max_th == K` with `mark_ecn` and instantaneous averaging
//! (`w_q = 1`) yields the DCTCP step-marking scheme at threshold K.

use std::collections::VecDeque;

use unison_core::{snapshot_struct, Rng, Snapshot, SnapshotWriter, Time};

use crate::packet::Packet;

/// Outcome of an enqueue attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Enqueue {
    /// Packet accepted (it may additionally have been CE-marked).
    Accepted,
    /// Packet dropped.
    Dropped,
}

/// Queue discipline configuration.
#[derive(Clone, Copy, Debug)]
pub enum QueueConfig {
    /// FIFO with a byte capacity.
    DropTail {
        /// Maximum queued bytes.
        limit_bytes: u32,
    },
    /// Random Early Detection.
    Red {
        /// Maximum queued bytes (hard drop above this).
        limit_bytes: u32,
        /// Lower EWMA threshold, bytes.
        min_th: u32,
        /// Upper EWMA threshold, bytes.
        max_th: u32,
        /// Maximum early-drop/mark probability at `max_th`.
        max_p: f64,
        /// EWMA weight in `(0, 1]`; 1.0 = instantaneous queue.
        w_q: f64,
        /// Mark ECN-capable packets instead of dropping them.
        mark_ecn: bool,
    },
}

impl QueueConfig {
    /// The DCTCP step-marking configuration: instantaneous queue, mark at
    /// threshold `k_bytes`.
    pub fn dctcp(limit_bytes: u32, k_bytes: u32) -> Self {
        QueueConfig::Red {
            limit_bytes,
            min_th: k_bytes,
            max_th: k_bytes,
            max_p: 1.0,
            w_q: 1.0,
            mark_ecn: true,
        }
    }

    /// A classic RED queue for TCP (drop-based unless `mark_ecn`).
    pub fn red(limit_bytes: u32, min_th: u32, max_th: u32, mark_ecn: bool) -> Self {
        QueueConfig::Red {
            limit_bytes,
            min_th,
            max_th,
            max_p: 0.1,
            w_q: 0.002,
            mark_ecn,
        }
    }
}

/// The packet capacity a drained queue keeps: a queue that empties with a
/// larger buffer shrinks it to this. A burst's buffer would otherwise stay
/// at its high-water for the rest of the run, and with one queue per
/// device the run's peak memory would be the sum of every queue's burst,
/// not the packets queued at once (DESIGN.md §4.11, §7).
const DRAINED_CAPACITY: usize = 64;

/// A queued packet and the time it was enqueued, which only the queue
/// needs (queue-delay stats): the packet itself carries no per-hop state.
#[derive(Debug)]
struct Queued {
    packet: Packet,
    enqueued_at: Time,
}

// The packet, then the enqueue time: the order golden digests rest on
// (DESIGN.md §4.7).
snapshot_struct!(Queued {
    packet,
    enqueued_at
});

/// An egress FIFO with a configurable drop/mark policy.
#[derive(Debug)]
pub struct Queue {
    config: QueueConfig,
    packets: VecDeque<Queued>,
    bytes: u32,
    /// RED EWMA of the queue length in bytes.
    avg: f64,
    /// Packets since the last early drop/mark (RED's `count`).
    count: u32,
    rng: Rng,
    /// Statistics: total packets dropped.
    pub drops: u64,
    /// Statistics: total packets CE-marked.
    pub marks: u64,
    /// Statistics: total packets accepted.
    pub accepted: u64,
}

impl Queue {
    /// Creates a queue; `seed` makes RED's probabilistic decisions
    /// deterministic per queue.
    pub fn new(config: QueueConfig, seed: u64) -> Self {
        Queue {
            config,
            packets: VecDeque::new(),
            bytes: 0,
            avg: 0.0,
            count: 0,
            rng: Rng::new(seed),
            drops: 0,
            marks: 0,
            accepted: 0,
        }
    }

    /// Queued bytes.
    pub fn bytes(&self) -> u32 {
        self.bytes
    }

    /// Queued packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Attempts to enqueue `packet` at time `now`.
    pub fn enqueue(&mut self, mut packet: Packet, now: Time) -> Enqueue {
        let bytes = packet.bytes();
        match self.config {
            QueueConfig::DropTail { limit_bytes } => {
                if self.bytes + bytes > limit_bytes {
                    self.drops += 1;
                    return Enqueue::Dropped;
                }
            }
            QueueConfig::Red {
                limit_bytes,
                min_th,
                max_th,
                max_p,
                w_q,
                mark_ecn,
            } => {
                if self.bytes + bytes > limit_bytes {
                    self.drops += 1;
                    return Enqueue::Dropped;
                }
                if self.packets.is_empty() {
                    // Idle adjustment (ns-3's "m packets could have left"
                    // estimate, coarse form): the EWMA must decay while the
                    // queue sits empty, or one burst would leave RED in
                    // drop-everything mode long after the queue drained.
                    self.avg *= 0.5;
                }
                self.avg = (1.0 - w_q) * self.avg + w_q * self.bytes as f64;
                let early = if self.avg < min_th as f64 {
                    self.count = 0;
                    false
                } else if self.avg >= 2.0 * max_th as f64 {
                    // Beyond the gentle band RED drops/marks everything.
                    true
                } else if self.avg >= max_th as f64 {
                    // Gentle RED: probability ramps from max_p to 1 between
                    // max_th and 2*max_th.
                    let p =
                        max_p + (1.0 - max_p) * (self.avg - max_th as f64) / max_th.max(1) as f64;
                    self.count = 0;
                    self.rng.next_bool(p.clamp(0.0, 1.0))
                } else {
                    let pb = max_p * (self.avg - min_th as f64)
                        / (max_th as f64 - min_th as f64).max(1.0);
                    let pa = pb / (1.0 - (self.count as f64 * pb).min(0.999));
                    self.count += 1;
                    self.rng.next_bool(pa.clamp(0.0, 1.0))
                };
                if early {
                    self.count = 0;
                    if mark_ecn && packet.ecn_capable {
                        packet.ecn_ce = true;
                        self.marks += 1;
                    } else {
                        self.drops += 1;
                        return Enqueue::Dropped;
                    }
                }
            }
        }
        self.bytes += bytes;
        self.accepted += 1;
        self.packets.push_back(Queued {
            packet,
            enqueued_at: now,
        });
        debug_assert!(
            self.bytes <= self.config.limit_bytes(),
            "queue holds {} bytes above its {}-byte limit",
            self.bytes,
            self.config.limit_bytes()
        );
        Enqueue::Accepted
    }

    /// Dequeues the head packet and the time it was enqueued. Draining the
    /// queue shrinks its buffer to `DRAINED_CAPACITY`: capacity is not
    /// simulation state, so no decision, statistic or snapshot byte depends
    /// on it.
    pub fn dequeue(&mut self) -> Option<(Packet, Time)> {
        // Shrunk while the last packet is still queued, so the popped one
        // goes straight to the caller instead of waiting out the
        // reallocation on the stack.
        if self.packets.len() == 1 && self.packets.capacity() > DRAINED_CAPACITY {
            self.packets.shrink_to(DRAINED_CAPACITY);
        }
        let Queued {
            packet,
            enqueued_at,
        } = self.packets.pop_front()?;
        self.bytes -= packet.bytes();
        debug_assert!(
            self.byte_count_matches_packets(),
            "{} bytes queued in {} packets",
            self.bytes,
            self.packets.len()
        );
        Some((packet, enqueued_at))
    }

    /// The byte count is zero exactly when no packet is queued.
    fn byte_count_matches_packets(&self) -> bool {
        (self.bytes == 0) == self.packets.is_empty()
    }
}

impl QueueConfig {
    /// The hard byte limit, above which every policy drops.
    fn limit_bytes(&self) -> u32 {
        match *self {
            QueueConfig::DropTail { limit_bytes } | QueueConfig::Red { limit_bytes, .. } => {
                limit_bytes
            }
        }
    }
}

impl Snapshot for QueueConfig {
    fn save(&self, w: &mut SnapshotWriter) {
        match *self {
            QueueConfig::DropTail { limit_bytes } => {
                w.u8(0);
                limit_bytes.save(w);
            }
            QueueConfig::Red {
                limit_bytes,
                min_th,
                max_th,
                max_p,
                w_q,
                mark_ecn,
            } => {
                w.u8(1);
                limit_bytes.save(w);
                min_th.save(w);
                max_th.save(w);
                max_p.save(w);
                w_q.save(w);
                mark_ecn.save(w);
            }
        }
    }
}

snapshot_struct!(Queue {
    config,
    packets,
    bytes,
    avg,
    count,
    rng,
    drops,
    marks,
    accepted
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet};
    use crate::snapshot::{digest, digest_of_hex};

    fn pkt(bytes: u32, ecn: bool) -> Packet {
        Packet::data(
            FlowId {
                src: 0,
                dst: 1,
                sport: 1,
                dport: 1,
            },
            0,
            bytes - 52,
            1 << 20,
            false,
            ecn,
            Time::ZERO,
        )
    }

    #[test]
    fn droptail_fifo_order() {
        let mut q = Queue::new(
            QueueConfig::DropTail {
                limit_bytes: 10_000,
            },
            1,
        );
        for i in 0..3 {
            let mut p = pkt(1000, false);
            p.sent_at = Time(i);
            assert_eq!(q.enqueue(p, Time(0)), Enqueue::Accepted);
        }
        assert_eq!(q.bytes(), 3000);
        assert_eq!(q.dequeue().unwrap().0.sent_at, Time(0));
        assert_eq!(q.dequeue().unwrap().0.sent_at, Time(1));
        assert_eq!(q.bytes(), 1000);
    }

    #[test]
    fn droptail_overflow_drops() {
        let mut q = Queue::new(QueueConfig::DropTail { limit_bytes: 2500 }, 1);
        assert_eq!(q.enqueue(pkt(1000, false), Time(0)), Enqueue::Accepted);
        assert_eq!(q.enqueue(pkt(1000, false), Time(0)), Enqueue::Accepted);
        assert_eq!(q.enqueue(pkt(1000, false), Time(0)), Enqueue::Dropped);
        assert_eq!(q.drops, 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn dctcp_marks_above_threshold() {
        let mut q = Queue::new(QueueConfig::dctcp(1_000_000, 3000), 1);
        // Below K: no marks.
        assert_eq!(q.enqueue(pkt(1500, true), Time(0)), Enqueue::Accepted);
        assert_eq!(q.enqueue(pkt(1500, true), Time(0)), Enqueue::Accepted);
        assert_eq!(q.marks, 0);
        // Queue now 3000 >= K: subsequent ECN packets get marked.
        assert_eq!(q.enqueue(pkt(1500, true), Time(0)), Enqueue::Accepted);
        assert_eq!(q.marks, 1);
        let _ = q.dequeue();
        let _ = q.dequeue();
        let (marked, _) = q.dequeue().unwrap();
        assert!(marked.ecn_ce);
    }

    #[test]
    fn dctcp_drops_non_ecn_above_threshold() {
        let mut q = Queue::new(QueueConfig::dctcp(1_000_000, 1000), 1);
        assert_eq!(q.enqueue(pkt(1500, false), Time(0)), Enqueue::Accepted);
        // avg = 1500 >= K, non-ECN packet is dropped instead of marked.
        assert_eq!(q.enqueue(pkt(1500, false), Time(0)), Enqueue::Dropped);
    }

    #[test]
    fn red_early_drops_between_thresholds() {
        let mut q = Queue::new(
            QueueConfig::Red {
                limit_bytes: 1_000_000,
                min_th: 5_000,
                max_th: 15_000,
                max_p: 0.5,
                w_q: 1.0,
                mark_ecn: false,
            },
            42,
        );
        let mut drops = 0;
        for _ in 0..200 {
            if q.enqueue(pkt(1500, false), Time(0)) == Enqueue::Dropped {
                drops += 1;
            }
            if q.bytes() > 10_000 {
                let _ = q.dequeue();
            }
        }
        assert!(drops > 0, "RED should early-drop under sustained load");
        assert!(drops < 200, "RED must not drop everything");
    }

    #[test]
    fn red_queue_never_exceeds_limit() {
        let mut q = Queue::new(QueueConfig::red(10_000, 2_000, 8_000, false), 7);
        for _ in 0..100 {
            let _ = q.enqueue(pkt(1500, false), Time(0));
        }
        assert!(q.bytes() <= 10_000);
    }

    /// A drained queue gives its burst buffer back, and nothing it decides
    /// depends on that: bursts of 1 000 packets through a DCTCP queue
    /// (ECN-capable packets marked, the others dropped above K, every one
    /// dropped at the byte limit) drain to `DRAINED_CAPACITY` slots, and
    /// the dequeued packets and the drop, mark and accepted counts equal
    /// those of a queue whose buffer is held at its high-water.
    #[test]
    fn a_drained_queue_shrinks_and_decides_as_one_that_never_shrinks() {
        let config = QueueConfig::dctcp(600_000, 30_000);
        let mut q = Queue::new(config, 3);
        let mut kept = Queue::new(config, 3);
        let counts = |q: &Queue| (q.drops, q.marks, q.accepted);
        let shown = |p: Option<(Packet, Time)>| format!("{p:?}");
        for burst in 0..3u64 {
            for i in 0..1_000u64 {
                let now = Time(burst * 1_000_000 + i);
                let p = pkt(1500, i % 3 != 0);
                assert_eq!(q.enqueue(p.clone(), now), kept.enqueue(p, now));
                if i % 4 == 0 {
                    assert_eq!(shown(q.dequeue()), shown(kept.dequeue()));
                }
            }
            assert!(
                q.len() > DRAINED_CAPACITY,
                "burst {burst}: {} queued",
                q.len()
            );
            let high_water = kept.packets.capacity();
            while let Some(p) = kept.dequeue() {
                kept.packets.reserve(high_water);
                assert_eq!(shown(q.dequeue()), shown(Some(p)));
            }
            assert!(q.is_empty());
            assert!(q.packets.capacity() <= DRAINED_CAPACITY, "burst {burst}");
            assert!(kept.packets.capacity() >= high_water);
            assert_eq!(counts(&q), counts(&kept), "burst {burst}");
        }
        let (drops, marks, accepted) = counts(&q);
        assert!(drops > 0 && marks > 0 && accepted > 0, "{:?}", counts(&q));
    }

    #[test]
    fn queue_delay_timestamps() {
        let mut q = Queue::new(
            QueueConfig::DropTail {
                limit_bytes: 10_000,
            },
            1,
        );
        assert_eq!(q.enqueue(pkt(1000, false), Time(500)), Enqueue::Accepted);
        assert_eq!(q.dequeue().unwrap().1, Time(500));
    }

    /// A queue holding a CE-marked data segment, an ACK and a RIP
    /// advertisement encodes to the bytes it had when every packet carried
    /// its wire size and enqueue time (commit `af9c50a`): the derived size
    /// is written where the field was, the entry's enqueue time after the
    /// packet.
    #[test]
    fn encoding_is_the_parent_packets() {
        use crate::packet::{PacketKind, RipMsg};
        let flow = FlowId {
            src: 3,
            dst: 9,
            sport: 1_001,
            dport: 80,
        };
        let mut q = Queue::new(QueueConfig::dctcp(100_000, 30_000), 11);
        let mut data = Packet::data(flow, 1_448, 1_448, 10_000, true, true, Time(100));
        data.ecn_ce = true;
        q.enqueue(data, Time(150));
        let ack = Packet::ack(flow, 2_896, true, Time(90), false, Time(200));
        q.enqueue(ack, Time(250));
        let rip = Packet {
            flow: FlowId {
                src: 9,
                dst: 3,
                sport: 520,
                dport: 520,
            },
            kind: PacketKind::Rip(Box::new(RipMsg {
                from: 9,
                routes: vec![(1, 1), (2, 2), (5, 16)],
            })),
            ecn_capable: false,
            ecn_ce: false,
            sent_at: Time(300),
        };
        q.enqueue(rip, Time(320));
        const PARENT: &str = concat!(
            "01a08601003075000030750000000000000000f03f000000000000f03f01030000000000000003000000",
            "09000000e903500000a805000000000000a8050000102700000000000001dc0500000101640000000000",
            "0000960000000000000009000000030000005000e90301500b000000000000015a000000000000000040",
            "0000000000c800000000000000fa000000000000000900000003000000080208020209000000030000",
            "00000000000100000001020000000205000000102c00000000002c010000000000004001000000000000",
            "480600000000000000709840000000009d3080237d64f550a1136b7ad25c2a436d129b6e30be56a3f06d",
            "2e2799622e81000000000000000000000000000000000300000000000000",
        );
        assert_eq!(digest(&q), digest_of_hex(PARENT));
    }
}
