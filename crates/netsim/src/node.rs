//! The network node: devices, forwarding, transport glue and timers.
//!
//! `NetNode` implements [`SimNode`]; all node interaction happens through
//! [`NetEvent`]s, which keeps the model runnable unmodified on every kernel
//! (the paper's user-transparency property).

use unison_core::{
    snapshot_struct, NodeId, SimCtx, SimCtxExt, SimNode, Snapshot, SnapshotWriter, Time,
};
use unison_stats::Summary;

use crate::packet::{FlowId, Packet, PacketKind, RipMsg};
use crate::queue::Queue;
use crate::route::Routing;
use crate::snapshot::{save_map, save_summary, FlowMap};
use crate::tcp::{TcpConfig, TcpReceiver, TcpSender};

/// Delay before a RIP triggered update is sent (batches rapid changes).
const RIP_TRIGGER_DELAY: Time = Time::from_micros(200);
/// RIP/UDP port used for advertisement packets.
const RIP_PORT: u16 = 520;
/// Source ports of locally started flows cycle through `FIRST_SPORT..=u16::MAX`.
const FIRST_SPORT: u16 = 1_000;

/// Events delivered to a [`NetNode`].
#[derive(Debug)]
pub enum NetEvent {
    /// A packet finished propagating and arrives on device `dev`.
    Arrive {
        /// Ingress device index.
        dev: u8,
        /// The packet.
        packet: Packet,
    },
    /// Device `dev` finished serializing its current packet.
    TxDone {
        /// Egress device index.
        dev: u8,
    },
    /// Application: open a TCP flow of `bytes` towards `dst`.
    FlowStart {
        /// Destination node.
        dst: u32,
        /// Flow size in bytes.
        bytes: u64,
    },
    /// Retransmission-timer event for `flow` (lazy single-timer scheme).
    Rto {
        /// Forward flow id.
        flow: FlowId,
    },
    /// RIP periodic advertisement timer.
    RipTick,
    /// RIP triggered-update timer.
    RipTriggered,
}

/// One attachment point (NIC port) of a node.
#[derive(Debug)]
pub struct Device {
    /// Peer node.
    pub peer: NodeId,
    /// Device index on the peer where our packets arrive.
    pub peer_dev: u8,
    /// Link bandwidth.
    pub rate: unison_core::DataRate,
    /// Link propagation delay.
    pub delay: Time,
    /// Egress queue.
    pub queue: Queue,
    /// A packet is currently being serialized.
    pub busy: bool,
    /// Administrative state.
    pub up: bool,
    /// Stable link id in the kernel's [`LinkGraph`](unison_core::LinkGraph).
    pub link_id: usize,
}

/// Active deterministic loss burst on a node, installed and removed by the
/// [`reconfig::install_faults`](crate::reconfig::install_faults) window
/// globals: while present, every `period`-th packet the node routes is
/// dropped. A plain counter — no randomness — so the exact same packets
/// are lost at every thread count and on every rerun.
#[derive(Debug, Clone, Copy)]
pub struct LossState {
    /// Drop every `period`-th routed packet.
    pub period: u64,
    /// Packets routed since the burst began.
    pub counter: u64,
}

snapshot_struct!(LossState { period, counter });

/// Per-node measurement shard (merged globally by
/// [`FlowReport`](crate::flowmon::FlowReport)).
#[derive(Debug, Default)]
pub struct NodeMonitor {
    /// RTT samples observed by local senders, nanoseconds.
    pub rtt_ns: Summary,
    /// Queuing delay of packets dequeued from local devices, nanoseconds.
    pub queue_delay_ns: Summary,
    /// Packets dropped for lack of a route (or a downed egress).
    pub routing_drops: u64,
    /// Packets dropped by an injected loss burst ([`LossState`]).
    pub burst_drops: u64,
    /// Retransmission timeouts fired.
    pub rto_fires: u64,
    /// Flows originated here.
    pub flows_started: u64,
    /// Packets this node routed (originated or forwarded).
    pub forwarded: u64,
}

/// A simulated host or switch.
pub struct NetNode {
    /// Node id.
    pub id: NodeId,
    /// Whether this node terminates traffic.
    pub is_host: bool,
    /// Attached devices.
    pub devices: Vec<Device>,
    /// Routing state.
    pub routing: Routing,
    /// Transport configuration for locally originated flows.
    pub tcp_cfg: TcpConfig,
    /// Active and completed senders, keyed by forward flow id.
    pub senders: FlowMap<TcpSender>,
    /// Active and completed receivers, keyed by forward flow id.
    pub receivers: FlowMap<TcpReceiver>,
    /// Injected loss burst, when one is active ([`LossState`]).
    pub loss: Option<LossState>,
    /// Measurement shard.
    pub mon: NodeMonitor,
    next_sport: u16,
    /// Reusable packet buffer for transport output.
    out_buf: Vec<Packet>,
}

impl NetNode {
    /// Creates a node with no devices (the builder attaches them).
    pub fn new(id: NodeId, is_host: bool, routing: Routing, tcp_cfg: TcpConfig) -> Self {
        NetNode {
            id,
            is_host,
            devices: Vec::new(),
            routing,
            tcp_cfg,
            senders: FlowMap::default(),
            receivers: FlowMap::default(),
            loss: None,
            mon: NodeMonitor::default(),
            next_sport: FIRST_SPORT,
            out_buf: Vec::new(),
        }
    }

    /// Starts serializing `packet` on device `dev_idx` (the device must be
    /// idle) and schedules both the TxDone and the remote arrival.
    fn transmit(&mut self, dev_idx: usize, packet: Packet, ctx: &mut dyn SimCtx<Self>) {
        let dev = &mut self.devices[dev_idx];
        let tx = dev.rate.tx_time(packet.bytes());
        if tx == Time::MAX {
            // Zero-rate link: black-hole the packet.
            self.mon.routing_drops += 1;
            return;
        }
        dev.busy = true;
        let peer = dev.peer;
        let peer_dev = dev.peer_dev;
        let arrival = tx + dev.delay;
        ctx.schedule_self(tx, NetEvent::TxDone { dev: dev_idx as u8 });
        ctx.schedule(
            arrival,
            peer,
            NetEvent::Arrive {
                dev: peer_dev,
                packet,
            },
        );
    }

    /// Sends `packet` out of device `dev_idx`, queueing when busy.
    fn send_on(&mut self, dev_idx: usize, packet: Packet, ctx: &mut dyn SimCtx<Self>) {
        let now = ctx.now();
        let dev = &mut self.devices[dev_idx];
        if !dev.up {
            self.mon.routing_drops += 1;
            return;
        }
        if dev.busy {
            // Drops and marks are counted by the queue itself.
            let _ = dev.queue.enqueue(packet, now);
        } else {
            self.transmit(dev_idx, packet, ctx);
        }
    }

    /// Routes `packet` towards its destination and sends it.
    fn route_and_send(&mut self, packet: Packet, ctx: &mut dyn SimCtx<Self>) {
        if let Some(loss) = &mut self.loss {
            loss.counter += 1;
            if loss.counter % loss.period == 0 {
                self.mon.burst_drops += 1;
                return;
            }
        }
        let mut buf = [0u8; 16];
        let n = self.routing.lookup(packet.flow.dst, &mut buf);
        if n == 0 {
            self.mon.routing_drops += 1;
            return;
        }
        // One candidate (every RIP hop, every downward fat-tree hop) needs
        // no hash: the pick is 0 either way.
        let pick = if n == 1 {
            0
        } else {
            (packet.ecmp_hash(self.id.0) % n as u64) as usize
        };
        self.mon.forwarded += 1;
        self.send_on(buf[pick] as usize, packet, ctx);
    }

    /// Flushes the transport output buffer through routing.
    fn flush_out(&mut self, ctx: &mut dyn SimCtx<Self>) {
        let mut out = std::mem::take(&mut self.out_buf);
        for p in out.drain(..) {
            self.route_and_send(p, ctx);
        }
        // Nothing repopulates the buffer while it is detached
        // (`route_and_send` never touches it), so the swap-back is lossless.
        debug_assert!(self.out_buf.is_empty());
        self.out_buf = out;
    }

    /// Ensures an RTO timer event will fire no later than the deadline
    /// already stored in the sender.
    ///
    /// Lazy timer scheme with one twist: RTO estimates can *shrink* — the
    /// first RTT sample replaces the conservative initial RTO, and a
    /// post-backoff sample undoes the doubling — moving the deadline
    /// earlier than the outstanding event. A scheme that never schedules
    /// while `timer_pending` is set would then leave the only physical
    /// event far in the future and the timeout would silently never fire.
    /// Instead, schedule an additional earlier event and track its fire
    /// time in `timer_at`; the superseded later event is ignored when it
    /// arrives (see [`Self::on_rto_timer`]).
    fn arm_timer(&mut self, flow: FlowId, ctx: &mut dyn SimCtx<Self>) {
        let now = ctx.now();
        if let Some(s) = self.senders.get_mut(&flow) {
            if s.completed_at.is_some() {
                return;
            }
            let delay = s.rto_deadline.saturating_sub(now).max(Time(1));
            let fire_at = now + delay;
            if !s.timer_pending || fire_at < s.timer_at {
                s.timer_pending = true;
                s.timer_at = fire_at;
                ctx.schedule_self(delay, NetEvent::Rto { flow });
            }
        }
    }

    /// Picks the identity of a new flow to `dst`: the next source port in
    /// the cycle whose flow id this node has not used yet. Finished senders
    /// stay in `senders` as the flow's record, so a port that wrapped round
    /// to one of theirs is passed over like a live one's — reusing it would
    /// replace that sender and hand its in-flight ACKs to the new flow.
    /// `None` when all 64 536 ports to `dst` are taken.
    fn alloc_flow(&mut self, dst: u32) -> Option<FlowId> {
        let mut flow = FlowId {
            src: self.id.0,
            dst,
            sport: self.next_sport,
            dport: 80,
        };
        for _ in FIRST_SPORT..=u16::MAX {
            let after = flow.sport.wrapping_add(1).max(FIRST_SPORT);
            if !self.senders.contains_key(&flow) {
                self.next_sport = after;
                return Some(flow);
            }
            flow.sport = after;
        }
        None
    }

    fn on_flow_start(&mut self, dst: u32, bytes: u64, ctx: &mut dyn SimCtx<Self>) {
        let Some(flow) = self.alloc_flow(dst) else {
            // Refused, not aliased; counted where a packet nobody could
            // carry is counted.
            self.mon.routing_drops += 1;
            return;
        };
        let mut sender = TcpSender::new(flow, bytes, self.tcp_cfg);
        let now = ctx.now();
        let mut out = std::mem::take(&mut self.out_buf);
        let arm = sender.start(now, &mut out);
        self.out_buf = out;
        sender.rto_deadline = now + sender.rto();
        self.senders.insert(flow, sender);
        self.mon.flows_started += 1;
        self.flush_out(ctx);
        if arm {
            self.arm_timer(flow, ctx);
        }
    }

    fn on_data(
        &mut self,
        packet: &Packet,
        seq: u64,
        len: u32,
        size: u64,
        retx: bool,
        ctx: &mut dyn SimCtx<Self>,
    ) {
        let now = ctx.now();
        let flow = packet.flow;
        let rcv = self
            .receivers
            .entry(flow)
            .or_insert_with(|| TcpReceiver::new(flow, size));
        let ack = rcv.on_data(seq, len, packet.ecn_ce, packet.sent_at, retx, now);
        let ack_pkt = Packet::ack(flow, ack.ack, ack.ece, ack.echo_ts, ack.echo_retx, now);
        self.route_and_send(ack_pkt, ctx);
    }

    fn on_ack(
        &mut self,
        packet: &Packet,
        ack: u64,
        ece: bool,
        echo_ts: Time,
        echo_retx: bool,
        ctx: &mut dyn SimCtx<Self>,
    ) {
        // The ACK travels on the reversed flow; recover the forward id.
        let fwd = FlowId {
            src: packet.flow.dst,
            dst: packet.flow.src,
            sport: packet.flow.dport,
            dport: packet.flow.sport,
        };
        let now = ctx.now();
        let Some(sender) = self.senders.get_mut(&fwd) else {
            return;
        };
        let mut out = std::mem::take(&mut self.out_buf);
        let up = sender.on_ack(ack, ece, echo_ts, echo_retx, now, &mut out);
        self.out_buf = out;
        if let Some(rtt) = up.rtt_sample {
            self.mon.rtt_ns.add(rtt.as_nanos() as f64);
        }
        if up.rearm_rto {
            sender.rto_deadline = now + sender.rto();
        }
        let arm = up.rearm_rto;
        self.flush_out(ctx);
        if arm {
            self.arm_timer(fwd, ctx);
        }
    }

    fn on_rto_timer(&mut self, flow: FlowId, ctx: &mut dyn SimCtx<Self>) {
        let now = ctx.now();
        let Some(sender) = self.senders.get_mut(&flow) else {
            return;
        };
        if sender.completed_at.is_some() {
            sender.timer_pending = false;
            return;
        }
        if now < sender.timer_at {
            // A superseded event: the deadline moved earlier after this
            // one was scheduled and a replacement owns the chain.
            return;
        }
        sender.timer_pending = false;
        if now < sender.rto_deadline {
            // The deadline moved forward since this timer was scheduled.
            self.arm_timer(flow, ctx);
            return;
        }
        let gen = sender.rto_gen;
        let mut out = std::mem::take(&mut self.out_buf);
        let fired = sender.on_rto(gen, now, &mut out);
        self.out_buf = out;
        if fired {
            self.mon.rto_fires += 1;
            sender.rto_deadline = now + sender.rto();
            self.flush_out(ctx);
            self.arm_timer(flow, ctx);
        } else if !sender.is_complete() {
            // Nothing in flight yet the flow is incomplete (e.g. the window
            // was empty); keep the timer alive defensively.
            sender.rto_deadline = now + sender.rto();
            self.arm_timer(flow, ctx);
        }
    }

    fn rip_state(&mut self) -> Option<&mut crate::route::RipState> {
        match &mut self.routing {
            Routing::Rip(r) => Some(r),
            Routing::Static(_) => None,
        }
    }

    /// Sends a RIP advertisement on every live device.
    fn rip_advertise(&mut self, ctx: &mut dyn SimCtx<Self>) {
        let now = ctx.now();
        let id = self.id.0;
        let dev_count = self.devices.len();
        for dev_idx in 0..dev_count {
            if !self.devices[dev_idx].up {
                continue;
            }
            let Some(rip) = self.rip_state() else { return };
            let msg = rip.advertisement(id, dev_idx as u8);
            let peer = self.devices[dev_idx].peer;
            let packet = Packet {
                flow: FlowId {
                    src: id,
                    dst: peer.0,
                    sport: RIP_PORT,
                    dport: RIP_PORT,
                },
                kind: PacketKind::Rip(Box::new(msg)),
                ecn_capable: false,
                ecn_ce: false,
                sent_at: now,
            };
            self.send_on(dev_idx, packet, ctx);
        }
    }

    fn on_rip_msg(&mut self, msg: &RipMsg, in_dev: u8, ctx: &mut dyn SimCtx<Self>) {
        let Some(rip) = self.rip_state() else { return };
        let changed = rip.on_advertisement(msg, in_dev);
        if changed && !rip.triggered_pending {
            rip.triggered_pending = true;
            ctx.schedule_self(RIP_TRIGGER_DELAY, NetEvent::RipTriggered);
        }
    }

    /// Marks a device up/down and lets RIP react; used by topology-change
    /// global events.
    pub fn set_device_state(&mut self, dev: u8, up: bool) {
        self.devices[dev as usize].up = up;
        if !up {
            if let Routing::Rip(r) = &mut self.routing {
                if r.on_device_down(dev) {
                    r.triggered_pending = true;
                    // The next periodic tick will flush it; triggered
                    // updates cannot be scheduled from global events
                    // directly, the flag shortens the wait.
                }
            }
        }
    }
}

impl SimNode for NetNode {
    type Payload = NetEvent;

    fn handle(&mut self, payload: NetEvent, ctx: &mut dyn SimCtx<Self>) {
        match payload {
            NetEvent::Arrive { dev, packet } => {
                if packet.flow.dst == self.id.0 {
                    match &packet.kind {
                        &PacketKind::Data {
                            seq,
                            len,
                            size,
                            retx,
                        } => self.on_data(&packet, seq, len, size, retx, ctx),
                        &PacketKind::Ack {
                            ack,
                            ece,
                            echo_ts,
                            echo_retx,
                        } => self.on_ack(&packet, ack, ece, echo_ts, echo_retx, ctx),
                        PacketKind::Rip(msg) => self.on_rip_msg(msg, dev, ctx),
                    }
                } else {
                    self.route_and_send(packet, ctx);
                }
            }
            NetEvent::TxDone { dev } => {
                let now = ctx.now();
                let d = &mut self.devices[dev as usize];
                d.busy = false;
                if let Some((p, enqueued_at)) = d.queue.dequeue() {
                    self.mon
                        .queue_delay_ns
                        .add(now.saturating_sub(enqueued_at).as_nanos() as f64);
                    self.transmit(dev as usize, p, ctx);
                }
            }
            NetEvent::FlowStart { dst, bytes } => self.on_flow_start(dst, bytes, ctx),
            NetEvent::Rto { flow } => self.on_rto_timer(flow, ctx),
            NetEvent::RipTick => {
                self.rip_advertise(ctx);
                if let Some(rip) = self.rip_state() {
                    rip.triggered_pending = false;
                    let interval = rip.update_interval;
                    ctx.schedule_self(interval, NetEvent::RipTick);
                }
            }
            NetEvent::RipTriggered => {
                self.rip_advertise(ctx);
                if let Some(rip) = self.rip_state() {
                    rip.triggered_pending = false;
                }
            }
        }
    }
}

snapshot_struct!(Device {
    peer,
    peer_dev,
    rate,
    delay,
    queue,
    busy,
    up,
    link_id
});

impl Snapshot for NodeMonitor {
    fn save(&self, w: &mut SnapshotWriter) {
        let Self {
            rtt_ns,
            queue_delay_ns,
            routing_drops,
            burst_drops,
            rto_fires,
            flows_started,
            forwarded,
        } = self;
        save_summary(rtt_ns, w);
        save_summary(queue_delay_ns, w);
        routing_drops.save(w);
        burst_drops.save(w);
        rto_fires.save(w);
        flows_started.save(w);
        forwarded.save(w);
    }
}

impl Snapshot for NetNode {
    fn save(&self, w: &mut SnapshotWriter) {
        let Self {
            id,
            is_host,
            devices,
            routing,
            tcp_cfg,
            senders,
            receivers,
            loss,
            mon,
            next_sport,
            out_buf,
        } = self;
        id.save(w);
        is_host.save(w);
        devices.save(w);
        routing.save(w);
        tcp_cfg.save(w);
        // Socket maps are written in sorted flow order — a hash table's
        // iteration order must not leak into the canonical encoding.
        save_map(senders, w);
        save_map(receivers, w);
        // The empty lengths of the deleted UDP On/Off source list and UDP
        // receive map, then the `None` tag of the deleted packet-trace
        // buffer: every golden digest was taken with these bytes, so they
        // stay until the digests re-pin (ROADMAP items 2 and 10(b)).
        0u64.save(w);
        0u64.save(w);
        0u8.save(w);
        loss.save(w);
        mon.save(w);
        next_sport.save(w);
        out_buf.save(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueConfig;
    use crate::route::StaticTable;
    use crate::snapshot::{digest, digest_of_hex};

    #[test]
    fn node_construction() {
        let n = NetNode::new(
            NodeId(3),
            true,
            Routing::Static(StaticTable::default()),
            TcpConfig::newreno(),
        );
        assert!(n.devices.is_empty());
        assert!(n.is_host);
        assert_eq!(n.id, NodeId(3));
    }

    #[test]
    fn device_state_toggles() {
        let mut n = NetNode::new(
            NodeId(0),
            false,
            Routing::Static(StaticTable::default()),
            TcpConfig::newreno(),
        );
        n.devices.push(Device {
            peer: NodeId(1),
            peer_dev: 0,
            rate: unison_core::DataRate::gbps(10),
            delay: Time::from_micros(3),
            queue: Queue::new(
                QueueConfig::DropTail {
                    limit_bytes: 1 << 20,
                },
                1,
            ),
            busy: false,
            up: true,
            link_id: 0,
        });
        n.set_device_state(0, false);
        assert!(!n.devices[0].up);
        n.set_device_state(0, true);
        assert!(n.devices[0].up);
    }

    fn host(id: u32) -> NetNode {
        NetNode::new(
            NodeId(id),
            true,
            Routing::Static(StaticTable::default()),
            TcpConfig::newreno(),
        )
    }

    fn flow(src: u32, dst: u32, sport: u16, dport: u16) -> FlowId {
        FlowId {
            src,
            dst,
            sport,
            dport,
        }
    }

    #[test]
    fn encoding_is_the_parent_maps() {
        // The bytes a node with these sockets, inserted in this (unsorted)
        // order into std's randomly seeded maps, encoded to at commit
        // 59cd9ba; the fixed-hash tables must sort to the same image.
        let mut n = host(2);
        for (f, bytes) in [
            (flow(2, 9, 1_002, 80), 30_000u64),
            (flow(2, 4, 1_000, 80), 1_448),
            (flow(2, 9, 1_001, 80), 70_000),
        ] {
            n.senders.insert(f, TcpSender::new(f, bytes, n.tcp_cfg));
        }
        for (f, size) in [
            (flow(7, 2, 1_000, 80), 5_000u64),
            (flow(3, 2, 1_004, 80), 9_000),
        ] {
            n.receivers.insert(f, TcpReceiver::new(f, size));
        }
        const PARENT: &str = concat!(
            "020000000100000000000000000000000000000000000000000000000000000a00000000c2eb0b0000000000",
            "c2eb0b00000000000000000000b03f0103000000000000000200000004000000e80350000200000004000000",
            "e8035000a805000000000000000a00000000c2eb0b0000000000c2eb0b00000000000000000000b03f010000",
            "00000048cc40000000000000f07f000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000c2eb0b000000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000000000ffffffffffffffff00ffffffffffffffff0000020000000900",
            "0000e90350000200000009000000e90350007011010000000000000a00000000c2eb0b0000000000c2eb0b00",
            "000000000000000000b03f01000000000048cc40000000000000f07f00000000000000000000000000000000",
            "00000000000000000000000000000000000000000000c2eb0b00000000000000000000000000000000000000",
            "000000000000000000000000000000000000000000000000000000000000000000ffffffffffffffff00ffff",
            "ffffffffffff00000200000009000000ea0350000200000009000000ea0350003075000000000000000a0000",
            "0000c2eb0b0000000000c2eb0b00000000000000000000b03f01000000000048cc40000000000000f07f0000",
            "000000000000000000000000000000000000000000000000000000000000000000000000c2eb0b0000000000",
            "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
            "000000ffffffffffffffff00ffffffffffffffff000002000000000000000300000002000000ec0350000300",
            "000002000000ec03500028230000000000000000000000000000000000000000000000000000000000000000",
            "0700000002000000e80350000700000002000000e80350008813000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000001000000000000000500000002000000591b07004006",
            "0000000000000200000000000000030000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000000000000000000000000000e8030000000000000000",
        );
        // Up to commit 6d7d3ef the node also held one UDP receive entry
        // (flow 5 -> 2, ports 7 001 -> 7; 1 600 bytes, 2 packets, max seq 3).
        // Its map of one becomes the empty map's length; the empty On/Off
        // source list before it and the byte the deleted trace buffer's
        // `None` wrote after it are still there.
        const UDP_MAP_OF_ONE: &str = concat!(
            "0100000000000000",
            "0500000002000000591b0700",
            "400600000000000002000000000000000300000000000000",
        );
        assert_eq!(PARENT.matches(UDP_MAP_OF_ONE).count(), 1);
        let expected = PARENT.replacen(UDP_MAP_OF_ONE, "0000000000000000", 1);
        assert_eq!(digest(&n), digest_of_hex(&expected));
    }

    #[test]
    fn flow_allocation_passes_over_ports_in_use() {
        let mut n = host(2);
        let occupy = |n: &mut NetNode, dst, sport| {
            let f = flow(2, dst, sport, 80);
            n.senders.insert(f, TcpSender::new(f, 1, n.tcp_cfg));
        };
        // Normally no probing: consecutive ports, shared by all destinations.
        assert_eq!(n.alloc_flow(9), Some(flow(2, 9, 1_000, 80)));
        assert_eq!(n.alloc_flow(4), Some(flow(2, 4, 1_001, 80)));
        // After a wrap the cycle restarts at 1 000, not 0 ...
        n.next_sport = u16::MAX;
        assert_eq!(n.alloc_flow(9), Some(flow(2, 9, u16::MAX, 80)));
        assert_eq!(n.next_sport, 1_000);
        // ... and passes over ports whose flow to *this* destination exists.
        occupy(&mut n, 9, 1_000);
        occupy(&mut n, 9, 1_001);
        occupy(&mut n, 4, 1_002);
        assert_eq!(n.alloc_flow(9), Some(flow(2, 9, 1_002, 80)));
        assert_eq!(n.next_sport, 1_003);
        // The probe itself wraps.
        n.next_sport = u16::MAX;
        occupy(&mut n, 9, u16::MAX);
        occupy(&mut n, 9, 1_002);
        assert_eq!(n.alloc_flow(9), Some(flow(2, 9, 1_003, 80)));
        // A destination with every port taken is refused; others are not.
        for sport in 1_000..=u16::MAX {
            occupy(&mut n, 9, sport);
        }
        let before = n.next_sport;
        assert_eq!(n.alloc_flow(9), None);
        assert_eq!(n.next_sport, before);
        assert_eq!(n.alloc_flow(4), Some(flow(2, 4, before, 80)));
    }
}
