//! Global flow monitoring.
//!
//! Each node records its local view (sender/receiver socket state plus the
//! `NodeMonitor` shard); [`FlowReport::collect`] merges the shards *after*
//! the run, in deterministic node order. This is the lock-free counterpart
//! of ns-3's FlowMonitor for the Unison execution model: no shared mutable
//! maps during the simulation, yet global per-flow statistics spanning LPs
//! — and bit-identical output regardless of thread count.

use std::time::Duration;

use unison_core::{Time, World};
use unison_stats::{Histogram, Summary};

use crate::node::NetNode;
use crate::packet::FlowId;
use crate::snapshot::FlowMap;

/// Statistics of one flow, assembled from both endpoints.
#[derive(Clone, Debug)]
pub struct FlowStat {
    /// Flow identity.
    pub flow: FlowId,
    /// Flow size in bytes.
    pub bytes: u64,
    /// Time the first segment was sent.
    pub started: Time,
    /// Completion time at the receiver (all bytes in order), if completed.
    pub completed: Option<Time>,
    /// Segments retransmitted by the sender.
    pub retransmits: u64,
}

impl FlowStat {
    /// Flow completion time, if the flow completed.
    pub fn fct(&self) -> Option<Time> {
        self.completed.map(|c| c.saturating_sub(self.started))
    }

    /// Goodput in bits/sec, if the flow completed.
    pub fn throughput_bps(&self) -> Option<f64> {
        let fct = self.fct()?;
        if fct == Time::ZERO {
            return None;
        }
        Some(self.bytes as f64 * 8.0 / fct.as_secs_f64())
    }
}

/// Aggregated, deterministic global statistics of a run.
#[derive(Debug, Default)]
pub struct FlowReport {
    /// Per-flow records, sorted by flow id.
    pub flows: Vec<FlowStat>,
    /// FCT distribution over completed flows, microseconds.
    pub fct_us: Histogram,
    /// RTT samples over all senders, nanoseconds.
    pub rtt_ns: Summary,
    /// Queueing delay over all devices, nanoseconds.
    pub queue_delay_ns: Summary,
    /// Per-completed-flow goodput, bits/sec.
    pub throughput_bps: Summary,
    /// Queue drops over all devices.
    pub drops: u64,
    /// ECN marks over all devices.
    pub marks: u64,
    /// Packets accepted into queues over all devices.
    pub queued_packets: u64,
    /// Packets dropped for lack of a route.
    pub routing_drops: u64,
    /// Packets dropped by injected loss bursts.
    pub burst_drops: u64,
    /// Sender retransmissions.
    pub retransmits: u64,
    /// RTO timer fires.
    pub rto_fires: u64,
    /// Payload bytes delivered in order at receivers.
    pub bytes_delivered: u64,
    /// UDP datagrams delivered.
    pub udp_pkts: u64,
    /// UDP payload bytes delivered.
    pub udp_bytes: u64,
    /// UDP datagrams emitted by On/Off sources.
    pub udp_sent: u64,
}

impl FlowReport {
    /// Merges all node shards of a finished world.
    pub fn collect(world: &World<NetNode>) -> Self {
        let mut report = FlowReport::default();
        // Receiver completion times keyed by flow, gathered first.
        let mut rx_done: FlowMap<Time> = FlowMap::default();
        for node in world.nodes() {
            for (flow, rcv) in &node.receivers {
                if let Some(t) = rcv.completed_at {
                    rx_done.insert(*flow, t);
                }
                report.bytes_delivered += rcv.rcv_nxt();
            }
        }
        for node in world.nodes() {
            for rx in node.udp_rx.values() {
                report.udp_pkts += rx.pkts;
                report.udp_bytes += rx.bytes;
            }
            for app in &node.apps {
                report.udp_sent += app.sent;
            }
            report.rtt_ns.merge(&node.mon.rtt_ns);
            report.queue_delay_ns.merge(&node.mon.queue_delay_ns);
            report.routing_drops += node.mon.routing_drops;
            report.burst_drops += node.mon.burst_drops;
            report.rto_fires += node.mon.rto_fires;
            for dev in &node.devices {
                report.drops += dev.queue.drops;
                report.marks += dev.queue.marks;
                report.queued_packets += dev.queue.accepted;
            }
            let mut flows: Vec<&FlowId> = node.senders.keys().collect();
            flows.sort_unstable();
            for flow in flows {
                let snd = &node.senders[flow];
                let stat = FlowStat {
                    flow: *flow,
                    bytes: snd.size,
                    started: snd.first_sent.unwrap_or(Time::ZERO),
                    completed: rx_done.get(flow).copied(),
                    retransmits: snd.retransmits,
                };
                report.retransmits += snd.retransmits;
                if let Some(fct) = stat.fct() {
                    report.fct_us.add(fct.as_nanos() as f64 / 1_000.0);
                }
                if let Some(bps) = stat.throughput_bps() {
                    report.throughput_bps.add(bps);
                }
                report.flows.push(stat);
            }
        }
        report.flows.sort_by_key(|s| s.flow);
        report
    }

    /// Number of flows observed.
    pub fn total_flows(&self) -> u64 {
        self.flows.len() as u64
    }

    /// Number of completed flows.
    pub fn completed_flows(&self) -> u64 {
        self.flows.iter().filter(|f| f.completed.is_some()).count() as u64
    }

    /// Mean FCT over completed flows.
    pub fn mean_fct(&self) -> Duration {
        Duration::from_micros(self.fct_us.mean() as u64)
    }

    /// Mean RTT over all samples.
    pub fn mean_rtt(&self) -> Duration {
        Duration::from_nanos(self.rtt_ns.mean() as u64)
    }

    /// Jain's fairness index over per-flow goodputs of completed flows.
    pub fn jain_index(&self) -> f64 {
        let tputs: Vec<f64> = self
            .flows
            .iter()
            .filter_map(|f| f.throughput_bps())
            .collect();
        if tputs.is_empty() {
            return 1.0;
        }
        let sum: f64 = tputs.iter().sum();
        let sum_sq: f64 = tputs.iter().map(|x| x * x).sum();
        (sum * sum) / (tputs.len() as f64 * sum_sq)
    }

    /// A compact one-line summary for harness output.
    pub fn one_line(&self) -> String {
        format!(
            "flows={} completed={} mean_fct={:.3}ms p99_fct={:.3}ms mean_rtt={:.3}ms \
             mean_tput={:.2}Mbps drops={} marks={} retx={}",
            self.total_flows(),
            self.completed_flows(),
            self.fct_us.mean() / 1_000.0,
            self.fct_us.percentile(99.0) / 1_000.0,
            self.rtt_ns.mean() / 1e6,
            self.throughput_bps.mean() / 1e6,
            self.drops,
            self.marks,
            self.retransmits,
        )
    }
}
