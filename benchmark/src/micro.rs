//! Per-layer micro-timings: each times one layer's public calls in this
//! process and reports the median of `samples` batches after a warm-up
//! batch. They run while no child is running.

use std::hint::black_box;
use std::time::Instant;

use unison_core::mailbox::Mailboxes;
use unison_core::sched::order_by_estimate_into;
use unison_core::sync::{SpinBarrier, TreeBarrier};
use unison_core::{Event, EventKey, Fel, FelImpl, NodeId, Rng, SchedPolicyKind, Time};
use unison_netsim::route::{compute_static_tables, StaticTable};
use unison_netsim::{FlowId, Packet, Queue, QueueConfig, TcpConfig, TcpReceiver, TcpSender, MSS};
use unison_topology::Topology;

use crate::stats::median;

/// How many batches each micro-timing takes (after one warm-up batch).
#[derive(Clone, Copy)]
pub struct Effort {
    pub samples: usize,
}

impl Effort {
    pub const FULL: Effort = Effort { samples: 15 };
    pub const SMOKE: Effort = Effort { samples: 3 };
}

/// Median over `effort.samples` calls of `batch` (each returns the batch's
/// elapsed nanoseconds), divided by `ops` operations per batch.
fn median_ns_per_op(effort: Effort, ops: usize, mut batch: impl FnMut() -> u64) -> f64 {
    batch();
    let samples: Vec<f64> = (0..effort.samples)
        .map(|_| batch() as f64 / ops as f64)
        .collect();
    median(&samples)
}

/// Times one call of `f`, returning `(nanoseconds, result)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

fn event(ts: u64, seq: u64) -> Event<u64> {
    Event {
        key: EventKey::external(Time::from_nanos(ts), seq),
        node: NodeId(0),
        payload: seq,
    }
}

/// The hold model: with `resident` events in the list, pop the earliest and
/// push one a random increment later. Nanoseconds per pop+push.
fn fel_hold(effort: Effort, imp: FelImpl, resident: usize) -> f64 {
    const OPS: usize = 50_000;
    let mut rng = Rng::new(0xFE1);
    let mut fel: Fel<u64> = Fel::with_impl(imp);
    let mut seq = 0u64;
    for _ in 0..resident {
        fel.push(event(rng.next_below(1_000_000), seq));
        seq += 1;
    }
    median_ns_per_op(effort, OPS, || {
        timed(|| {
            for _ in 0..OPS {
                let ev = fel
                    .pop_below(Time::MAX)
                    .expect("the list stays at its resident size");
                let next = ev.ts().as_nanos() + 1 + rng.next_exp(1_000_000.0) as u64;
                fel.push(event(next, seq));
                seq += 1;
            }
        })
        .0
    })
}

/// Same-thread mailbox cost: push a batch into one channel, drain it.
fn mailbox_push_drain(effort: Effort) -> f64 {
    const BATCH: usize = 64;
    const ROUNDS: usize = 2_000;
    let boxes: Mailboxes<u64> = Mailboxes::new(2, &[(0, 1)]);
    let mut out = Vec::with_capacity(BATCH);
    let mut seq = 0u64;
    median_ns_per_op(effort, BATCH * ROUNDS, || {
        timed(|| {
            for _ in 0..ROUNDS {
                for _ in 0..BATCH {
                    boxes
                        .try_push(0, 1, event(seq, seq))
                        .expect("channel 0->1 exists");
                    seq += 1;
                }
                out.clear();
                black_box(boxes.drain_batch(1, &mut out));
            }
        })
        .0
    })
}

/// Producer and consumer on two threads: wall per event until the consumer
/// has drained everything the producer pushed.
fn mailbox_cross_thread(effort: Effort) -> f64 {
    const EVENTS: usize = 10_000;
    let boxes: Mailboxes<u64> = Mailboxes::new(2, &[(0, 1)]);
    median_ns_per_op(effort, EVENTS, || {
        let start = SpinBarrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for i in 0..EVENTS as u64 {
                    boxes
                        .try_push(0, 1, event(i, i))
                        .expect("channel 0->1 exists");
                }
            });
            let mut out = Vec::with_capacity(4096);
            let mut received = 0;
            start.wait();
            timed(|| {
                while received < EVENTS {
                    out.clear();
                    received += boxes.drain_batch(1, &mut out);
                    if out.is_empty() {
                        std::hint::spin_loop();
                    }
                }
            })
            .0
        })
    })
}

const CROSSINGS: usize = 100_000;

fn tree_barrier_crossing(effort: Effort) -> f64 {
    median_ns_per_op(effort, CROSSINGS, || {
        let barrier = TreeBarrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = barrier.waiter(1);
                for _ in 0..CROSSINGS {
                    barrier.wait(&mut w);
                }
            });
            let mut w = barrier.waiter(0);
            timed(|| {
                for _ in 0..CROSSINGS {
                    barrier.wait(&mut w);
                }
            })
            .0
        })
    })
}

fn spin_barrier_crossing(effort: Effort) -> f64 {
    median_ns_per_op(effort, CROSSINGS, || {
        let barrier = SpinBarrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..CROSSINGS {
                    barrier.wait();
                }
            });
            timed(|| {
                for _ in 0..CROSSINGS {
                    barrier.wait();
                }
            })
            .0
        })
    })
}

const SCHED_LPS: usize = 1024;

/// Microseconds per LJF re-sort of 1024 LP estimates.
fn sched_order(effort: Effort) -> f64 {
    const REPEATS: usize = 200;
    let mut rng = Rng::new(0x5C4ED);
    let estimates: Vec<u64> = (0..SCHED_LPS).map(|_| rng.next_below(1_000_000)).collect();
    let mut order = Vec::new();
    median_ns_per_op(effort, REPEATS, || {
        timed(|| {
            for _ in 0..REPEATS {
                order_by_estimate_into(black_box(&estimates), &mut order);
                black_box(&order);
            }
        })
        .0
    }) / 1e3
}

/// Nanoseconds per LP for one worker claiming a whole 1024-LP round.
fn sched_claim(effort: Effort) -> f64 {
    const ROUNDS: usize = 500;
    let policy = SchedPolicyKind::default().build(2);
    let order: Vec<u32> = (0..SCHED_LPS as u32).collect();
    policy.publish(&order, &[]);
    median_ns_per_op(effort, ROUNDS * SCHED_LPS, || {
        timed(|| {
            for _ in 0..ROUNDS {
                policy.begin_round();
                while let Some(pos) = policy.claim(0) {
                    black_box(pos);
                }
            }
        })
        .0
    })
}

fn flow() -> FlowId {
    FlowId {
        src: 0,
        dst: 1,
        sport: 1,
        dport: 80,
    }
}

/// Enqueue + dequeue with `resident` packets standing in the queue.
fn queue_cycle(effort: Effort, config: QueueConfig, resident: usize) -> f64 {
    const OPS: usize = 200_000;
    let mut q = Queue::new(config, 1);
    let packet = |seq: u64| {
        Packet::data(
            flow(),
            seq * MSS as u64,
            MSS,
            u64::MAX,
            false,
            true,
            Time::ZERO,
        )
    };
    for i in 0..resident as u64 {
        q.enqueue(packet(i), Time::ZERO);
    }
    let mut seq = resident as u64;
    median_ns_per_op(effort, OPS, || {
        timed(|| {
            for _ in 0..OPS {
                black_box(q.enqueue(packet(seq), Time::from_nanos(seq)));
                black_box(q.dequeue());
                seq += 1;
            }
        })
        .0
    })
}

const SEGMENTS: usize = 100_000;

/// `TcpReceiver::on_data` over an in-order stream of full segments.
fn tcp_on_data(effort: Effort) -> f64 {
    median_ns_per_op(effort, SEGMENTS, || {
        let mut rx = TcpReceiver::new(flow(), u64::MAX);
        timed(|| {
            for k in 0..SEGMENTS as u64 {
                let now = Time::from_micros(k);
                black_box(rx.on_data(k * MSS as u64, MSS, false, now, false, now));
            }
        })
        .0
    })
}

/// `TcpSender::on_ack` over in-order cumulative ACKs, one per segment; each
/// call also emits the segments the window then allows, as in a run.
fn tcp_on_ack(effort: Effort) -> f64 {
    let rtt = Time::from_micros(50);
    median_ns_per_op(effort, SEGMENTS, || {
        let mut tx = TcpSender::new(flow(), u64::MAX, TcpConfig::newreno());
        let mut out = Vec::new();
        tx.start(Time::ZERO, &mut out);
        timed(|| {
            for k in 1..=SEGMENTS as u64 {
                let now = rtt + Time::from_micros(k);
                out.clear();
                black_box(tx.on_ack(k * MSS as u64, false, now - rtt, false, now, &mut out));
            }
        })
        .0
    })
}

/// The adjacency `NetworkBuilder::build` hands to `compute_static_tables`:
/// per node, `(peer, local device index)` in link order.
pub fn adjacency(topo: &Topology) -> Vec<Vec<(u32, u8)>> {
    let mut adj: Vec<Vec<(u32, u8)>> = vec![Vec::new(); topo.node_count()];
    for l in &topo.links {
        let (a_dev, b_dev) = (adj[l.a].len() as u8, adj[l.b].len() as u8);
        adj[l.a].push((l.b as u32, a_dev));
        adj[l.b].push((l.a as u32, b_dev));
    }
    adj
}

/// `StaticTable::lookup` over every destination of a fat-tree k=8 switch.
fn static_lookup(effort: Effort) -> f64 {
    const SWEEPS: usize = 2_000;
    let topo = unison_topology::fat_tree(8);
    let tables: Vec<StaticTable> = compute_static_tables(&adjacency(&topo));
    let n = topo.node_count();
    // The last node is a core switch: every lookup has ECMP candidates.
    let table = &tables[n - 1];
    let mut buf = [0u8; 16];
    median_ns_per_op(effort, SWEEPS * n, || {
        timed(|| {
            for _ in 0..SWEEPS {
                for dst in 0..n as u32 {
                    black_box(table.lookup(black_box(dst), &mut buf));
                }
            }
        })
        .0
    })
}

/// Every workload-independent per-layer micro-timing, as `(metric, value)`.
pub fn run_all(effort: Effort) -> Vec<(&'static str, f64)> {
    const SMALL: usize = 32;
    const LARGE: usize = 1 << 17;
    let droptail = QueueConfig::DropTail {
        limit_bytes: 1 << 20,
    };
    // The fabric default of `NetworkBuilder::transport(Dctcp)`; 100 standing
    // packets sit above its marking threshold, so every enqueue marks.
    let dctcp = QueueConfig::dctcp(1 << 20, 65 * MSS);
    vec![
        (
            "fel.ladder.small_ns_per_op",
            fel_hold(effort, FelImpl::Ladder, SMALL),
        ),
        (
            "fel.heap.small_ns_per_op",
            fel_hold(effort, FelImpl::BinaryHeap, SMALL),
        ),
        (
            "fel.ladder.large_ns_per_op",
            fel_hold(effort, FelImpl::Ladder, LARGE),
        ),
        (
            "fel.heap.large_ns_per_op",
            fel_hold(effort, FelImpl::BinaryHeap, LARGE),
        ),
        ("mailbox.push_drain_ns_per_ev", mailbox_push_drain(effort)),
        (
            "mailbox.cross_thread_ns_per_ev",
            mailbox_cross_thread(effort),
        ),
        (
            "sync.tree_barrier_ns_per_crossing_2t",
            tree_barrier_crossing(effort),
        ),
        (
            "sync.spin_barrier_ns_per_crossing_2t",
            spin_barrier_crossing(effort),
        ),
        ("sched.order_1024_us", sched_order(effort)),
        ("sched.claim_ns_per_lp", sched_claim(effort)),
        (
            "netsim.queue.droptail_ns_per_pkt",
            queue_cycle(effort, droptail, 16),
        ),
        (
            "netsim.queue.dctcp_ns_per_pkt",
            queue_cycle(effort, dctcp, 100),
        ),
        ("netsim.tcp.on_ack_ns", tcp_on_ack(effort)),
        ("netsim.tcp.on_data_ns", tcp_on_data(effort)),
        ("netsim.route.static_lookup_ns", static_lookup(effort)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_micro_timing_reports_a_positive_time() {
        let results = run_all(Effort { samples: 1 });
        assert_eq!(results.len(), 15);
        for (name, value) in results {
            assert!(value.is_finite() && value > 0.0, "{name} = {value}");
            assert!(
                crate::report::PER_LAYER.iter().any(|(n, _, _)| *n == name),
                "{name} is not a listed per-layer metric"
            );
        }
    }

    #[test]
    fn adjacency_numbers_devices_in_link_order() {
        let topo = unison_topology::fat_tree(4);
        let adj = adjacency(&topo);
        assert_eq!(
            adj.iter().map(Vec::len).sum::<usize>(),
            2 * topo.links.len()
        );
        for ports in &adj {
            for (i, (_, dev)) in ports.iter().enumerate() {
                assert_eq!(*dev as usize, i);
            }
        }
    }
}
