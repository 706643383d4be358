//! The sequential DES kernel (the ns-3 default in the paper's comparisons).
//!
//! A single thread pops events from one global future event list. Two
//! tie-breaking modes are provided:
//!
//! - **insertion order** (`compat_keys = false`): simultaneous events run in
//!   the order they were scheduled, reproducing ns-3's default semantics;
//! - **compat keys** (`compat_keys = true`): events carry the same
//!   deterministic tie-break keys the Unison kernel assigns, which makes a
//!   sequential run *bit-identical* to a parallel Unison run of the same
//!   world — the strongest form of the paper's determinism claim.
//!
//! Global events (public LP) are fully supported: they run inline whenever
//! their timestamp precedes the next node event.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::error::{panic_message, FailureDiagnostics, RunPhase, SimError};
use crate::event::{Event, EventKey, LpId, NodeId};
use crate::fel::Fel;
use crate::global::{GlobalFn, WorldAccess};
use crate::lp::{LpSlots, PendingGlobal};
use crate::metrics::{EngineStats, LpTotals, Psm, RunReport, SchedStats};
use crate::telemetry::{SpanKind, TelContext, NO_LP};
use crate::time::Time;
use crate::world::{NodeDirectory, SimCtx, SimNode, World};

use super::{build_lps, build_partition, reassemble_world, RunConfig};

/// Sequential [`SimCtx`]: one global FEL, insertion-order or compat keys.
struct SeqCtx<'a, N: SimNode> {
    now: Time,
    self_node: NodeId,
    lp_id: LpId,
    compat: bool,
    fel: &'a mut Fel<N::Payload>,
    /// Per-LP sequence counters (compat mode) — index 0 doubles as the
    /// global insertion counter in insertion mode.
    seqs: &'a mut [u64],
    #[allow(dead_code)]
    dir: &'a NodeDirectory,
    pending_globals: &'a mut Vec<PendingGlobal<N>>,
    stop_flag: &'a AtomicBool,
}

impl<N: SimNode> SimCtx<N> for SeqCtx<'_, N> {
    fn now(&self) -> Time {
        self.now
    }

    fn self_node(&self) -> NodeId {
        self.self_node
    }

    fn schedule(&mut self, delay: Time, target: NodeId, payload: N::Payload) {
        let ts = self.now.saturating_add(delay);
        let key = if self.compat {
            let lp = self.lp_id;
            let seq = &mut self.seqs[lp.index()];
            let k = EventKey {
                ts,
                sender_ts: self.now,
                sender_lp: lp,
                seq: *seq,
            };
            *seq += 1;
            k
        } else {
            // ns-3 semantics: FIFO among simultaneous events, global
            // insertion counter.
            let seq = &mut self.seqs[0];
            let k = EventKey {
                ts,
                sender_ts: Time::ZERO,
                sender_lp: LpId(0),
                seq: *seq,
            };
            *seq += 1;
            k
        };
        self.fel.push(Event {
            key,
            node: target,
            payload,
        });
    }

    fn schedule_global(&mut self, delay: Time, f: GlobalFn<N>) {
        self.pending_globals.push(PendingGlobal {
            ts: self.now.saturating_add(delay),
            sender_ts: self.now,
            f,
        });
    }

    fn request_stop(&mut self) {
        self.stop_flag.store(true, Ordering::Release);
    }
}

pub(super) fn run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
    compat_keys: bool,
) -> Result<(World<N>, RunReport), SimError> {
    let kernel_name: &'static str = if compat_keys {
        "sequential(compat)"
    } else {
        "sequential"
    };
    let mut partition = build_partition(&world, &cfg.partition)?;
    let (lps, dir, mut graph, init_globals, stop_at, restored_ext_seq) =
        build_lps(world, &partition, cfg.fel);
    let lp_count = lps.len();

    // Pull all initial events out of the per-LP FELs into the global FEL.
    let mut lps = lps;
    let mut fel: Fel<N::Payload> = Fel::with_impl(cfg.fel);
    for lp in &mut lps {
        while let Some(ev) = lp.fel.pop() {
            fel.push(ev);
        }
    }
    // Compat-key sequence counters continue from restored values (all zero
    // for a fresh world), so a checkpointed run resumed here assigns the
    // same tie-break keys it would have uninterrupted.
    let mut seqs = vec![0u64; lp_count.max(1)];
    for (i, lp) in lps.iter().enumerate() {
        seqs[i] = lp.seq;
    }
    let slots = LpSlots::new(lps, dir.clone());
    // Single-threaded kernel: the whole run is one claim-audit phase with
    // one owner, so one generation bump up front suffices.
    slots.begin_phase();

    // Public LP: global events, including the kernel-inserted stop event.
    let mut public: Fel<GlobalFn<N>> = Fel::with_impl(cfg.fel);
    let mut ext_seq: u64 = restored_ext_seq;
    for (ts, f) in init_globals {
        public.push(Event {
            key: EventKey::external(ts, ext_seq),
            node: NodeId(u32::MAX),
            payload: f,
        });
        ext_seq += 1;
    }
    if let Some(stop) = stop_at {
        public.push(Event {
            key: EventKey::external(stop, ext_seq),
            node: NodeId(u32::MAX),
            payload: Box::new(|wa: &mut WorldAccess<'_, N>| wa.stop()),
        });
        ext_seq += 1;
    }

    let stop_flag = AtomicBool::new(false);
    let mut pending_globals: Vec<PendingGlobal<N>> = Vec::new();
    let mut topology_dirty = false;

    let mut events: u64 = 0;
    let mut global_events: u64 = 0;
    let mut node_switches: u64 = 0;
    let mut last_node = u32::MAX;
    let mut now = Time::ZERO;
    let started = Instant::now();

    // Telemetry is coarse here: one sink on the only thread, one Global
    // span per global event, and a single whole-run Process span (the
    // sequential kernel has no rounds or phases to subdivide).
    let telctx = TelContext::new(&cfg.telemetry);
    let mut tel = telctx.worker(0);
    let sched_log = telctx.sched_log(); // no scheduler → stays empty
    let run_start = tel.start();

    // Failure site, updated just before each handler/global runs so a
    // contained panic can report where it happened.
    let site: Cell<(RunPhase, Option<LpId>, Time)> =
        Cell::new((RunPhase::Control, None, Time::ZERO));

    // The event loop runs inside `catch_unwind` so a panicking model handler
    // (or global event) is contained: the loop's borrows end with the
    // closure, letting the aftermath build a partial report from the slots.
    let outcome = catch_unwind(AssertUnwindSafe(|| loop {
        if stop_flag.load(Ordering::Acquire) {
            break;
        }
        let next_ev = fel.next_ts();
        let next_pub = public.next_ts();
        if next_ev == Time::MAX && next_pub == Time::MAX {
            break;
        }
        if next_pub <= next_ev {
            // Global events run before node events at the same instant,
            // matching the windowed kernels (a window never extends past
            // N_pub).
            // INVARIANT: `next_pub < Time::MAX` implies the public FEL is
            // non-empty (`next_ts` returns MAX only when empty).
            let g = public.pop().expect("public FEL non-empty");
            now = g.key.ts;
            site.set((RunPhase::Global, None, now));
            let g_start = tel.start();
            let mut stop = false;
            let mut new_globals: Vec<(Time, GlobalFn<N>)> = Vec::new();
            {
                // SAFETY: single-threaded kernel; nothing else accesses the
                // slots while the world view exists.
                let mut wa = unsafe {
                    WorldAccess::new(
                        now,
                        &slots,
                        &mut graph,
                        &mut partition,
                        &mut topology_dirty,
                        &mut stop,
                        &mut new_globals,
                        &mut ext_seq,
                        // Events pulled into the kernel-private global FEL
                        // are invisible to a checkpoint, so the sequential
                        // kernel does not offer one.
                        None,
                    )
                };
                (g.payload)(&mut wa);
            }
            global_events += 1;
            tel.span(SpanKind::Global, 0, NO_LP, g_start, 1);
            for (ts, f) in new_globals {
                public.push(Event {
                    key: EventKey::external(ts, ext_seq),
                    node: NodeId(u32::MAX),
                    payload: f,
                });
                ext_seq += 1;
            }
            if topology_dirty {
                partition.recompute_lookahead(&graph);
                topology_dirty = false;
            }
            // Sweep events a global handler injected into per-LP FELs.
            for i in 0..slots.len() {
                // SAFETY: single-threaded kernel.
                let lp = unsafe { slots.get_mut(i) };
                while let Some(ev) = lp.fel.pop() {
                    fel.push(ev);
                }
            }
            if stop {
                stop_flag.store(true, Ordering::Release);
            }
            continue;
        }

        // INVARIANT: `next_ev < Time::MAX` implies the FEL is non-empty.
        let ev = fel.pop().expect("FEL non-empty");
        now = ev.key.ts;
        if ev.node.0 != last_node {
            node_switches += 1;
            last_node = ev.node.0;
        }
        let (lp_id, local) = dir.locate(ev.node);
        site.set((RunPhase::Process, Some(lp_id), now));
        // Sequential runs have no sync rounds; the fault plan's "round" is
        // the 1-based node-event index, which is just as reproducible.
        #[cfg(feature = "fault-inject")]
        cfg.fault.fire_phase(events + 1, RunPhase::Process, 0);
        // SAFETY: single-threaded kernel; exclusive by construction.
        let lp = unsafe { slots.get_mut(lp_id.index()) };
        let node = &mut lp.nodes[local as usize];
        let mut ctx = SeqCtx::<N> {
            now,
            self_node: ev.node,
            lp_id,
            compat: compat_keys,
            fel: &mut fel,
            seqs: &mut seqs,
            dir: &dir,
            pending_globals: &mut pending_globals,
            stop_flag: &stop_flag,
        };
        node.handle(ev.payload, &mut ctx);
        lp.total_events += 1;
        events += 1;

        // Merge globals scheduled by the handler.
        for pg in pending_globals.drain(..) {
            public.push(Event {
                key: EventKey {
                    ts: pg.ts,
                    sender_ts: pg.sender_ts,
                    sender_lp: lp_id,
                    seq: ext_seq,
                },
                node: NodeId(u32::MAX),
                payload: pg.f,
            });
            ext_seq += 1;
        }
    }));

    let wall = started.elapsed();
    tel.span(SpanKind::Process, 0, NO_LP, run_start, events);
    let (lps, _) = slots.into_inner();
    let mut lp_totals = LpTotals {
        events: lps.iter().map(|lp| lp.total_events).collect(),
        node_switches: vec![0; lp_count],
    };
    if lp_count > 0 {
        lp_totals.node_switches[0] = node_switches;
    }
    let report = RunReport {
        kernel: kernel_name.into(),
        wall,
        events,
        global_events,
        rounds: 1,
        fused_rounds: 0,
        lp_count: lp_count as u32,
        threads: 1,
        lookahead: partition.lookahead,
        end_time: now,
        psm: vec![Psm {
            p_ns: wall.as_nanos() as u64,
            s_ns: 0,
            m_ns: 0,
        }],
        psm_per_lp: false,
        lp_totals,
        engine: EngineStats {
            fel_impl: cfg.fel,
            // Single-threaded: no cross-LP mailboxes, hence no pool.
            pool_hits: 0,
            pool_misses: 0,
        },
        sched: SchedStats::default(),
        rounds_profile: None,
        telemetry: telctx.collect(vec![tel], sched_log),
        recovery: None,
        async_stats: None,
    };
    match outcome {
        Ok(()) => {
            let world = reassemble_world(lps, &partition, graph, stop_at);
            Ok((world, report))
        }
        Err(payload) => {
            let (phase, lp, virtual_time) = site.get();
            Err(SimError::WorkerPanic {
                diag: FailureDiagnostics {
                    kernel: kernel_name,
                    round: 0,
                    phase,
                    lp,
                    virtual_time,
                    worker: 0,
                    panic_message: panic_message(payload.as_ref()),
                },
                partial: Box::new(report),
            })
        }
    }
}
