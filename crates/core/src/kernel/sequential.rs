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

use std::time::Instant;

use crate::error::{RunPhase, SimError};
use crate::event::{Event, EventKey, LpId, NodeId};
use crate::fel::Fel;
use crate::global::GlobalFn;
use crate::lp::{LpSlots, PendingGlobal};
use crate::metrics::RunReport;
use crate::telemetry::{SpanKind, NO_LP};
use crate::time::Time;
use crate::world::{SimCtx, SimNode, World};

use super::harness::{contained, finish, prepare, Outcome, Setup, Site, Worker};
use super::RunConfig;

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
    pending_globals: &'a mut Vec<PendingGlobal<N>>,
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
            let k = EventKey::new(ts, self.now, lp, *seq);
            *seq += 1;
            k
        } else {
            // ns-3 semantics: FIFO among simultaneous events, global
            // insertion counter.
            let seq = &mut self.seqs[0];
            let k = EventKey::new(ts, Time::ZERO, LpId(0), *seq);
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
}

pub(super) fn run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
    compat_keys: bool,
) -> Result<(World<N>, RunReport), SimError> {
    let Setup {
        env,
        mut shell,
        mut lps,
        dir,
        mut public,
    } = prepare(world, cfg)?;

    // Pull all initial events out of the per-LP FELs into the global FEL.
    let mut fel: Fel<N::Payload> = Fel::with_impl(cfg.fel);
    for lp in &mut lps {
        while let Some(ev) = lp.fel.pop() {
            fel.push(ev);
        }
    }
    // Compat-key sequence counters, one per LP, as the Unison kernel keeps
    // them.
    let mut seqs: Vec<u64> = vec![0; lps.len()];
    let slots = LpSlots::new(lps, dir.clone());
    // Single-threaded kernel: the whole run is one claim-audit phase with
    // one owner, so one generation bump up front suffices.
    slots.begin_phase();

    let mut pending_globals: Vec<PendingGlobal<N>> = Vec::new();
    let mut events: u64 = 0;
    let mut node_switches: u64 = 0;
    let mut last_node = u32::MAX;
    let mut now = Time::ZERO;
    let started = Instant::now();

    // The only thread's laps: Process up to each instant that runs global
    // events and Global over it (the sequential kernel has no rounds or
    // phases to subdivide). `lapped` counts the events the Process laps
    // closed so far carried.
    let mut main = Worker::new(&env, 0);
    let mut lapped: u64 = 0;

    // The event loop is contained so a panicking model handler (or global
    // event) ends the run with a partial report built from the slots; the
    // site is updated just before each handler/global runs.
    let site = Site::new();
    contained(&env, &site, 0, || loop {
        let next_ev = fel.next_ts();
        let next_pub = public.next_ts();
        if next_ev == Time::MAX && next_pub == Time::MAX {
            break;
        }
        if next_pub <= next_ev {
            // Global events run before node events at the same instant,
            // matching the windowed kernels (a window never extends past
            // N_pub). Only this instant's globals run: one of them may
            // inject a node event that precedes the next global.
            main.lap(SpanKind::Process, 0, NO_LP, events - lapped, 0);
            lapped = events;
            site.phase.set(RunPhase::Global);
            // SAFETY: single-threaded kernel; nothing else accesses the
            // slots.
            let due = unsafe {
                public.run_due(next_pub, &slots, &mut shell, |ts| {
                    now = ts;
                    site.at.set((None, ts));
                })
            };
            main.lap(SpanKind::Global, 0, NO_LP, due.ran, 0);
            site.phase.set(RunPhase::Process);
            // Sweep events a global handler injected into per-LP FELs.
            for i in 0..slots.len() {
                // SAFETY: single-threaded kernel.
                let lp = unsafe { slots.get_mut(i) };
                while let Some(ev) = lp.fel.pop() {
                    fel.push(ev);
                }
            }
            if due.stopped {
                break;
            }
            continue;
        }

        // INVARIANT: `next_ev < Time::MAX` implies the FEL is non-empty.
        let ev = fel.pop().expect("FEL non-empty");
        debug_assert!(ev.key.ts >= now, "popped {:?} at {now:?}", ev.key);
        now = ev.key.ts;
        if ev.node.0 != last_node {
            node_switches += 1;
            last_node = ev.node.0;
        }
        let (lp_id, local) = dir.locate(ev.node);
        site.at.set((Some(lp_id), now));
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
            pending_globals: &mut pending_globals,
        };
        node.handle(ev.payload, &mut ctx);
        lp.total_events += 1;
        events += 1;
        // Merge globals scheduled by the handler.
        if !pending_globals.is_empty() {
            public.merge(lp_id, Time::ZERO, pending_globals.drain(..));
        }
    });

    let wall = started.elapsed();
    main.lap(SpanKind::Process, 0, NO_LP, events - lapped, 0);
    main.end_time = now;
    let (mut lps, _) = slots.into_inner();
    // One FEL, one locality stream: the run's node switches are LP 0's.
    lps[0].node_switches = node_switches;
    let out = Outcome {
        rounds: 1,
        global_events: public.executed,
        ..Outcome::new(&env, wall, lps, vec![Some(main)])
    };
    finish(env, shell, out)
}
