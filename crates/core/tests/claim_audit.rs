//! Tests for the `claim-audit` runtime auditor (see `lp.rs`): `get_mut`
//! stamps an owner tag per slot and must panic deterministically when two
//! threads claim the same slot in the same phase generation — the exact
//! violation of the claim discipline that the `unsafe` contract forbids.
//! The outboxes lean on the same tags: a send needs the caller's stamp on
//! the source LP, and a delivery takes its destination LP through `get_mut`
//! after checking that the LP's home is the column being drained.

#![cfg(not(loom))]
#![cfg(feature = "claim-audit")]

use std::sync::mpsc;

use unison_core::lp::{LpSlots, LpState};
use unison_core::world::{NodeDirectory, SimCtx, SimNode};
use unison_core::{Event, EventKey, LpId, NodeId, Time};

struct Nop;
impl SimNode for Nop {
    type Payload = ();
    fn handle(&mut self, _p: (), _ctx: &mut dyn SimCtx<Self>) {}
}

/// Two LPs of one node each (node `i` in LP `i`) and two workers: LP `i`'s
/// home is worker `i`.
fn two_slots() -> LpSlots<Nop> {
    let lps = (0..2)
        .map(|i| {
            let mut lp = LpState::<Nop>::new(LpId(i));
            lp.nodes.push(Nop);
            lp
        })
        .collect();
    let dir = NodeDirectory::from_lp_nodes(2, &[vec![NodeId(0)], vec![NodeId(1)]]);
    LpSlots::with_homes(lps, dir, vec![0, 1], 2)
}

/// An event for `node` at t=1.
fn ev(node: u32) -> Event<()> {
    Event {
        key: EventKey::external(Time(1), 0),
        node: NodeId(node),
        payload: (),
    }
}

/// Forged double claim: a helper thread claims slot 0 and keeps the claim
/// (no phase boundary), then the main thread claims the same slot in the
/// same generation. The auditor must panic with a "double claim" message.
#[test]
#[should_panic(expected = "double claim")]
fn forged_double_claim_panics() {
    let slots = two_slots();
    slots.begin_phase();
    let (tx, rx) = mpsc::channel();
    let slots = &slots;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            // SAFETY: this claim itself is legitimate (no other claimant
            // yet); the reference is dropped immediately, so no aliasing
            // ever occurs — the *audit tag* is what stays behind.
            let lp = unsafe { slots.get_mut(0) };
            lp.seq += 1;
            tx.send(()).unwrap();
        });
        rx.recv().unwrap();
        // Same generation, different thread: the contract violation. The
        // auditor fires before any aliased reference can be produced.
        // SAFETY: never reached past the audit panic.
        let _ = unsafe { slots.get_mut(0) };
    });
}

/// A helper thread claims slot 0 in the current generation; `Err` carries
/// its audit panic.
fn claim_slot_0_from_a_second_thread(slots: &LpSlots<Nop>) -> std::thread::Result<()> {
    std::thread::scope(|scope| {
        let helper = scope.spawn(move || {
            // SAFETY: the callers forge a double claim on purpose; the
            // audit panics before the reference exists.
            let _ = unsafe { slots.get_mut(0) };
        });
        helper.join()
    })
}

/// A repeat touch by the stamp's owner takes the load-only path; a second
/// thread stamping *after* it must still see the first owner's tag and
/// panic.
#[test]
fn double_claim_after_the_owners_repeat_touch_panics() {
    let slots = two_slots();
    slots.begin_phase();
    for _ in 0..2 {
        // SAFETY: sole claimant so far; the reference is dropped at once.
        unsafe { slots.get_mut(0) }.seq += 1;
    }
    let forged = claim_slot_0_from_a_second_thread(&slots);
    let msg = *forged.unwrap_err().downcast::<String>().unwrap();
    assert!(msg.contains("double claim of LP slot 0"), "{msg}");
}

/// The other order: the second thread stamps *between* the owner's two
/// touches. It panics itself (the owner's tag was there), and the owner's
/// repeat touch no longer finds its own tag, so it swaps and panics too.
#[test]
#[should_panic(expected = "double claim")]
fn double_claim_before_the_owners_repeat_touch_panics() {
    let slots = two_slots();
    slots.begin_phase();
    // SAFETY: sole claimant so far; the reference is dropped at once.
    unsafe { slots.get_mut(0) }.seq += 1;
    let forged = claim_slot_0_from_a_second_thread(&slots);
    assert!(forged.is_err(), "the second claimant was not caught");
    // SAFETY: never reached past the audit panic.
    let _ = unsafe { slots.get_mut(0) };
}

/// Re-claiming a slot from the same thread within one generation is the
/// normal kernel pattern (the main thread walks all slots repeatedly in its
/// exclusive windows) and must not panic.
#[test]
fn same_owner_reclaim_is_allowed() {
    let slots = two_slots();
    slots.begin_phase();
    for _ in 0..3 {
        // SAFETY: single-threaded; trivially exclusive.
        unsafe { slots.get_mut(0) }.seq += 1;
        // SAFETY: as above.
        unsafe { slots.get_mut(1) }.seq += 1;
    }
    // SAFETY: as above.
    assert_eq!(unsafe { slots.get_mut(0) }.seq, 3);
}

/// A phase boundary releases all claims: a claim from generation g does not
/// conflict with a different thread's claim in generation g+1.
#[test]
fn begin_phase_releases_claims() {
    let slots = two_slots();
    slots.begin_phase();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // SAFETY: sole claimant in this generation; reference dropped
            // before the phase boundary below.
            unsafe { slots.get_mut(0) }.seq += 1;
            tx.send(()).unwrap();
        });
        rx.recv().unwrap();
        slots.begin_phase();
        // SAFETY: new generation — the previous claim is released and the
        // barrier-equivalent (thread join above via channel + scope) orders
        // the accesses.
        unsafe { slots.get_mut(0) }.seq += 1;
    });
    let (lps, _) = slots.into_inner();
    assert_eq!(lps[0].seq, 2);
}

/// A send is covered by the claim on its source LP: sending from LP 0 with
/// only LP 1 stamped (or nothing stamped) is a send nobody was entitled to
/// make.
#[test]
#[should_panic(expected = "outbox push without the claim")]
fn send_without_the_source_claim_panics() {
    let slots = two_slots();
    slots.begin_phase();
    // SAFETY: single-threaded; trivially exclusive.
    let _ = unsafe { slots.get_mut(1) };
    // SAFETY: never reached past the audit panic.
    unsafe { slots.send(LpId(0), 0, LpId(1), ev(1)) };
}

/// A stamp from an earlier generation is no claim either.
#[test]
#[should_panic(expected = "outbox push without the claim")]
fn send_with_a_stale_claim_panics() {
    let slots = two_slots();
    slots.begin_phase();
    // SAFETY: single-threaded; trivially exclusive.
    let _ = unsafe { slots.get_mut(0) };
    slots.begin_phase();
    // SAFETY: never reached past the audit panic.
    unsafe { slots.send(LpId(0), 0, LpId(1), ev(1)) };
}

/// Sends `ev(node)` from LP 0 on worker 0, addressed to LP `dst`, under the
/// claim on LP 0, and opens the next phase generation.
fn send_then_next_phase(slots: &LpSlots<Nop>, dst: u32, node: u32) {
    slots.begin_phase();
    // SAFETY: single-threaded; trivially exclusive.
    let _ = unsafe { slots.get_mut(0) };
    // SAFETY: LP 0 is stamped by this thread in this generation.
    unsafe { slots.send(LpId(0), 0, LpId(dst), ev(node)) };
    slots.begin_phase();
}

/// A helper thread touches LP 1 in the receive generation; the main thread
/// then delivers into LP 1 in the same generation. The delivery's `get_mut`
/// is the second claim.
#[test]
#[should_panic(expected = "double claim of LP slot 1")]
fn delivery_into_an_lp_another_thread_stamped_panics() {
    let slots = two_slots();
    send_then_next_phase(&slots, 1, 1);
    let (tx, rx) = mpsc::channel();
    let slots = &slots;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            // SAFETY: sole claimant of slot 1 so far; the reference is
            // dropped at once, the audit tag stays behind.
            let _ = unsafe { slots.get_mut(1) };
            tx.send(()).unwrap();
        });
        rx.recv().unwrap();
        // SAFETY: never reached past the audit panic.
        unsafe { slots.receive(1, |_, _| {}) };
    });
}

/// Only its home worker receives for an LP. An event for node 0 (LP 0, home
/// worker 0) sent as if it were LP 1's travels in column 1; draining that
/// column must not deliver it.
#[test]
fn delivery_out_of_a_foreign_column_panics() {
    let slots = two_slots();
    send_then_next_phase(&slots, 1, 0);
    let forged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // SAFETY: single-threaded; the audit panics before the insertion.
        unsafe { slots.receive(1, |_, _| {}) }
    }));
    let msg = *forged.unwrap_err().downcast::<String>().unwrap();
    for part in ["LP slot 0", "column of worker 1", "home is worker 0"] {
        assert!(msg.contains(part), "`{part}` missing from: {msg}");
    }
}

/// The kernel pattern: send under the source claim in one generation,
/// deliver out of the destination's home column in the next. Any pair of
/// LPs has a lane — an LP can even send to itself.
#[test]
fn claimed_send_then_home_drain_delivers() {
    let slots = two_slots();
    slots.begin_phase();
    // SAFETY: single-threaded; trivially exclusive.
    let _ = unsafe { slots.get_mut(0) };
    // SAFETY: LP 0 is stamped by this thread in this generation.
    unsafe {
        slots.send(LpId(0), 0, LpId(1), ev(1));
        slots.send(LpId(0), 1, LpId(1), ev(1));
        slots.send(LpId(0), 0, LpId(0), ev(0));
    }
    slots.begin_phase();
    let mut got = Vec::new();
    // SAFETY: single-threaded; trivially exclusive.
    let n = unsafe { slots.receive(1, |dst, ev| got.push((dst, ev.node))) };
    assert_eq!((n, got), (2, vec![(LpId(1), NodeId(1)); 2]));
    // SAFETY: as above.
    let rest = unsafe { slots.receive_all() };
    assert_eq!(rest, 1, "column 0 was not drained");
    let (lps, _) = slots.into_inner();
    for (lp, recv) in lps.iter().zip([1, 2]) {
        assert_eq!((lp.fel.len() as u64, lp.round_recv), (recv, recv));
        assert_eq!(lp.next_ts, Time(1), "push keeps the cache current");
    }
}
