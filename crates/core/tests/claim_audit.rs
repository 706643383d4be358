//! Tests for the `claim-audit` runtime auditor (see `lp.rs`): `get_mut`
//! stamps an owner tag per slot and must panic deterministically when two
//! threads claim the same slot in the same phase generation — the exact
//! violation of the claim discipline that the `unsafe` contract forbids.
//! Channel accesses check the same tags: a push needs the caller's stamp on
//! the source LP, a drain on the destination LP.

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

fn two_slots() -> LpSlots<Nop> {
    let mut lp0 = LpState::<Nop>::new(LpId(0));
    lp0.nodes.push(Nop);
    let lp1 = LpState::<Nop>::new(LpId(1));
    let dir = NodeDirectory::from_lp_nodes(1, &[vec![NodeId(0)], vec![]]);
    LpSlots::with_channels(vec![lp0, lp1], dir, &[(0, 1)])
}

fn ev() -> Event<()> {
    Event {
        key: EventKey::external(Time(1), 0),
        node: NodeId(0),
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

/// The channel `0 -> 1` belongs to LP 0's claim: pushing with only LP 1
/// stamped (or nothing stamped) is a push nobody was entitled to make.
#[test]
#[should_panic(expected = "channel push without the claim")]
fn channel_push_without_the_source_claim_panics() {
    let slots = two_slots();
    slots.begin_phase();
    // SAFETY: single-threaded; trivially exclusive.
    let _ = unsafe { slots.get_mut(1) };
    // SAFETY: never reached past the audit panic.
    let _ = unsafe { slots.send(LpId(0), LpId(1), ev()) };
}

/// A stamp from an earlier generation is no claim either.
#[test]
#[should_panic(expected = "channel push without the claim")]
fn channel_push_with_a_stale_claim_panics() {
    let slots = two_slots();
    slots.begin_phase();
    // SAFETY: single-threaded; trivially exclusive.
    let _ = unsafe { slots.get_mut(0) };
    slots.begin_phase();
    // SAFETY: never reached past the audit panic.
    let _ = unsafe { slots.send(LpId(0), LpId(1), ev()) };
}

/// A helper thread claims LP 1 for the receive phase; the main thread then
/// drains LP 1's channels in the same generation. Only the claimant may.
#[test]
#[should_panic(expected = "channel drain without the claim")]
fn channel_drain_from_a_second_thread_panics() {
    let slots = two_slots();
    slots.begin_phase();
    let (tx, rx) = mpsc::channel();
    let slots = &slots;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            // SAFETY: sole claimant of slot 1; the reference is dropped at
            // once, the audit tag stays behind.
            let _ = unsafe { slots.get_mut(1) };
            tx.send(()).unwrap();
        });
        rx.recv().unwrap();
        // SAFETY: never reached past the audit panic.
        unsafe { slots.receive(1, |_, batch| drop(batch)) };
    });
}

/// The kernel pattern: push under the source claim in one generation, drain
/// under the destination claim in the next.
#[test]
fn claimed_push_then_claimed_drain_delivers() {
    let slots = two_slots();
    slots.begin_phase();
    // SAFETY: single-threaded; trivially exclusive.
    let _ = unsafe { slots.get_mut(0) };
    // SAFETY: LP 0 is stamped by this thread in this generation.
    unsafe { slots.send(LpId(0), LpId(1), ev()) }.unwrap();
    // No channel `0 -> 0`: the event comes back for the outflow lane.
    // SAFETY: as above.
    assert!(unsafe { slots.send(LpId(0), LpId(0), ev()) }.is_err());
    slots.begin_phase();
    // SAFETY: as above.
    let _ = unsafe { slots.get_mut(1) };
    let mut got = Vec::new();
    // SAFETY: LP 1 is stamped by this thread in this generation.
    let n = unsafe { slots.receive(1, |src, batch| got.push((src, batch.count()))) };
    assert_eq!((n, got), (1, vec![(0, 1)]));
}
