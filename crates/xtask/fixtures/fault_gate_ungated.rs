//! Fixture: fault-injection hooks called without a feature gate (rule 7).

fn bad_direct(plan: &FaultPlan) {
    plan.fire_phase(1, RunPhase::Process, 0);
}

fn bad_even_when_another_cfg_is_nearby(plan: &FaultPlan) {
    #[cfg(feature = "claim-audit")]
    let _tel = ();
    plan.fire_stall(1, 0);
}

fn bad_free_function() {
    crate::fault::alloc_check();
}
