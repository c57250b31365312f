//! Model-checked verification of the capacity-waiter backpressure protocol
//! (run with `RUSTFLAGS="--cfg rsched_model" cargo test -p rsched-core
//! --test model_service`).
//!
//! The property: a pump that registers its thread and then still observes
//! the stall condition may park, because the worker's drain→check is
//! guaranteed to see the registration (or the pump's re-check to see the
//! drain) — the store-buffering fence pair in `CapacityWaiters`. The
//! seeded `capacity-weaken` mutation removes the fences and drops the
//! `armed` flag to `Relaxed`; the checker must then find the
//! parked-with-no-wakeup interleaving.
#![cfg(rsched_model)]

use rsched_core::service::CapacityWaiters;
use rsched_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use rsched_sync::model::{Model, Sim};
use std::sync::Arc;

/// The minimal pump/worker shape over one occupancy word. `occupancy`
/// deliberately uses release/acquire, not `SeqCst`: the model gives
/// `SeqCst` *accesses* global-fence strength, which would let the
/// occupancy handshake smuggle the `armed` store across and mask the
/// mutation — the fences inside `CapacityWaiters` must carry the
/// guarantee on their own, exactly as the protocol comment claims.
fn wakeup_scenario(sim: &mut Sim) {
    let cap = Arc::new(CapacityWaiters::default());
    let occupancy = Arc::new(AtomicUsize::new(1));
    let woken = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicBool::new(false));
    {
        // Pump: register, re-check the stall condition, park if stalled.
        // Parking is recorded rather than performed: the checker owns the
        // thread, and the unpark it would wait for is what the worker counts.
        let (cap, occupancy, parked) = (cap.clone(), occupancy.clone(), parked.clone());
        sim.thread(move || {
            cap.register(std::thread::current());
            if occupancy.load(Ordering::Acquire) != 0 {
                parked.store(true, Ordering::Relaxed);
            }
        });
    }
    {
        // Worker: retire the occupancy, then signal capacity, recording
        // whether that unparked the pump.
        let (cap, occupancy, woken) = (cap.clone(), occupancy.clone(), woken.clone());
        sim.thread(move || {
            occupancy.store(0, Ordering::Release);
            woken.store(cap.wake_all() > 0, Ordering::Relaxed);
        });
    }
    sim.finally(move || {
        let lost = parked.load(Ordering::Relaxed) && !woken.load(Ordering::Relaxed);
        assert!(!lost, "lost wakeup: pump parked and the worker never signaled it");
    });
}

#[test]
fn no_lost_wakeup_clean() {
    let report = Model::new("capacity-wakeup").check(wakeup_scenario);
    report.assert_clean(2);
}

#[test]
fn capacity_weaken_mutation_found() {
    let report =
        Model::new("capacity-weaken").quiet().mutation("capacity-weaken").check(wakeup_scenario);
    let v = report.expect_violation();
    assert!(v.message.contains("lost wakeup"), "expected a lost wakeup, got: {}", v.message);
}
