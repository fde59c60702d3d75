//! The exhaustive crash-surface enumerator, exercised end to end.
//!
//! The smoke tier (always on) proves *completeness*: every event-prefix
//! of the workload's persistence log is explored — the state count is
//! asserted exactly, not sampled — and each one recovers to an
//! fsck-clean, oracle-clean file system. The re-crash tier proves
//! *convergence*: recovery interrupted at each of its own persistence
//! events still lands on the same final media image. The deep tier
//! (`CCNVME_ENUM_DEEP=1`) adds torn posted-write expansion and re-crash
//! sweeps over every explored image.

use std::sync::Arc;

use ccnvme_crashtest::{
    sweep, workloads, CrashWorkload, FsSurface, RecrashSweep, StackConfig, SweepPlan, SweepReport,
};
use ccnvme_ssd::SsdProfile;
use mqfs::FsVariant;

/// The smoke stack: MQFS on the power-loss-protected Optane 905P, so
/// the crash surface has no volatile-cache dimension and block
/// comparisons are deterministic.
fn smoke_stack() -> StackConfig {
    let mut cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
    cfg.journal_blocks = 256;
    cfg
}

fn sweep_fs(workload: impl CrashWorkload + 'static, plan: &SweepPlan) -> SweepReport {
    let surface = FsSurface {
        workload: Arc::new(workload),
        stack: smoke_stack(),
    };
    sweep(surface, plan)
}

fn deep() -> bool {
    std::env::var("CCNVME_ENUM_DEEP")
        .map(|v| v == "1")
        .unwrap_or(false)
}

#[test]
fn smoke_workload_explores_every_event_prefix() {
    let r = sweep_fs(workloads::CreateDelete { rounds: 1 }, &SweepPlan::every());
    assert!(r.events > 0, "instrumentation recorded no events");
    // Completeness, asserted exactly: one state per event boundary,
    // including the empty prefix (crash at t0) and the full log.
    assert_eq!(
        r.states,
        r.events + 1,
        "enumerator must explore every event-prefix"
    );
    assert!(
        r.failures.is_empty(),
        "crash states failed recovery: {:?}",
        r.failures
    );
    assert_eq!((r.events, r.states), (50, 51), "crash surface moved");
    assert_eq!(r.clean, r.states, "every state must recover clean");
    // Forensics coverage: the flight recorder mounted cleanly on every
    // explored image and no verdict contradicted the recovery scan
    // (contradictions and mount failures land in `failures`, asserted
    // empty above).
    assert_eq!(
        r.count("forensics_images"),
        r.states,
        "every crash image must get a forensics pass"
    );
    // The runtime persist-order sanitizer replays the same recorded log
    // through its shadow queues: the dynamic dual of the static lint gate
    // must agree that no doorbell outran the flush covering its slots.
    assert_eq!(
        r.sanitizer_violations, 0,
        "persist-order sanitizer flagged a doorbell-before-flush reorder"
    );
    // The campaign's machine-readable export carries the counters.
    let snap = r.metrics();
    assert_eq!(
        snap.counters["crashenum.create_delete.states"],
        r.states as u64
    );
    assert_eq!(
        snap.counters["crashenum.create_delete.clean"],
        r.clean as u64
    );
    assert_eq!(
        snap.counters["crashenum.create_delete.forensics_images"],
        r.states as u64
    );
    assert_eq!(
        snap.counters["crashenum.create_delete.sanitizer_violations"],
        0
    );
}

#[test]
fn extent_life_cycle_recovers_at_every_event_prefix() {
    // In-place extent growth, a spill into a leaf block, unlink, and
    // reuse of the freed data and leaf blocks by a new file.
    let r = sweep_fs(workloads::ExtentSpill, &SweepPlan::every());
    // Exact: the run is deterministic, so a moved count means the
    // workload's persistence traffic changed.
    assert_eq!((r.events, r.states), (183, 184), "crash surface moved");
    assert!(
        r.failures.is_empty(),
        "crash states failed recovery: {:?}",
        r.failures
    );
    assert_eq!(r.clean, r.states, "every state must recover clean");
    assert_eq!(r.count("forensics_images"), r.states);
    assert_eq!(r.sanitizer_violations, 0);
}

#[test]
fn recovery_recrashed_at_each_of_its_events_converges() {
    let plan = SweepPlan {
        recrash: RecrashSweep::FinalImage,
        ..SweepPlan::every()
    };
    let r = sweep_fs(workloads::CreateDelete { rounds: 1 }, &plan);
    assert!(
        r.recovery_recrashes > 0,
        "re-crash sweep injected no crash points into recovery"
    );
    assert_eq!(
        (r.events, r.states, r.recovery_recrashes),
        (50, 51, 1689),
        "crash surface moved"
    );
    assert!(
        r.failures.is_empty(),
        "crash-during-recovery diverged: {:?}",
        r.failures
    );
}

#[test]
fn deep_enumeration_with_torn_tails_and_full_recrash() {
    if !deep() {
        return; // Bounded tier: run with CCNVME_ENUM_DEEP=1.
    }
    let plan = SweepPlan {
        torn_depth: 2,
        recrash: RecrashSweep::EveryImage,
        ..SweepPlan::every()
    };
    let r = sweep_fs(workloads::CreateDelete { rounds: 2 }, &plan);
    assert!(
        r.states > r.events + 1,
        "torn expansion explored no extra states"
    );
    assert!(r.recovery_recrashes > 0);
    assert!(
        r.failures.is_empty(),
        "deep enumeration failures: {:?}",
        r.failures
    );
}
