//! Fault-campaign acceptance tests: deterministic device-error
//! schedules against the MQFS stack, each one swept through the crash
//! engine: the run itself is held to the error contract, and every cut
//! of it recovers on healthy hardware.

use ccnvme_crashtest::{
    run_fault_campaign, sweep, workloads, Cuts, FaultCampaignConfig, FsSurface, StackConfig,
    SweepPlan, SweepReport,
};
use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, OpMask, Trigger};
use ccnvme_ssd::SsdProfile;
use mqfs::FsVariant;

fn small_stack(variant: FsVariant) -> StackConfig {
    // A small journal and ring keep each schedule's simulation cheap
    // without changing any code path under test.
    let mut stack = StackConfig::new(variant, SsdProfile::optane_905p(), 2);
    stack.journal_blocks = 512;
    stack.queue_depth = 64;
    stack
}

fn campaign_cfg(schedules: usize, seed: u64) -> FaultCampaignConfig {
    FaultCampaignConfig {
        stack: small_stack(FsVariant::Mqfs),
        schedules,
        seed,
    }
}

/// `(fired, degraded, retries, kicks, timeouts)` summed over the kind's
/// schedules.
fn tallies(rep: &SweepReport) -> [usize; 5] {
    ["fired", "degraded", "retries", "kicks", "timeouts"].map(|c| rep.count(c))
}

/// Every schedule swept clean: no failure, no sanitizer finding, and at
/// least two cuts each — one inside the run, one the nothing-lost end
/// state.
fn assert_swept_clean(kind: FaultKind, rep: &SweepReport, schedules: usize) {
    assert!(rep.failures.is_empty(), "{kind:?}: {:#?}", rep.failures);
    assert_eq!(rep.clean, rep.states, "{kind:?}");
    assert_eq!(rep.sanitizer_violations, 0, "{kind:?}");
    assert!(rep.cuts >= 2 * schedules, "{kind:?}: {} cuts", rep.cuts);
    assert_eq!(rep.count("forensics_images"), rep.states, "{kind:?}");
}

/// The full campaign: five fault kinds, 100 deterministic schedules
/// each, every schedule swept through its fault window.
#[test]
fn mqfs_fault_campaign_100_schedules_per_kind() {
    // Every schedule fires; the transient kinds are absorbed (one retry
    // per busy completion, one kick per dropped doorbell), the others
    // degrade (a stall after four kicks and a timeout).
    let expect = [
        (FaultKind::Busy, [100, 0, 100, 0, 0]),
        (FaultKind::DoorbellDrop, [100, 0, 0, 100, 0]),
        (FaultKind::MediaWrite, [100, 100, 0, 0, 0]),
        (FaultKind::TornDma, [100, 100, 0, 0, 0]),
        (FaultKind::Stall, [100, 100, 0, 400, 100]),
    ];
    let kinds = expect.map(|(kind, _)| kind);
    let cfg = campaign_cfg(100, 0xfau64 << 32 | 0x17);
    for ((kind, want), rep) in expect.iter().zip(run_fault_campaign(&kinds, &cfg)) {
        assert_swept_clean(*kind, &rep, cfg.schedules);
        assert_eq!(tallies(&rep), *want, "{kind:?}: tallies moved");
    }
}

/// The baseline-driver stack (Ext4 on plain NVMe with queue re-creation
/// on timeout) honours the same contract.
#[test]
fn ext4_baseline_driver_small_fault_campaign() {
    let expect = [
        (FaultKind::Busy, [20, 0, 20, 0, 0]),
        (FaultKind::MediaWrite, [20, 20, 0, 0, 0]),
        (FaultKind::Stall, [20, 20, 0, 80, 20]),
    ];
    let kinds = expect.map(|(kind, _)| kind);
    let cfg = FaultCampaignConfig {
        stack: small_stack(FsVariant::Ext4),
        schedules: 20,
        seed: 77,
    };
    for ((kind, want), rep) in expect.iter().zip(run_fault_campaign(&kinds, &cfg)) {
        assert!(rep.failures.is_empty(), "{kind:?}: {:#?}", rep.failures);
        assert_eq!(rep.clean, rep.states, "{kind:?}");
        assert!(rep.cuts >= 2 * cfg.schedules, "{kind:?}");
        assert_eq!(tallies(&rep), *want, "{kind:?}: tallies moved");
    }
}

/// Same seed, same outcomes — schedules are fully deterministic.
#[test]
fn fault_campaign_is_deterministic() {
    let kinds = [FaultKind::MediaWrite];
    let r1 = run_fault_campaign(&kinds, &campaign_cfg(10, 5)).remove(0);
    let r2 = run_fault_campaign(&kinds, &campaign_cfg(10, 5)).remove(0);
    assert_eq!(r1.metrics().counters, r2.metrics().counters);
    assert_eq!(r1.failures, r2.failures);
}

/// A sweep of create/delete under a storm of `kind` on `ops`: one
/// command in five is hit, from mkfs on.
fn storm(kind: FaultKind, ops: OpMask) -> SweepReport {
    let mut stack = small_stack(FsVariant::Mqfs);
    stack.fault =
        Some(FaultPlan::new(9).rule(FaultRule::new(kind, Trigger::Probability(0.2)).ops(ops)));
    let surface = FsSurface {
        script: workloads::create_delete(3),
        stack,
    };
    let plan = SweepPlan {
        cuts: Cuts::EveryNthInstant(4),
        ..SweepPlan::every()
    };
    sweep(surface, &plan)
}

/// Transient faults are invisible to a Table 4 workload: under a storm
/// of busy completions, or of dropped doorbells, every cut recovers to
/// what the unchanged oracle demands and the sanitizer stays silent.
#[test]
fn transient_faults_leave_create_delete_clean_at_every_cut() {
    for (kind, ops) in [
        (FaultKind::Busy, OpMask::WRITES),
        (FaultKind::DoorbellDrop, OpMask::DOORBELLS),
    ] {
        let r = storm(kind, ops);
        assert_swept_clean(kind, &r, 0);
        let [fired, degraded, retries, kicks, _] = tallies(&r);
        assert_eq!((fired, degraded), (1, 0), "{kind:?}");
        assert!(retries + kicks > 1, "{kind:?}: the storm fired once");
    }
}

/// A busy completion is retried within its backoff even when the ring
/// is full: the ccNVMe driver retries through its host-memory retry
/// queue, never through a second P-SQ slot, so mkfs's batch filling the
/// 64-deep ring leaves no busy write waiting for the watchdog.
#[test]
fn busy_storm_over_a_full_ring_retries_without_timeouts() {
    let r = storm(FaultKind::Busy, OpMask::WRITES);
    assert_eq!(r.count("timeouts"), 0);
}
