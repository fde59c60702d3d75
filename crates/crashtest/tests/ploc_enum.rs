//! The ploc crash-surface enumerator, exercised end to end.
//!
//! The smoke tier (always on) proves *completeness*: every event-prefix
//! of the workload's persistence log is explored — the state count is
//! asserted exactly, not sampled — and each one recovers to exactly-once
//! verdicts for every client, locally and over the loopback fabric. The
//! re-crash tier proves recovery *convergence*; the deep tier
//! (`CCNVME_ENUM_DEEP=1`) widens torn expansion and re-crashes recovery
//! at every explored image.
//!
//! The coexistence test at the bottom pins the §4.4 substrate claim:
//! the ploc sub-region and the ccNVMe driver's transaction rings share
//! one PMR, both appear in the same persistence-event log, and both
//! survive the same reboot.

use std::sync::Arc;

use ccnvme::{CcNvmeDriver, PmrLayout};
use ccnvme_block::BlockDevice;
use ccnvme_crashtest::{sweep, PlocSurface, RecrashSweep, SweepPlan};
use ccnvme_obs::Obs;
use ccnvme_ploc::{OpResult, PlocConfig, PlocOp, PlocService, RecoverVerdict};
use ccnvme_sim::Sim;
use ccnvme_ssd::{CrashMode, CtrlConfig, NvmeController, SsdProfile};
use mqfs_journal::{AreaSpec, Durability, Journal, MqJournal, TxBlock, TxDescriptor};
use parking_lot::Mutex;

fn deep() -> bool {
    std::env::var("CCNVME_ENUM_DEEP")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Two clients on a 32-node pool and 4 buckets.
const SMOKE: PlocConfig = PlocConfig {
    clients: 2,
    pool: 32,
    buckets: 4,
};

fn smoke_surface() -> PlocSurface {
    PlocSurface::scripted(SMOKE, 6)
}

#[test]
fn smoke_local_sweep_explores_every_prefix() {
    let r = sweep(smoke_surface(), &SweepPlan::every());
    assert!(r.events > 0, "instrumentation recorded no events");
    assert!(
        r.count("region_writes") > 0,
        "no posted write landed inside the ploc region"
    );
    // Exact: the run is deterministic, so a moved count means the
    // script's persistence traffic changed.
    assert_eq!(
        (r.events, r.states, r.count("region_writes")),
        (52, 53, 57),
        "crash surface moved"
    );
    // Completeness, asserted exactly: one state per event boundary,
    // including the empty prefix (crash at format's end) and the full
    // log (crash after the last ack).
    assert_eq!(
        r.states,
        r.events + 1,
        "enumerator must explore every event-prefix"
    );
    assert!(
        r.failures.is_empty(),
        "crash states broke exactly-once: {:?}",
        r.failures
    );
    assert_eq!(r.clean, r.states, "every state must verify clean");
    let snap = r.metrics();
    assert_eq!(snap.counters["crashenum.ploc.states"], r.states as u64);
    assert_eq!(snap.counters["crashenum.ploc.clean"], r.clean as u64);
    assert_eq!(snap.counters["crashenum.ploc.region_writes"], 57);
    assert_eq!(snap.counters["crashenum.ploc.failures"], 0);
}

#[test]
fn torn_posted_write_tails_hold_exactly_once() {
    let plan = SweepPlan {
        torn_depth: 2,
        ..SweepPlan::every()
    };
    let r = sweep(smoke_surface(), &plan);
    assert_eq!((r.events, r.states), (52, 126), "crash surface moved");
    assert!(
        r.states > r.events + 1,
        "torn expansion explored no extra states"
    );
    assert!(
        r.failures.is_empty(),
        "torn tails broke exactly-once: {:?}",
        r.failures
    );
}

#[test]
fn recovery_recrashed_at_each_of_its_events_converges() {
    let plan = SweepPlan {
        recrash: RecrashSweep::FinalImage,
        ..SweepPlan::every()
    };
    let r = sweep(smoke_surface(), &plan);
    assert!(
        r.recovery_recrashes > 0,
        "re-crash sweep injected no crash points into recovery"
    );
    assert!(
        r.failures.is_empty(),
        "crash-during-recovery diverged: {:?}",
        r.failures
    );
}

#[test]
fn fabric_driven_sweep_holds_exactly_once_remotely() {
    let surface = PlocSurface {
        fabric: true,
        ..PlocSurface::scripted(SMOKE, 4)
    };
    let r = sweep(surface, &SweepPlan::every());
    assert!(r.events > 0);
    assert_eq!(r.states, r.events + 1);
    assert_eq!(
        (r.events, r.states, r.count("region_writes")),
        (37, 38, 42),
        "crash surface moved"
    );
    assert!(
        r.failures.is_empty(),
        "fabric-driven crash states broke exactly-once: {:?}",
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
    let surface = PlocSurface::scripted(SMOKE, 8);
    let r = sweep(surface, &plan);
    assert!(r.states > r.events + 1);
    assert!(r.recovery_recrashes > 0);
    assert!(
        r.failures.is_empty(),
        "deep local enumeration failures: {:?}",
        r.failures
    );

    let plan = SweepPlan {
        torn_depth: 2,
        ..SweepPlan::every()
    };
    let surface = PlocSurface {
        fabric: true,
        ..smoke_surface()
    };
    let fr = sweep(surface, &plan);
    assert!(
        fr.failures.is_empty(),
        "deep fabric enumeration failures: {:?}",
        fr.failures
    );
}

/// The §4.4 coexistence claim: the ccNVMe driver's transaction rings
/// and the ploc sub-region share one PMR. Both workloads run, both
/// land in the same persistence-event log (coverage asserted via
/// [`pmr_writes_in_range`](ccnvme_ssd::PersistLog::pmr_writes_in_range)
/// on each sub-range), and after a reboot the driver probe and the
/// ploc mount both recover from the shared image.
#[test]
fn ploc_and_driver_share_the_pmr_and_the_reboot() {
    const CORES: usize = 2;
    const DEPTH: u32 = 16;
    let done: Arc<Mutex<Option<()>>> = Arc::new(Mutex::new(None));
    let done2 = Arc::clone(&done);
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("ploc-coexist", 0, move || {
        let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
        cc.device_core = CORES;
        cc.record_persistence = true;
        let drv = Arc::new(CcNvmeDriver::new(
            NvmeController::new(cc),
            CORES as u16,
            DEPTH,
        ));
        let plog = drv.controller().persist_log().expect("recording");
        let base = PmrLayout::new(CORES as u16, DEPTH).app_region_off();
        let svc = PlocService::format(
            drv.controller().pmr(),
            base,
            PlocConfig {
                clients: 1,
                pool: 8,
                buckets: 2,
            },
            Obs::new(),
        );

        // Driver-side traffic: one journaled transaction through the
        // rings below `base`.
        let dev: Arc<dyn BlockDevice> = Arc::clone(&drv) as Arc<dyn BlockDevice>;
        let journal = MqJournal::new(Arc::clone(&dev), AreaSpec::split(1_000, 128, CORES), 999);
        let mut tx = TxDescriptor::new(journal.alloc_tx_id());
        tx.meta.push(TxBlock {
            final_lba: 17,
            buf: Arc::new(Mutex::new(vec![0xAB; 4096])),
        });
        journal.commit_tx(tx, Durability::Durable).expect("commit");
        journal.shutdown();

        // Ploc-side traffic in the sub-region above `base`.
        assert_eq!(svc.op(0, 1, PlocOp::Push(7)), Ok(OpResult::Done));
        assert_eq!(svc.op(0, 2, PlocOp::Enqueue(8)), Ok(OpResult::Done));

        // Both tenants are visible to the same persistence log, each in
        // its own sub-range of the shared PMR.
        let (lo, hi) = svc.region_bounds();
        assert_eq!(lo, base);
        assert!(
            plog.pmr_writes_in_range(lo, hi) > 0,
            "ploc posted writes must appear in the persist log"
        );
        assert!(
            plog.pmr_writes_in_range(0, base) > 0,
            "driver ring posted writes must appear in the persist log"
        );

        // Cotenancy must not confuse the persist-order sanitizer: ploc's
        // posted writes land outside the ring windows, and the driver's
        // journaled commit kept every doorbell behind its covering flush.
        let geo = drv.layout().sanitizer_geometry();
        let violations = plog.sanitize(&geo);
        assert!(
            violations.is_empty(),
            "sanitizer flagged the shared-PMR workload: {violations:?}"
        );
        assert!(
            !plog.sanitize_ignoring_flushes(&geo).is_empty(),
            "shadow machine is vacuous: discounting flushes must trip it"
        );

        // One reboot recovers both tenants from the shared image.
        let image = drv.controller().crash_snapshot(CrashMode::SETTLED);
        let mut cc2 = CtrlConfig::new(SsdProfile::optane_905p());
        cc2.device_core = CORES;
        let (drv2, _report) =
            CcNvmeDriver::probe(NvmeController::from_image(cc2, &image), CORES as u16, DEPTH);
        let svc2 = PlocService::mount(drv2.controller().pmr(), base, Obs::new())
            .expect("ploc mounts beside the probed driver");
        assert_eq!(svc2.stack_contents(), vec![7]);
        assert_eq!(svc2.queue_contents(), vec![8]);
        assert_eq!(
            svc2.recover(0),
            Ok(RecoverVerdict::Completed {
                seq: 2,
                result: OpResult::Done
            })
        );
        *done2.lock() = Some(());
    });
    sim.run();
    assert!(done.lock().is_some(), "coexistence scenario completed");
}
