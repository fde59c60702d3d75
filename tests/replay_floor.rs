//! A replay floor that did not reach media must not cost the PMR abort
//! logs: they are the only record that a failed transaction, whose
//! journal copy is intact and above the old floor, is to be discarded.
//!
//! The script dooms one transaction (its in-place data write fails, its
//! journal descriptor lands), cuts power, recovers on a device that
//! refuses the write of the horizon block, cuts power again and
//! recovers on healthy hardware. The doomed transaction must stay
//! discarded through both recoveries.

use ccnvme::recovery::scan_pmr_bytes;
use ccnvme_repro::crashtest::{Stack, StackConfig};
use ccnvme_repro::fault::{FaultKind, FaultPlan, FaultRule, Trigger};
use ccnvme_repro::sim::Sim;
use ccnvme_repro::ssd::{CacheSurvival, CrashMode, SsdProfile};
use mqfs::FsVariant;

const POWER_CUT: CrashMode = CrashMode {
    torn: 0,
    cache: CacheSurvival::DropAll,
};

fn failing_writes_in(start: u64, end: u64) -> Option<FaultPlan> {
    let trigger = Trigger::LbaRange { start, end };
    Some(FaultPlan::new(7).rule(FaultRule::new(FaultKind::MediaWrite, trigger)))
}

#[test]
fn abort_logs_outlive_a_replay_floor_that_did_not_land() {
    let healthy = {
        let mut cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
        cfg.journal_blocks = 512;
        cfg.queue_depth = 64;
        cfg
    };
    Sim::run_main(healthy.sim_cores(), move || {
        // Boot 1: every write into the data region fails, so the
        // transaction's data block dooms it while its descriptor lands.
        let image = {
            let (probe, fs) = Stack::format(&healthy);
            let layout = fs.layout();
            drop((probe, fs));
            let mut cfg = healthy.clone();
            cfg.fault = failing_writes_in(layout.data_start(), u64::MAX);
            let (stack, fs) = Stack::format(&cfg);
            let ino = fs.create_path("/tx").expect("create");
            fs.write(ino, 0, &[0x5a; 4096]).expect("write");
            fs.fsync(ino).expect_err("the data block never landed");
            stack.power_fail(POWER_CUT)
        };
        let doomed = scan_pmr_bytes(&image.pmr).expect("PMR scans").aborted;
        assert!(!doomed.is_empty(), "the abort log names the doomed tx");

        // Boot 2: recovery discards it, but the floor that would make
        // that permanent cannot be written.
        let image = {
            let mut cfg = healthy.clone();
            cfg.fault = failing_writes_in(1, 2);
            let (stack, fs) = Stack::recover(&cfg, &image).expect("mounts");
            assert_eq!(fs.layout().horizon(), 1);
            assert_eq!(
                fs.error_state().as_deref(),
                Some("replay floor not durable")
            );
            assert!(fs.resolve("/tx").is_err(), "discarded on this boot");
            stack.power_fail(POWER_CUT)
        };
        let kept = scan_pmr_bytes(&image.pmr).expect("PMR scans").aborted;
        assert!(doomed.is_subset(&kept), "{doomed:?} not in {kept:?}");

        // Boot 3: healthy hardware, and still discarded.
        let (_stack, fs) = Stack::recover(&healthy, &image).expect("mounts");
        assert_eq!(fs.error_state(), None);
        assert_eq!(fs.check(), Vec::<String>::new());
        assert!(fs.resolve("/tx").is_err(), "a discarded tx was replayed");
    });
}
