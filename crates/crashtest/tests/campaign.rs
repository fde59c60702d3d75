//! Crash-campaign smoke tests (the full Table 4 run lives in the bench
//! crate; here we run fewer crash points per workload).

use ccnvme_crashtest::{sweep, table4_workloads, Cuts, FsSurface, StackConfig, SweepPlan};
use ccnvme_ssd::SsdProfile;
use mqfs::FsVariant;

/// The Table 4 plan: `points` crash instants spread over the run.
fn spread(points: usize) -> SweepPlan {
    SweepPlan {
        cuts: Cuts::Spread(points),
        ..SweepPlan::every()
    }
}

#[test]
fn mqfs_passes_all_workloads_small_campaign() {
    for script in table4_workloads() {
        let name = script.name;
        let stack = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
        let report = sweep(FsSurface { script, stack }, &spread(25));
        assert_eq!(report.states, 25, "{name}");
        assert_eq!(
            report.clean, report.states,
            "{name}: {:#?}",
            report.failures
        );
    }
}

#[test]
fn mqfs_passes_on_flash_with_volatile_cache() {
    // Hardest device: the volatile cache loses arbitrary subsets.
    for script in table4_workloads() {
        let name = script.name;
        let stack = StackConfig::new(FsVariant::Mqfs, SsdProfile::intel_750(), 2);
        let report = sweep(FsSurface { script, stack }, &spread(25));
        assert_eq!(report.states, 25, "{name}");
        assert_eq!(
            report.clean, report.states,
            "{name}: {:#?}",
            report.failures
        );
    }
}

/// The other crash-consistent variants on the volatile-cache device:
/// the classic journal, the classic structure over ccNVMe commits, and
/// MQFS without shadow paging. HoraeFS is left out: with no ordering
/// layer and one trailing flush it is not crash-consistent on a
/// volatile cache (DESIGN.md §7, "Known deviations").
#[test]
fn ext4_variant_also_passes() {
    for variant in [
        FsVariant::Ext4,
        FsVariant::Ext4CcNvme,
        FsVariant::MqfsNoShadow,
    ] {
        for script in table4_workloads() {
            let name = script.name;
            let stack = StackConfig::new(variant, SsdProfile::intel_750(), 2);
            let report = sweep(FsSurface { script, stack }, &spread(20));
            assert_eq!(report.states, 20, "{variant:?} {name}");
            assert_eq!(
                report.clean, report.states,
                "{variant:?} {name}: {:#?}",
                report.failures
            );
        }
    }
}

#[test]
fn campaign_is_deterministic() {
    let run = || {
        let script = table4_workloads().remove(3);
        let stack = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
        sweep(FsSurface { script, stack }, &spread(10))
    };
    let (r1, r2) = (run(), run());
    assert_eq!(r1.clean, r2.clean);
    assert_eq!(r1.states, r2.states);
    assert_eq!(r1.events, r2.events);
}
