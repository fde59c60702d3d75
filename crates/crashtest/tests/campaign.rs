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
    for workload in table4_workloads() {
        let name = workload.name();
        let stack = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
        let report = sweep(FsSurface { workload, stack }, &spread(25));
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
    let workload = table4_workloads().remove(0);
    let stack = StackConfig::new(FsVariant::Mqfs, SsdProfile::intel_750(), 2);
    let report = sweep(FsSurface { workload, stack }, &spread(25));
    assert_eq!(report.clean, report.states, "{:#?}", report.failures);
}

#[test]
fn ext4_variant_also_passes() {
    // The classic journaling path must be crash-consistent too.
    let workload = table4_workloads().remove(1);
    let stack = StackConfig::new(FsVariant::Ext4, SsdProfile::intel_750(), 2);
    let report = sweep(FsSurface { workload, stack }, &spread(20));
    assert_eq!(report.clean, report.states, "{:#?}", report.failures);
}

#[test]
fn campaign_is_deterministic() {
    let run = || {
        let workload = table4_workloads().remove(3);
        let stack = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
        sweep(FsSurface { workload, stack }, &spread(10))
    };
    let (r1, r2) = (run(), run());
    assert_eq!(r1.clean, r2.clean);
    assert_eq!(r1.states, r2.states);
    assert_eq!(r1.events, r2.events);
}
