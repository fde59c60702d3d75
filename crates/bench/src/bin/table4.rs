//! Table 4 — Crash-consistency test: the four workloads of §7.6, each
//! exercised at many crash points on MQFS/ccNVMe. `QUICK=1` runs 50
//! crash points per workload; the default runs the paper's 1000.

use ccnvme_bench::quick;
use ccnvme_crashtest::{sweep, table4_workloads, Cuts, FsSurface, StackConfig, SweepPlan};
use ccnvme_ssd::SsdProfile;
use mqfs::FsVariant;

fn main() {
    // `CRASH_POINTS` overrides the default campaign size.
    let crash_points = std::env::var("CRASH_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick() { 50 } else { 1000 });
    ccnvme_bench::header(&format!(
        "Table 4 — crash consistency of MQFS ({crash_points} crash points per workload)"
    ));
    ccnvme_bench::row(
        "workload",
        &["total", "passed"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );
    let mut all_pass = true;
    let plan = SweepPlan {
        cuts: Cuts::Spread(crash_points),
        ..SweepPlan::every()
    };
    for script in table4_workloads() {
        let mut stack = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
        stack.journal_blocks = 512; // Small journal: fast recovery scans.
        let report = sweep(FsSurface { script, stack }, &plan);
        ccnvme_bench::row(
            &report.surface,
            &[report.states.to_string(), report.clean.to_string()],
        );
        if report.clean != report.states || !report.failures.is_empty() {
            all_pass = false;
            for f in &report.failures {
                println!("    FAILURE: {f}");
            }
        }
    }
    println!();
    if all_pass {
        println!("All crash points recovered to a correct state (paper: 1000/1000 each).");
    } else {
        println!("Some crash points FAILED — see above.");
        std::process::exit(1);
    }
    ccnvme_bench::write_metrics("table4");
}
