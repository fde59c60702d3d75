//! Error-path overhead: the same fsync-heavy FIO workload with and
//! without a storm of *transient* device faults (busy completions and
//! dropped doorbell MMIOs — everything the host absorbs without
//! failing a single operation). Reports throughput, the retry/kick
//! counters behind the recovery work, and the net overhead the error
//! path adds. Not a paper figure; it quantifies the cost of the host
//! error-handling ladder described in DESIGN.md §8.

use ccnvme_bench::{
    f1, header, quick, record_run, record_run_seq, row, scaled, write_metrics, Stack, StackConfig,
};
use ccnvme_crashtest::{run_fault_campaign, FaultCampaignConfig};
use ccnvme_fault::{FaultCounters, FaultKind, FaultPlan, FaultRule, OpMask, Trigger};
use ccnvme_obs::MetricsSnapshot;
use ccnvme_sim::Sim;
use ccnvme_ssd::SsdProfile;
use ccnvme_workloads::{run_fio, FioConfig, SyncMode};
use mqfs::FsVariant;

struct Point {
    kiops: f64,
    injected: u64,
    retries: u64,
    kicks: u64,
}

fn measure(variant: FsVariant, busy_pct: f64, drop_pct: f64) -> Point {
    let mut cfg = StackConfig::new(variant, SsdProfile::optane_905p(), 4);
    if busy_pct > 0.0 || drop_pct > 0.0 {
        cfg.fault = Some(
            FaultPlan::new(0xbadd_ecaf)
                .rule(
                    FaultRule::new(FaultKind::Busy, Trigger::Probability(busy_pct / 100.0))
                        .ops(OpMask::WRITES),
                )
                .rule(
                    FaultRule::new(
                        FaultKind::DoorbellDrop,
                        Trigger::Probability(drop_pct / 100.0),
                    )
                    .ops(OpMask::DOORBELLS),
                ),
        );
    }
    let (point, metrics) = Sim::run_main(cfg.sim_cores(), move || {
        let (stack, fs) = Stack::format(&cfg);
        let res = run_fio(
            &fs,
            &FioConfig {
                threads: 4,
                write_size: 4096,
                ops_per_thread: scaled(2000),
                sync: SyncMode::Fsync,
            },
        );
        let m = stack.metrics();
        let point = Point {
            kiops: res.kiops(),
            injected: FaultCounters::media_injections(&m),
            retries: m.counter("host_err.retries"),
            kicks: m.counter("host_err.doorbell_kicks"),
        };
        (point, m)
    });
    record_run_seq(
        &format!("{variant:?}.busy{busy_pct}_drop{drop_pct}").to_lowercase(),
        metrics,
    );
    point
}

fn main() {
    header("Error-path overhead (FIO 4 KB append+fsync, 4 threads, Optane 905P)");
    println!(
        "{:<22}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "variant (busy/drop)", "kiops", "injected", "retries", "kicks", "overhead"
    );
    for variant in [FsVariant::Mqfs, FsVariant::Ext4] {
        let base = measure(variant, 0.0, 0.0);
        for (label, busy, drop) in [("1%/0.5%", 1.0, 0.5), ("5%/2%", 5.0, 2.0)] {
            let p = measure(variant, busy, drop);
            row(
                &format!("{variant:?} {label}"),
                &[
                    format!("{} -> {}", f1(base.kiops), f1(p.kiops)),
                    format!("{}", p.injected),
                    format!("{}", p.retries),
                    format!("{}", p.kicks),
                    format!("{:.1}%", 100.0 * (1.0 - p.kiops / base.kiops)),
                ],
            );
        }
    }

    // Deterministic fault campaign: schedules per kind, each a crash
    // sweep checking the end-to-end error contract; its reports land in
    // the metrics document as crashenum.fault_campaign.* counters.
    header("Fault campaign (error-contract schedules)");
    let campaign = FaultCampaignConfig {
        stack: StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 1),
        schedules: if quick() { 1 } else { 2 },
        seed: 0xfa51_7ca3,
    };
    let kinds = [
        FaultKind::Busy,
        FaultKind::DoorbellDrop,
        FaultKind::MediaWrite,
    ];
    let reports = run_fault_campaign(&kinds, &campaign);
    let mut snap = MetricsSnapshot::default();
    for (kind, r) in kinds.iter().zip(&reports) {
        row(
            &format!("{kind:?}"),
            &[
                format!("fired {}/{}", r.count("fired"), campaign.schedules),
                format!("degraded {}", r.count("degraded")),
                format!("retries {}", r.count("retries")),
                format!("violations {}", r.failures.len()),
            ],
        );
        for f in &r.failures {
            println!("    {f}");
        }
        snap.counters.extend(r.metrics().counters);
    }
    record_run("campaign", snap);
    write_metrics("faultpath");
    if reports.iter().any(|r| !r.failures.is_empty()) {
        std::process::exit(1);
    }
}
