//! Ploc fan-out: exactly-once detectable operations per second and
//! crash-recovery latency as the number of clients grows. Not a paper
//! figure — the paper's §4.4 positions crash-consistent PMR as an
//! application substrate; this quantifies what the detectability
//! contract (INTENT → effect → RESULT → one flush per op) costs on top
//! of raw posted writes, and what the exhaustive mount pays to settle
//! every client's verdict after an adversarial power cut.
//!
//! Each client runs the same scripted mix the crash-surface enumerator
//! sweeps (`ccnvme_crashtest::ploc::scripted_op`): push/pop, enqueue/
//! dequeue, insert/lookup in rotation, staggered per client.

use std::sync::Arc;

use ccnvme::PmrLayout;
use ccnvme_bench::{f1, header, record_run_seq, row, scaled, write_metrics};
use ccnvme_crashtest::ploc::scripted_op;
use ccnvme_obs::Obs;
use ccnvme_ploc::{PlocConfig, PlocService};
use ccnvme_sim::Sim;
use ccnvme_ssd::{CrashMode, CtrlConfig, NvmeController, SsdProfile};

const CORES: usize = 4;

fn ctrl_config() -> CtrlConfig {
    let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
    cc.device_core = CORES;
    cc
}

fn app_base() -> u64 {
    PmrLayout::new(1, 16).app_region_off()
}

struct Point {
    kops: f64,
    mean_us: f64,
    replays: u64,
    recover_us: f64,
    recovered_ops: u64,
}

fn measure(clients: u16) -> Point {
    let ops = scaled(300) as u32;
    let (kops, mean_us, replays, image) = Sim::run_main(CORES + 1, move || {
        let ctrl = Arc::new(NvmeController::new(ctrl_config()));
        let obs = Obs::new();
        let svc = PlocService::format(
            ctrl.pmr(),
            app_base(),
            PlocConfig {
                clients,
                pool: 512,
                buckets: 64,
            },
            Arc::clone(&obs),
        );
        // The power cut lands mid-run — committed PMR bytes plus a
        // seeded prefix of in-flight posted writes — so the mount below
        // has real in-flight verdicts to settle.
        let crasher = {
            let ctrl = Arc::clone(&ctrl);
            let delay_ns = ops as u64 * 700;
            ccnvme_sim::spawn("ploc-bench-crasher", CORES - 1, move || {
                ccnvme_sim::delay(delay_ns);
                ctrl.crash_snapshot(CrashMode::adversarial(clients as u64))
            })
        };
        let t0 = ccnvme_sim::now();
        let mut joins = Vec::new();
        for c in 0..clients {
            let svc = Arc::clone(&svc);
            joins.push(ccnvme_sim::spawn(
                &format!("ploc-bench-{c}"),
                c as usize % CORES,
                move || {
                    for seq in 1..=ops {
                        svc.op(c, seq, scripted_op(c, seq)).expect("scripted op");
                    }
                },
            ));
        }
        for j in joins {
            j.join();
        }
        let dt = ccnvme_sim::now().saturating_sub(t0).max(1);
        let snap = obs.metrics.snapshot();
        let total = clients as u64 * ops as u64;
        let kops = total as f64 / (dt as f64 / 1e9) / 1e3;
        let mean_us = snap
            .histogram("ploc.op_ns")
            .map(|h| h.summary.mean / 1e3)
            .unwrap_or(0.0);
        let replays = snap.counter("ploc.replays");
        record_run_seq(&format!("ploc.clients{clients}"), snap);
        (kops, mean_us, replays, crasher.join())
    });
    let (recover_us, recovered_ops) = Sim::run_main(CORES + 1, move || {
        let ctrl = Arc::new(NvmeController::from_image(ctrl_config(), &image));
        let obs = Obs::new();
        let t0 = ccnvme_sim::now();
        let svc = PlocService::mount(ctrl.pmr(), app_base(), Arc::clone(&obs))
            .expect("formatted region mounts");
        let dt = ccnvme_sim::now().saturating_sub(t0);
        // Settle every client's verdict — part of what a restarting
        // application pays before it can resume issuing sequences.
        for c in 0..clients {
            svc.recover(c).expect("in-range client");
        }
        let snap = obs.metrics.snapshot();
        let recovered = snap.counter("ploc.recovered_ops");
        record_run_seq(&format!("ploc.recover{clients}"), snap);
        (dt as f64 / 1e3, recovered)
    });
    Point {
        kops,
        mean_us,
        replays,
        recover_us,
        recovered_ops,
    }
}

fn main() {
    header("Ploc detectable ops (scripted mix, PMR sub-region, Optane 905P)");
    println!(
        "{:<22}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "clients", "kops", "mean op us", "replays", "recover us", "recovered"
    );
    for clients in [1u16, 2, 4, 8] {
        let p = measure(clients);
        row(
            &format!("{clients}"),
            &[
                f1(p.kops),
                f1(p.mean_us),
                format!("{}", p.replays),
                f1(p.recover_us),
                format!("{}", p.recovered_ops),
            ],
        );
        assert_eq!(p.replays, 0, "a clean run must never hit the replay cache");
    }
    write_metrics("ploc");
}
