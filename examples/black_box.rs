//! Crash a stack, then read the flight recorder out of the wreckage.
//!
//! Runs a burst of fatomic/fsync transactions on MQFS/ccNVMe, cuts
//! power mid-flight, and performs post-crash forensics on nothing but
//! the surviving PMR bytes: mount the blackbox ring (a pure read —
//! torn slots just fail their seals), reconstruct per-transaction
//! timelines with verdicts, and cross-check every verdict against the
//! §4.4 recovery scan of the same image. Then the image is actually
//! booted, to show recovery reaches the same account and re-formats
//! the ring under the next generation (DESIGN.md §14).
//!
//! ```sh
//! cargo run --example black_box
//! ```

use ccnvme_repro::ccnvme::{image_forensics, CcNvmeDriver};
use ccnvme_repro::crashtest::{Stack, StackConfig};
use ccnvme_repro::obs::{ctx, TraceCtx};
use ccnvme_repro::sim::Sim;
use ccnvme_repro::ssd::{CrashMode, CtrlConfig, NvmeController, SsdProfile};
use mqfs::FsVariant;

fn main() {
    let cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 1);
    let cores = cfg.sim_cores();
    let mut sim = Sim::new(cores);
    sim.spawn("main", 0, move || {
        // A few committed transactions, then the lights go out: the
        // volatile cache and in-flight posted writes are lost, the PMR
        // (and the recorder inside it) survives.
        let (stack, fs) = Stack::format(&cfg);
        for i in 0..6u64 {
            // Stamp a trace context: it rides the thread-local into
            // every Bio, the sealed SQE, and the blackbox records, so
            // the post-mortem timelines below name their originator.
            let _trace = ctx::scoped(TraceCtx {
                trace_id: 0xb1ac_c0de_0000 + i,
                span: i as u32,
                origin: 0xcc,
            });
            let ino = fs.create_path(&format!("/tx{i}")).expect("create");
            fs.write(ino, 0, &[0x5a; 1024]).expect("write");
            if i % 2 == 0 {
                fs.fatomic(ino).expect("fatomic");
            } else {
                fs.fsync(ino).expect("fsync");
            }
        }
        let image = stack.crash_snapshot(CrashMode::adversarial(7));

        // Forensics on the raw bytes: timelines, verdicts, and the
        // one-directional cross-check against the recovery scan. A
        // record is a durable witness of everything posted before it
        // (PCIe FIFO); a missing record proves nothing — so every
        // verdict is a conservative under-approximation.
        println!("=== post-mortem: forensics over the raw PMR image ===");
        let fx = image_forensics(&image.pmr).expect("wrecked image still mounts");
        print!("{}", ccnvme_repro::obs::forensics::render(&fx.report));
        println!(
            "recovery scan: generation {} | {} unfinished tx in the window | {} aborted",
            fx.recovery.generation,
            fx.recovery.unfinished.len(),
            fx.recovery.aborted.len()
        );
        assert!(
            fx.contradictions.is_empty(),
            "blackbox contradicts recovery: {:?}",
            fx.contradictions
        );
        println!("cross-check: consistent (no contradictions)\n");

        // Boot the same image: probe runs real recovery and re-formats
        // the ring under the next generation — the old records stop
        // validating without a single erase.
        println!("=== reboot: recovery agrees, ring re-formatted ===");
        let ctrl = NvmeController::from_image(CtrlConfig::new(SsdProfile::optane_905p()), &image);
        let (drv, report) = CcNvmeDriver::probe(ctrl, 1, 64);
        println!(
            "probe: generation {} | {} unfinished tx handed to the upper layer",
            report.generation,
            report.unfinished.len()
        );
        let rebooted = drv.controller().crash_snapshot(CrashMode::SETTLED);
        let fx2 = image_forensics(&rebooted.pmr).expect("recovered ring mounts");
        println!(
            "post-recovery ring: epoch {} (was {}), {} surviving timelines \
             (the crashed generation's records no longer validate)",
            fx2.report.epoch,
            fx.report.epoch,
            fx2.report.txs.len()
        );
        assert!(fx2.contradictions.is_empty());
    });
    sim.run();
}
