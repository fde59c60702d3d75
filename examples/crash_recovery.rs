//! Crash-recovery walkthrough at the ccNVMe driver level: submit
//! transactions, pull the plug at the worst moment, and inspect what the
//! P-SQ window reveals on the next boot (§4.4 of the paper). Then the
//! exhaustive crash-surface enumerator takes over: every
//! durable-effecting device event of a small MQFS workload becomes a
//! crash point, each one is recovered and fsck'd, and recovery itself is
//! re-crashed at each of its own persistence events.
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```

use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme_repro::block::{Bio, BioBuf, BioFlags, BioWaiter, BlockDevice};
use ccnvme_repro::crashtest::{sweep, workloads, FsSurface, RecrashSweep, StackConfig, SweepPlan};
use ccnvme_repro::mqfs::FsVariant;
use ccnvme_repro::sim::Sim;
use ccnvme_repro::ssd::{CacheSurvival, CrashMode, CtrlConfig, NvmeController, SsdProfile};

fn block(byte: u8) -> BioBuf {
    Arc::new(parking_lot::Mutex::new(vec![byte; 4096]))
}

fn main() {
    let mut sim = Sim::new(2);
    sim.spawn("main", 0, || {
        let mut cfg = CtrlConfig::new(SsdProfile::optane_905p());
        cfg.device_core = 1;
        let drv = CcNvmeDriver::new(NvmeController::new(cfg), 1, 64);

        // Transaction 1: committed AND completed (fsync semantics).
        let tx1 = drv.alloc_tx_id();
        let w = BioWaiter::new();
        for (i, byte) in [(0u64, 0xa1u8), (1, 0xa2)] {
            let mut bio = Bio::write(1_000 + i, block(byte), BioFlags::TX).with_tx_id(tx1);
            w.attach(&mut bio);
            drv.submit_bio(bio);
        }
        let mut commit = Bio::write(1_002, block(0xa3), BioFlags::TX_COMMIT).with_tx_id(tx1);
        w.attach(&mut commit);
        drv.submit_bio(commit);
        w.wait().expect("tx1 durable");
        println!("tx {tx1}: submitted, committed, completed (durable)");

        // Transaction 2: committed but NOT completed (fatomic semantics) —
        // the doorbell rang, the device may or may not have executed it.
        let tx2 = drv.alloc_tx_id();
        for (i, byte) in [(0u64, 0xb1u8), (1, 0xb2)] {
            let bio = Bio::write(2_000 + i, block(byte), BioFlags::TX).with_tx_id(tx2);
            drv.submit_bio(bio);
        }
        let commit = Bio::write(2_002, block(0xb3), BioFlags::TX_COMMIT).with_tx_id(tx2);
        drv.submit_bio(commit);
        println!("tx {tx2}: submitted and committed (P-SQDB rung), NOT awaited");

        // Transaction 3: members only — never committed.
        let tx3 = drv.alloc_tx_id();
        let bio = Bio::write(3_000, block(0xc1), BioFlags::TX).with_tx_id(tx3);
        drv.submit_bio(bio);
        println!("tx {tx3}: member submitted, commit never issued");

        // Power fails right now. Let in-flight posted writes arrive
        // (torn: MAX) so tx2's doorbell makes it; tx3 has no
        // doorbell either way.
        let image = drv.controller().power_fail(CrashMode {
            torn: usize::MAX,
            cache: CacheSurvival::DropAll,
        });

        // Reboot: probe scans the P-SQ windows.
        let mut cfg2 = CtrlConfig::new(SsdProfile::optane_905p());
        cfg2.device_core = 1;
        let (_drv2, report) = CcNvmeDriver::probe(NvmeController::from_image(cfg2, &image), 1, 64);
        println!(
            "\nrecovery report: {} unfinished transaction(s)",
            report.unfinished.len()
        );
        for tx in &report.unfinished {
            println!(
                "  tx {} on queue {}: {} request(s), commit present: {}",
                tx.tx_id,
                tx.queue,
                tx.requests.len(),
                tx.has_commit
            );
            for r in &tx.requests {
                println!("    lba {} x{} (slot {})", r.lba, r.nblocks, r.slot);
            }
        }
        // tx1 completed in order — the P-SQ head moved past it.
        assert!(
            report.unfinished.iter().all(|t| t.tx_id != tx1),
            "tx1 is finished"
        );
        // tx2 is in the window: the upper layer validates its journal
        // content (checksums) and replays or discards it atomically.
        assert!(report
            .unfinished
            .iter()
            .any(|t| t.tx_id == tx2 && t.has_commit));
        // tx3's doorbell never rang: atomically nothing.
        assert!(report.unfinished.iter().all(|t| t.tx_id != tx3));
        println!("\ndriver-level walkthrough done");
    });
    sim.run();

    // Part two: walk the COMPLETE crash surface of a small MQFS
    // workload. The instrumented device logs every durable-effecting
    // event; each event-prefix (plus the empty prefix) is a state some
    // power cut leaves, and each is booted, remounted and verified.
    // The final image's recovery is then itself re-crashed at every one
    // of its persistence events to prove convergence.
    println!("\nenumerating the crash surface of create_delete(1 round) ...");
    let mut stack = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
    stack.journal_blocks = 256;
    let plan = SweepPlan {
        recrash: RecrashSweep::FinalImage,
        ..SweepPlan::every()
    };
    let script = workloads::create_delete(1);
    let report = sweep(FsSurface { script, stack }, &plan);
    println!("  durable events recorded : {}", report.events);
    println!("  crash states explored   : {}", report.states);
    println!("  repaired (fsck+oracle)  : {}", report.clean);
    println!("  recovery re-crash points: {}", report.recovery_recrashes);
    for f in &report.failures {
        println!("  FAILURE: {f}");
    }
    assert!(report.failures.is_empty(), "crash surface has holes");
    assert_eq!(report.clean, report.states);
    // The same numbers, as the machine-readable metrics document.
    let snap = report.metrics();
    let mut keys: Vec<_> = snap.counters.iter().collect();
    keys.sort();
    for (k, v) in keys {
        println!("  {k} = {v}");
    }
    println!("\ncrash_recovery example done");
}
