//! Fault storm: MQFS on a device that misbehaves.
//!
//! A mixed fault plan throws transient busy completions and a dropped
//! doorbell at the stack — all absorbed by the host's retry/kick ladder
//! — then a hard media error fails a transaction, degrading the file
//! system to read-only. The example shows the error counters live, then
//! pulls the plug and proves recovery discards the failed transaction
//! while keeping every committed one.
//!
//! ```sh
//! cargo run --example fault_storm
//! ```

use ccnvme_repro::crashtest::{Stack, StackConfig};
use ccnvme_repro::fault::{FaultKind, FaultPlan, FaultRule, OpMask, Trigger};
use ccnvme_repro::sim::Sim;
use ccnvme_repro::ssd::{CrashMode, SsdProfile};
use mqfs::{FsError, FsVariant};

fn main() {
    let mut cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
    // The storm: 2% of writes complete Busy, 1% of doorbell MMIOs are
    // lost, and — once the clock passes 15 ms — one write dies with an
    // unrecoverable media error.
    cfg.fault = Some(
        FaultPlan::new(0x5707_12aa)
            .rule(FaultRule::new(FaultKind::Busy, Trigger::Probability(0.02)).ops(OpMask::WRITES))
            .rule(
                FaultRule::new(FaultKind::DoorbellDrop, Trigger::Probability(0.01))
                    .ops(OpMask::DOORBELLS),
            )
            .rule(
                FaultRule::new(
                    FaultKind::MediaWrite,
                    Trigger::TimeWindow {
                        from: 15_000_000,
                        until: u64::MAX,
                    },
                )
                .ops(OpMask::WRITES)
                .max_hits(1),
            ),
    );
    let mut sim = Sim::new(cfg.sim_cores());
    sim.spawn("storm", 0, move || {
        let (stack, fs) = Stack::format(&cfg);
        fs.mkdir_path("/storm").expect("mkdir");
        let dir = fs.resolve("/storm").expect("resolve");
        fs.fsync(dir).expect("fsync dir");

        // Write files until the media error strikes. Transient faults
        // along the way are retried transparently — every fsync up to
        // that point succeeds.
        let mut committed = Vec::new();
        let mut failed = None;
        for k in 0.. {
            let r = (|| {
                let ino = fs.create_path(&format!("/storm/f{k}"))?;
                fs.write(ino, 0, &vec![k as u8 + 1; 8192])?;
                fs.fsync(ino)
            })();
            let m = stack.metrics();
            println!(
                "f{k}: {:9} | injected busy={} dropped-db={} media={} | host retries={} kicks={} tx-failures={}",
                if r.is_ok() { "committed" } else { "FAILED" },
                m.counter("fault.busy"), m.counter("fault.doorbell_drops"), m.counter("fault.media_write"),
                m.counter("host_err.retries"), m.counter("host_err.doorbell_kicks"),
                m.counter("host_err.tx_failures"),
            );
            match r {
                Ok(()) => committed.push(k),
                Err(_) => {
                    failed = Some(k);
                    break;
                }
            }
        }
        let failed = failed.expect("the armed media error always fires");

        // Graceful degradation: the volume is now read-only.
        println!("\ndegraded: {:?}", fs.error_state().expect("degraded"));
        let denied = fs
            .create_path("/storm/after")
            .expect_err("mutations must be rejected");
        assert_eq!(denied, FsError::ReadOnly);
        println!("create after degradation -> {denied}");
        // ... but reads still serve every committed file.
        for &k in &committed {
            let ino = fs.resolve(&format!("/storm/f{k}")).expect("still readable");
            let data = fs.read(ino, 0, 8192).expect("read degraded");
            assert!(data.iter().all(|b| *b == k as u8 + 1));
        }
        println!("all {} committed files readable while degraded", committed.len());

        // Power-cut + reboot on healthy hardware: the failed transaction
        // is in the persistent abort log and is never replayed.
        let image = stack.power_fail(CrashMode::adversarial(7));
        let mut clean = cfg.clone();
        clean.fault = None;
        let (_stack2, fs2) = Stack::recover(&clean, &image).expect("recover");
        assert!(fs2.check().is_empty(), "fsck clean after the storm");
        for &k in &committed {
            let ino = fs2.resolve(&format!("/storm/f{k}")).expect("committed file survived");
            let data = fs2.read(ino, 0, 8192).expect("read");
            assert!(data.iter().all(|b| *b == k as u8 + 1), "content intact");
        }
        let gone = fs2.resolve(&format!("/storm/f{failed}"));
        assert!(
            gone.is_err() || fs2.stat(gone.unwrap()).0 == 0,
            "failed transaction must not be replayed"
        );
        println!(
            "\nrecovered: {} committed files intact, failed f{failed} discarded, fsck clean",
            committed.len()
        );
    });
    sim.run();
}
