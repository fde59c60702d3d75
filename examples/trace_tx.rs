//! Trace one ccNVMe transaction through every layer of the stack.
//!
//! Runs a single `fsync` on MQFS/ccNVMe and pretty-prints the
//! transaction's full lifecycle from the observability trace ring:
//! every event (journal commit, driver submission, device DMA/media
//! work, completion) with its simulated timestamp, then the derived per-phase durations,
//! which sum exactly to the traced span.
//!
//! ```sh
//! cargo run --example trace_tx
//! ```

use ccnvme_repro::crashtest::{Stack, StackConfig};
use ccnvme_repro::obs::{tx_phases, EventKind};
use ccnvme_repro::sim::Sim;
use ccnvme_repro::ssd::SsdProfile;
use mqfs::FsVariant;

fn main() {
    let cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 1);
    let mut sim = Sim::new(cfg.sim_cores());
    sim.spawn("main", 0, move || {
        let (stack, fs) = Stack::format(&cfg);
        let obs = stack.obs();

        // Warm up: allocate the file and settle metadata, then trace one
        // clean fsync transaction.
        let ino = fs.create_path("/traced").expect("create");
        fs.write(ino, 0, &[0x11u8; 4096]).expect("write");
        fs.fsync(ino).expect("fsync");
        fs.write(ino, 0, &[0x22u8; 4096]).expect("write");
        let t0 = ccnvme_repro::sim::now();
        fs.fsync(ino).expect("fsync");
        let e2e = ccnvme_repro::sim::now() - t0;

        // The traced transaction is the newest one that completed.
        let tx_id = obs
            .trace
            .snapshot()
            .iter()
            .filter(|e| e.kind == EventKind::Completion && e.at >= t0)
            .map(|e| e.tx_id)
            .max()
            .expect("a completed transaction was traced");
        let events = obs.trace.events_for_tx(tx_id);

        println!("transaction {tx_id} lifecycle ({} events):", events.len());
        let first = events.iter().map(|e| e.at).min().unwrap();
        for e in &events {
            // The journal's commit event says what the transaction put
            // on the wire besides its descriptor block.
            let detail = match e.journal_commit_blocks() {
                Some((copies, patched)) => {
                    format!("{copies} journaled as copies, {patched} as patches in the JD")
                }
                None => format!("arg={}", e.arg),
            };
            println!(
                "  +{:>7} ns  q{:<2} {:<14} {detail}",
                e.at - first,
                e.qid,
                e.kind.name(),
            );
        }

        let phases = tx_phases(&events);
        let span: u64 = phases.iter().map(|p| p.dur).sum();
        println!("\nphases:");
        for p in &phases {
            println!(
                "  {:<28} {:>7} ns  ({:>4.1}%)",
                p.name,
                p.dur,
                100.0 * p.dur as f64 / span as f64
            );
        }
        println!(
            "\ntraced span {span} ns; end-to-end fsync {e2e} ns \
             (the difference is file-system work outside the driver)"
        );
    });
    sim.run();
}
