//! Figure 10 — Atomic transaction performance on the P5800X:
//! (a) single-core throughput vs write size, (b) single-core I/O
//! utilization, (c) multi-core transactions/s at 4 KB, (d) multi-core
//! I/O utilization. Approaches: classic (JBD2 protocol), Horae
//! (ordering points removed), ccNVMe (atomic + durable) and
//! ccNVMe-atomic (atomicity only).

use std::sync::Arc;

use ccnvme_bench::{f1, header, scaled, Stack, StackConfig};
use ccnvme_block::BioBuf;
use ccnvme_sim::{DetRng, Sim};
use ccnvme_ssd::SsdProfile;
use mqfs::FsVariant;
use mqfs_journal::{
    AreaSpec, ClassicJournal, CommitStyle, Durability, Journal, MqJournal, TxBlock, TxDescriptor,
};

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Classic,
    Horae,
    CcNvme,
    CcNvmeAtomic,
}

impl Engine {
    fn label(self) -> &'static str {
        match self {
            Engine::Classic => "classic",
            Engine::Horae => "Horae",
            Engine::CcNvme => "ccNVMe",
            Engine::CcNvmeAtomic => "ccNVMe-atomic",
        }
    }

    fn all() -> [Engine; 4] {
        [
            Engine::Classic,
            Engine::Horae,
            Engine::CcNvme,
            Engine::CcNvmeAtomic,
        ]
    }
}

struct TxPoint {
    mbps: f64,
    ktps: f64,
    io_util: f64,
}

const JOURNAL_START: u64 = 100_000;
const JOURNAL_LEN: u64 = 32_768;
const HORIZON: u64 = 99_999;

/// Runs `txs_per_thread` transactions of `write_kb` KB of random 4 KB
/// blocks on each of `threads` threads.
fn measure(engine: Engine, threads: usize, write_kb: u64, txs_per_thread: u64) -> TxPoint {
    let profile = SsdProfile::optane_p5800x();
    // Variant only selects the driver here: ccNVMe engines need the
    // ccNVMe driver, the classic engines run on the baseline.
    let variant = match engine {
        Engine::Classic | Engine::Horae => FsVariant::Ext4,
        _ => FsVariant::Mqfs,
    };
    let scfg = StackConfig::new(variant, profile.clone(), threads);
    let prof2 = profile.clone();
    let (point, metrics) = Sim::run_main(scfg.sim_cores(), move || {
        // Raw driver + journal engine; no file system.
        let (stack, _fs) = Stack::format(&scfg);
        let dev = Arc::clone(&stack.dev);
        let journal: Arc<dyn Journal> = match engine {
            Engine::Classic => Arc::new(ClassicJournal::new(
                dev,
                AreaSpec {
                    start: JOURNAL_START,
                    len: JOURNAL_LEN,
                },
                HORIZON,
                CommitStyle::Classic,
                scfg.cores + 1,
            )),
            Engine::Horae => Arc::new(ClassicJournal::new(
                dev,
                AreaSpec {
                    start: JOURNAL_START,
                    len: JOURNAL_LEN,
                },
                HORIZON,
                CommitStyle::Horae,
                scfg.cores + 1,
            )),
            Engine::CcNvme | Engine::CcNvmeAtomic => Arc::new(MqJournal::with_checkpoint_core(
                dev,
                AreaSpec::split(JOURNAL_START, JOURNAL_LEN, threads),
                HORIZON,
                scfg.cores + 1,
            )),
        };
        let durability = if engine == Engine::CcNvmeAtomic {
            Durability::Atomic
        } else {
            Durability::Durable
        };
        let t0_traffic = stack.controller().link().traffic.snapshot();
        let t0 = ccnvme_sim::now();
        let mut handles = Vec::new();
        for t in 0..threads {
            let journal = Arc::clone(&journal);
            handles.push(ccnvme_sim::spawn(&format!("tx-{t}"), t, move || {
                let mut rng = DetRng::derive(99, t as u64);
                let nblocks = (write_kb / 4).max(1);
                for _ in 0..txs_per_thread {
                    let mut tx = TxDescriptor::new(journal.alloc_tx_id());
                    for _ in 0..nblocks {
                        let lba = 200_000 + rng.below(1 << 20);
                        let buf: BioBuf = Arc::new(parking_lot::Mutex::new(vec![0x7fu8; 4096]));
                        tx.meta.push(TxBlock {
                            final_lba: lba,
                            buf,
                        });
                    }
                    journal.commit_tx(tx, durability).expect("commit ok");
                }
            }));
        }
        for h in handles {
            h.join();
        }
        let elapsed = ccnvme_sim::now() - t0;
        let traffic = stack
            .controller()
            .link()
            .traffic
            .snapshot()
            .since(&t0_traffic);
        journal.shutdown();
        let secs = elapsed as f64 / 1e9;
        let total_txs = threads as u64 * txs_per_thread;
        let payload = total_txs * write_kb * 1024;
        let point = TxPoint {
            mbps: payload as f64 / 1e6 / secs,
            ktps: total_txs as f64 / secs / 1e3,
            io_util: 100.0 * traffic.block_bytes as f64 / secs / prof2.seq_write_bw as f64,
        };
        (point, stack.metrics())
    });
    ccnvme_bench::record_run_seq(
        &format!("{}.{threads}t.{write_kb}kb", engine.label()).to_lowercase(),
        metrics,
    );
    point
}

fn main() {
    let txs = scaled(200);

    let sizes_kb = [4u64, 8, 16, 32, 64];
    header("Figure 10(a) — single-core throughput (MB/s) vs write size");
    ccnvme_bench::row(
        "write size (KB)",
        &sizes_kb.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let mut util_rows = Vec::new();
    for engine in Engine::all() {
        let mut tput = Vec::new();
        let mut util = Vec::new();
        for &kb in &sizes_kb {
            let p = measure(engine, 1, kb, txs);
            tput.push(f1(p.mbps));
            util.push(format!("{:.0}%", p.io_util));
        }
        ccnvme_bench::row(engine.label(), &tput);
        util_rows.push((engine.label(), util));
    }
    header("Figure 10(b) — single-core I/O utilization vs write size");
    ccnvme_bench::row(
        "write size (KB)",
        &sizes_kb.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    for (label, cells) in util_rows {
        ccnvme_bench::row(label, &cells);
    }

    let threads = [1usize, 2, 4, 8, 12];
    header("Figure 10(c) — multi-core K-transactions/s (4 KB)");
    ccnvme_bench::row(
        "threads",
        &threads.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
    );
    let mut util_rows = Vec::new();
    for engine in Engine::all() {
        let mut tps = Vec::new();
        let mut util = Vec::new();
        for &t in &threads {
            let p = measure(engine, t, 4, txs);
            tps.push(f1(p.ktps));
            util.push(format!("{:.0}%", p.io_util));
        }
        ccnvme_bench::row(engine.label(), &tps);
        util_rows.push((engine.label(), util));
    }
    header("Figure 10(d) — multi-core I/O utilization");
    ccnvme_bench::row(
        "threads",
        &threads.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
    );
    for (label, cells) in util_rows {
        ccnvme_bench::row(label, &cells);
    }

    println!();
    println!(
        "Paper shape: single-core ccNVMe-atomic ≈3×/2.2× classic/Horae; \
         ccNVMe ≈1.5×/1.2×; ccNVMe reaches ≈93% I/O utilization at 64 KB \
         vs ≈62-63%; ccNVMe-atomic saturates with ~2 cores while the \
         others need ≈8; at high load ccNVMe keeps ≈50% higher TPS."
    );
    ccnvme_bench::write_metrics("fig10");
}
