//! Table 1 — Software overhead and PCIe traffic for ensuring crash
//! consistency of one transaction of N individual 4 KB data blocks.
//!
//! We measure the real traffic of one fsync (or fdataatomic) carrying N
//! dirty 4 KB pages through each system and print it next to the paper's
//! analytical counts. Foreground counts for MQFS-A follow the paper's
//! convention: only the traffic the caller must *wait for* is charged to
//! the atomicity guarantee.

use ccnvme_bench::{header, record_run_seq, row, write_metrics, Stack, StackConfig};
use ccnvme_pcie::TrafficSnapshot;
use ccnvme_sim::Sim;
use ccnvme_ssd::SsdProfile;
use ccnvme_workloads::SyncMode;
use mqfs::FsVariant;

fn measure(variant: FsVariant, sync: SyncMode, n: u64) -> TrafficSnapshot {
    let (traffic, metrics) = Sim::run_main(3, move || {
        let scfg = StackConfig::new(variant, SsdProfile::optane_905p(), 1);
        let (stack, fs) = Stack::format(&scfg);
        let ino = fs.create_path("/t").expect("create");
        // Warm up: allocate metadata and settle steady state.
        fs.write(ino, 0, &vec![1u8; (n * 4096) as usize])
            .expect("write");
        fs.fsync(ino).expect("fsync");
        // The measured transaction: N dirty data pages.
        fs.write(ino, 0, &vec![2u8; (n * 4096) as usize])
            .expect("write");
        let t0 = stack.controller().link().traffic.snapshot();
        match sync {
            SyncMode::Fsync => fs.fsync(ino).expect("fsync"),
            SyncMode::Fdataatomic => fs.fdataatomic(ino).expect("fdataatomic"),
        }
        // For fdataatomic this charges only the traffic present when the
        // call returned (the background completion happens later).
        let traffic = stack.controller().link().traffic.snapshot().since(&t0);
        (traffic, stack.metrics())
    });
    record_run_seq(
        &format!("{variant:?}.{sync:?}.n{n}").to_lowercase(),
        metrics,
    );
    traffic
}

fn main() {
    let n: u64 = 4;
    header(&format!(
        "Table 1 — PCIe traffic for one crash-consistent transaction (N = {n} data blocks)"
    ));
    row(
        "system",
        &["MMIO", "DMA(Q)", "BlockIO", "IRQ"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );
    let rows: [(&str, FsVariant, SyncMode, [String; 4]); 4] = [
        (
            "Ext4/NVMe",
            FsVariant::Ext4,
            SyncMode::Fsync,
            paper(2 * (n + 2), 2 * (n + 2), n + 2, n + 2),
        ),
        (
            "HoraeFS/NVMe",
            FsVariant::HoraeFs,
            SyncMode::Fsync,
            paper(2 * (n + 2), 2 * (n + 2), n + 2, n + 2),
        ),
        (
            "MQFS/ccNVMe",
            FsVariant::Mqfs,
            SyncMode::Fsync,
            paper(4, n + 1, n + 1, n + 1),
        ),
        (
            "MQFS-A/ccNVMe",
            FsVariant::Mqfs,
            SyncMode::Fdataatomic,
            ["2".into(), "0*".into(), "0*".into(), "0*".into()],
        ),
    ];
    for (label, variant, sync, paper_cells) in rows {
        let t = measure(variant, sync, n);
        let mmio = t.table1_mmio();
        row(
            label,
            &[
                format!("{mmio}"),
                format!("{}", t.dma_queue),
                format!("{}", t.block_ios),
                format!("{}", t.irqs),
            ],
        );
        row("  (paper)", paper_cells.as_ref());
    }
    println!();
    println!(
        "Notes: measured MMIO counts doorbell rings plus persistent-flush \
         bursts. Extra units beyond the paper's idealized counts come from \
         real-file effects the formulas ignore (the FLUSH command of the \
         classic commit path, bitmap/inode metadata blocks). MQFS-A rows \
         marked 0* complete in the background — the caller returns after \
         two MMIOs; traffic captured at return is what it waited for."
    );
    write_metrics("table1");
}

fn paper(mmio: u64, dmaq: u64, blk: u64, irq: u64) -> [String; 4] {
    [
        format!("{mmio}"),
        format!("{dmaq}"),
        format!("{blk}"),
        format!("{irq}"),
    ]
}
