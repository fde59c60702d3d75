//! Figure 14 — Latency breakdown of the fsync/fatomic path: MQFS vs
//! Ext4-NJ on the Optane 905P. One thread repeatedly creates a file,
//! writes 4 KB and syncs it. Each column is the mean of one of the file
//! system's always-on `mqfs.sync_*_ns` phase histograms, in whole ns.

use ccnvme_bench::{f0, header, row, scaled, Stack, StackConfig};
use ccnvme_obs::MetricsSnapshot;
use ccnvme_sim::Sim;
use ccnvme_ssd::SsdProfile;
use mqfs::FsVariant;

/// Figure 14's segments (S-iD, S-iM, S-pM, commit+W), in column order.
const PHASES: [&str; 4] = [
    "mqfs.sync_data_ns",
    "mqfs.sync_inode_ns",
    "mqfs.sync_parent_ns",
    "mqfs.sync_commit_ns",
];

#[derive(Clone, Copy, PartialEq)]
enum SyncKind {
    Fsync,
    Fatomic,
}

impl SyncKind {
    fn name(self) -> &'static str {
        match self {
            SyncKind::Fsync => "fsync",
            SyncKind::Fatomic => "fatomic",
        }
    }
}

/// Mean of histogram `name`, truncated to whole ns.
fn mean_ns(m: &MetricsSnapshot, name: &str) -> u64 {
    let h = m.histogram(name).expect("registered by the file system");
    h.sum / h.summary.count
}

/// Prints one row and returns the mean latency of the whole call (ns).
fn run(label: &str, variant: FsVariant, kind: SyncKind) -> f64 {
    let iters = scaled(200);
    let metrics = Sim::run_main(3, move || {
        let scfg = StackConfig::new(variant, SsdProfile::optane_905p(), 1);
        let (stack, fs) = Stack::format(&scfg);
        for i in 0..iters {
            let ino = fs.create_path(&format!("/f{i}")).expect("create");
            fs.write(ino, 0, &[0x14u8; 4096]).expect("write");
            match kind {
                SyncKind::Fsync => fs.fsync(ino).expect("fsync"),
                SyncKind::Fatomic => fs.fatomic(ino).expect("fatomic"),
            }
        }
        stack.metrics()
    });
    let total = format!("mqfs.{}_ns", kind.name());
    let cells: Vec<String> = PHASES
        .into_iter()
        .chain([total.as_str()])
        .map(|name| f0(mean_ns(&metrics, name) as f64))
        .collect();
    row(label, &cells);
    let mean = metrics.histogram(&total).expect("registered").summary.mean;
    ccnvme_bench::record_run_seq(
        &format!("{variant:?}.{}", kind.name()).to_lowercase(),
        metrics,
    );
    mean
}

fn main() {
    header("Figure 14 — fsync path latency breakdown (ns), create + 4 KB write + sync");
    row(
        "system",
        &["S-iD", "S-iM", "S-pM", "commit+W", "total"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );
    let mqfs_total = run("MQFS fsync", FsVariant::Mqfs, SyncKind::Fsync);
    let atomic_total = run("MQFS fatomic", FsVariant::Mqfs, SyncKind::Fatomic);
    let nj_total = run("Ext4-NJ fsync", FsVariant::Ext4NoJournal, SyncKind::Fsync);

    println!();
    println!(
        "measured: MQFS fsync {:.1} us, MQFS fatomic {:.1} us, Ext4-NJ fsync {:.1} us",
        mqfs_total / 1e3,
        atomic_total / 1e3,
        nj_total / 1e3
    );
    println!(
        "paper:    MQFS fsync 22.4 us, MQFS fatomic 11.3 us, Ext4-NJ fsync 38.5 us \
         (MQFS ≈42% below Ext4-NJ; fatomic ≈10 us of CPU-side work only)"
    );
    ccnvme_bench::write_metrics("fig14");
}
