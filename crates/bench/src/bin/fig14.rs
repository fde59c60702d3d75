//! Figure 14 — Latency breakdown of the fsync/fatomic path: MQFS vs
//! Ext4-NJ on the Optane 905P. One thread repeatedly creates a file,
//! writes 4 KB and syncs it.

use ccnvme_bench::{f0, header, row, scaled, Stack, StackConfig};
use ccnvme_sim::Sim;
use ccnvme_ssd::SsdProfile;
use mqfs::{FsVariant, FsyncTrace};

#[derive(Clone, Copy, PartialEq)]
enum SyncKind {
    Fsync,
    Fatomic,
}

fn run(variant: FsVariant, kind: SyncKind) -> (FsyncTrace, f64) {
    let iters = scaled(200);
    let (avg, total, metrics) = Sim::run_main(3, move || {
        let scfg = StackConfig::new(variant, SsdProfile::optane_905p(), 1);
        let (stack, fs) = Stack::format(&scfg);
        fs.enable_tracing();
        for i in 0..iters {
            let ino = fs.create_path(&format!("/f{i}")).expect("create");
            fs.write(ino, 0, &[0x14u8; 4096]).expect("write");
            match kind {
                SyncKind::Fsync => fs.fsync(ino).expect("fsync"),
                SyncKind::Fatomic => fs.fatomic(ino).expect("fatomic"),
            }
        }
        let traces = fs.take_traces();
        let n = traces.len() as f64;
        let mut avg = FsyncTrace::default();
        for t in &traces {
            avg.s_data += t.s_data;
            avg.s_inode += t.s_inode;
            avg.s_parent += t.s_parent;
            avg.commit += t.commit;
            avg.total += t.total;
        }
        avg.s_data = (avg.s_data as f64 / n) as u64;
        avg.s_inode = (avg.s_inode as f64 / n) as u64;
        avg.s_parent = (avg.s_parent as f64 / n) as u64;
        avg.commit = (avg.commit as f64 / n) as u64;
        let total = avg.total as f64 / n;
        avg.total = total as u64;
        (avg, total, stack.metrics())
    });
    let sync = match kind {
        SyncKind::Fsync => "fsync",
        SyncKind::Fatomic => "fatomic",
    };
    ccnvme_bench::record_run_seq(&format!("{variant:?}.{sync}").to_lowercase(), metrics);
    (avg, total)
}

fn print_trace(label: &str, t: &FsyncTrace) {
    row(
        label,
        &[
            f0(t.s_data as f64),
            f0(t.s_inode as f64),
            f0(t.s_parent as f64),
            f0(t.commit as f64),
            f0(t.total as f64),
        ],
    );
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
    let (mqfs_sync, mqfs_total) = run(FsVariant::Mqfs, SyncKind::Fsync);
    print_trace("MQFS fsync", &mqfs_sync);
    let (mqfs_atomic, atomic_total) = run(FsVariant::Mqfs, SyncKind::Fatomic);
    print_trace("MQFS fatomic", &mqfs_atomic);
    let (nj, nj_total) = run(FsVariant::Ext4NoJournal, SyncKind::Fsync);
    print_trace("Ext4-NJ fsync", &nj);

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
