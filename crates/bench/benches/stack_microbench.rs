//! Criterion micro-benchmarks of the simulation stack itself.
//!
//! The figure/table reproductions measure *virtual* time and live in the
//! `fig*`/`table*` binaries (`./run_benches.sh` runs them all).
//! These benches measure the *host* cost of running the simulator — how
//! fast the discrete-event kernel, the ccNVMe transaction path and a
//! full MQFS fsync execute in wall-clock time.

use std::sync::Arc;

use ccnvme_bench::{Stack, StackConfig};
use ccnvme_sim::Sim;
use ccnvme_ssd::SsdProfile;
use ccnvme_workloads::{run_fio, FioConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use mqfs::FsVariant;

fn bench_sim_kernel(c: &mut Criterion) {
    c.bench_function("sim_kernel_100_context_switches", |b| {
        b.iter(|| {
            Sim::run_main(1, || {
                for _ in 0..100 {
                    ccnvme_sim::cpu(10);
                }
                ccnvme_sim::now()
            })
        })
    });
}

fn bench_ccnvme_transaction(c: &mut Criterion) {
    c.bench_function("ccnvme_tx_4k_commit_durable", |b| {
        b.iter(|| {
            Sim::run_main(3, || {
                let scfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_p5800x(), 1);
                let (_stack, fs) = Stack::format(&scfg);
                let ino = fs.create_path("/b").expect("create");
                fs.write(ino, 0, &[1u8; 4096]).expect("write");
                fs.fsync(ino).expect("fsync");
            })
        })
    });
}

fn bench_fio_16_ops(c: &mut Criterion) {
    c.bench_function("mqfs_fio_2threads_16ops", |b| {
        b.iter(|| {
            Sim::run_main(4, || {
                let scfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
                let (_stack, fs) = Stack::format(&scfg);
                let res = run_fio(&fs, &FioConfig::append_4k(2, 8));
                res.ops
            })
        })
    });
}

fn bench_recovery_scan(c: &mut Criterion) {
    c.bench_function("mqfs_crash_recover_small_journal", |b| {
        b.iter(|| {
            Sim::run_main(3, || {
                let mut scfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 1);
                scfg.journal_blocks = 256;
                let (stack, fs) = Stack::format(&scfg);
                let ino = fs.create_path("/r").expect("create");
                fs.write(ino, 0, &[2u8; 4096]).expect("write");
                fs.fsync(ino).expect("fsync");
                let image = stack.power_fail(ccnvme_ssd::CrashMode::adversarial(1));
                let (_s2, fs2) = Stack::recover(&scfg, &image).expect("recover");
                Arc::strong_count(&fs2)
            })
        })
    });
}

criterion_group!(
    benches,
    bench_sim_kernel,
    bench_ccnvme_transaction,
    bench_fio_16_ops,
    bench_recovery_scan
);
criterion_main!(benches);
