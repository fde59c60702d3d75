//! Workload smoke tests on the full stack.

use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme_block::BlockDevice;
use ccnvme_sim::Sim;
use ccnvme_ssd::{CtrlConfig, NvmeController, SsdProfile};
use ccnvme_workloads::{
    minikv::decode_records, run_fillsync, run_fio, run_varmail, FillsyncConfig, FioConfig, MiniKv,
    SyncMode, VarmailConfig,
};
use mqfs::{FileSystem, FsConfig, FsVariant};

const CORES: usize = 4;

fn mqfs_stack() -> Arc<FileSystem> {
    let mut cfg = CtrlConfig::new(SsdProfile::optane_p5800x());
    cfg.device_core = CORES + 1;
    let drv = Arc::new(CcNvmeDriver::new(
        NvmeController::new(cfg),
        CORES as u16,
        256,
    ));
    let mut fcfg = FsConfig::new(FsVariant::Mqfs);
    fcfg.queues = CORES;
    fcfg.journald_core = CORES;
    FileSystem::format(Arc::clone(&drv) as Arc<dyn BlockDevice>, fcfg)
}

#[test]
fn fio_reports_sane_numbers() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("main", 0, || {
        let fs = mqfs_stack();
        let res = run_fio(&fs, &FioConfig::append_4k(CORES, 50));
        assert_eq!(res.ops, CORES as u64 * 50);
        assert!(res.kiops() > 10.0, "kiops={}", res.kiops());
        assert!(res.latency.mean > 1_000.0, "latency={:?}", res.latency);
        assert_eq!(res.bytes, res.ops * 4096);
        assert!(fs.check().is_empty());
    });
    sim.run();
}

#[test]
fn fio_fdataatomic_beats_fsync() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("main", 0, || {
        let fs = mqfs_stack();
        let sync = run_fio(
            &fs,
            &FioConfig {
                threads: 2,
                write_size: 4096,
                ops_per_thread: 50,
                sync: SyncMode::Fsync,
            },
        );
        let atomic = run_fio(
            &fs,
            &FioConfig {
                threads: 2,
                write_size: 4096,
                ops_per_thread: 50,
                sync: SyncMode::Fdataatomic,
            },
        );
        assert!(
            atomic.latency.mean < sync.latency.mean,
            "atomic {} >= sync {}",
            atomic.latency.mean,
            sync.latency.mean
        );
    });
    sim.run();
}

#[test]
fn varmail_runs_clean() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("main", 0, || {
        let fs = mqfs_stack();
        let cfg = VarmailConfig {
            threads: CORES,
            nfiles: 60,
            iterations: 8,
            ..Default::default()
        };
        let res = run_varmail(&fs, &cfg);
        assert!(res.ops > (CORES as u64) * 8 * 4, "ops={}", res.ops);
        assert!(res.ops_per_sec() > 0.0);
        assert!(fs.check().is_empty(), "fsck: {:?}", fs.check());
    });
    sim.run();
}

#[test]
fn kv_put_get_roundtrip_and_flush() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("main", 0, || {
        let fs = mqfs_stack();
        let kv = MiniKv::open(Arc::clone(&fs));
        for i in 0..50u64 {
            kv.put_sync(&i.to_le_bytes(), &vec![i as u8; 512]);
        }
        for i in 0..50u64 {
            assert_eq!(
                kv.get(&i.to_le_bytes()),
                Some(vec![i as u8; 512]),
                "key {i}"
            );
        }
        assert_eq!(kv.get(b"missing\0"), None);
        assert_eq!(kv.puts.get(), 50);
    });
    sim.run();
}

#[test]
fn fillsync_group_commit_scales() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("main", 0, || {
        let fs = mqfs_stack();
        let cfg = FillsyncConfig {
            threads: CORES,
            puts_per_thread: 40,
            ..Default::default()
        };
        let res = run_fillsync(&fs, &cfg);
        assert_eq!(res.ops, CORES as u64 * 40);
        assert!(res.kiops() > 5.0, "kiops={}", res.kiops());
        assert!(fs.check().is_empty());
    });
    sim.run();
}

#[test]
fn wal_records_roundtrip() {
    let mut blob = Vec::new();
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = vec![
        (b"k1".to_vec(), b"v1".to_vec()),
        (b"key-two".to_vec(), vec![9u8; 300]),
    ];
    for (k, v) in &pairs {
        blob.extend_from_slice(&(k.len() as u16).to_le_bytes());
        blob.extend_from_slice(&(v.len() as u32).to_le_bytes());
        blob.extend_from_slice(k);
        blob.extend_from_slice(v);
    }
    blob.extend_from_slice(&[0u8; 64]); // Trailing zeros (preallocated tail).
    assert_eq!(decode_records(&blob), pairs);
}

#[test]
fn wal_replay_recovers_unflushed_puts() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("main", 0, || {
        let fs = mqfs_stack();
        {
            let kv = MiniKv::open(Arc::clone(&fs));
            kv.put_sync(b"persisted-key\0\0\0", &[0x77; 128]);
        }
        // Re-open: the WAL still holds the record.
        let kv2 = MiniKv::open(Arc::clone(&fs));
        assert_eq!(kv2.get(b"persisted-key\0\0\0"), Some(vec![0x77; 128]));
    });
    sim.run();
}
