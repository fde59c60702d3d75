//! FIO-style append-write + fsync workload (§3, §7.3).

use std::sync::Arc;

use ccnvme_obs::{Histogram, Summary};
use ccnvme_runtime::Ns;
use mqfs::FileSystem;

/// How each write is persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// `fsync`: atomic + durable.
    Fsync,
    /// `fdataatomic` (§5.1): atomic only — the MQFS-A configurations.
    Fdataatomic,
}

/// Configuration of one FIO run.
#[derive(Debug, Clone)]
pub struct FioConfig {
    /// Concurrent threads, one per core starting at core 0.
    pub threads: usize,
    /// Bytes appended per operation (multiple of 4 KB).
    pub write_size: u64,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Persistence primitive.
    pub sync: SyncMode,
}

impl FioConfig {
    /// The paper's motivation workload: 4 KB append + fsync.
    pub fn append_4k(threads: usize, ops_per_thread: u64) -> Self {
        FioConfig {
            threads,
            write_size: 4096,
            ops_per_thread,
            sync: SyncMode::Fsync,
        }
    }
}

/// Result of a workload run.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Total operations completed.
    pub ops: u64,
    /// Virtual time the run took.
    pub elapsed: Ns,
    /// Bytes written by the workload.
    pub bytes: u64,
    /// Per-operation latency summary.
    pub latency: Summary,
}

impl WorkloadResult {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.ops as f64 / (self.elapsed as f64 / 1e9)
    }

    /// Thousands of I/O operations per second (the figures' KIOPS).
    pub fn kiops(&self) -> f64 {
        self.ops_per_sec() / 1e3
    }

    /// Payload throughput in MB/s.
    pub fn throughput_mbps(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.bytes as f64 / 1e6 / (self.elapsed as f64 / 1e9)
    }
}

/// Runs the FIO job on a mounted file system. Must be called from inside
/// the simulation; thread `i` is pinned to core `i`.
pub fn run_fio(fs: &Arc<FileSystem>, cfg: &FioConfig) -> WorkloadResult {
    let hist = Arc::new(Histogram::new());
    let t0 = ccnvme_runtime::now();
    let mut handles = Vec::with_capacity(cfg.threads);
    for t in 0..cfg.threads {
        let fs = Arc::clone(fs);
        let hist = Arc::clone(&hist);
        let cfg = cfg.clone();
        handles.push(ccnvme_runtime::spawn(&format!("fio-{t}"), t, move || {
            let path = format!("/fio-{t}");
            let ino = fs
                .resolve(&path)
                .or_else(|_| fs.create_path(&path))
                .expect("open private file");
            let payload = vec![0xf1u8; cfg.write_size as usize];
            let (mut offset, _, _) = fs.stat(ino);
            for _ in 0..cfg.ops_per_thread {
                let op0 = ccnvme_runtime::now();
                fs.write(ino, offset, &payload).expect("append");
                match cfg.sync {
                    SyncMode::Fsync => fs.fsync(ino).expect("fsync"),
                    SyncMode::Fdataatomic => fs.fdataatomic(ino).expect("fdataatomic"),
                }
                hist.record(ccnvme_runtime::now() - op0);
                offset += cfg.write_size;
            }
        }));
    }
    for h in handles {
        h.join();
    }
    let elapsed = ccnvme_runtime::now() - t0;
    let ops = cfg.threads as u64 * cfg.ops_per_thread;
    WorkloadResult {
        ops,
        elapsed,
        bytes: ops * cfg.write_size,
        latency: hist.summary(),
    }
}
