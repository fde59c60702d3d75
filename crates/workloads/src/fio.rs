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
    /// Remote fan-out: `0` runs the job directly against the mounted
    /// file system; `n > 0` runs it as `n` fabric initiators, each with
    /// its own loopback session to a fabric target serving the same
    /// file system — the per-op latency then measures remote commit
    /// acks. Client `i` runs on core `i % threads`.
    pub clients: usize,
    /// Fabric targets the clients fan out across (client `i` dials
    /// target `i % targets`, each target serving the same file system
    /// with its own handler daemons and sessions). `0`/`1` keep the
    /// single-target shape; only meaningful with `clients > 0`.
    pub targets: usize,
}

impl FioConfig {
    /// The paper's motivation workload: 4 KB append + fsync.
    pub fn append_4k(threads: usize, ops_per_thread: u64) -> Self {
        FioConfig {
            threads,
            write_size: 4096,
            ops_per_thread,
            sync: SyncMode::Fsync,
            clients: 0,
            targets: 1,
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
/// the simulation; thread `i` is pinned to core `i`. With
/// [`FioConfig::clients`] set, the job instead fans out over that many
/// fabric initiators (see [`run_fio_fabric`]).
pub fn run_fio(fs: &Arc<FileSystem>, cfg: &FioConfig) -> WorkloadResult {
    if cfg.clients > 0 {
        return run_fio_fabric(fs, cfg);
    }
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

/// The remote flavour of the FIO job: [`FioConfig::targets`] fabric
/// targets serve `fs` and [`FioConfig::clients`] loopback initiators
/// append + sync through them, client `i` pinned to target
/// `i % targets`. The recorded per-op latency is the *commit-ack*
/// latency — write capsule plus sync capsule, including both network
/// hops.
pub fn run_fio_fabric(fs: &Arc<FileSystem>, cfg: &FioConfig) -> WorkloadResult {
    use ccnvme_fabric::{Backend, ClientCfg, FabricClient, FabricConfig, SyncKind};

    let targets: Vec<_> = (0..cfg.targets.max(1))
        .map(|_| {
            ccnvme_fabric::FabricTarget::new(
                Backend::Fs(Arc::clone(fs)),
                FabricConfig::new(cfg.threads.max(1)),
            )
        })
        .collect();
    let hist = Arc::new(Histogram::new());
    let t0 = ccnvme_runtime::now();
    let mut handles = Vec::with_capacity(cfg.clients);
    for c in 0..cfg.clients {
        let target = Arc::clone(&targets[c % targets.len()]);
        let hist = Arc::clone(&hist);
        let cfg = cfg.clone();
        let core = c % cfg.threads.max(1);
        handles.push(ccnvme_runtime::spawn(
            &format!("fio-client-{c}"),
            core,
            move || {
                let client_id = c as u64 + 1;
                let mut client = FabricClient::connect(
                    client_id,
                    target.loopback_connector(client_id),
                    ClientCfg::default(),
                )
                .expect("fabric connect");
                let ino = client
                    .create(&format!("/fio-client-{c}"))
                    .expect("open private file");
                let payload = vec![0xf1u8; cfg.write_size as usize];
                let mut offset = client.stat(ino).expect("stat");
                let mode = match cfg.sync {
                    SyncMode::Fsync => SyncKind::Fsync,
                    SyncMode::Fdataatomic => SyncKind::Fdataatomic,
                };
                for _ in 0..cfg.ops_per_thread {
                    let op0 = ccnvme_runtime::now();
                    client.write(ino, offset, &payload).expect("append");
                    client.sync(ino, mode).expect("sync");
                    hist.record(ccnvme_runtime::now() - op0);
                    offset += cfg.write_size;
                }
                client.bye();
            },
        ));
    }
    for h in handles {
        h.join();
    }
    let elapsed = ccnvme_runtime::now() - t0;
    let ops = cfg.clients as u64 * cfg.ops_per_thread;
    WorkloadResult {
        ops,
        elapsed,
        bytes: ops * cfg.write_size,
        latency: hist.summary(),
    }
}
