//! Filebench Varmail personality (§7.4).
//!
//! A mail-server mix over one directory of small files. Each loop
//! iteration performs the classic Varmail flow:
//!
//! 1. delete a random file;
//! 2. create a file, append ~16 KB, `fsync`, close;
//! 3. open a random file, read it, append, `fsync`, close;
//! 4. open a random file, read it whole.
//!
//! Filebench counts every flowop, so one iteration contributes several
//! operations to the reported ops/s — we do the same.

use std::sync::Arc;

use ccnvme_obs::Histogram;
use ccnvme_runtime::DetRng;
use mqfs::{FileSystem, FsError};

use crate::fio::WorkloadResult;

/// Varmail configuration (defaults follow Filebench's personality,
/// scaled to simulation-friendly sizes).
#[derive(Debug, Clone)]
pub struct VarmailConfig {
    /// Worker threads (Filebench default: 16).
    pub threads: usize,
    /// Pre-created file population.
    pub nfiles: usize,
    /// Mean appended size in bytes (Filebench: 16 KB).
    pub mean_append: u64,
    /// Loop iterations per thread.
    pub iterations: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for VarmailConfig {
    fn default() -> Self {
        VarmailConfig {
            threads: 16,
            nfiles: 400,
            mean_append: 16 * 1024,
            iterations: 50,
            seed: 42,
        }
    }
}

fn file_name(i: usize) -> String {
    format!("/vmail/f{i:06}")
}

/// Runs Varmail on a mounted file system; returns flowop statistics.
pub fn run_varmail(fs: &Arc<FileSystem>, cfg: &VarmailConfig) -> WorkloadResult {
    // Pre-populate the mail directory.
    fs.mkdir_path("/vmail").expect("mkdir");
    let mut rng = DetRng::new(cfg.seed);
    for i in 0..cfg.nfiles {
        let ino = fs.create_path(&file_name(i)).expect("populate");
        let size = (rng.below(2 * cfg.mean_append) + 512) & !511;
        fs.write(ino, 0, &vec![0x6du8; size as usize])
            .expect("populate write");
    }
    let root_syncs = fs.resolve("/vmail").expect("resolve");
    fs.fsync(root_syncs).expect("persist population");

    let hist = Arc::new(Histogram::new());
    let ops = Arc::new(ccnvme_obs::Counter::new());
    let bytes = Arc::new(ccnvme_obs::Counter::new());
    let t0 = ccnvme_runtime::now();
    let mut handles = Vec::with_capacity(cfg.threads);
    for t in 0..cfg.threads {
        let fs = Arc::clone(fs);
        let hist = Arc::clone(&hist);
        let ops = Arc::clone(&ops);
        let bytes = Arc::clone(&bytes);
        let cfg = cfg.clone();
        handles.push(ccnvme_runtime::spawn(&format!("vmail-{t}"), t, move || {
            let mut rng = DetRng::derive(cfg.seed, t as u64 + 1);
            let mut next_new = 0u64;
            for _ in 0..cfg.iterations {
                // Flow 1: delete a random file (ignore losers of races).
                let victim = rng.below(cfg.nfiles as u64) as usize;
                let op0 = ccnvme_runtime::now();
                match fs.unlink_path(&file_name(victim)) {
                    Ok(()) | Err(FsError::NotFound) => {}
                    Err(e) => panic!("unlink: {e}"),
                }
                ops.inc();
                // Flow 2: create + append + fsync.
                let name = format!("/vmail/t{t}-n{next_new}");
                next_new += 1;
                let ino = fs.create_path(&name).expect("create");
                let size = (rng.below(2 * cfg.mean_append) + 512) & !511;
                fs.write(ino, 0, &vec![0x40u8; size as usize])
                    .expect("append");
                fs.fsync(ino).expect("fsync");
                bytes.add(size);
                ops.add(3);
                // Flow 3: read a file, append to it, fsync.
                let pick = format!("/vmail/t{t}-n{}", rng.below(next_new));
                if let Ok(ino) = fs.resolve(&pick) {
                    let (sz, _, _) = fs.stat(ino);
                    let _ = fs.read(ino, 0, sz as usize);
                    let add = (rng.below(cfg.mean_append) + 512) & !511;
                    fs.write(ino, sz, &vec![0x41u8; add as usize])
                        .expect("append");
                    fs.fsync(ino).expect("fsync");
                    bytes.add(add);
                    ops.add(3);
                }
                // Flow 4: read a whole random file.
                let pick = rng.below(cfg.nfiles as u64) as usize;
                if let Ok(ino) = fs.resolve(&file_name(pick)) {
                    let (sz, _, _) = fs.stat(ino);
                    let _ = fs.read(ino, 0, sz as usize);
                    ops.inc();
                }
                hist.record(ccnvme_runtime::now() - op0);
            }
        }));
    }
    for h in handles {
        h.join();
    }
    let elapsed = ccnvme_runtime::now() - t0;
    WorkloadResult {
        ops: ops.get(),
        elapsed,
        bytes: bytes.get(),
        latency: hist.summary(),
    }
}
