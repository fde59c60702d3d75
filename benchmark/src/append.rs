//! The append workloads: every client appends one 4 KB block to its own
//! file and persists it, in a closed loop (`fsync_1t`, `fsync_8t` and
//! `fatomic_8t` on the simulator; the ladder's pass on OS threads).
//!
//! Files are created and warmed in set-up: no create or unlink runs in
//! the timed region, because concurrent creates and unlinks are not yet
//! run-to-run deterministic in the simulator (see the README) while pure
//! appends are exact.

use std::sync::Arc;
use std::time::Instant;

use ccnvme::{CcNvmeDriver, ErrPolicy};
use ccnvme_crashtest::{Stack, StackConfig};
use ccnvme_pcie::PcieLink;
use ccnvme_runtime::RuntimeKind;
use ccnvme_ssd::{CrashMode, CtrlConfig, NvmeController, SsdProfile};
use mqfs::{FileSystem, FsConfig, FsResult, FsVariant};

use crate::segment::{
    closed_loop, run_on, run_sim, ClientRun, Oracle, Probe, Region, Rng, Segment, SegmentOpts,
};
use crate::span::Tracer;

/// Bytes per append (one file-system block).
pub const BLOCK: u64 = 4096;

/// Operations every client makes on its file in set-up, untimed.
const WARM_OPS: u64 = 32;

/// How an append is persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persist {
    /// `fsync`: atomic and durable.
    Fsync,
    /// `fdataatomic`: atomic only, returns after two persistent MMIOs.
    Fdataatomic,
}

/// One append workload.
#[derive(Debug, Clone, Copy)]
pub struct AppendCfg {
    /// Clients, one per core, each on a private file.
    pub threads: usize,
    /// Timed operations per client.
    pub ops_per_thread: u64,
    /// Persistence call after each append.
    pub persist: Persist,
    /// Substrate.
    pub runtime: RuntimeKind,
}

/// MQFS on the Optane 905P with `threads` host cores — the stack every
/// file-system workload and ladder rung builds.
pub fn mqfs_stack(threads: usize) -> StackConfig {
    StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), threads)
}

/// Formats MQFS on a fresh device for `cfg`. The simulator gets
/// `Stack::format`. On OS threads the same stack is wired by hand with a
/// patient watchdog: the stock policy aborts a command silent for 50 ms,
/// which on the wall clock is any thread the host kept off its CPUs that
/// long — measured here as I/O errors in 6 of 10 runs on 2 CPUs.
fn format(cfg: &AppendCfg) -> (Option<Stack>, Arc<FileSystem>, Arc<PcieLink>) {
    let scfg = mqfs_stack(cfg.threads);
    if cfg.runtime == RuntimeKind::Sim {
        let (stack, fs) = Stack::format(&scfg);
        let link = stack.controller().link();
        return (Some(stack), fs, link);
    }
    let mut cc = CtrlConfig::new(scfg.profile.clone());
    cc.device_core = scfg.cores;
    let patient = ErrPolicy {
        kick_after: 10 * ccnvme_runtime::SEC,
        timeout: 60 * ccnvme_runtime::SEC,
        ..ErrPolicy::default()
    };
    let (drv, _) = CcNvmeDriver::probe_with_policy(
        NvmeController::new(cc),
        scfg.sim_cores() as u16,
        scfg.queue_depth,
        patient,
    );
    let link = drv.controller().link();
    let fs_cfg = FsConfig {
        journal_blocks: scfg.journal_blocks,
        queues: scfg.cores,
        journald_core: scfg.cores + 1,
        ..FsConfig::new(scfg.variant)
    };
    (None, FileSystem::format(Arc::new(drv), fs_cfg), link)
}

/// The bytes client `thread` writes: a per-client random block whose
/// first 16 bytes carry (sequence number, client), so every block of
/// every file is distinguishable and checkable.
pub struct Pattern {
    thread: u64,
    base: Vec<u8>,
}

impl Pattern {
    /// The pattern of client `thread` under `seed`.
    pub fn new(seed: u64, thread: usize) -> Pattern {
        let mut base = vec![0u8; BLOCK as usize];
        Rng::new(seed, 1_000 + thread as u64).fill(&mut base);
        Pattern {
            thread: thread as u64,
            base,
        }
    }

    /// A buffer holding block 0; restamp it with [`Pattern::stamp`].
    pub fn buffer(&self) -> Vec<u8> {
        let mut buf = self.base.clone();
        self.stamp(&mut buf, 0);
        buf
    }

    /// Turns `buf` into block `seq`.
    pub fn stamp(&self, buf: &mut [u8], seq: u64) {
        buf[..8].copy_from_slice(&seq.to_le_bytes());
        buf[8..16].copy_from_slice(&self.thread.to_le_bytes());
    }

    /// Whether `data` is exactly block `seq`.
    pub fn matches(&self, seq: u64, data: &[u8]) -> bool {
        data.len() == self.base.len()
            && data[..8] == seq.to_le_bytes()
            && data[8..16] == self.thread.to_le_bytes()
            && data[16..] == self.base[16..]
    }
}

fn file_path(thread: usize) -> String {
    format!("/w{thread}")
}

/// The operation: append `block` as block `seq` of `ino`, then persist.
fn append(
    fs: &FileSystem,
    tr: &mut Tracer,
    ino: u64,
    seq: u64,
    block: &[u8],
    how: Persist,
) -> FsResult<()> {
    tr.call("mqfs.write", |_| fs.write(ino, seq * BLOCK, block))?;
    match how {
        Persist::Fsync => tr.call("mqfs.fsync", |_| fs.fsync(ino)),
        Persist::Fdataatomic => tr.call("mqfs.fatomic", |_| fs.fdataatomic(ino)),
    }
}

/// What a segment's teardown left for the oracle.
enum Teardown {
    /// The oracle was not asked for.
    Nothing,
    /// The crash image of an adversarial power cut.
    Crashed(ccnvme_ssd::DurableImage),
    /// The OS substrate has no crash story yet (ROADMAP 5b): its files
    /// were read back through the live mount.
    ReadBack(Oracle),
}

/// Checks that file `thread` holds exactly its `acked` blocks, each with
/// its own content. Counts one checked operation per block.
pub fn verify_file(fs: &FileSystem, seed: u64, thread: usize, acked: u64, oracle: &mut Oracle) {
    let pattern = Pattern::new(seed, thread);
    let path = file_path(thread);
    oracle.checked += acked;
    let ino = match fs.resolve(&path) {
        Ok(ino) => ino,
        Err(e) => return oracle.violation(format!("{path}: {acked} acked blocks, resolve: {e}")),
    };
    let (size, _, _) = fs.stat(ino);
    if size != acked * BLOCK {
        oracle.violation(format!(
            "{path}: size {size} after {acked} acked 4 KB appends"
        ));
    }
    const CHUNK_BLOCKS: u64 = 64;
    let mut seq = 0;
    while seq < acked {
        let want = CHUNK_BLOCKS.min(acked - seq);
        let data = fs
            .read(ino, seq * BLOCK, (want * BLOCK) as usize)
            .unwrap_or_default();
        for (i, s) in (seq..seq + want).enumerate() {
            let block = data.get(i * BLOCK as usize..(i + 1) * BLOCK as usize);
            if !block.is_some_and(|b| pattern.matches(s, b)) {
                oracle.violation(format!("{path}: acked block {s} unreadable or wrong"));
            }
        }
        seq += want;
    }
}

/// Boots `image` in a fresh simulation, mounts, checks the volume and
/// hands the recovered file system to `verify`. The recovery time runs
/// from power-up to the end of the consistency check.
pub fn recover_and_verify(
    scfg: &StackConfig,
    image: ccnvme_ssd::DurableImage,
    verify: impl FnOnce(&Arc<FileSystem>, &mut Oracle) + Send + 'static,
) -> Oracle {
    let scfg = scfg.clone();
    let cores = scfg.sim_cores();
    run_sim(cores, move || {
        let mut oracle = Oracle::default();
        match Stack::recover(&scfg, &image) {
            Err(e) => oracle.violation(format!("recovery failed to mount: {e}")),
            Ok((_stack, fs)) => {
                for finding in fs.check() {
                    oracle.violation(format!("fsck: {finding}"));
                }
                oracle.vt_recover_ns = ccnvme_runtime::now();
                if let Some(reason) = fs.error_state() {
                    oracle.violation(format!("mounted degraded: {reason}"));
                }
                verify(&fs, &mut oracle);
            }
        }
        oracle
    })
    .0
}

/// Runs one segment of an append workload.
pub fn segment(cfg: AppendCfg, opts: SegmentOpts) -> Segment {
    let seg_t0 = Instant::now();
    let scfg = mqfs_stack(cfg.threads);
    let ops_per_thread = opts.scaled(cfg.ops_per_thread, 20);
    let seed = opts.seed;
    let ((mut timed, acked, teardown), events) = run_on(cfg.runtime, scfg.sim_cores(), move || {
        let (stack, fs, link) = format(&cfg);
        let mut quiet = Tracer::new(false, seg_t0, 0);
        let files: Vec<u64> = (0..cfg.threads)
            .map(|t| {
                let ino = fs.create_path(&file_path(t)).expect("create private file");
                let pattern = Pattern::new(seed, t);
                let mut buf = pattern.buffer();
                for seq in 0..WARM_OPS {
                    pattern.stamp(&mut buf, seq);
                    append(&fs, &mut quiet, ino, seq, &buf, cfg.persist).expect("warm-up");
                }
                ino
            })
            .collect();
        let region = Region::begin(Probe(vec![link]), seg_t0);
        let clients: Vec<_> = files
            .iter()
            .enumerate()
            .map(|(t, &ino)| {
                let fs = Arc::clone(&fs);
                ccnvme_runtime::spawn(&format!("append-{t}"), t, move || {
                    let pattern = Pattern::new(seed, t);
                    let mut buf = pattern.buffer();
                    let tr = Tracer::new(opts.traced, seg_t0, t);
                    closed_loop(tr, ops_per_thread, |i, tr| {
                        let seq = WARM_OPS + i;
                        pattern.stamp(&mut buf, seq);
                        append(&fs, tr, ino, seq, &buf, cfg.persist).map_err(|e| e.to_string())
                    })
                })
            })
            .collect();
        let runs: Vec<ClientRun> = clients.into_iter().map(|h| h.join()).collect();
        // Blocks each file must hold: its warm-up and every completed
        // operation.
        let acked: Vec<u64> = runs
            .iter()
            .map(|r| WARM_OPS + r.lat_ns.len() as u64)
            .collect();
        let ops = cfg.threads as u64 * ops_per_thread;
        let timed = region.end(ops, ops * BLOCK, fs.error_state().is_some(), runs);
        if !opts.oracle {
            return (timed, acked, Teardown::Nothing);
        }
        // `fdataatomic` promises atomicity, not durability: one closing
        // fsync per file makes every acknowledged block durable, so the
        // oracle can demand all of them.
        for &ino in &files {
            fs.fsync(ino).expect("closing fsync");
        }
        let teardown = match stack {
            Some(stack) => Teardown::Crashed(stack.power_fail(CrashMode::adversarial(seed))),
            None => {
                let mut oracle = Oracle::default();
                for finding in fs.check() {
                    oracle.violation(format!("fsck: {finding}"));
                }
                for (t, &blocks) in acked.iter().enumerate() {
                    verify_file(&fs, seed, t, blocks, &mut oracle);
                }
                Teardown::ReadBack(oracle)
            }
        };
        (timed, acked, teardown)
    });
    timed.events = events;
    let oracle = match teardown {
        Teardown::Nothing => None,
        Teardown::ReadBack(oracle) => Some(oracle),
        Teardown::Crashed(image) => Some(recover_and_verify(&scfg, image, move |fs, oracle| {
            for (t, &blocks) in acked.iter().enumerate() {
                verify_file(fs, seed, t, blocks, oracle);
            }
        })),
    };
    Segment { timed, oracle }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle must be able to fail: a block the application counts
    /// as acknowledged but never synced is gone after the power cut.
    #[test]
    fn oracle_catches_an_acknowledged_but_unsynced_block() {
        let scfg = mqfs_stack(1);
        let seed = 9;
        let scfg2 = scfg.clone();
        let (image, _) = run_sim(scfg.sim_cores(), move || {
            let (stack, fs) = Stack::format(&scfg2);
            let ino = fs.create_path(&file_path(0)).unwrap();
            let pattern = Pattern::new(seed, 0);
            let mut buf = pattern.buffer();
            for seq in 0..3 {
                pattern.stamp(&mut buf, seq);
                fs.write(ino, seq * BLOCK, &buf).unwrap();
                if seq < 2 {
                    fs.fsync(ino).unwrap();
                }
            }
            stack.power_fail(CrashMode::adversarial(seed))
        });
        let honest = recover_and_verify(&scfg, image.clone(), move |fs, o| {
            verify_file(fs, seed, 0, 2, o)
        });
        assert!(honest.violations.is_empty(), "{:?}", honest.violations);
        assert_eq!(honest.checked, 2);
        assert!(honest.vt_recover_ns > 0);
        let lying = recover_and_verify(&scfg, image, move |fs, o| verify_file(fs, seed, 0, 3, o));
        assert!(!lying.violations.is_empty());
    }

    #[test]
    fn pattern_distinguishes_blocks_clients_and_seeds() {
        let p = Pattern::new(1, 0);
        let mut buf = p.buffer();
        p.stamp(&mut buf, 5);
        assert!(p.matches(5, &buf));
        assert!(!p.matches(6, &buf));
        assert!(!Pattern::new(1, 1).matches(5, &buf));
        assert!(!Pattern::new(2, 0).matches(5, &buf));
    }
}
