//! Differential test of the execution runtimes: the same single-thread
//! fio workload runs once on the deterministic virtual-time substrate
//! (`RuntimeKind::Sim`) and once on real OS threads (`OsRuntime`), and both
//! must shut down into the *same* durable state.
//!
//! What "same" means here, and why:
//!
//! * The logical file-system state (namespace, sizes, file contents,
//!   fsck verdict) must be identical — substrate timing may reorder
//!   background checkpoints but never change what the workload durably
//!   wrote.
//! * The media image must be byte-identical over the superblock, both
//!   bitmaps and the whole data region. Excluded from the byte
//!   comparison, each for a documented reason:
//!   - the inode table: inode `mtime` is runtime `now()` — virtual
//!     nanoseconds on sim, wall-clock nanoseconds on OS — so those
//!     bytes differ by design;
//!   - the journal region and the horizon block: checkpoint daemons are
//!     time-driven, so *when* the ring was reclaimed (and therefore the
//!     leftover ring bytes and the last persisted replay floor) is
//!     substrate timing, not durable state — recovery ignores released
//!     ring content by construction;
//!   - journaled copies of inode blocks live in the journal region, so
//!     the mtime exclusion does not leak back in through them.
//! * The PMR recovery scan ([`scan_pmr_bytes`]) must produce an
//!   identical `RecoveryReport` — after a clean unmount both substrates
//!   must leave an empty unfinished window, no aborts, no rejected
//!   slots.

use std::sync::Arc;

use ccnvme::recovery::scan_pmr_bytes;
use ccnvme_repro::crashtest::{Stack, StackConfig};
use ccnvme_repro::runtime::{run_on, RuntimeKind};
use ccnvme_repro::ssd::{CrashMode, DurableImage, SsdProfile};
use ccnvme_repro::workloads::{run_fio, FioConfig, SyncMode};
use mqfs::{FileSystem, FsVariant};

const OPS: u64 = 200;

fn digest(fs: &Arc<FileSystem>) -> String {
    let mut s = String::new();
    let mut dirs = vec![("/".to_string(), fs.root())];
    while let Some((path, ino)) = dirs.pop() {
        let mut entries = fs.readdir(ino).expect("readdir");
        entries.sort();
        for (name, child) in entries {
            let (size, kind, nlink) = fs.stat(child);
            s.push_str(&format!("{path}{name} {kind:?} {size} {nlink}\n"));
            if kind == mqfs::InodeKind::Dir {
                dirs.push((format!("{path}{name}/"), child));
            } else {
                let data = fs.read(child, 0, size as usize).expect("read");
                s.push_str(&format!("  content:{:x}\n", fnv(&data)));
            }
        }
    }
    s
}

fn fnv(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

struct RunOutcome {
    image: DurableImage,
    digest: String,
    /// (inode_table_start, journal_start, data_start) block boundaries.
    bounds: (u64, u64, u64),
}

fn run_one(kind: RuntimeKind) -> RunOutcome {
    let cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 1);
    run_on(kind, cfg.sim_cores(), move || {
        let (stack, fs) = Stack::format(&cfg);
        run_fio(
            &fs,
            &FioConfig {
                threads: 1,
                write_size: 4_096,
                ops_per_thread: OPS,
                sync: SyncMode::Fsync,
            },
        );
        assert!(fs.check().is_empty(), "{kind}: fsck after workload");
        let digest = digest(&fs);
        let layout = fs.layout();
        fs.unmount();
        RunOutcome {
            image: stack.crash_snapshot(CrashMode::adversarial(0)),
            digest,
            bounds: (
                layout.inode_table_start(),
                layout.journal_start(),
                layout.data_start(),
            ),
        }
    })
}

/// Is `lba` compared byte-for-byte? (See module docs for exclusions.)
fn compared(lba: u64, bounds: (u64, u64, u64)) -> bool {
    let (itab, _jstart, dstart) = bounds;
    let horizon = 1;
    // The inode table ([itab, jstart)) and the journal region
    // ([jstart, dstart)) are contiguous: one timing-bearing span.
    lba != horizon && !(itab..dstart).contains(&lba)
}

#[test]
fn sim_and_os_runtimes_agree_on_durable_state() {
    let sim = run_one(RuntimeKind::Sim);
    let os = run_one(RuntimeKind::Os);

    assert_eq!(sim.bounds, os.bounds, "layouts diverged");
    assert_eq!(sim.digest, os.digest, "logical fs state diverged");

    // Byte-identical media over every compared block, both directions.
    let bounds = sim.bounds;
    for (lba, data) in &sim.image.blocks {
        if !compared(*lba, bounds) {
            continue;
        }
        match os.image.blocks.get(lba) {
            Some(d) => assert_eq!(d, data, "media block {lba} differs"),
            None => panic!("block {lba} durable on sim but absent on os"),
        }
    }
    for lba in os.image.blocks.keys() {
        if compared(*lba, bounds) {
            assert!(
                sim.image.blocks.contains_key(lba),
                "block {lba} durable on os but absent on sim"
            );
        }
    }

    // Identical recovery verdict from the restored PMR.
    let rep_sim = scan_pmr_bytes(&sim.image.pmr).expect("sim PMR scans");
    let rep_os = scan_pmr_bytes(&os.image.pmr).expect("os PMR scans");
    assert!(
        rep_sim.unfinished_tx_ids().is_empty(),
        "sim left unfinished transactions after clean unmount"
    );
    assert_eq!(
        format!("{rep_sim:?}"),
        format!("{rep_os:?}"),
        "RecoveryReport diverged between runtimes"
    );

    // Both images recover into clean, identical mounts.
    let cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 1);
    let cfg2 = cfg.clone();
    let dig_sim = run_on(RuntimeKind::Sim, cfg.sim_cores(), move || {
        let (_stack, fs) = Stack::recover(&cfg, &sim.image).expect("sim image remounts");
        assert!(fs.check().is_empty(), "fsck after sim remount");
        digest(&fs)
    });
    let dig_os = run_on(RuntimeKind::Sim, cfg2.sim_cores(), move || {
        let (_stack, fs) = Stack::recover(&cfg2, &os.image).expect("os image remounts");
        assert!(fs.check().is_empty(), "fsck after os remount");
        digest(&fs)
    });
    assert_eq!(dig_sim, dig_os, "recovered states diverged");
}
