//! Cross-crate integration tests: full stack, multiple variants,
//! concurrency and crash interleavings that no single crate covers.

use std::sync::Arc;

use ccnvme_repro::crashtest::{Stack, StackConfig};
use ccnvme_repro::sim::Sim;
use ccnvme_repro::ssd::{CrashMode, SsdProfile};
use mqfs::{FsError, FsVariant};

const CORES: usize = 4;

fn variants() -> [FsVariant; 6] {
    [
        FsVariant::Mqfs,
        FsVariant::MqfsNoShadow,
        FsVariant::Ext4CcNvme,
        FsVariant::HoraeFs,
        FsVariant::Ext4,
        FsVariant::Ext4NoJournal,
    ]
}

/// The same operation script must produce identical logical content on
/// every variant — they differ in how they persist, not in semantics.
#[test]
fn variants_agree_on_final_state() {
    let mut digests = Vec::new();
    for variant in variants() {
        let out = Arc::new(parking_lot::Mutex::new(String::new()));
        let out2 = Arc::clone(&out);
        let cfg = StackConfig::new(variant, SsdProfile::optane_905p(), CORES);
        let mut sim = Sim::new(cfg.sim_cores());
        sim.spawn("main", 0, move || {
            let (_stack, fs) = Stack::format(&cfg);
            fs.mkdir_path("/a").expect("mkdir");
            fs.mkdir_path("/a/b").expect("mkdir");
            for i in 0..20 {
                let ino = fs.create_path(&format!("/a/b/f{i}")).expect("create");
                fs.write(ino, 0, &vec![i as u8; 1000 + i * 13])
                    .expect("write");
                if i % 3 == 0 {
                    fs.fsync(ino).expect("fsync");
                }
            }
            for i in (0..20).step_by(4) {
                fs.unlink_path(&format!("/a/b/f{i}")).expect("unlink");
            }
            fs.rename(
                fs.resolve("/a/b").expect("resolve"),
                "f1",
                fs.root(),
                "moved",
            )
            .expect("rename");
            // Digest the namespace.
            let mut s = String::new();
            let mut stack_dirs = vec![("/".to_string(), fs.root())];
            while let Some((path, ino)) = stack_dirs.pop() {
                for (name, child) in fs.readdir(ino).expect("readdir") {
                    let (size, kind, nlink) = fs.stat(child);
                    s.push_str(&format!("{path}{name} {kind:?} {size} {nlink}\n"));
                    if kind == mqfs::InodeKind::Dir {
                        stack_dirs.push((format!("{path}{name}/"), child));
                    }
                }
            }
            assert!(fs.check().is_empty(), "{variant:?} fsck");
            *out2.lock() = s;
        });
        sim.run();
        digests.push((variant, out.lock().clone()));
    }
    let first = digests[0].1.clone();
    for (variant, d) in &digests {
        assert_eq!(*d, first, "{variant:?} diverged");
    }
}

/// Heavy concurrent load followed by an adversarial crash must always
/// recover to a consistent volume with all fsynced files intact.
#[test]
fn concurrent_load_then_crash_recovers_consistently() {
    for variant in [FsVariant::Mqfs, FsVariant::Ext4] {
        let profile = SsdProfile::intel_750(); // Volatile cache.
        let cfg = StackConfig::new(variant, profile, CORES);
        let cfg2 = cfg.clone();
        let mut sim = Sim::new(cfg.sim_cores());
        sim.spawn("main", 0, move || {
            let (stack, fs) = Stack::format(&cfg2);
            let mut handles = Vec::new();
            for t in 0..CORES {
                let fs = Arc::clone(&fs);
                handles.push(ccnvme_repro::sim::spawn(&format!("w{t}"), t, move || {
                    fs.mkdir_path(&format!("/d{t}")).expect("mkdir");
                    for i in 0..12u64 {
                        let ino = fs.create_path(&format!("/d{t}/f{i}")).expect("create");
                        fs.write(ino, 0, &vec![(t * 16 + i as usize) as u8; 4096])
                            .expect("write");
                        fs.fsync(ino).expect("fsync");
                        if i % 3 == 2 {
                            fs.unlink_path(&format!("/d{t}/f{}", i - 1))
                                .expect("unlink");
                            let d = fs.resolve(&format!("/d{t}")).expect("resolve");
                            fs.fsync(d).expect("fsync dir");
                        }
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            let image = stack.power_fail(CrashMode::adversarial(99));
            let (_s2, fs2) = Stack::recover(&cfg2, &image).expect("recover");
            assert!(fs2.check().is_empty(), "{variant:?}: {:?}", fs2.check());
            // Every fsynced-and-not-deleted file must be present.
            for t in 0..CORES {
                for i in 0..12u64 {
                    let deleted = i % 3 == 1; // Unlinked by the i+1 round.
                    let path = format!("/d{t}/f{i}");
                    match fs2.resolve(&path) {
                        Ok(ino) => {
                            let data = fs2.read(ino, 0, 4096).expect("read");
                            assert_eq!(
                                data,
                                vec![(t * 16 + i as usize) as u8; 4096],
                                "{variant:?} {path}"
                            );
                        }
                        Err(FsError::NotFound) if deleted => {}
                        Err(e) => panic!("{variant:?} {path}: fsynced file lost: {e}"),
                    }
                }
            }
        });
        sim.run();
    }
}

/// Two crash/recover cycles back to back (crash during recovery-written
/// state) must still converge.
#[test]
fn double_crash_recovers() {
    let cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
    let cfg2 = cfg.clone();
    let mut sim = Sim::new(cfg.sim_cores());
    sim.spawn("main", 0, move || {
        let (stack, fs) = Stack::format(&cfg2);
        let ino = fs.create_path("/twice").expect("create");
        fs.write(ino, 0, b"first").expect("write");
        fs.fsync(ino).expect("fsync");
        let image1 = stack.power_fail(CrashMode::adversarial(1));
        // First recovery, write more, crash again immediately.
        let (stack2, fs2) = Stack::recover(&cfg2, &image1).expect("first recover");
        let ino2 = fs2.resolve("/twice").expect("resolve");
        fs2.write(ino2, 5, b" second").expect("write");
        fs2.fsync(ino2).expect("fsync");
        let image2 = stack2.power_fail(CrashMode::adversarial(2));
        let (_s3, fs3) = Stack::recover(&cfg2, &image2).expect("second recover");
        let ino3 = fs3.resolve("/twice").expect("resolve");
        assert_eq!(fs3.read(ino3, 0, 12).expect("read"), b"first second");
        assert!(fs3.check().is_empty());
    });
    sim.run();
}

/// The simulation (and therefore every experiment) is deterministic:
/// identical runs give identical virtual end times.
#[test]
fn full_stack_runs_are_deterministic() {
    fn run_once() -> u64 {
        let cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_p5800x(), CORES);
        let cfg2 = cfg.clone();
        let mut sim = Sim::new(cfg.sim_cores());
        sim.spawn("main", 0, move || {
            let (_stack, fs) = Stack::format(&cfg2);
            let mut handles = Vec::new();
            for t in 0..CORES {
                let fs = Arc::clone(&fs);
                handles.push(ccnvme_repro::sim::spawn(&format!("w{t}"), t, move || {
                    let ino = fs.create_path(&format!("/t{t}")).expect("create");
                    for i in 0..8u64 {
                        fs.write(ino, i * 4096, &[t as u8; 4096]).expect("write");
                        fs.fsync(ino).expect("fsync");
                    }
                }));
            }
            for h in handles {
                h.join();
            }
        });
        sim.run()
    }
    assert_eq!(run_once(), run_once());
}

/// Four threads churning one shared directory on a small journal — so
/// committers run out of ring space and checkpoint the other areas that
/// block them — dispatch exactly the same events twice. (The order of
/// those checkpoints once came out of a `HashSet`: ROADMAP 4(d).)
#[test]
fn shared_directory_churn_repeats_exactly() {
    fn run_once() -> (u64, u64) {
        let mut cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), CORES);
        cfg.journal_blocks = 256;
        let mut sim = Sim::new(cfg.sim_cores());
        sim.spawn("main", 0, move || {
            let (_stack, fs) = Stack::format(&cfg);
            let dir = fs.mkdir_path("/mail").expect("mkdir");
            let workers: Vec<_> = (0..CORES)
                .map(|t| {
                    let fs = Arc::clone(&fs);
                    ccnvme_repro::sim::spawn(&format!("mail-{t}"), t, move || {
                        for i in 0..40usize {
                            let ino = fs.create(dir, &format!("m{t}-{i}")).expect("create");
                            fs.write(ino, 0, &vec![t as u8; 4096 * (1 + (i + t) % 4)])
                                .expect("write");
                            fs.fsync(ino).expect("fsync");
                            if i >= 4 {
                                fs.unlink(dir, &format!("m{t}-{}", i - 4)).expect("unlink");
                                fs.fsync(dir).expect("fsync dir");
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join();
            }
            assert!(fs.check().is_empty(), "{:?}", fs.check());
        });
        let end = sim.run();
        (end, sim.events_processed())
    }
    let first = run_once();
    for _ in 0..3 {
        assert_eq!(run_once(), first);
    }
}

/// Every device profile supports the full MQFS stack.
#[test]
fn all_profiles_support_the_stack() {
    for profile in SsdProfile::all() {
        let cfg = StackConfig::new(FsVariant::Mqfs, profile, 2);
        let cfg2 = cfg.clone();
        let mut sim = Sim::new(cfg.sim_cores());
        sim.spawn("main", 0, move || {
            let (_stack, fs) = Stack::format(&cfg2);
            let ino = fs.create_path("/p").expect("create");
            fs.write(ino, 0, &[9u8; 8192]).expect("write");
            fs.fsync(ino).expect("fsync");
            fs.fatomic(ino).expect("fatomic");
            assert!(fs.check().is_empty());
        });
        sim.run();
    }
}

/// Interrupt coalescing (§4.6) reduces IRQs without changing results.
#[test]
fn irq_coalescing_preserves_correctness_and_cuts_interrupts() {
    fn run(coalesce: bool) -> (u64, Vec<u8>) {
        let mut cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
        cfg.irq_coalesce_tx = coalesce;
        let out = Arc::new(parking_lot::Mutex::new((0u64, Vec::new())));
        let out2 = Arc::clone(&out);
        let mut sim = Sim::new(cfg.sim_cores());
        sim.spawn("main", 0, move || {
            let (stack, fs) = Stack::format(&cfg);
            let ino = fs.create_path("/irq").expect("create");
            fs.fsync(ino).expect("settle creation");
            // Measure the steady-state fsync loop only.
            let before = stack.controller().link().traffic.irqs.get();
            for i in 0..10u64 {
                fs.write(ino, i * 4096, &[i as u8; 4096]).expect("write");
                fs.fsync(ino).expect("fsync");
            }
            let irqs = stack.controller().link().traffic.irqs.get() - before;
            let data = fs.read(ino, 0, 4096).expect("read");
            *out2.lock() = (irqs, data);
        });
        sim.run();
        let v = out.lock().clone();
        v
    }
    let (irqs_off, data_off) = run(false);
    let (irqs_on, data_on) = run(true);
    assert_eq!(data_off, data_on);
    // Each transaction suppresses its member interrupts, keeping only
    // the commit's (§4.6): at least one fewer IRQ per fsync.
    assert!(
        irqs_on + 10 <= irqs_off,
        "coalescing should suppress member IRQs: {irqs_on} vs {irqs_off}"
    );
}

/// A steady-state 4 KB append + `fsync` puts two blocks on the wire —
/// the data and the JD: the inode's 256-byte slot and the one bitmap
/// byte ride inside the JD as patches, and growing a file contiguously
/// extends its last extent inside the inode, so there is no mapping
/// block either. (Whole-block journaling of the inode-table and bitmap
/// blocks made it four; a pointer tree, before extents, five.)
#[test]
fn steady_state_append_fsync_is_two_block_ios() {
    let cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 1);
    let mut sim = Sim::new(cfg.sim_cores());
    sim.spawn("main", 0, move || {
        let (stack, fs) = Stack::format(&cfg);
        let ino = fs.create_path("/log").expect("create");
        let append = |i: u64| {
            fs.write(ino, i * 4096, &[i as u8; 4096]).expect("write");
            fs.fsync(ino).expect("fsync");
        };
        (0..16).for_each(append);
        let before = stack.controller().link().traffic.block_ios.get();
        (16..116).for_each(append);
        let ios = stack.controller().link().traffic.block_ios.get() - before;
        // Two per commit, plus whatever checkpoint falls in the window.
        assert!(
            (200..=205).contains(&ios),
            "100 appends cost {ios} block I/Os"
        );
    });
    sim.run();
}

/// Fig. 14's operation — create a file, write 4 KB, `fsync` — puts two
/// blocks on the wire too: the new directory record and the `rec_len`
/// it split travel as patches inside the JD beside the two inode slots
/// and two bitmap bytes. (A directory block of sorted entries, rewritten
/// and journaled whole on every create, made it three.) Measured once
/// the directory's block exists: a block's first write is whole.
#[test]
fn create_write_fsync_is_two_block_ios() {
    let cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 1);
    let mut sim = Sim::new(cfg.sim_cores());
    sim.spawn("main", 0, move || {
        let (stack, fs) = Stack::format(&cfg);
        let create = |i: u64| {
            let ino = fs.create_path(&format!("/f{i}")).expect("create");
            fs.write(ino, 0, &[i as u8; 4096]).expect("write");
            fs.fsync(ino).expect("fsync");
        };
        (0..16).for_each(create);
        let before = stack.controller().link().traffic.block_ios.get();
        (16..116).for_each(create);
        let ios = stack.controller().link().traffic.block_ios.get() - before;
        assert!(
            (200..=205).contains(&ios),
            "100 creates cost {ios} block I/Os"
        );
    });
    sim.run();
}
