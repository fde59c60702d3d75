//! End-to-end file-system tests: full stack (SSD → driver → journal →
//! FS), including crash/remount cycles for every variant.

use std::{collections::HashSet, sync::Arc};

use ccnvme::{CcNvmeDriver, NvmeDriver};
use ccnvme_block::{Bio, BioOp, BlockDevice, RUN_CMD_BLOCKS};
use ccnvme_obs::MetricsSnapshot;
use ccnvme_sim::Sim;
use ccnvme_ssd::{CrashMode, CtrlConfig, DurableImage, NvmeController, SsdProfile};
use mqfs::{FileSystem, FsConfig, FsError, FsVariant, InodeKind};

const CORES: usize = 4;

fn fs_config(variant: FsVariant) -> FsConfig {
    FsConfig {
        variant,
        journal_blocks: 2_048,
        queues: CORES,
        // kjournald and the device share the spare cores.
        journald_core: CORES,
    }
}

/// Builds a device for the variant (ccNVMe for the MQFS family, plain
/// NVMe otherwise) and returns (dev, crash_fn).
struct Stack {
    dev: Arc<dyn BlockDevice>,
    cc: Option<Arc<CcNvmeDriver>>,
    nv: Option<Arc<NvmeDriver>>,
}

impl Stack {
    fn new(variant: FsVariant, profile: SsdProfile) -> Stack {
        let mut cfg = CtrlConfig::new(profile);
        cfg.device_core = CORES + 1;
        let ctrl = NvmeController::new(cfg);
        Self::from_ctrl(variant, ctrl).0
    }

    fn from_ctrl(variant: FsVariant, ctrl: NvmeController) -> (Stack, HashSet<u64>) {
        if variant.mq_journal() || variant == FsVariant::Ext4CcNvme {
            let (drv, report) = CcNvmeDriver::probe(ctrl, CORES as u16, 128);
            let drv = Arc::new(drv);
            (
                Stack {
                    dev: Arc::clone(&drv) as Arc<dyn BlockDevice>,
                    cc: Some(drv),
                    nv: None,
                },
                report.unfinished_tx_ids(),
            )
        } else {
            let drv = Arc::new(NvmeDriver::new(ctrl, CORES));
            (
                Stack {
                    dev: Arc::clone(&drv) as Arc<dyn BlockDevice>,
                    cc: None,
                    nv: Some(drv),
                },
                HashSet::new(),
            )
        }
    }

    fn power_fail(&self, seed: u64) -> DurableImage {
        let mode = CrashMode::adversarial(seed);
        match (&self.cc, &self.nv) {
            (Some(d), _) => d.controller().power_fail(mode),
            (_, Some(d)) => d.controller().power_fail(mode),
            _ => unreachable!(),
        }
    }

    /// Unmounts `fs` gracefully and returns the device's image: everything
    /// durable, the journal checkpointed home.
    fn unmounted_image(&self, fs: &FileSystem) -> DurableImage {
        fs.unmount();
        if let Some(cc) = &self.cc {
            cc.quiesce();
        }
        match (&self.cc, &self.nv) {
            (Some(d), _) => d.controller().crash_snapshot(CrashMode::SETTLED),
            (_, Some(d)) => d.controller().crash_snapshot(CrashMode::SETTLED),
            _ => unreachable!(),
        }
    }

    /// Reboot: new controller from the image, fresh driver, remount.
    fn reboot(
        variant: FsVariant,
        image: &DurableImage,
        profile: SsdProfile,
    ) -> (Stack, Arc<FileSystem>) {
        let mut cfg = CtrlConfig::new(profile);
        cfg.device_core = CORES + 1;
        let ctrl = NvmeController::from_image(cfg, image);
        let (stack, discard) = Self::from_ctrl(variant, ctrl);
        let fs = FileSystem::mount(Arc::clone(&stack.dev), fs_config(variant), &discard)
            .expect("mount after crash");
        (stack, fs)
    }

    /// The stack's metrics registry, where the file system and the
    /// journal count what they did.
    fn metrics(&self) -> MetricsSnapshot {
        ccnvme_block::obs_of(self.dev.as_ref()).metrics.snapshot()
    }
}

/// Samples recorded in histogram `name` (0 when it was never registered).
fn samples(m: &MetricsSnapshot, name: &str) -> u64 {
    m.histogram(name).map_or(0, |h| h.summary.count)
}

/// Block groups of the volume: a file's first block (and a directory's)
/// is allocated from the start of group `ino % groups`.
fn block_groups(fs: &FileSystem) -> u64 {
    let layout = fs.layout();
    (layout.capacity - layout.data_start()) / mqfs::layout::BITS_PER_BLOCK + 1
}

/// Creates `/d<i>` and `/f<i>` until a directory and a file have their
/// first blocks in one block group — the file's data will land where the
/// directory's block was. Returns the directory's index and the file's
/// `(index, ino)`.
fn dir_and_file_in_one_group(fs: &FileSystem) -> (u64, (u64, u64)) {
    let groups = block_groups(fs);
    let (mut dirs, mut files) = (
        std::collections::HashMap::new(),
        std::collections::HashMap::new(),
    );
    (0..)
        .find_map(|i| {
            let d = fs.mkdir_path(&format!("/d{i}")).expect("mkdir");
            let f = fs.create_path(&format!("/f{i}")).expect("create");
            dirs.insert(d % groups, i);
            files.insert(f % groups, (i, f));
            dirs.keys()
                .find_map(|g| files.get(g).map(|f| (dirs[g], *f)))
        })
        .expect("a directory and a file in one group")
}

fn all_variants() -> Vec<FsVariant> {
    vec![
        FsVariant::Mqfs,
        FsVariant::MqfsNoShadow,
        FsVariant::Ext4CcNvme,
        FsVariant::HoraeFs,
        FsVariant::Ext4,
        FsVariant::Ext4NoJournal,
    ]
}

#[test]
fn create_write_read_roundtrip_all_variants() {
    for variant in all_variants() {
        let mut sim = Sim::new(CORES + 2);
        sim.spawn("host", 0, move || {
            let stack = Stack::new(variant, SsdProfile::optane_905p());
            let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
            let ino = fs.create_path("/hello.txt").expect("create");
            fs.write(ino, 0, b"hello world").expect("write");
            fs.fsync(ino).expect("fsync");
            assert_eq!(fs.read(ino, 0, 11).expect("read"), b"hello world");
            assert_eq!(fs.read(ino, 6, 100).expect("read"), b"world");
            let (size, kind, nlink) = fs.stat(ino);
            assert_eq!((size, kind, nlink), (11, InodeKind::File, 1), "{variant:?}");
            fs.unmount();
        });
        sim.run();
    }
}

#[test]
fn directories_nest_and_list() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let stack = Stack::new(variant, SsdProfile::optane_p5800x());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        fs.mkdir_path("/a").expect("mkdir");
        fs.mkdir_path("/a/b").expect("mkdir");
        fs.create_path("/a/b/c.txt").expect("create");
        fs.create_path("/a/d.txt").expect("create");
        let entries = fs
            .readdir(fs.resolve("/a").expect("resolve"))
            .expect("readdir");
        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["b", "d.txt"]);
        assert!(fs.resolve("/a/b/c.txt").is_ok());
        assert_eq!(fs.resolve("/a/x"), Err(FsError::NotFound));
        assert!(fs.check().is_empty(), "fsck clean");
    });
    sim.run();
}

#[test]
fn fsync_survives_crash_all_journaling_variants() {
    // Ext4NoJournal excluded: it makes no crash-consistency promise.
    for variant in [
        FsVariant::Mqfs,
        FsVariant::MqfsNoShadow,
        FsVariant::Ext4CcNvme,
        FsVariant::HoraeFs,
        FsVariant::Ext4,
    ] {
        let mut sim = Sim::new(CORES + 2);
        sim.spawn("host", 0, move || {
            let profile = SsdProfile::intel_750(); // Volatile cache: hardest case.
            let stack = Stack::new(variant, profile.clone());
            let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
            let ino = fs.create_path("/data.bin").expect("create");
            fs.write(ino, 0, &[0x5a; 8192]).expect("write");
            fs.fsync(ino).expect("fsync");
            // Adversarial crash immediately after fsync returned.
            let image = stack.power_fail(42);
            let (_stack2, fs2) = Stack::reboot(variant, &image, profile);
            let ino2 = fs2
                .resolve("/data.bin")
                .unwrap_or_else(|e| panic!("{variant:?}: fsynced file lost after crash: {e}"));
            let data = fs2.read(ino2, 0, 8192).expect("read");
            assert_eq!(data, vec![0x5a; 8192], "{variant:?}: content after crash");
            assert!(
                fs2.check().is_empty(),
                "{variant:?}: fsck clean after recovery"
            );
        });
        sim.run();
    }
}

#[test]
fn unsynced_data_may_vanish_but_fs_stays_consistent() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let a = fs.create_path("/synced").expect("create");
        fs.write(a, 0, b"synced").expect("write");
        fs.fsync(a).expect("fsync");
        // Unsynced work after the fsync.
        let b = fs.create_path("/unsynced").expect("create");
        fs.write(b, 0, b"gone?").expect("write");
        let image = stack.power_fail(7);
        let (_s2, fs2) = Stack::reboot(variant, &image, profile);
        assert!(fs2.resolve("/synced").is_ok());
        // The unsynced file may or may not exist; the volume must be
        // consistent either way.
        assert!(fs2.check().is_empty(), "fsck: {:?}", fs2.check());
    });
    sim.run();
}

#[test]
fn fatomic_all_or_nothing_hello_sosp() {
    // The paper's §5.1 example: write("Hello"); write(" SOSP");
    // fatomic(); after a crash the file is either empty or "Hello SOSP".
    let variant = FsVariant::Mqfs;
    for seed in 0..5u64 {
        let mut sim = Sim::new(CORES + 2);
        sim.spawn("host", 0, move || {
            let profile = SsdProfile::optane_905p();
            let stack = Stack::new(variant, profile.clone());
            let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
            let ino = fs.create_path("/file1").expect("create");
            fs.fsync(ino).expect("persist the empty file");
            fs.write(ino, 0, b"Hello").expect("write");
            fs.write(ino, 5, b" SOSP").expect("write");
            fs.fatomic(ino).expect("fatomic");
            // Crash immediately: durability was NOT promised, atomicity was.
            let image = stack.power_fail(seed);
            let (_s2, fs2) = Stack::reboot(variant, &image, profile);
            let ino2 = fs2
                .resolve("/file1")
                .expect("file was fsynced empty earlier");
            let (size, _, _) = fs2.stat(ino2);
            let content = fs2.read(ino2, 0, 32).expect("read");
            assert!(
                (size == 0 && content.is_empty()) || (size == 10 && content == b"Hello SOSP"),
                "seed {seed}: intermediate state leaked: size={size} content={content:?}"
            );
        });
        sim.run();
    }
}

/// Once `fsync` returns, the device keeps the page cache's page itself
/// as the media block (a write's buffer is shared, never copied): a
/// rewrite of the page must leave the live media block alone until that
/// rewrite is synced and lands.
#[test]
fn a_page_rewritten_after_fsync_leaves_the_media_block_until_it_lands() {
    let variant = FsVariant::Mqfs;
    Sim::run_main(CORES + 2, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let ino = fs.create_path("/f").expect("create");
        fs.write(ino, 0, &[b'a'; 4096]).expect("write");
        fs.fsync(ino).expect("fsync");
        fs.write(ino, 100, b"bbbb")
            .expect("rewrite part of the page");
        let content_after = |image: &DurableImage| {
            let (_s, fs) = Stack::reboot(variant, image, profile.clone());
            let ino = fs.resolve("/f").expect("synced file");
            fs.read(ino, 0, 4096).expect("read")
        };
        let live = stack.cc.as_ref().expect("ccNVMe stack").controller();
        let before = live.crash_snapshot(CrashMode::adversarial(5));
        assert!(
            content_after(&before) == [b'a'; 4096],
            "the rewrite reached the media before it was synced"
        );
        fs.fsync(ino).expect("fsync the rewrite");
        let after = content_after(&stack.power_fail(5));
        assert_eq!(&after[100..104], b"bbbb");
        assert!(after[..100].iter().chain(&after[104..]).all(|b| *b == b'a'));
    });
}

/// `fatomic` returns while its data is still on the way to the media,
/// and the page cache shares the page with that transaction: writes to
/// the page right after it — whole or partial — must leave the
/// transaction's copy alone, or the device programs never-synced bytes
/// for it.
#[test]
fn writes_after_fatomic_leave_the_in_flight_page_alone() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let whole = fs.create_path("/whole").expect("create");
        let part = fs.create_path("/part").expect("create");
        for ino in [whole, part] {
            fs.write(ino, 0, &[b'a'; 4096]).expect("write");
            fs.fatomic(ino).expect("fatomic");
        }
        fs.write(whole, 0, &[b'b'; 4096])
            .expect("overwrite the page");
        fs.write(part, 100, b"bbbb")
            .expect("overwrite part of the page");
        // Both transactions land; the overwrites were never synced.
        ccnvme_sim::delay(1_000_000);
        let image = stack.power_fail(5);
        let (_s2, fs2) = Stack::reboot(variant, &image, profile);
        for path in ["/whole", "/part"] {
            let ino = fs2.resolve(path).expect("fatomic'd file");
            let content = fs2.read(ino, 0, 4096).expect("read");
            assert!(
                content == [b'a'; 4096],
                "{path}: an unsynced write reached the media"
            );
        }
    });
    sim.run();
}

#[test]
fn fatomic_is_much_faster_than_fsync() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let stack = Stack::new(variant, SsdProfile::optane_905p());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let ino = fs.create_path("/f").expect("create");
        fs.write(ino, 0, &[1u8; 4096]).expect("write");
        fs.fsync(ino).expect("fsync");
        // Steady state: measure both primitives.
        let mut t_atomic = 0;
        let mut t_sync = 0;
        for i in 0..20u64 {
            fs.write(ino, 4096 * (i + 1), &[2u8; 4096]).expect("write");
            let t0 = ccnvme_sim::now();
            if i % 2 == 0 {
                fs.fdataatomic(ino).expect("fdataatomic");
                t_atomic += ccnvme_sim::now() - t0;
            } else {
                fs.fsync(ino).expect("fsync");
                t_sync += ccnvme_sim::now() - t0;
            }
        }
        assert!(
            t_atomic * 2 < t_sync,
            "atomic {t_atomic} should be well under half of sync {t_sync}"
        );
    });
    sim.run();
}

#[test]
fn unlink_and_rmdir_after_crash() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        fs.mkdir_path("/d").expect("mkdir");
        let f = fs.create_path("/d/f").expect("create");
        fs.fsync(f).expect("fsync file");
        fs.unlink_path("/d/f").expect("unlink");
        let d = fs.resolve("/d").expect("resolve");
        fs.fsync(d).expect("fsync dir persists the unlink");
        let image = stack.power_fail(3);
        let (_s2, fs2) = Stack::reboot(variant, &image, profile);
        assert_eq!(
            fs2.resolve("/d/f"),
            Err(FsError::NotFound),
            "unlink persisted"
        );
        assert!(fs2.check().is_empty(), "fsck: {:?}", fs2.check());
    });
    sim.run();
}

#[test]
fn rename_overwrite_is_atomic_across_crash() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let old = fs.create_path("/target").expect("create");
        fs.write(old, 0, b"OLD").expect("write");
        fs.fsync(old).expect("fsync");
        let new = fs.create_path("/staging").expect("create");
        fs.write(new, 0, b"NEW").expect("write");
        fs.fsync(new).expect("fsync");
        fs.rename(fs.root(), "staging", fs.root(), "target")
            .expect("rename");
        fs.fsync(fs.root()).expect("fsync dir persists the rename");
        let image = stack.power_fail(11);
        let (_s2, fs2) = Stack::reboot(variant, &image, profile);
        let t = fs2.resolve("/target").expect("target exists");
        assert_eq!(fs2.read(t, 0, 3).expect("read"), b"NEW");
        assert_eq!(fs2.resolve("/staging"), Err(FsError::NotFound));
        assert!(fs2.check().is_empty(), "fsck: {:?}", fs2.check());
    });
    sim.run();
}

/// `n` files `f0000xyz`… in `dir`, each holding its own number and
/// fsynced: 19-byte records, so 215 fill directory block 0 and the rest
/// live in block 1.
fn numbered_files(fs: &FileSystem, dir: &str, n: usize) {
    for i in 0..n {
        let f = fs
            .create_path(&format!("{dir}/f{i:04}xyz"))
            .expect("create");
        fs.write(f, 0, i.to_string().as_bytes()).expect("write");
        fs.fsync(f).expect("fsync");
    }
}

/// Crashes, reboots and checks that `path` is the file that held "3" and
/// that the image is consistent.
fn renamed_file_survives(stack: &Stack, profile: SsdProfile, path: &str) {
    let variant = FsVariant::Mqfs;
    let image = stack.power_fail(11);
    let (_s2, fs2) = Stack::reboot(variant, &image, profile);
    let t = fs2.resolve(path).expect("destination exists");
    // One assertion, so that a failure shows both symptoms.
    assert_eq!(
        (fs2.read(t, 0, 8).expect("read"), fs2.check()),
        (b"3".to_vec(), Vec::new()),
        "the moved file's content, and fsck"
    );
}

#[test]
fn rename_over_an_entry_in_another_block_drops_it_from_media() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        numbered_files(&fs, "", 300);
        // The source leaves block 0, which is then the first with room;
        // the entry it replaces lives in block 1.
        fs.rename(fs.root(), "f0003xyz", fs.root(), "f0290xyz")
            .expect("rename");
        fs.fsync(fs.root()).expect("fsync dir persists the rename");
        renamed_file_survives(&stack, profile, "/f0290xyz");
    });
    sim.run();
}

#[test]
fn rename_across_directories_over_an_entry_in_another_block() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let src = fs.mkdir_path("/src").expect("mkdir");
        let dst = fs.mkdir_path("/dst").expect("mkdir");
        numbered_files(&fs, "/src", 4);
        numbered_files(&fs, "/dst", 300);
        // Room in the destination's block 0; the replaced entry lives in
        // its block 1.
        fs.unlink(dst, "f0005xyz").expect("unlink");
        fs.rename(src, "f0003xyz", dst, "f0290xyz").expect("rename");
        fs.fsync(dst).expect("fsync dir persists the rename");
        renamed_file_survives(&stack, profile, "/dst/f0290xyz");
    });
    sim.run();
}

#[test]
fn hard_links_share_content_and_count() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let stack = Stack::new(variant, SsdProfile::optane_p5800x());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let ino = fs.create_path("/a").expect("create");
        fs.write(ino, 0, b"shared").expect("write");
        fs.link(ino, fs.root(), "b").expect("link");
        let (_, _, nlink) = fs.stat(ino);
        assert_eq!(nlink, 2);
        let b = fs.resolve("/b").expect("resolve");
        assert_eq!(b, ino);
        fs.unlink_path("/a").expect("unlink");
        let (_, kind, nlink) = fs.stat(ino);
        assert_eq!((kind, nlink), (InodeKind::File, 1));
        assert_eq!(fs.read(ino, 0, 6).expect("read"), b"shared");
        assert!(fs.check().is_empty());
    });
    sim.run();
}

#[test]
fn interleaved_appends_spill_into_extent_leaves() {
    const BLOCKS: u64 = 300;
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_p5800x();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        // Two files whose allocation goals share a block group (the goal
        // of a file's first block is group `ino % groups`): alternate
        // appends then take alternate LBAs and no extent can grow.
        let groups = block_groups(&fs);
        let mut by_group = std::collections::HashMap::new();
        let files = (0..)
            .find_map(|i| {
                let ino = fs.create_path(&format!("/f{i}")).expect("create");
                by_group
                    .insert(ino % groups, (i, ino))
                    .map(|first| [first, (i, ino)])
            })
            .expect("two files in one group");
        fs.fsync(fs.root()).expect("fsync the creates");
        let free_before = fs.free_blocks();
        let content = |file: usize, blk: u64| vec![(file as u64 * 101 + blk) as u8; 4096];
        for blk in 0..BLOCKS {
            for (f, (_, ino)) in files.iter().enumerate() {
                fs.write(*ino, blk * 4096, &content(f, blk)).expect("write");
            }
            if blk % 50 == 49 {
                fs.fsync(files[0].1).expect("fsync");
            }
        }
        for (_, ino) in files {
            fs.fsync(ino).expect("fsync");
        }
        // 300 one-block extents per file: 13 inline, 255 in a first
        // leaf, the rest in a second one chained behind it.
        assert_eq!(
            free_before - fs.free_blocks(),
            2 * (BLOCKS + 2),
            "every append opened an extent and each file spilled into two leaves"
        );
        assert!(fs.check().is_empty(), "fsck: {:?}", fs.check());
        // The chain must also load from disk: crash, recover, read back.
        let image = stack.power_fail(17);
        let (_s2, fs2) = Stack::reboot(variant, &image, profile);
        for (f, (i, _)) in files.iter().enumerate() {
            let ino = fs2.resolve(&format!("/f{i}")).expect("resolve");
            assert_eq!(fs2.stat(ino).0, BLOCKS * 4096);
            for blk in 0..BLOCKS {
                assert_eq!(
                    fs2.read(ino, blk * 4096, 4096).expect("read"),
                    content(f, blk),
                    "file {f} block {blk}"
                );
            }
        }
        assert!(fs2.check().is_empty(), "fsck: {:?}", fs2.check());
        // Free everything; data and leaf blocks must all come back.
        for (i, _) in files {
            fs2.unlink_path(&format!("/f{i}")).expect("unlink");
        }
        assert!(fs2.check().is_empty(), "fsck: {:?}", fs2.check());
        assert_eq!(fs2.free_blocks(), free_before);
    });
    sim.run();
}

#[test]
fn holes_fill_in_any_order_and_merge() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let stack = Stack::new(variant, SsdProfile::optane_p5800x());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let ino = fs.create_path("/sparse").expect("create");
        let free_before = fs.free_blocks();
        // Back to front: every block is written while the one before it
        // is still a hole.
        for blk in (0..40u64).rev() {
            fs.write(ino, blk * 4096, &[blk as u8; 4096])
                .expect("write");
        }
        fs.fsync(ino).expect("fsync");
        for blk in 0..40u64 {
            assert_eq!(
                fs.read(ino, blk * 4096, 4096).expect("read"),
                vec![blk as u8; 4096]
            );
        }
        assert!(fs.check().is_empty(), "fsck: {:?}", fs.check());
        fs.unlink_path("/sparse").expect("unlink");
        assert_eq!(fs.free_blocks(), free_before);
    });
    sim.run();
}

#[test]
fn partial_write_into_a_hole_inside_eof_zero_fills() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let stack = Stack::new(variant, SsdProfile::optane_p5800x());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        // Dirty the media under the blocks the next file will be handed:
        // three durable blocks of 0xAA, then free them.
        let old = fs.create_path("/f").expect("create");
        fs.write(old, 0, &[0xAA; 3 * 4096]).expect("write");
        fs.fsync(old).expect("fsync");
        fs.unlink_path("/f").expect("unlink");
        fs.fsync(fs.root()).expect("fsync the deletion");
        // The same name gets the same inode number back, so the same
        // block-group goal. Blocks 0 and 2, leaving block 1 a hole
        // inside EOF.
        let ino = fs.create_path("/f").expect("create");
        assert_eq!(ino, old, "the new file must allocate where the old one did");
        fs.write(ino, 0, &[0xB0; 4096]).expect("write block 0");
        fs.write(ino, 2 * 4096, &[0xB2; 4096])
            .expect("write block 2");
        // A partial write allocates block 1 out of the freed, dirty
        // blocks: everything around the written bytes must read zero.
        fs.write(ino, 4096 + 100, &[0xB1; 10])
            .expect("partial write");
        let mut want = vec![0u8; 4096];
        want[100..110].fill(0xB1);
        let got = fs.read(ino, 4096, 4096).expect("read");
        assert!(
            got == want,
            "stale media leaked into the hole: byte 0 = {:#x}, byte 4095 = {:#x}",
            got[0],
            got[4095]
        );
        fs.fsync(ino).expect("fsync");
        assert!(fs.check().is_empty(), "fsck: {:?}", fs.check());
    });
    sim.run();
}

#[test]
fn directory_grows_past_one_block() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let stack = Stack::new(variant, SsdProfile::optane_p5800x());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        // ~300 files with long names: needs several directory blocks.
        for i in 0..300 {
            fs.create_path(&format!("/quite-a-long-file-name-number-{i:05}"))
                .expect("create");
        }
        let entries = fs.readdir(fs.root()).expect("readdir");
        assert_eq!(entries.len(), 300);
        // Delete every other one; the rest must remain resolvable.
        for i in (0..300).step_by(2) {
            fs.unlink_path(&format!("/quite-a-long-file-name-number-{i:05}"))
                .expect("unlink");
        }
        for i in (1..300).step_by(2) {
            assert!(fs
                .resolve(&format!("/quite-a-long-file-name-number-{i:05}"))
                .is_ok());
        }
        assert!(fs.check().is_empty());
    });
    sim.run();
}

#[test]
fn concurrent_fsyncs_from_multiple_cores() {
    for variant in [FsVariant::Mqfs, FsVariant::Ext4] {
        let mut sim = Sim::new(CORES + 2);
        sim.spawn("main", 0, move || {
            let stack = Stack::new(variant, SsdProfile::optane_p5800x());
            let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
            let mut handles = Vec::new();
            for core in 0..CORES {
                let fs = Arc::clone(&fs);
                handles.push(ccnvme_sim::spawn(&format!("w{core}"), core, move || {
                    let ino = fs.create_path(&format!("/t{core}")).expect("create");
                    for i in 0..10u64 {
                        fs.write(ino, i * 4096, &[core as u8; 4096]).expect("write");
                        fs.fsync(ino).expect("fsync");
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            for core in 0..CORES {
                let ino = fs.resolve(&format!("/t{core}")).expect("resolve");
                let (size, _, _) = fs.stat(ino);
                assert_eq!(size, 10 * 4096);
            }
            assert!(fs.check().is_empty(), "{variant:?}");
            fs.unmount();
        });
        sim.run();
    }
}

#[test]
fn graceful_unmount_then_clean_remount() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::intel_750();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let ino = fs.create_path("/persist").expect("create");
        fs.write(ino, 0, b"across unmount").expect("write");
        fs.fsync(ino).expect("fsync");
        let image = stack.unmounted_image(&fs);
        let (_s2, fs2) = Stack::reboot(variant, &image, profile);
        let ino2 = fs2.resolve("/persist").expect("resolve");
        assert_eq!(fs2.read(ino2, 0, 14).expect("read"), b"across unmount");
        assert!(fs2.check().is_empty());
    });
    sim.run();
}

/// A directory block whose record chain is broken on media — here the
/// first record's `rec_len` shorter than the record itself — is an fsck
/// finding, not a directory that silently lists fewer names.
#[test]
fn a_corrupted_rec_len_on_media_is_an_fsck_finding() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        fs.create_path("/first").expect("create");
        fs.create_path("/second").expect("create");
        fs.fsync(fs.root()).expect("fsync");
        let data_start = fs.layout().data_start();
        let mut image = stack.unmounted_image(&fs);
        // The root's block at home (the journal holds a copy too).
        let (_, block) = image
            .blocks
            .iter_mut()
            .find(|(lba, b)| {
                **lba >= data_start
                    && mqfs::dir::decode_block(b)
                        .is_ok_and(|r| r.iter().any(|d| d.name == "second"))
            })
            .expect("the root directory's block");
        let mut bytes = block.to_vec();
        bytes[8..10].copy_from_slice(&5u16.to_le_bytes());
        *block = bytes.into();
        let (_s2, fs2) = Stack::reboot(variant, &image, profile);
        assert_eq!(
            fs2.check(),
            ["directory 1 block 0: record at 0: rec_len 5 with a 5-byte name"]
        );
    });
    sim.run();
}

/// The superblock names the format: an `MQFSv2` volume — extents, and
/// directory blocks of packed sorted entries — is refused, not misread.
#[test]
fn an_mqfs_v2_superblock_refuses_to_mount() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let mut image = stack.unmounted_image(&fs);
        let sb = image.blocks.get_mut(&0).expect("superblock");
        assert_eq!(&sb[2..8], b"3vSFQM", "an MQFSv3 volume");
        let mut bytes = sb.to_vec();
        bytes[2] = b'2';
        *sb = bytes.into();
        let mut cfg = CtrlConfig::new(profile);
        cfg.device_core = CORES + 1;
        let (stack2, discard) = Stack::from_ctrl(variant, NvmeController::from_image(cfg, &image));
        let mounted = FileSystem::mount(stack2.dev, fs_config(variant), &discard);
        assert_eq!(mounted.err(), Some(FsError::Io));
    });
    sim.run();
}

#[test]
fn block_reuse_dir_to_data_never_leaks_dir_content() {
    // The §5.4 scenario: journal a directory block, delete the dir,
    // reuse the block for file data, crash — recovery must not replay
    // the stale directory content over the user data.
    let variant = FsVariant::Mqfs;
    for seed in 0..3u64 {
        let mut sim = Sim::new(CORES + 2);
        sim.spawn("host", 0, move || {
            let profile = SsdProfile::optane_905p();
            let stack = Stack::new(variant, profile.clone());
            let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
            // A directory with enough entries to dirty its block.
            fs.mkdir_path("/victim").expect("mkdir");
            for i in 0..20 {
                fs.create_path(&format!("/victim/f{i}")).expect("create");
            }
            let d = fs.resolve("/victim").expect("resolve");
            fs.fsync(d).expect("fsync journals the dir block");
            // Delete everything, freeing the dir blocks.
            for i in 0..20 {
                fs.unlink_path(&format!("/victim/f{i}")).expect("unlink");
            }
            fs.rmdir(fs.root(), "victim").expect("rmdir");
            fs.fsync(fs.root()).expect("fsync the deletion");
            // New file data likely reuses the freed blocks.
            let f = fs.create_path("/fresh").expect("create");
            let payload = vec![0x42u8; 16 * 4096];
            fs.write(f, 0, &payload).expect("write");
            fs.fsync(f).expect("fsync");
            let image = stack.power_fail(seed);
            let (_s2, fs2) = Stack::reboot(variant, &image, profile);
            let f2 = fs2.resolve("/fresh").expect("resolve");
            let data = fs2.read(f2, 0, payload.len()).expect("read");
            assert_eq!(data, payload, "seed {seed}: stale journal content leaked");
            assert!(
                fs2.check().is_empty(),
                "seed {seed}: fsck {:?}",
                fs2.check()
            );
        });
        sim.run();
    }
}

#[test]
fn reuse_of_a_released_dir_block_under_a_pinned_horizon_survives_crash() {
    // The durability bug recorded in benchmark/README.md: a journaled
    // metadata block is checkpointed home and its journal space released,
    // the block is freed and reused for file data — and recovery replays
    // the old journal copy over the data, because the copy's JD is still
    // intact and the persisted horizon is held down by an idle journal
    // area. Two areas: core 0 pins, core 1 does the work.
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let mut cfg = fs_config(variant);
        cfg.journal_blocks = 256; // Two rings of 128 blocks.
        cfg.queues = 2;
        let fs = FileSystem::format(Arc::clone(&stack.dev), cfg.clone());
        let checkpoints = ccnvme_block::obs_of(stack.dev.as_ref())
            .metrics
            .counter("journal.mq.checkpoints");
        let pin = fs.create_path("/pin").expect("create");
        let churn = fs.create_path("/churn").expect("create");
        // One more transaction on the calling core's ring: an in-place
        // overwrite journals the file's inode-table block and nothing
        // anyone else touches.
        let tick = {
            let fs = Arc::clone(&fs);
            move |ino: u64, n: u64| {
                fs.write(ino, 0, &[n as u8; 4096]).expect("write");
                fs.fsync(ino).expect("fsync");
            }
        };
        // Runs the calling core's ring around until it checkpoints.
        let until_checkpoint = {
            let (tick, checkpoints) = (tick.clone(), Arc::clone(&checkpoints));
            move |ino: u64| {
                let before = checkpoints.get();
                (0..).find(|n| {
                    tick(ino, *n);
                    checkpoints.get() > before
                });
            }
        };
        let (victim, file) = dir_and_file_in_one_group(&fs);
        let core1 = |name: &str, f: Box<dyn FnOnce() + Send>| ccnvme_sim::spawn(name, 1, f).join();
        tick(pin, 0); // Allocates the block the pinning overwrite rewrites.
                      // Core 1 settles the namespace (its first release drags area 0
                      // along: both journaled the root directory).
        {
            let (fs, until_checkpoint) = (Arc::clone(&fs), until_checkpoint.clone());
            core1(
                "settle",
                Box::new(move || {
                    fs.fsync(fs.root()).expect("fsync");
                    until_checkpoint(churn);
                    until_checkpoint(churn);
                }),
            );
        }
        // Core 0 journals one private block and goes idle: from here on
        // the horizon cannot pass this transaction.
        tick(pin, 1);
        {
            let fs = Arc::clone(&fs);
            core1(
                "work",
                Box::new(move || {
                    // Start from a fresh ring and leave padding for the
                    // commits that follow the next checkpoint to land on.
                    until_checkpoint(churn);
                    (0..8).for_each(|n| tick(churn, n));
                    // The victim's directory block is journaled...
                    fs.create_path(&format!("/d{victim}/child"))
                        .expect("create");
                    let d = fs.resolve(&format!("/d{victim}")).expect("resolve");
                    fs.fsync(d).expect("fsync");
                    // ...checkpointed home and released...
                    until_checkpoint(churn);
                    // ...freed...
                    fs.unlink_path(&format!("/d{victim}/child"))
                        .expect("unlink");
                    fs.rmdir(fs.root(), &format!("d{victim}")).expect("rmdir");
                    // ...and reused as file data.
                    fs.write(file.1, 0, &[0x42; 4096]).expect("write");
                    fs.fsync(file.1).expect("fsync");
                }),
            );
        }
        let image = stack.power_fail(9);
        let mut ctrl_cfg = CtrlConfig::new(profile);
        ctrl_cfg.device_core = CORES + 1;
        let (drv, report) = CcNvmeDriver::probe(
            NvmeController::from_image(ctrl_cfg, &image),
            CORES as u16,
            128,
        );
        let dev2 = Arc::new(drv) as Arc<dyn BlockDevice>;
        let fs2 = FileSystem::mount(dev2, cfg, &report.unfinished_tx_ids()).expect("mount");
        let f2 = fs2.resolve(&format!("/f{}", file.0)).expect("resolve");
        assert_eq!(
            fs2.read(f2, 0, 4096).expect("read"),
            vec![0x42; 4096],
            "stale directory block replayed over fsynced file data"
        );
        assert!(fs2.check().is_empty(), "fsck: {:?}", fs2.check());
    });
    sim.run();
}

#[test]
fn freed_dir_block_reused_as_file_data_is_not_journaled_over_it() {
    // ROADMAP 4(c): rmdir left the directory's content block in the
    // buffer cache, and the still-open groups of the create and unlink
    // that wrote it went on naming it. Once the block is file data, the
    // next fsync's closure over those groups journaled the stale
    // directory block under the file's LBA, and replay put it there.
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let (victim, file) = dir_and_file_in_one_group(&fs);
        fs.fsync(fs.root()).expect("fsync");
        // The directory's block is written twice and freed, none of it
        // synced...
        fs.create_path(&format!("/d{victim}/child"))
            .expect("create");
        fs.unlink_path(&format!("/d{victim}/child"))
            .expect("unlink");
        fs.rmdir(fs.root(), &format!("d{victim}")).expect("rmdir");
        // ...and reused as file data.
        fs.write(file.1, 0, &[0x42; 4096]).expect("write");
        fs.fsync(file.1).expect("fsync");
        let image = stack.power_fail(3);
        let (_s2, fs2) = Stack::reboot(variant, &image, profile);
        let f2 = fs2.resolve(&format!("/f{}", file.0)).expect("resolve");
        assert!(
            fs2.read(f2, 0, 4096).expect("read") == [0x42; 4096],
            "stale directory block journaled over fsynced file data"
        );
        assert!(fs2.check().is_empty(), "fsck: {:?}", fs2.check());
    });
    sim.run();
}

#[test]
fn journal_pressure_forces_checkpoints_and_stays_correct() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_p5800x();
        let stack = Stack::new(variant, profile.clone());
        // Tiny journal: every few fsyncs trigger a checkpoint.
        let mut cfg = fs_config(variant);
        cfg.journal_blocks = 64;
        cfg.queues = 2;
        let fs = FileSystem::format(Arc::clone(&stack.dev), cfg);
        let ino = fs.create_path("/churn").expect("create");
        for i in 0..200u64 {
            fs.write(ino, (i % 8) * 4096, &[i as u8; 4096])
                .expect("write");
            fs.fsync(ino).expect("fsync under journal pressure");
        }
        let image = stack.power_fail(5);
        let mut cfg2 = fs_config(variant);
        cfg2.journal_blocks = 64;
        cfg2.queues = 2;
        let mut ctrl_cfg = CtrlConfig::new(profile);
        ctrl_cfg.device_core = CORES + 1;
        let (drv, report) = CcNvmeDriver::probe(
            NvmeController::from_image(ctrl_cfg, &image),
            CORES as u16,
            128,
        );
        let drv = Arc::new(drv);
        let fs2 = FileSystem::mount(
            Arc::clone(&drv) as Arc<dyn BlockDevice>,
            cfg2,
            &report.unfinished_tx_ids(),
        )
        .expect("mount");
        let ino2 = fs2.resolve("/churn").expect("resolve");
        // The last fsynced write (i=199 at page 7) must be present.
        let page7 = fs2.read(ino2, 7 * 4096, 4096).expect("read");
        assert_eq!(page7[0], 199);
        assert!(fs2.check().is_empty());
    });
    sim.run();
}

#[test]
fn stats_count_operations() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let stack = Stack::new(variant, SsdProfile::optane_p5800x());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let ino = fs.create_path("/s").expect("create");
        fs.write(ino, 0, &[0u8; 4096]).expect("write");
        fs.fsync(ino).expect("fsync");
        fs.write(ino, 4096, &[0u8; 4096]).expect("write");
        fs.fatomic(ino).expect("fatomic");
        let m = stack.metrics();
        assert_eq!(samples(&m, "mqfs.fsync_ns"), 1);
        assert_eq!(samples(&m, "mqfs.fatomic_ns"), 1);
        assert_eq!(samples(&m, "mqfs.write_ns"), 2);
        assert!(m.counter("journal.mq.commits") >= 2);
    });
    sim.run();
}

/// Figure 14's breakdown is always on: every `fsync` and `fatomic`
/// records one sample per phase, and the four phases partition the
/// call's latency exactly (one `t0`, one closing clock read).
#[test]
fn sync_phases_partition_every_sync() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let stack = Stack::new(variant, SsdProfile::optane_905p());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let (fsyncs, fatomics) = (3, 2);
        for i in 0..fsyncs + fatomics {
            let ino = fs.create_path(&format!("/p{i}")).expect("create");
            fs.write(ino, 0, &[1u8; 4096]).expect("write");
            if i < fsyncs {
                fs.fsync(ino).expect("fsync");
            } else {
                fs.fatomic(ino).expect("fatomic");
            }
        }
        let m = stack.metrics();
        let sum = |name: &str| m.histogram(name).map_or(0, |h| h.sum);
        let phases = [
            "mqfs.sync_data_ns",
            "mqfs.sync_inode_ns",
            "mqfs.sync_parent_ns",
            "mqfs.sync_commit_ns",
        ];
        for phase in phases {
            assert_eq!(samples(&m, phase), fsyncs + fatomics, "{phase}");
        }
        assert_eq!(samples(&m, "mqfs.fsync_ns"), fsyncs);
        assert_eq!(samples(&m, "mqfs.fatomic_ns"), fatomics);
        let total = sum("mqfs.fsync_ns") + sum("mqfs.fatomic_ns");
        assert_eq!(phases.into_iter().map(sum).sum::<u64>(), total);
        assert!(sum("mqfs.sync_commit_ns") > 0, "commit covers the journal");
        let mean = total / (fsyncs + fatomics);
        assert!(mean > 5_000, "a sync takes microseconds, got {mean}");
    });
    sim.run();
}

#[test]
fn fdatasync_skips_clean_metadata() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let stack = Stack::new(variant, SsdProfile::optane_905p());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let ino = fs.create_path("/fd").expect("create");
        fs.write(ino, 0, &[1u8; 4096]).expect("write");
        fs.fsync(ino).expect("settle: size change + allocation");
        // Overwrite in place: size unchanged, no allocation.
        fs.write(ino, 0, &[2u8; 4096]).expect("overwrite");
        let t0 = ccnvme_repro_traffic(&stack);
        fs.fdatasync(ino).expect("fdatasync");
        let d = ccnvme_repro_traffic(&stack) - t0;
        // Data block + journal descriptor only — no inode/bitmap blocks.
        assert!(d <= 2, "fdatasync wrote {d} blocks, expected <= 2");
    });
    sim.run();
}

/// Passes every bio to `inner`, counting the read commands that start
/// inside `range`.
struct ReadCounter {
    inner: Arc<dyn BlockDevice>,
    range: std::ops::Range<u64>,
    reads: std::sync::atomic::AtomicU64,
}

impl BlockDevice for ReadCounter {
    fn submit_bio(&self, bio: Bio) {
        if bio.op == BioOp::Read && self.range.contains(&bio.lba) {
            self.reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        self.inner.submit_bio(bio);
    }

    fn num_queues(&self) -> usize {
        self.inner.num_queues()
    }

    fn has_volatile_cache(&self) -> bool {
        self.inner.has_volatile_cache()
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }
}

/// Mount reads each journal area's ring as one run of multi-block
/// reads: a 4 096-block journal in 4 096 / 16 = 256 read commands, not
/// one per block. The volume was unmounted, so every transaction is
/// below the horizon and recovery reads no journaled block.
#[test]
fn mount_reads_the_journal_ring_in_bulk() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let cfg = FsConfig {
            journal_blocks: 4_096,
            ..fs_config(variant)
        };
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), cfg.clone());
        let ino = fs.create_path("/ring").expect("create");
        fs.write(ino, 0, &[7u8; 4096]).expect("write");
        fs.fsync(ino).expect("fsync");
        let layout = fs.layout();
        let image = stack.unmounted_image(&fs);
        let mut ctrl_cfg = CtrlConfig::new(profile);
        ctrl_cfg.device_core = CORES + 1;
        let (stack, discard) =
            Stack::from_ctrl(variant, NvmeController::from_image(ctrl_cfg, &image));
        let counter = Arc::new(ReadCounter {
            inner: stack.dev,
            range: layout.journal_start()..layout.data_start(),
            reads: Default::default(),
        });
        let fs = FileSystem::mount(Arc::clone(&counter) as _, cfg, &discard).expect("mount");
        let reads = counter.reads.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(
            reads,
            4_096 / u64::from(RUN_CMD_BLOCKS),
            "ring read commands"
        );
        let ino = fs.resolve("/ring").expect("resolve");
        assert_eq!(fs.read(ino, 0, 4096).expect("read"), [7u8; 4096]);
    });
    sim.run();
}

fn ccnvme_repro_traffic(stack: &Stack) -> u64 {
    match (&stack.cc, &stack.nv) {
        (Some(d), _) => d.controller().link().traffic.block_ios.get(),
        (_, Some(d)) => d.controller().link().traffic.block_ios.get(),
        _ => unreachable!(),
    }
}

#[test]
fn rename_onto_itself_is_a_noop() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let stack = Stack::new(variant, SsdProfile::optane_p5800x());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let ino = fs.create_path("/same").expect("create");
        fs.rename(fs.root(), "same", fs.root(), "same")
            .expect("noop rename");
        assert_eq!(fs.resolve("/same"), Ok(ino));
        assert!(fs.check().is_empty());
    });
    sim.run();
}

#[test]
fn rename_directory_into_itself_is_refused() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let stack = Stack::new(variant, SsdProfile::optane_p5800x());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let d = fs.mkdir_path("/d").expect("mkdir");
        // Used to relock `d`'s handle (held as the destination parent)
        // to read the moved inode's kind: a simulation deadlock.
        assert_eq!(
            fs.rename(fs.root(), "d", d, "inner"),
            Err(FsError::InvalidName)
        );
        assert_eq!(fs.resolve("/d"), Ok(d));
        assert!(fs.check().is_empty(), "{:?}", fs.check());
    });
    sim.run();
}

#[test]
fn rename_directory_across_parents_fixes_link_counts() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let stack = Stack::new(variant, SsdProfile::optane_p5800x());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        fs.mkdir_path("/src").expect("mkdir");
        fs.mkdir_path("/dst").expect("mkdir");
        fs.mkdir_path("/src/mv").expect("mkdir");
        fs.create_path("/src/mv/content").expect("create");
        let src = fs.resolve("/src").expect("resolve");
        let dst = fs.resolve("/dst").expect("resolve");
        fs.rename(src, "mv", dst, "mv").expect("dir rename");
        assert!(fs.resolve("/dst/mv/content").is_ok());
        assert_eq!(fs.resolve("/src/mv"), Err(FsError::NotFound));
        // nlink accounting ("." and ".." links) must stay exact.
        assert!(fs.check().is_empty(), "{:?}", fs.check());
    });
    sim.run();
}

#[test]
fn read_holes_and_eof_semantics() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let stack = Stack::new(variant, SsdProfile::optane_p5800x());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let ino = fs.create_path("/holey").expect("create");
        // Write block 3 only: blocks 0..3 are a hole.
        fs.write(ino, 3 * 4096, &[7u8; 4096]).expect("write");
        fs.fsync(ino).expect("fsync");
        let hole = fs.read(ino, 0, 4096).expect("read hole");
        assert_eq!(hole, vec![0u8; 4096], "holes read as zeros");
        let tail = fs.read(ino, 3 * 4096, 8192).expect("read at tail");
        assert_eq!(tail.len(), 4096, "short read at EOF");
        assert_eq!(
            fs.read(ino, 100 * 4096, 10).expect("read past EOF"),
            Vec::<u8>::new()
        );
    });
    sim.run();
}

#[test]
fn deep_paths_resolve() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let variant = FsVariant::Mqfs;
        let stack = Stack::new(variant, SsdProfile::optane_p5800x());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let mut path = String::new();
        for d in 0..12 {
            path.push_str(&format!("/d{d}"));
            fs.mkdir_path(&path).expect("mkdir");
        }
        path.push_str("/leaf");
        fs.create_path(&path).expect("create");
        assert!(fs.resolve(&path).is_ok());
        assert!(fs.check().is_empty());
    });
    sim.run();
}

/// A block created zero-filled has nothing on the device a patch could
/// patch — whatever sits at its LBA is a previous owner's — so until it
/// has been captured once (journaled whole, or written out by mkfs)
/// every write into it is recorded as a write of the whole block,
/// however few bytes the writer touched. A vacant block (an inode-table
/// block with no other live inode) is zero-filled too, but the device
/// copy at its LBA is its own: it is patched from the start.
#[test]
fn zero_filled_block_is_journaled_whole_the_first_time() {
    use mqfs::buffer::{BufferCache, WriteSet, WHOLE};
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let stack = Stack::new(FsVariant::Mqfs, SsdProfile::optane_905p());
        let cache = BufferCache::new(Arc::clone(&stack.dev));
        let recorded =
            |ws: &WriteSet, lba| ws.ranges(lba).expect("recorded").iter().collect::<Vec<_>>();
        let fresh = cache.get_zeroed(7_000);
        let mut first = WriteSet::default();
        first.update(&fresh, 8..16, |d| d.fill(0xee));
        assert_eq!(
            fresh.read(|d| (d[7], d[8], d[15], d[16])),
            (0, 0xee, 0xee, 0)
        );
        assert_eq!(recorded(&first, 7_000), [WHOLE], "no base to patch yet");
        // Captured for a transaction: from here on it has a base.
        let copy = fresh.shadow_copy();
        assert_eq!(copy[8], 0xee);
        let mut second = WriteSet::default();
        second.update(&fresh, 8..16, |d| d.fill(0xdd));
        second.update(&fresh, 300..301, |d| d[0] = 1);
        assert_eq!(recorded(&second, 7_000), [8..16, 300..301]);
        // A block read from the device has its base from the start.
        let loaded = cache.get(7_001);
        let mut third = WriteSet::default();
        third.update(&loaded, 0..4, |d| d.fill(9));
        assert_eq!(recorded(&third, 7_001), vec![0..4]);
        // So does a vacant one, though it is never read.
        let reads = stack.metrics().counter("mqfs.meta_reads");
        let vacant = cache.get_vacant(7_002);
        let mut fourth = WriteSet::default();
        fourth.update(&vacant, 256..512, |d| d.fill(3));
        assert_eq!(recorded(&fourth, 7_002), vec![256..512]);
        assert_eq!(stack.metrics().counter("mqfs.meta_reads"), reads);
    });
    sim.run();
}

/// An `fdatasync` of a clean file commits nothing, but it did take a
/// transaction ID. A thousand of them must not leave a thousand IDs
/// "still to be logged" holding the journal's replay horizon down.
#[test]
fn syncs_that_commit_nothing_do_not_pin_the_horizon() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let stack = Stack::new(variant, SsdProfile::optane_905p());
        let mut cfg = fs_config(variant);
        cfg.journal_blocks = 64;
        cfg.queues = 2;
        let fs = FileSystem::format(Arc::clone(&stack.dev), cfg);
        let ino = fs.create_path("/clean").expect("create");
        fs.write(ino, 0, &[1u8; 4096]).expect("write");
        fs.fsync(ino).expect("fsync");
        let commits = || stack.metrics().counter("journal.mq.commits");
        let before = commits();
        for _ in 0..1_000 {
            fs.fdatasync(ino).expect("fdatasync of a clean file");
        }
        assert_eq!(commits(), before, "a clean file committed something");
        // Wrap the 32-block area a few times over.
        for i in 0..100u64 {
            fs.write(ino, 0, &[i as u8; 4096]).expect("overwrite");
            fs.fsync(ino).expect("fsync");
        }
        let horizon = mqfs_journal::recover::read_horizon(&stack.dev, fs.layout().horizon());
        assert!(
            horizon > 1_000,
            "horizon {horizon}: IDs of empty transactions still pin it"
        );
    });
    sim.run();
}

/// A directory `fsync` journals only what is not yet durable: once each
/// child's own `fsync` made its create durable, `fsync(dir)` has nothing
/// left to carry but the directory's 256-byte inode slot — no directory
/// block, no bitmap, no child inode, no full copy.
#[test]
fn dir_fsync_after_durable_child_creates_journals_only_its_inode() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let stack = Stack::new(variant, SsdProfile::optane_905p());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let d = fs.mkdir_path("/d").expect("mkdir");
        fs.fsync(d).expect("fsync d");
        for i in 0..20 {
            let ino = fs.create(d, &format!("f{i}")).expect("create");
            fs.write(ino, 0, &[i as u8; 4096]).expect("write");
            fs.fsync(ino).expect("fsync child");
        }
        let before = stack.metrics();
        fs.fsync(d).expect("fsync d");
        let delta = stack.metrics().since(&before);
        let carried = [
            "journal.mq.patches",
            "journal.mq.patch_bytes",
            "journal.mq.spilled_copies",
        ]
        .map(|name| delta.counter(name));
        assert_eq!(carried, [1, 256, 0], "patches, patch bytes, full copies");
    });
    sim.run();
}

/// A group a commit carried with atomic durability only still rides the
/// next durable commit that names it: `fatomic(x)` then `fsync(d)` makes
/// the create of `d/x` durable. (The atomic commit has landed by the
/// time the power is cut, so the crash alone cannot tell; what
/// `fsync(d)` journals can.)
#[test]
fn fatomic_then_dir_fsync_makes_the_create_durable() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let d = fs.mkdir_path("/d").expect("mkdir");
        fs.fsync(d).expect("fsync d");
        let x = fs.create(d, "x").expect("create");
        fs.fatomic(x).expect("fatomic x");
        let before = stack.metrics();
        fs.fsync(d).expect("fsync d");
        let delta = stack.metrics().since(&before);
        assert_eq!(
            delta.counter("journal.mq.spilled_copies"),
            1,
            "fsync(d) must carry the create's directory block again"
        );
        let image = stack.power_fail(11);
        let (_s2, fs2) = Stack::reboot(variant, &image, profile);
        assert!(fs2.resolve("/d/x").is_ok(), "create lost");
        assert!(fs2.check().is_empty(), "fsck: {:?}", fs2.check());
    });
    sim.run();
}

/// A group retires when the durable commit that carried it returns, not
/// when that commit takes it: an `fsync(d)` that overlaps the child's
/// in-flight `fsync(x)` journals the create again, so it is durable
/// once `fsync(d)` returns, whatever became of the child's commit.
///
/// Mutation-checked: retiring the groups before the commit instead of
/// after it lets `fsync(d)` return first; the power cut then takes the
/// child's commit, and with it the create's write of `d`'s new directory
/// block, while `d`'s inode already maps it — the remount reads a
/// block of zeros as `d`'s records.
#[test]
fn dir_fsync_during_a_child_commit_carries_the_create() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let d = fs.mkdir_path("/d").expect("mkdir");
        fs.fsync(d).expect("fsync d");
        let x = fs.create(d, "x").expect("create");
        fs.write(x, 0, &[7u8; 4096]).expect("write");
        let child = {
            let fs = Arc::clone(&fs);
            // Fails once the power is cut under it.
            ccnvme_sim::spawn("child", 1, move || fs.fsync(x).is_ok())
        };
        // Into the child's commit: past its capture, before its media.
        ccnvme_sim::delay(5_000);
        fs.fsync(d).expect("fsync d");
        let image = stack.power_fail(3);
        child.join();
        let (_s2, fs2) = Stack::reboot(variant, &image, profile);
        assert!(fs2.resolve("/d/x").is_ok(), "create lost");
        assert!(fs2.check().is_empty(), "fsck: {:?}", fs2.check());
    });
    sim.run();
}

/// The inode-table block and the inode number `make_node` aims
/// `parent/name`'s inode at: it takes the first free inode from there,
/// a hash of the name and the parent. Mirrors the goal in
/// `FileSystem::make_node`; the tests that use it assert where the
/// inode landed, so a drift fails them rather than weakening them.
fn goal_of(fs: &FileSystem, parent: u64, name: &str) -> (u64, u64) {
    let layout = fs.layout();
    let h = ccnvme_obs::hash::fnv1a64(name.as_bytes());
    let idx = (h ^ parent.wrapping_mul(0x9e37)) % layout.ninodes;
    (layout.inode_pos(idx + 1).0, idx + 1)
}

/// A create reads nothing from the device when the new inode is the only
/// allocated one of its table block, and a directory's new block is not
/// read either: after the `mkdir`, 64 creates and `fsync`s in the new
/// directory leave `mqfs.meta_reads` where it was. (Reading first, they
/// counted 65: each create's table block and the directory's first
/// block.)
#[test]
fn creates_into_vacant_table_blocks_read_nothing() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let stack = Stack::new(variant, SsdProfile::optane_905p());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let d = fs.mkdir_path("/d").expect("mkdir");
        let reads = || stack.metrics().counter("mqfs.meta_reads");
        let before = reads();
        for i in 0..64 {
            let ino = fs.create(d, &format!("f{i}")).expect("create");
            fs.fsync(ino).expect("fsync");
        }
        assert_eq!(reads() - before, 0, "creates read metadata blocks");
        assert!(fs.check().is_empty(), "fsck: {:?}", fs.check());
    });
    sim.run();
}

/// A create whose inode lands in the table block of a durable file that
/// nothing has touched since the mount must read that block: the file's
/// slot lives only on the device, and the checkpoint writes the cached
/// block home whole.
///
/// Mutation-checked: skipping the read whenever the block is uncached,
/// whatever the inode bitmap says, zero-fills `x`'s slot in the cache;
/// the unmount's checkpoint writes the zeros home and the remount finds
/// `x` a free inode.
#[test]
fn a_create_beside_an_uncached_live_inode_keeps_it() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let x = fs.create_path("/x").expect("create x");
        fs.write(x, 0, &[0x3c; 4096]).expect("write x");
        fs.fsync(x).expect("fsync x");
        let (x_blk, _) = fs.layout().inode_pos(x);
        // A name whose inode goes to a free slot of x's block.
        let y_name = (0..)
            .map(|i| format!("y{i}"))
            .find(|n| {
                let (blk, ino) = goal_of(&fs, fs.root(), n);
                blk == x_blk && ino != x && ino != fs.root()
            })
            .expect("a name beside x");
        let image = stack.unmounted_image(&fs);
        // Remounted: x's table block is not cached.
        let (stack2, fs2) = Stack::reboot(variant, &image, profile.clone());
        let y = fs2.create(fs2.root(), &y_name).expect("create y");
        assert_eq!(fs2.layout().inode_pos(y).0, x_blk, "y missed x's block");
        fs2.fsync(y).expect("fsync y");
        let image = stack2.unmounted_image(&fs2);
        let (_s3, fs3) = Stack::reboot(variant, &image, profile);
        assert_eq!(fs3.resolve("/x"), Ok(x));
        assert_eq!(fs3.stat(x), (4096, InodeKind::File, 1), "x's inode");
        assert_eq!(fs3.read(x, 0, 4096).expect("read x"), vec![0x3c; 4096]);
        assert_eq!(fs3.resolve(&format!("/{y_name}")), Ok(y));
        assert!(fs3.check().is_empty(), "fsck: {:?}", fs3.check());
    });
    sim.run();
}

/// Two creates in two directories, on two cores at once, whose inodes
/// share one table block no live inode is in: whichever builds the block
/// in memory, the other's slot lands in the same cached block, and both
/// files survive `fsync`, unmount and remount.
#[test]
fn concurrent_creates_into_one_vacant_table_block_both_survive() {
    let variant = FsVariant::Mqfs;
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, move || {
        let profile = SsdProfile::optane_905p();
        let stack = Stack::new(variant, profile.clone());
        let fs = FileSystem::format(Arc::clone(&stack.dev), fs_config(variant));
        let a = fs.mkdir_path("/a").expect("mkdir a");
        let b = fs.mkdir_path("/b").expect("mkdir b");
        fs.fsync(a).expect("fsync a");
        fs.fsync(b).expect("fsync b");
        let taken = [fs.root(), a, b].map(|ino| fs.layout().inode_pos(ino).0);
        // One name per directory, aimed at distinct slots of one block
        // that holds none of the live inodes.
        let mut in_a = std::collections::HashMap::new();
        let (na, nb) = (0..)
            .find_map(|i| {
                let na = format!("a{i}");
                let (blk, ino) = goal_of(&fs, a, &na);
                in_a.entry(blk).or_insert((na, ino));
                let nb = format!("b{i}");
                let (blk, ino) = goal_of(&fs, b, &nb);
                let (na, ino_a) = in_a.get(&blk)?;
                (!taken.contains(&blk) && *ino_a != ino).then(|| (na.clone(), nb))
            })
            .expect("two names aimed at one block");
        let workers = [(a, na.clone(), 1u8), (b, nb.clone(), 2u8)].map(|(dir, name, core)| {
            let fs = Arc::clone(&fs);
            ccnvme_sim::spawn(&format!("w{core}"), core as usize, move || {
                let ino = fs.create(dir, &name).expect("create");
                fs.write(ino, 0, &[core; 4096]).expect("write");
                fs.fsync(ino).expect("fsync");
                ino
            })
        });
        let [ia, ib] = workers.map(|w| w.join());
        assert_eq!(
            fs.layout().inode_pos(ia).0,
            fs.layout().inode_pos(ib).0,
            "the inodes missed each other's block"
        );
        let image = stack.unmounted_image(&fs);
        let (_s2, fs2) = Stack::reboot(variant, &image, profile);
        for (path, ino, byte) in [(format!("/a/{na}"), ia, 1u8), (format!("/b/{nb}"), ib, 2)] {
            assert_eq!(fs2.resolve(&path), Ok(ino), "{path}");
            assert_eq!(
                fs2.read(ino, 0, 4096).expect("read"),
                vec![byte; 4096],
                "{path}"
            );
        }
        assert!(fs2.check().is_empty(), "fsck: {:?}", fs2.check());
    });
    sim.run();
}
