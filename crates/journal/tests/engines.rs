//! Integration tests: journal engines on real (simulated) drivers.
//!
//! Each test builds a full stack — SSD controller, NVMe or ccNVMe
//! driver, journal engine — runs transactions, optionally injects a
//! power failure, reboots the stack from the surviving image and checks
//! what recovery replays.

use std::{
    collections::HashSet,
    sync::{
        atomic::{AtomicU64, Ordering},
        Arc,
    },
};

use ccnvme::{CcNvmeDriver, NvmeDriver};
use ccnvme_block::{
    submit_and_wait, Bio, BioBuf, BioData, BioOp, BioStatus, BlockBuf, BlockDevice,
};
use ccnvme_sim::Sim;
use ccnvme_ssd::{CrashMode, CtrlConfig, DurableImage, NvmeController, SsdProfile};
use mqfs_journal::{
    recover_areas, AreaSpec, ClassicJournal, CommitStyle, Durability, Journal, MqJournal,
    NoJournal, ReuseAction, TxBlock, TxDescriptor,
};
use parking_lot::Mutex;

const CORES: usize = 2;
const HORIZON_LBA: u64 = 999;
const JOURNAL_START: u64 = 1_000;
const JOURNAL_LEN: u64 = 256;

fn block(byte: u8) -> BioBuf {
    Arc::new(Mutex::new(vec![byte; 4096]))
}

fn tx_with(journal: &dyn Journal, metas: &[(u64, u8)], datas: &[(u64, u8)]) -> TxDescriptor {
    let mut tx = TxDescriptor::new(journal.alloc_tx_id());
    for (lba, byte) in metas {
        tx.meta.push(TxBlock {
            final_lba: *lba,
            buf: block(*byte),
        });
    }
    for (lba, byte) in datas {
        tx.data.push(TxBlock {
            final_lba: *lba,
            buf: block(*byte),
        });
    }
    tx
}

fn read_block(dev: &Arc<dyn BlockDevice>, lba: u64) -> Vec<u8> {
    ccnvme_block::read_block(&**dev, lba).expect("read back")
}

/// First byte of a block (the tests fill whole blocks with one byte).
fn read_lba(dev: &Arc<dyn BlockDevice>, lba: u64) -> u8 {
    read_block(dev, lba)[0]
}

/// Builds a ccNVMe stack on the given profile; returns driver handle.
fn cc_stack(profile: SsdProfile) -> (Arc<CcNvmeDriver>, Arc<dyn BlockDevice>) {
    cc_stack_deep(profile, 64)
}

/// [`cc_stack`] with hardware queues of `depth` entries: a chunk of a
/// chained transaction (up to 96 members and the JD) must fit the queue.
fn cc_stack_deep(profile: SsdProfile, depth: u32) -> (Arc<CcNvmeDriver>, Arc<dyn BlockDevice>) {
    let mut cfg = CtrlConfig::new(profile);
    cfg.device_core = CORES;
    let drv = Arc::new(CcNvmeDriver::new(
        NvmeController::new(cfg),
        CORES as u16,
        depth,
    ));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&drv) as Arc<dyn BlockDevice>;
    (drv, dev)
}

fn nvme_stack(profile: SsdProfile) -> (Arc<NvmeDriver>, Arc<dyn BlockDevice>) {
    let mut cfg = CtrlConfig::new(profile);
    cfg.device_core = CORES;
    let drv = Arc::new(NvmeDriver::new(NvmeController::new(cfg), CORES));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&drv) as Arc<dyn BlockDevice>;
    (drv, dev)
}

fn reboot_cc(
    image: &DurableImage,
    profile: SsdProfile,
) -> (
    Arc<CcNvmeDriver>,
    Arc<dyn BlockDevice>,
    ccnvme::RecoveryReport,
) {
    let mut cfg = CtrlConfig::new(profile);
    cfg.device_core = CORES;
    let (drv, report) =
        CcNvmeDriver::probe(NvmeController::from_image(cfg, image), CORES as u16, 64);
    let drv = Arc::new(drv);
    let dev: Arc<dyn BlockDevice> = Arc::clone(&drv) as Arc<dyn BlockDevice>;
    (drv, dev, report)
}

#[test]
fn mq_commit_then_recover_after_crash_replays_tx() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let profile = SsdProfile::optane_905p();
        let (drv, dev) = cc_stack(profile.clone());
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = MqJournal::new(Arc::clone(&dev), areas, HORIZON_LBA);
        // Commit a durable transaction touching home blocks 10 and 11.
        let tx = tx_with(&journal, &[(10, 0xaa), (11, 0xbb)], &[(500, 0x77)]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        // Crash WITHOUT checkpointing: home metadata blocks are still
        // only in the journal.
        let image = drv.controller().power_fail(CrashMode::adversarial(1));
        let (_drv2, dev2, report) = reboot_cc(&image, profile);
        let areas2 = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal2 = MqJournal::new(Arc::clone(&dev2), areas2, HORIZON_LBA);
        let updates = journal2.recover(&report.unfinished_tx_ids());
        let lbas: HashSet<u64> = updates.iter().map(|u| u.final_lba).collect();
        assert!(
            lbas.contains(&10) && lbas.contains(&11),
            "journaled blocks replayed"
        );
        mqfs_journal::recover::replay_updates(&dev2, &updates).expect("replay ok");
        assert_eq!(read_lba(&dev2, 10), 0xaa);
        assert_eq!(read_lba(&dev2, 11), 0xbb);
        // The ordered data block went straight home (durable tx).
        assert_eq!(read_lba(&dev2, 500), 0x77);
    });
    sim.run();
}

#[test]
fn mq_uncommitted_tx_is_atomically_absent() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let profile = SsdProfile::optane_905p();
        let (drv, dev) = cc_stack(profile.clone());
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = MqJournal::new(Arc::clone(&dev), areas, HORIZON_LBA);
        // First a durable tx, then an atomic one that we crash mid-air:
        // the atomic tx's doorbell may be lost.
        let tx1 = tx_with(&journal, &[(20, 0x01)], &[]);
        journal
            .commit_tx(tx1, Durability::Durable)
            .expect("commit ok");
        let tx2 = tx_with(&journal, &[(20, 0x02), (21, 0x03)], &[]);
        let tx2_id = tx2.tx_id;
        journal
            .commit_tx(tx2, Durability::Atomic)
            .expect("commit ok");
        // Adversarial crash: in-flight posted writes (incl. tx2's
        // doorbell and potentially its journal blocks) are dropped.
        let image = drv.controller().power_fail(CrashMode::adversarial(2));
        let (_d2, dev2, report) = reboot_cc(&image, profile);
        let areas2 = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal2 = MqJournal::new(Arc::clone(&dev2), areas2, HORIZON_LBA);
        let updates = journal2.recover(&report.unfinished_tx_ids());
        mqfs_journal::recover::replay_updates(&dev2, &updates).expect("replay ok");
        // All-or-nothing: block 20 is either wholly tx1 or wholly tx2,
        // and 21 matches accordingly.
        let b20 = read_lba(&dev2, 20);
        let b21 = read_lba(&dev2, 21);
        let tx2_applied = updates.iter().any(|u| u.tx_id == tx2_id);
        if tx2_applied {
            assert_eq!((b20, b21), (0x02, 0x03), "tx2 all");
        } else {
            assert_eq!((b20, b21), (0x01, 0x00), "tx2 nothing");
        }
    });
    sim.run();
}

#[test]
fn mq_checkpoint_moves_blocks_home_and_recovery_stays_correct() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let profile = SsdProfile::optane_905p();
        let (drv, dev) = cc_stack(profile.clone());
        // Tiny areas force frequent checkpoints and ring wrap.
        let areas = AreaSpec::split(JOURNAL_START, 16, CORES); // 8 blocks each
        let journal = MqJournal::new(Arc::clone(&dev), areas, HORIZON_LBA);
        // Many updates to the same block: versions supersede each other.
        for i in 0..40u8 {
            let tx = tx_with(&journal, &[(30, i), (31 + (i as u64 % 3), i)], &[]);
            journal
                .commit_tx(tx, Durability::Durable)
                .expect("commit ok");
        }
        journal.checkpoint_all();
        assert_eq!(read_lba(&dev, 30), 39, "newest version checkpointed home");
        // Crash and recover: replay must never regress block 30.
        let image = drv.controller().power_fail(CrashMode::adversarial(3));
        let (_d2, dev2, report) = reboot_cc(&image, profile);
        let areas2 = AreaSpec::split(JOURNAL_START, 16, CORES);
        let journal2 = MqJournal::new(Arc::clone(&dev2), areas2, HORIZON_LBA);
        let updates = journal2.recover(&report.unfinished_tx_ids());
        mqfs_journal::recover::replay_updates(&dev2, &updates).expect("replay ok");
        assert_eq!(read_lba(&dev2, 30), 39, "no stale replay after checkpoint");
    });
    sim.run();
}

#[test]
fn mq_cross_area_conflict_resolved_by_tx_id() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("main", 0, || {
        let profile = SsdProfile::optane_p5800x();
        let (_drv, dev) = cc_stack(profile);
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = Arc::new(MqJournal::new(Arc::clone(&dev), areas, HORIZON_LBA));
        // Two cores journal the SAME home block concurrently; the higher
        // tx id must win at checkpoint regardless of which area
        // checkpoints first.
        let mut handles = Vec::new();
        for core in 0..CORES {
            let j = Arc::clone(&journal);
            handles.push(ccnvme_sim::spawn(&format!("w{core}"), core, move || {
                for i in 0..10u8 {
                    let mut tx = TxDescriptor::new(j.alloc_tx_id());
                    tx.meta.push(TxBlock {
                        final_lba: 40,
                        buf: block(core as u8 * 100 + i),
                    });
                    // Stamp the content with the tx id so we can check
                    // monotonicity.
                    let stamp = tx.tx_id.to_le_bytes();
                    tx.meta[0].buf.get_mut().expect("unshared")[1..9].copy_from_slice(&stamp);
                    j.commit_tx(tx, Durability::Durable).expect("commit ok");
                }
            }));
        }
        for h in handles {
            h.join();
        }
        journal.checkpoint_all();
        // Whatever landed at home must be the highest tx id ever logged.
        let stamped = u64::from_le_bytes(read_block(&dev, 40)[1..9].try_into().unwrap());
        assert_eq!(stamped, 20, "newest of 20 transactions wins");
    });
    sim.run();
}

#[test]
fn mq_selective_revocation_prevents_stale_replay() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let profile = SsdProfile::optane_905p();
        let (drv, dev) = cc_stack(profile.clone());
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = MqJournal::new(Arc::clone(&dev), areas, HORIZON_LBA);
        // Journal a directory block at home lba 50 (metadata).
        let tx = tx_with(&journal, &[(50, 0xd1)], &[]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        // Directory deleted; block 50 reused for plain user data.
        let action = journal.note_block_reuse(50);
        assert_eq!(action, mqfs_journal::ReuseAction::Revoked);
        let mut tx2 = TxDescriptor::new(journal.alloc_tx_id());
        tx2.revokes.push(50);
        tx2.meta.push(TxBlock {
            final_lba: 51,
            buf: block(0x99),
        });
        journal
            .commit_tx(tx2, Durability::Durable)
            .expect("commit ok");
        // The user data write bypasses the journal.
        submit_and_wait(
            &*dev,
            Bio::write(50, block(0x42), ccnvme_block::BioFlags::NONE),
        )
        .expect("data write");
        // Crash before the data is flushed? Use a flush for durability.
        submit_and_wait(&*dev, Bio::flush()).expect("flush");
        let image = drv.controller().power_fail(CrashMode::adversarial(4));
        let (_d2, dev2, report) = reboot_cc(&image, profile);
        let areas2 = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal2 = MqJournal::new(Arc::clone(&dev2), areas2, HORIZON_LBA);
        let updates = journal2.recover(&report.unfinished_tx_ids());
        mqfs_journal::recover::replay_updates(&dev2, &updates).expect("replay ok");
        // The revoked directory content must NOT overwrite the user data.
        assert_eq!(
            read_lba(&dev2, 50),
            0x42,
            "revocation suppressed stale replay"
        );
        assert_eq!(read_lba(&dev2, 51), 0x99);
    });
    sim.run();
}

/// Commits one-metadata-block fillers from the current core (each takes
/// two ring blocks: the journal copy and the JD).
fn fill(journal: &MqJournal, first_lba: u64, n: u64) {
    for i in 0..n {
        let tx = tx_with(journal, &[(first_lba + i, 0xf0)], &[]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
    }
}

/// Reuses `lba` for plain user data the way the file system does: ask
/// the journal, ride a revoke if told to, write the data in place as
/// part of the transaction.
fn reuse_as_data(journal: &MqJournal, lba: u64, byte: u8) {
    let mut tx = tx_with(journal, &[(lba + 1, 0x99)], &[(lba, byte)]);
    match journal.note_block_reuse(lba) {
        mqfs_journal::ReuseAction::Revoked => tx.revokes.push(lba),
        mqfs_journal::ReuseAction::None => {}
        mqfs_journal::ReuseAction::MustJournal => panic!("no checkpoint is running"),
    }
    journal
        .commit_tx(tx, Durability::Durable)
        .expect("commit ok");
}

/// Crashes, reboots, recovers and replays; returns the recovered device.
fn crash_and_replay(drv: &CcNvmeDriver, areas: Vec<AreaSpec>, seed: u64) -> Arc<dyn BlockDevice> {
    let profile = SsdProfile::optane_905p();
    let image = drv.controller().power_fail(CrashMode::adversarial(seed));
    let (_drv2, dev2, report) = reboot_cc(&image, profile);
    let journal2 = MqJournal::new(Arc::clone(&dev2), areas, HORIZON_LBA);
    let updates = journal2.recover(&report.unfinished_tx_ids());
    mqfs_journal::recover::replay_updates(&dev2, &updates).expect("replay ok");
    dev2
}

/// Regression (benchmark/README.md, "an fsynced file can come back with
/// the wrong first block"): a journal copy that was checkpointed home and
/// *released* is gone from the version trees, but its JD stays intact in
/// the ring until overwritten, and recovery replays every intact JD at or
/// above the persisted horizon — which is the minimum over all areas, so
/// an idle area holding one old transaction keeps it low. Reusing such a
/// block for data must therefore still ride a revoke record.
#[test]
fn mq_reuse_after_release_under_a_pinned_horizon_rides_a_revoke() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (drv, dev) = cc_stack(SsdProfile::optane_905p());
        let areas = AreaSpec::split(JOURNAL_START, 16, CORES); // 8 blocks each.
        let journal = Arc::new(MqJournal::new(Arc::clone(&dev), areas.clone(), HORIZON_LBA));
        // Area 0: one transaction, never checkpointed — pins the horizon.
        fill(&journal, 60, 1);
        let j = Arc::clone(&journal);
        ccnvme_sim::spawn("w1", 1, move || {
            // Area 1: three fillers, then the index block of a file at
            // home LBA 50 in the ring's last two slots.
            fill(&j, 70, 3);
            let tx = tx_with(&*j, &[(50, 0xd1)], &[]);
            j.commit_tx(tx, Durability::Durable).expect("commit ok");
            // The ring is full: this commit checkpoints area 1 (block 50
            // goes home), releases all four transactions and wraps into
            // slots 0-1. The copy of block 50 in slots 6-7 stays intact.
            fill(&j, 80, 1);
            // File unlinked; block 50 reused for another file's data.
            reuse_as_data(&j, 50, 0x42);
        })
        .join();
        let dev2 = crash_and_replay(&drv, areas, 21);
        assert_eq!(
            read_lba(&dev2, 50),
            0x42,
            "released-but-replayable index block replayed over file data"
        );
        assert_eq!(read_lba(&dev2, 51), 0x99);
    });
    sim.run();
}

/// A revoked journal copy must not be written home by a later
/// checkpoint either: the block now holds user data.
#[test]
fn mq_revoked_copy_is_not_checkpointed_home() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (_drv, dev) = cc_stack(SsdProfile::optane_905p());
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = MqJournal::new(Arc::clone(&dev), areas, HORIZON_LBA);
        let tx = tx_with(&journal, &[(50, 0xd1)], &[]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        reuse_as_data(&journal, 50, 0x42);
        journal.checkpoint_all();
        assert_eq!(
            read_lba(&dev, 50),
            0x42,
            "checkpoint wrote the revoked copy over file data"
        );
    });
    sim.run();
}

/// A revoke record must stay replayable for as long as any copy it
/// revokes is: here the stale copy sits un-checkpointed in an idle area
/// while the revoking area wraps its ring.
#[test]
fn mq_revoke_record_outlives_the_copies_it_revokes() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (drv, dev) = cc_stack(SsdProfile::optane_905p());
        let areas = AreaSpec::split(JOURNAL_START, 16, CORES); // 8 blocks each.
        let journal = Arc::new(MqJournal::new(Arc::clone(&dev), areas.clone(), HORIZON_LBA));
        // Area 0 journals block 50 and goes idle.
        let tx = tx_with(&*journal, &[(50, 0xd1)], &[]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        let j = Arc::clone(&journal);
        ccnvme_sim::spawn("w1", 1, move || {
            // Area 1 reuses it (revoke in slots 0-1), then runs its ring
            // around: the fifth filler needs slots 0-1 back.
            reuse_as_data(&j, 50, 0x42);
            fill(&j, 70, 5);
        })
        .join();
        let dev2 = crash_and_replay(&drv, areas, 22);
        assert_eq!(
            read_lba(&dev2, 50),
            0x42,
            "revoke record overwritten while the copy it revokes was replayable"
        );
    });
    sim.run();
}

#[test]
fn mq_fatomic_returns_before_durability() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (_drv, dev) = cc_stack(SsdProfile::optane_905p());
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = MqJournal::new(Arc::clone(&dev), areas, HORIZON_LBA);
        let t0 = ccnvme_sim::now();
        let tx = tx_with(&journal, &[(60, 1), (61, 2), (62, 3)], &[]);
        journal
            .commit_tx(tx, Durability::Atomic)
            .expect("commit ok");
        let atomic_lat = ccnvme_sim::now() - t0;
        let tx2 = tx_with(&journal, &[(63, 4)], &[]);
        let t1 = ccnvme_sim::now();
        journal
            .commit_tx(tx2, Durability::Durable)
            .expect("commit ok");
        let durable_lat = ccnvme_sim::now() - t1;
        assert!(
            atomic_lat * 2 < durable_lat,
            "atomic {atomic_lat} should be far below durable {durable_lat}"
        );
    });
    sim.run();
}

#[test]
fn classic_commit_record_required_for_replay() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let profile = SsdProfile::intel_750();
        let (drv, dev) = nvme_stack(profile.clone());
        let area = AreaSpec {
            start: JOURNAL_START,
            len: JOURNAL_LEN,
        };
        let journal = ClassicJournal::new(
            Arc::clone(&dev),
            area,
            HORIZON_LBA,
            CommitStyle::Classic,
            CORES + 1,
        );
        let tx = tx_with(&journal, &[(70, 0x70)], &[]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        let image = drv.controller().power_fail(CrashMode::adversarial(5));
        // Reboot on a plain NVMe stack.
        let mut cfg = CtrlConfig::new(profile);
        cfg.device_core = CORES;
        let drv2 = Arc::new(NvmeDriver::new(
            NvmeController::from_image(cfg, &image),
            CORES,
        ));
        let dev2: Arc<dyn BlockDevice> = Arc::clone(&drv2) as Arc<dyn BlockDevice>;
        let updates = recover_areas(
            &dev2,
            &[area],
            mqfs_journal::recover::RecoverMode::RequireCommitRecord,
            0,
            &HashSet::new(),
        );
        assert!(
            updates.iter().any(|u| u.final_lba == 70),
            "committed tx replayable"
        );
        mqfs_journal::recover::replay_updates(&dev2, &updates).expect("replay ok");
        assert_eq!(read_lba(&dev2, 70), 0x70);
    });
    sim.run();
}

#[test]
fn classic_group_commit_merges_concurrent_transactions() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("main", 0, || {
        let (_drv, dev) = nvme_stack(SsdProfile::optane_905p());
        let area = AreaSpec {
            start: JOURNAL_START,
            len: JOURNAL_LEN,
        };
        let journal = Arc::new(ClassicJournal::new(
            Arc::clone(&dev),
            area,
            HORIZON_LBA,
            CommitStyle::Classic,
            CORES + 1,
        ));
        let mut handles = Vec::new();
        for core in 0..CORES {
            let j = Arc::clone(&journal);
            handles.push(ccnvme_sim::spawn(&format!("w{core}"), core, move || {
                for i in 0..5u64 {
                    let tx = tx_with(&*j, &[(80 + core as u64 * 8 + i, 1)], &[]);
                    j.commit_tx(tx, Durability::Durable).expect("commit ok");
                }
            }));
        }
        for h in handles {
            h.join();
        }
        journal.checkpoint_all();
        for core in 0..CORES {
            for i in 0..5u64 {
                assert_eq!(read_lba(&dev, 80 + core as u64 * 8 + i), 1);
            }
        }
        journal.shutdown();
    });
    sim.run();
}

#[test]
fn classic_horizon_prevents_replay_of_checkpointed_txs() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let profile = SsdProfile::optane_905p();
        let (drv, dev) = nvme_stack(profile.clone());
        let area = AreaSpec {
            start: JOURNAL_START,
            len: 16,
        };
        let journal = ClassicJournal::new(
            Arc::clone(&dev),
            area,
            HORIZON_LBA,
            CommitStyle::Classic,
            CORES + 1,
        );
        // Overwrite the same home block repeatedly; the small ring forces
        // checkpoints (which persist the horizon).
        for i in 0..20u8 {
            let tx = tx_with(&journal, &[(90, i)], &[]);
            journal
                .commit_tx(tx, Durability::Durable)
                .expect("commit ok");
        }
        journal.checkpoint_all();
        let image = drv.controller().power_fail(CrashMode::adversarial(6));
        let mut cfg = CtrlConfig::new(profile);
        cfg.device_core = CORES;
        let drv2 = Arc::new(NvmeDriver::new(
            NvmeController::from_image(cfg, &image),
            CORES,
        ));
        let dev2: Arc<dyn BlockDevice> = Arc::clone(&drv2) as Arc<dyn BlockDevice>;
        let h = mqfs_journal::recover::read_horizon(&dev2, HORIZON_LBA);
        assert!(h > 1, "horizon advanced past checkpointed txs");
        let journal2 = ClassicJournal::new(
            Arc::clone(&dev2),
            area,
            HORIZON_LBA,
            CommitStyle::Classic,
            CORES + 1,
        );
        let updates = journal2.recover(&HashSet::new());
        mqfs_journal::recover::replay_updates(&dev2, &updates).expect("replay ok");
        assert_eq!(read_lba(&dev2, 90), 19, "home block never regresses");
    });
    sim.run();
}

#[test]
fn horae_mode_skips_ordering_points_but_recovers() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let profile = SsdProfile::intel_750();
        let (drv, dev) = nvme_stack(profile.clone());
        let area = AreaSpec {
            start: JOURNAL_START,
            len: JOURNAL_LEN,
        };
        let journal = ClassicJournal::new(
            Arc::clone(&dev),
            area,
            HORIZON_LBA,
            CommitStyle::Horae,
            CORES + 1,
        );
        let tx = tx_with(&journal, &[(95, 0x95), (96, 0x96)], &[]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        let image = drv.controller().power_fail(CrashMode::adversarial(7));
        let mut cfg = CtrlConfig::new(profile);
        cfg.device_core = CORES;
        let drv2 = Arc::new(NvmeDriver::new(
            NvmeController::from_image(cfg, &image),
            CORES,
        ));
        let dev2: Arc<dyn BlockDevice> = Arc::clone(&drv2) as Arc<dyn BlockDevice>;
        let journal2 = ClassicJournal::new(
            Arc::clone(&dev2),
            area,
            HORIZON_LBA,
            CommitStyle::Horae,
            CORES + 1,
        );
        let updates = journal2.recover(&HashSet::new());
        // The tx was durable before the crash, so it must be replayable
        // and intact (checksums catch Horae's lack of ordering).
        mqfs_journal::recover::replay_updates(&dev2, &updates).expect("replay ok");
        assert_eq!(read_lba(&dev2, 95), 0x95);
        assert_eq!(read_lba(&dev2, 96), 0x96);
    });
    sim.run();
}

#[test]
fn classic_is_slower_than_horae_is_slower_than_mq() {
    fn run_engine(which: &str) -> u64 {
        let mut sim = Sim::new(CORES + 2);
        let total = Arc::new(ccnvme_obs::Counter::new());
        let t2 = Arc::clone(&total);
        let which = which.to_string();
        sim.spawn("host", 0, move || {
            let profile = SsdProfile::optane_905p();
            let journal: Arc<dyn Journal> = match which.as_str() {
                "mq" => {
                    let (_d, dev) = cc_stack(profile);
                    let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
                    Arc::new(MqJournal::new(dev, areas, HORIZON_LBA))
                }
                "horae" => {
                    let (_d, dev) = nvme_stack(profile);
                    let area = AreaSpec {
                        start: JOURNAL_START,
                        len: JOURNAL_LEN,
                    };
                    Arc::new(ClassicJournal::new(
                        dev,
                        area,
                        HORIZON_LBA,
                        CommitStyle::Horae,
                        CORES + 1,
                    ))
                }
                _ => {
                    let (_d, dev) = nvme_stack(profile);
                    let area = AreaSpec {
                        start: JOURNAL_START,
                        len: JOURNAL_LEN,
                    };
                    Arc::new(ClassicJournal::new(
                        dev,
                        area,
                        HORIZON_LBA,
                        CommitStyle::Classic,
                        CORES + 1,
                    ))
                }
            };
            let t0 = ccnvme_sim::now();
            for i in 0..50u64 {
                let tx = tx_with(&*journal, &[(100 + (i % 7), i as u8)], &[]);
                journal
                    .commit_tx(tx, Durability::Durable)
                    .expect("commit ok");
            }
            t2.add(ccnvme_sim::now() - t0);
        });
        sim.run();
        total.get()
    }
    let classic = run_engine("classic");
    let horae = run_engine("horae");
    let mq = run_engine("mq");
    assert!(mq < horae, "mq={mq} horae={horae}");
    assert!(horae <= classic, "horae={horae} classic={classic}");
}

#[test]
fn nojournal_writes_in_place_with_no_recovery() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (_drv, dev) = nvme_stack(SsdProfile::optane_905p());
        let journal = NoJournal::new(Arc::clone(&dev));
        let tx = tx_with(&journal, &[(110, 5)], &[(111, 6)]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        assert_eq!(read_lba(&dev, 110), 5);
        assert_eq!(read_lba(&dev, 111), 6);
        assert!(journal.recover(&HashSet::new()).is_empty());
    });
    sim.run();
}

#[test]
fn mq_release_chains_across_many_areas_make_progress() {
    // Regression: release gating can chain (area A's front blocked by B,
    // B's by C, ...). Tiny rings + many areas + a shared hot block force
    // long chains; the allocator loop must resolve them, not livelock.
    let mut sim = Sim::new(6 + 1);
    sim.spawn("main", 0, || {
        let profile = SsdProfile::optane_p5800x();
        let mut cfg = CtrlConfig::new(profile);
        cfg.device_core = 6;
        let drv = Arc::new(CcNvmeDriver::new(NvmeController::new(cfg), 6, 64));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&drv) as Arc<dyn BlockDevice>;
        let areas = AreaSpec::split(JOURNAL_START, 6 * 12, 6); // 12 blocks each.
        let journal = Arc::new(MqJournal::new(dev, areas, HORIZON_LBA));
        let mut handles = Vec::new();
        for core in 0..6usize {
            let j = Arc::clone(&journal);
            handles.push(ccnvme_sim::spawn(&format!("w{core}"), core, move || {
                for i in 0..30u8 {
                    let mut tx = TxDescriptor::new(j.alloc_tx_id());
                    // One hot shared block plus private ones.
                    tx.meta.push(TxBlock {
                        final_lba: 77,
                        buf: block(i),
                    });
                    tx.meta.push(TxBlock {
                        final_lba: 1_000 + core as u64 * 64 + i as u64,
                        buf: block(core as u8),
                    });
                    j.commit_tx(tx, Durability::Durable).expect("commit ok");
                }
            }));
        }
        for h in handles {
            h.join();
        }
        journal.checkpoint_all();
    });
    sim.run();
}

#[test]
fn horizon_excludes_old_transactions_from_replay() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let profile = SsdProfile::optane_905p();
        let (_drv, dev) = cc_stack(profile);
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = MqJournal::new(Arc::clone(&dev), areas, HORIZON_LBA);
        let tx = tx_with(&journal, &[(400, 1)], &[]);
        let old_id = tx.tx_id;
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        // Persist a horizon above the old transaction by hand.
        let hz: ccnvme_block::BioBuf =
            Arc::new(Mutex::new(mqfs_journal::format::encode_horizon(old_id + 1)));
        submit_and_wait(
            &*dev,
            Bio::write(
                HORIZON_LBA,
                hz,
                ccnvme_block::BioFlags {
                    preflush: false,
                    fua: true,
                    tx: false,
                    tx_commit: false,
                },
            ),
        )
        .expect("write");
        let updates = journal.recover(&HashSet::new());
        assert!(
            updates.iter().all(|u| u.tx_id > old_id),
            "tx below the horizon replayed: {updates:?}"
        );
    });
    sim.run();
}

#[test]
fn classic_compound_larger_than_one_descriptor_chunks() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let profile = SsdProfile::optane_905p();
        let (drv, dev) = nvme_stack(profile.clone());
        let area = AreaSpec {
            start: JOURNAL_START,
            len: 512,
        };
        let journal = ClassicJournal::new(
            Arc::clone(&dev),
            area,
            HORIZON_LBA,
            CommitStyle::Classic,
            CORES + 1,
        );
        // One transaction with 150 metadata blocks (> 64-block chunks).
        let metas: Vec<(u64, u8)> = (0..150).map(|i| (2_000 + i, (i % 251) as u8)).collect();
        let tx = tx_with(&journal, &metas, &[]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        // Crash and replay: every block must come back.
        let image = drv.controller().power_fail(CrashMode::adversarial(5));
        let mut cfg = CtrlConfig::new(profile);
        cfg.device_core = CORES;
        let drv2 = Arc::new(NvmeDriver::new(
            NvmeController::from_image(cfg, &image),
            CORES,
        ));
        let dev2: Arc<dyn BlockDevice> = Arc::clone(&drv2) as Arc<dyn BlockDevice>;
        let journal2 = ClassicJournal::new(
            Arc::clone(&dev2),
            area,
            HORIZON_LBA,
            CommitStyle::Classic,
            CORES + 1,
        );
        let updates = journal2.recover(&HashSet::new());
        assert_eq!(updates.len(), 150, "all chunked blocks replayable");
        mqfs_journal::recover::replay_updates(&dev2, &updates).expect("replay ok");
        for (lba, byte) in metas {
            assert_eq!(read_lba(&dev2, lba), byte);
        }
    });
    sim.run();
}

/// A compound can hold a journal copy of a block next to the revoke of
/// that very block: the copy was captured before the block was freed and
/// reused as file data. The copy must not stay queued for checkpoint —
/// however many chunks the compound takes (the chained path forgot).
#[test]
fn classic_chunked_compound_drops_revoked_copies_from_checkpoint() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let (_drv, dev) = nvme_stack(SsdProfile::optane_905p());
        let area = AreaSpec {
            start: JOURNAL_START,
            len: 512,
        };
        let journal = ClassicJournal::new(
            Arc::clone(&dev),
            area,
            HORIZON_LBA,
            CommitStyle::Classic,
            CORES + 1,
        );
        let tx = tx_with(&journal, &[(50, 0xd1)], &[]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        assert_eq!(journal.note_block_reuse(50), ReuseAction::Revoked);
        // 71 blocks: two chunks, the stale copy of 50 in the second.
        let mut metas: Vec<(u64, u8)> = (0..70).map(|i| (2_000 + i, 1)).collect();
        metas.push((50, 0xd1));
        let mut tx = tx_with(&journal, &metas, &[(50, 0x42)]);
        tx.revokes.push(50);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        journal.checkpoint_all();
        assert_eq!(
            read_lba(&dev, 50),
            0x42,
            "checkpoint wrote the revoked copy over file data"
        );
    });
    sim.run();
}

/// Regression (ROADMAP 4(c), first defect): a commit that finds its ring
/// full checkpoints, releases everything and publishes a horizon — and is
/// itself only logged afterwards. The horizon it publishes must not pass
/// its own ID, or recovery skips the transaction that wrapped the ring.
#[test]
fn mq_commit_that_wraps_its_ring_stays_at_or_above_the_horizon() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (drv, dev) = cc_stack(SsdProfile::optane_905p());
        let areas = AreaSpec::split(JOURNAL_START, 16, CORES); // 8 blocks each.
        let journal = MqJournal::new(Arc::clone(&dev), areas.clone(), HORIZON_LBA);
        // Four two-block transactions fill area 0; the fifth wraps it.
        fill(&journal, 70, 4);
        let tx = tx_with(&journal, &[(50, 0xd1)], &[]);
        let id = tx.tx_id;
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        let horizon = mqfs_journal::recover::read_horizon(&dev, HORIZON_LBA);
        assert!(
            horizon <= id,
            "id {id} horizon {horizon}: the commit that wrapped the ring is never replayed"
        );
        let dev2 = crash_and_replay(&drv, areas, 23);
        assert_eq!(read_lba(&dev2, 50), 0xd1, "durable transaction lost");
    });
    sim.run();
}

/// The same defect across areas: an ID is allocated on one core, and
/// before its transaction is logged another area commits, checkpoints
/// and publishes a horizon. The older ID must still be replayable when
/// its commit finally lands.
#[test]
fn mq_horizon_waits_for_an_allocated_id_that_is_not_logged_yet() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (drv, dev) = cc_stack(SsdProfile::optane_905p());
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = Arc::new(MqJournal::new(Arc::clone(&dev), areas.clone(), HORIZON_LBA));
        // Area 0 takes its ID, then is slow to commit.
        let tx = tx_with(&*journal, &[(50, 0xd1)], &[]);
        let id = tx.tx_id;
        let j = Arc::clone(&journal);
        ccnvme_sim::spawn("w1", 1, move || {
            fill(&j, 70, 1);
            j.checkpoint_all();
        })
        .join();
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        let horizon = mqfs_journal::recover::read_horizon(&dev, HORIZON_LBA);
        assert!(
            horizon <= id,
            "id {id} horizon {horizon}: published past an unlogged transaction"
        );
        let dev2 = crash_and_replay(&drv, areas, 24);
        assert_eq!(read_lba(&dev2, 50), 0xd1, "durable transaction lost");
    });
    sim.run();
}

/// Journals `n` blocks as metadata, then reuses every one of them for
/// file data in ONE transaction carrying `n` revokes, crashes, replays,
/// and returns what the reused blocks hold. None of the stale journal
/// copies (`0xd1`) may come back over the data (`0x42`).
fn reuse_many_then_crash(journal: &dyn Journal, n: u64) {
    const FIRST: u64 = 5_000;
    let stale: Vec<(u64, u8)> = (0..n).map(|i| (FIRST + i, 0xd1)).collect();
    journal
        .commit_tx(tx_with(journal, &stale, &[]), Durability::Durable)
        .expect("commit ok");
    let data: Vec<(u64, u8)> = (0..n).map(|i| (FIRST + i, 0x42)).collect();
    let mut tx = tx_with(journal, &[(4_999, 0x99)], &data);
    for (lba, _) in &data {
        assert_eq!(journal.note_block_reuse(*lba), ReuseAction::Revoked);
        tx.revokes.push(*lba);
    }
    journal
        .commit_tx(tx, Durability::Durable)
        .expect("a transaction may revoke any number of blocks");
}

fn assert_no_stale_copy(dev: &Arc<dyn BlockDevice>, n: u64) {
    let stale: Vec<u64> = (5_000..5_000 + n)
        .filter(|lba| read_lba(dev, *lba) != 0x42)
        .collect();
    assert!(
        stale.is_empty(),
        "{} of {n} revoked journal copies replayed over file data: {stale:?}",
        stale.len()
    );
    assert_eq!(read_lba(dev, 4_999), 0x99);
}

/// Regression: `JdBlock::encode` asserted at most 100 revokes and
/// `commit_chunked` put them all in the first chunk, so one fsync whose
/// dirty pages reused more than 100 formerly journaled blocks panicked.
#[test]
fn mq_transaction_with_150_revokes_commits_and_none_is_replayed() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (drv, dev) = cc_stack_deep(SsdProfile::optane_905p(), 256);
        let areas = AreaSpec::split(JOURNAL_START, 1_024, CORES);
        let journal = MqJournal::new(Arc::clone(&dev), areas.clone(), HORIZON_LBA);
        reuse_many_then_crash(&journal, 150);
        assert_no_stale_copy(&crash_and_replay(&drv, areas, 25), 150);
    });
    sim.run();
}

/// More revokes than one JD holds beside its entries spill into further
/// chained chunks of the same ID, like blocks do.
#[test]
fn mq_revokes_beyond_one_jd_spill_into_chained_chunks() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (drv, dev) = cc_stack_deep(SsdProfile::optane_905p(), 256);
        let areas = AreaSpec::split(JOURNAL_START, 2_048, CORES);
        let journal = MqJournal::new(Arc::clone(&dev), areas.clone(), HORIZON_LBA);
        reuse_many_then_crash(&journal, 700);
        assert_no_stale_copy(&crash_and_replay(&drv, areas, 26), 700);
    });
    sim.run();
}

/// Regression: the classic engine cut the compound's revoke list at 100
/// — silently — and the journal copies of the rest were replayed over
/// the user data written in their place.
#[test]
fn classic_transaction_with_150_revokes_commits_and_none_is_replayed() {
    let mut sim = Sim::new(CORES + 2);
    sim.spawn("host", 0, || {
        let profile = SsdProfile::optane_905p();
        let (drv, dev) = nvme_stack(profile.clone());
        let area = AreaSpec {
            start: JOURNAL_START,
            len: 1_024,
        };
        let classic = |dev: &Arc<dyn BlockDevice>| {
            ClassicJournal::new(
                Arc::clone(dev),
                area,
                HORIZON_LBA,
                CommitStyle::Classic,
                CORES + 1,
            )
        };
        reuse_many_then_crash(&classic(&dev), 150);
        let image = drv.controller().power_fail(CrashMode::adversarial(27));
        let mut cfg = CtrlConfig::new(profile);
        cfg.device_core = CORES;
        let drv2 = Arc::new(NvmeDriver::new(
            NvmeController::from_image(cfg, &image),
            CORES,
        ));
        let dev2: Arc<dyn BlockDevice> = Arc::clone(&drv2) as Arc<dyn BlockDevice>;
        let updates = classic(&dev2).recover(&HashSet::new());
        mqfs_journal::recover::replay_updates(&dev2, &updates).expect("replay ok");
        assert_no_stale_copy(&dev2, 150);
    });
    sim.run();
}

// ---------------------------------------------------------------------------
// Sub-block records: patches inside the JD
// ---------------------------------------------------------------------------

/// A block of `base` with `fill` over each of `ranges`.
fn image(base: u8, ranges: &[(std::ops::Range<usize>, u8)]) -> Vec<u8> {
    let mut data = vec![base; 4096];
    for (r, fill) in ranges {
        data[r.clone()].fill(*fill);
    }
    data
}

/// A home LBA, the whole block as its writer holds it, and the
/// `(start, end)` byte ranges of it the writer declares written.
type PatchedBlock<'a> = (u64, Vec<u8>, &'a [(usize, usize)]);

/// A transaction journaling each block's image, of which it declares
/// only the given ranges written.
fn patch_tx(journal: &dyn Journal, blocks: &[PatchedBlock]) -> TxDescriptor {
    let mut tx = TxDescriptor::new(journal.alloc_tx_id());
    for (lba, data, ranges) in blocks {
        tx.meta.push(TxBlock {
            final_lba: *lba,
            buf: Arc::new(Mutex::new(data.clone())),
        });
        let written = ranges.iter().map(|&(start, end)| start..end);
        tx.written.insert(*lba, written.collect());
    }
    tx
}

fn mq_counter(dev: &Arc<dyn BlockDevice>, name: &str) -> u64 {
    ccnvme_block::obs_of(&**dev)
        .metrics
        .snapshot()
        .counter(&format!("journal.mq.{name}"))
}

/// A block written in few places travels as patches inside the JD — no
/// ring block of its own — and replays over whatever base survives: the
/// device's home block, or a full copy from an older transaction.
#[test]
fn mq_patches_ride_in_the_jd_and_replay_over_home_or_a_full_copy() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (drv, dev) = cc_stack(SsdProfile::optane_905p());
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = MqJournal::new(Arc::clone(&dev), areas.clone(), HORIZON_LBA);
        // Block 300 is at home already; block 301 is first journaled whole.
        submit_and_wait(
            &*dev,
            Bio::write(300, block(0x11), ccnvme_block::BioFlags::NONE),
        )
        .expect("write");
        let whole = tx_with(&journal, &[(301, 0x22)], &[]);
        journal
            .commit_tx(whole, Durability::Durable)
            .expect("commit ok");
        let over_home = image(0x11, &[(256..512, 0xaa)]);
        let over_copy = image(0x22, &[(0..8, 0xbb), (4_095..4_096, 0xcc)]);
        let tx = patch_tx(
            &journal,
            &[
                (300, over_home.clone(), &[(256, 512)]),
                (301, over_copy.clone(), &[(0, 8), (4_095, 4_096)]),
            ],
        );
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        assert_eq!(
            mq_counter(&dev, "spilled_copies"),
            1,
            "only block 301, once"
        );
        assert_eq!(mq_counter(&dev, "patches"), 3);
        assert_eq!(mq_counter(&dev, "patch_bytes"), 256 + 8 + 1);
        let dev2 = crash_and_replay(&drv, areas, 31);
        assert_eq!(read_block(&dev2, 300), over_home);
        assert_eq!(read_block(&dev2, 301), over_copy);
    });
    sim.run();
}

/// Patches that do not fit what is left of the JD spill as full copies,
/// cheapest inline first; either way the block replays.
#[test]
fn mq_patches_beyond_the_jd_budget_spill_as_full_copies() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (drv, dev) = cc_stack(SsdProfile::optane_905p());
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = MqJournal::new(Arc::clone(&dev), areas.clone(), HORIZON_LBA);
        // Twenty blocks, each with one 256-byte slot written; block 319
        // also declares a range too large for any JD.
        let slot = [(512, 768)];
        let big = [(0, 4_000)];
        let images: Vec<Vec<u8>> = (0..20).map(|i| image(i, &[(512..768, 0xe0 + i)])).collect();
        let blocks: Vec<PatchedBlock> = images
            .iter()
            .enumerate()
            .map(|(i, data)| {
                let ranges: &[_] = if i == 19 { &big } else { &slot };
                (300 + i as u64, data.clone(), ranges)
            })
            .collect();
        let tx = patch_tx(&journal, &blocks);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        // 4056 bytes less 20 entries leave 3576; a slot patch costs 268
        // and gives its entry's 24 back: 14 go inline, 6 spill.
        assert_eq!(mq_counter(&dev, "patches"), 14);
        assert_eq!(mq_counter(&dev, "spilled_copies"), 6);
        let dev2 = crash_and_replay(&drv, areas, 32);
        for (i, data) in images.iter().enumerate() {
            // Home was zero: an inlined block comes back as its patch
            // over zeroes, a spilled one whole.
            let got = read_block(&dev2, 300 + i as u64);
            assert_eq!(got[512..768], data[512..768], "block {i}");
            assert!(got == *data || got == image(0, &[(512..768, 0xe0 + i as u8)]));
        }
    });
    sim.run();
}

/// The release rule: a record is superseded only by a newer live *full*
/// copy. Area 0 patches one slot of a block, area 1 a newer patch of
/// another slot; area 0 then wraps its ring while area 1 idles. Area 0's
/// record may leave its ring only once its bytes are home — under
/// "another area holds a newer version, skip, release anyway" they are
/// gone: the newer version is a patch and does not contain them.
#[test]
fn mq_a_newer_patch_elsewhere_does_not_stand_in_for_an_older_one() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (drv, dev) = cc_stack(SsdProfile::optane_905p());
        let areas = AreaSpec::split(JOURNAL_START, 16, CORES); // 8 blocks each.
        let journal = Arc::new(MqJournal::new(Arc::clone(&dev), areas.clone(), HORIZON_LBA));
        let first = image(0, &[(0..256, 0xa1)]);
        let both = image(0, &[(0..256, 0xa1), (256..512, 0xb2)]);
        let tx = patch_tx(&*journal, &[(300, first, &[(0, 256)])]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        let (j, later) = (Arc::clone(&journal), both.clone());
        ccnvme_sim::spawn("w1", 1, move || {
            let tx = patch_tx(&*j, &[(300, later, &[(256, 512)])]);
            j.commit_tx(tx, Durability::Durable).expect("commit ok");
        })
        .join();
        // Seven ring blocks left in area 0: the fourth filler wraps it
        // and overwrites the first patch's JD.
        fill(&journal, 70, 4);
        let dev2 = crash_and_replay(&drv, areas, 33);
        assert_eq!(
            read_block(&dev2, 300),
            both,
            "the older patch left its ring without its bytes going home"
        );
    });
    sim.run();
}

/// A revoke suppresses patches like it suppresses copies, and a revoked
/// block's image is never checkpointed home.
#[test]
fn mq_revoke_suppresses_patches_too() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (drv, dev) = cc_stack(SsdProfile::optane_905p());
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = MqJournal::new(Arc::clone(&dev), areas.clone(), HORIZON_LBA);
        let tx = patch_tx(&journal, &[(50, image(0, &[(0..64, 0xd1)]), &[(0, 64)])]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        reuse_as_data(&journal, 50, 0x42);
        journal.checkpoint_all();
        assert_eq!(
            read_block(&dev, 50),
            vec![0x42; 4096],
            "checkpointed over data"
        );
        let dev2 = crash_and_replay(&drv, areas, 34);
        assert_eq!(
            read_block(&dev2, 50),
            vec![0x42; 4096],
            "patch replayed over data"
        );
    });
    sim.run();
}

/// Checkpoint writes home the newest image on media, once: two areas
/// patch the same block alternately, everything is checkpointed, and
/// home holds the cumulative image — no older image landed last.
#[test]
fn mq_checkpoint_writes_the_newest_image_home() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("main", 0, || {
        let (_drv, dev) = cc_stack(SsdProfile::optane_p5800x());
        let areas = AreaSpec::split(JOURNAL_START, 16, CORES); // Wraps often.
        let journal = Arc::new(MqJournal::new(Arc::clone(&dev), areas, HORIZON_LBA));
        // One shared, cumulative image: slot `core` holds that core's
        // latest round. Images are taken and IDs allocated together, as
        // the file system does under its capture barrier.
        let shared = Arc::new(Mutex::new(vec![0u8; 4096]));
        let mut handles = Vec::new();
        for core in 0..CORES {
            let (j, shared) = (Arc::clone(&journal), Arc::clone(&shared));
            handles.push(ccnvme_sim::spawn(&format!("w{core}"), core, move || {
                let slot = (core * 256, core * 256 + 256);
                for round in 1..=20u8 {
                    let tx = {
                        let mut img = shared.lock();
                        img[slot.0..slot.1].fill(round);
                        patch_tx(&*j, &[(300, img.clone(), &[slot])])
                    };
                    j.commit_tx(tx, Durability::Durable).expect("commit ok");
                }
            }));
        }
        for h in handles {
            h.join();
        }
        journal.checkpoint_all();
        assert_eq!(read_block(&dev, 300), image(0, &[(0..512, 20)]));
    });
    sim.run();
}

/// A checkpoint that cannot write a block home must keep the journal
/// copy — by then the only good one — replayable: no new floor, no
/// release, no horizon, and no further commits over the ring.
#[test]
fn mq_failed_home_write_aborts_the_checkpoint_and_keeps_the_journal_copy() {
    use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, Trigger};
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        // Every write to home block 50 fails; the ring takes writes.
        let plan = FaultPlan::new(21).rule(FaultRule::new(
            FaultKind::MediaWrite,
            Trigger::LbaRange { start: 50, end: 51 },
        ));
        let mut cfg =
            CtrlConfig::new(SsdProfile::optane_905p()).with_fault(Arc::new(plan.injector()));
        cfg.device_core = CORES;
        let drv = Arc::new(CcNvmeDriver::new(
            NvmeController::new(cfg),
            CORES as u16,
            64,
        ));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&drv) as Arc<dyn BlockDevice>;
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = MqJournal::new(dev, areas.clone(), HORIZON_LBA);
        let tx = tx_with(&journal, &[(50, 0xd1)], &[]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("the commit only writes the ring");
        // Fill the area until a commit has to checkpoint block 50 home.
        let refused = (0..JOURNAL_LEN).find_map(|i| {
            let filler = tx_with(&journal, &[(100 + i, 0xf0)], &[]);
            journal.commit_tx(filler, Durability::Durable).err()
        });
        assert!(journal.is_aborted(), "failed checkpoint aborts the journal");
        assert!(
            matches!(refused, Some(mqfs_journal::CommitError::Aborted)),
            "no commit may reuse the ring: {refused:?}"
        );
        // Power-cycle onto a healthy device: replay restores the block.
        let dev2 = crash_and_replay(&drv, areas, 3);
        assert_eq!(read_lba(&dev2, 50), 0xd1, "journal copy survived");
    });
    sim.run();
}

/// DESIGN §7.2 invariant 3's other half: a checkpoint never writes home
/// the image of a transaction whose journal writes failed, even once
/// they all completed. Transaction 1 patches block 50 and lands; the JD
/// of transaction 2, the next patch of block 50, fails on the ring.
#[test]
fn mq_a_failed_transactions_image_never_goes_home() {
    use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, Trigger};
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        // Area 0 logs from JOURNAL_START up: transaction 1's JD takes
        // the first ring block, transaction 2's the second.
        let jd2 = JOURNAL_START + 1;
        let plan = FaultPlan::new(22).rule(FaultRule::new(
            FaultKind::MediaWrite,
            Trigger::LbaRange {
                start: jd2,
                end: jd2 + 1,
            },
        ));
        let mut cfg =
            CtrlConfig::new(SsdProfile::optane_905p()).with_fault(Arc::new(plan.injector()));
        cfg.device_core = CORES;
        let drv = CcNvmeDriver::new(NvmeController::new(cfg), CORES as u16, 64);
        let dev: Arc<dyn BlockDevice> = Arc::new(drv);
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = MqJournal::new(Arc::clone(&dev), areas, HORIZON_LBA);
        let first = image(0, &[(0..64, 0xd1)]);
        let second = image(0, &[(0..64, 0xd1), (64..128, 0xd2)]);
        let tx = patch_tx(&journal, &[(50, first.clone(), &[(0, 64)])]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("transaction 1 lands");
        let tx = patch_tx(&journal, &[(50, second, &[(64, 128)])]);
        assert!(
            journal.commit_tx(tx, Durability::Durable).is_err(),
            "transaction 2's JD write fails"
        );
        journal.checkpoint_all();
        let home = read_block(&dev, 50);
        assert!(
            home == first,
            "a failed transaction's image went home: byte 64 is {:#x}, not {:#x}",
            home[64],
            first[64]
        );
    });
    sim.run();
}

/// §5.4 case 1: a block reused while a checkpoint is writing its stale
/// copy home regresses to data journaling — it must ride the journal,
/// not be written in place under the home write.
#[test]
fn mq_block_reused_mid_checkpoint_must_be_journaled() {
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("host", 0, || {
        let (_drv, dev) = cc_stack(SsdProfile::optane_905p());
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = Arc::new(MqJournal::new(dev, areas, HORIZON_LBA));
        let tx = tx_with(&*journal, &[(50, 0xd1)], &[]);
        journal
            .commit_tx(tx, Durability::Durable)
            .expect("commit ok");
        let j = Arc::clone(&journal);
        let checkpointer = ccnvme_sim::spawn("checkpointer", 1, move || j.checkpoint_all());
        // A device write takes ~10 µs: 3 µs in, block 50 is going home.
        ccnvme_sim::delay(3_000);
        assert_eq!(journal.note_block_reuse(50), ReuseAction::MustJournal);
        checkpointer.join();
        assert_ne!(journal.note_block_reuse(50), ReuseAction::MustJournal);
    });
    sim.run();
}

/// An in-memory device whose writes of chosen transactions wait, in
/// flight, until the test lands them — in any order it likes; holding
/// transaction 0 holds the plain writes (a checkpoint's home writes and
/// horizon). Every other bio completes at once; a completed bio's
/// buffer is dropped. It notes the core that submitted each plain
/// write or flush — checkpoint I/O.
#[derive(Default)]
struct GatedDev {
    blocks: Mutex<std::collections::HashMap<u64, Vec<u8>>>,
    held_txs: Mutex<HashSet<u64>>,
    held: Mutex<Vec<Bio>>,
    checkpoint_io_cores: Mutex<Vec<usize>>,
    obs: std::sync::OnceLock<Arc<ccnvme_obs::Obs>>,
}

impl GatedDev {
    fn land(&self, mut bio: Bio) {
        match &bio.data {
            BioData::Src(buf) => {
                self.blocks.lock().insert(bio.lba, buf.to_vec());
            }
            BioData::Dst(buf) => {
                let blocks = self.blocks.lock();
                let data = blocks.get(&bio.lba).cloned().unwrap_or(vec![0; 4096]);
                buf.lock().copy_from_slice(&data);
            }
            BioData::None => {}
        }
        bio.complete(BioStatus::Ok);
    }

    /// Lands every held bio of transaction `tx_id`.
    fn land_tx(&self, tx_id: u64) {
        self.held_txs.lock().remove(&tx_id);
        let held = std::mem::take(&mut *self.held.lock());
        let (now, later): (Vec<Bio>, Vec<Bio>) = held.into_iter().partition(|b| b.tx_id == tx_id);
        *self.held.lock() = later;
        now.into_iter().for_each(|b| self.land(b));
    }
}

impl BlockDevice for GatedDev {
    fn submit_bio(&self, bio: Bio) {
        if bio.tx_id == 0 && bio.op != BioOp::Read {
            self.checkpoint_io_cores
                .lock()
                .push(ccnvme_sim::current_core());
        }
        if bio.op == BioOp::Write && self.held_txs.lock().contains(&bio.tx_id) {
            self.held.lock().push(bio);
        } else {
            self.land(bio);
        }
    }

    fn num_queues(&self) -> usize {
        CORES
    }

    fn has_volatile_cache(&self) -> bool {
        false
    }

    fn capacity_blocks(&self) -> u64 {
        1 << 20
    }

    fn obs(&self) -> Option<Arc<ccnvme_obs::Obs>> {
        Some(Arc::clone(self.obs.get_or_init(ccnvme_obs::Obs::new)))
    }
}

/// A newer image of a block lands before an older one (two areas, two
/// transactions in flight). The older image's journal keeps it only
/// until something covers it: the checkpoint writes the newest landed
/// image home, and the older image is gone from the journal by the time
/// it lands. Images are counted by the handles on their buffers.
#[test]
fn mq_a_newer_image_landing_first_goes_home_and_prunes_the_older() {
    Sim::run_main(CORES, || {
        let gated = Arc::new(GatedDev::default());
        let dev: Arc<dyn BlockDevice> = Arc::clone(&gated) as Arc<dyn BlockDevice>;
        let areas = AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = Arc::new(MqJournal::new(dev, areas, HORIZON_LBA));
        // Commits a transaction of block 40 from `core`, left in flight;
        // returns its image and ID.
        let commit = |core: usize, byte: u8| {
            let j = Arc::clone(&journal);
            let gated = Arc::clone(&gated);
            let image = BlockBuf::new(vec![byte; 4096]);
            let buf = image.clone();
            let tx_id = ccnvme_sim::spawn("committer", core, move || {
                let mut tx = TxDescriptor::new(j.alloc_tx_id());
                let tx_id = tx.tx_id;
                gated.held_txs.lock().insert(tx_id);
                tx.meta.push(TxBlock { final_lba: 40, buf });
                j.commit_tx(tx, Durability::Atomic).expect("fatomic");
                tx_id
            })
            .join();
            (image, tx_id)
        };
        let handles = |b: &BlockBuf| Arc::strong_count(b.shared());
        // A on core 0 (area 0), B on core 1 (area 1): each image is held
        // by the test, the journal and the bio in flight.
        let (a, a_tx) = commit(0, 0xa1);
        let (b, b_tx) = commit(1, 0xb2);
        assert_eq!((handles(&a), handles(&b)), (3, 3));
        gated.land_tx(b_tx);
        assert_eq!(handles(&b), 2, "B landed: its bio is gone");
        journal.checkpoint_all();
        assert_eq!(gated.blocks.lock()[&40], vec![0xb2; 4096], "B went home");
        assert_eq!(handles(&a), 2, "A, below the floor, left the journal");
        gated.land_tx(a_tx);
        assert_eq!(handles(&a), 1, "A landed and nothing keeps it");
        // Without a checkpoint: D lands before C, then E's commit prunes
        // C, which D covers; D stays until something covers it.
        let (c, c_tx) = commit(0, 0xc3);
        let (d, d_tx) = commit(1, 0xd4);
        gated.land_tx(d_tx);
        let (e, _) = commit(1, 0xe5);
        assert_eq!(handles(&c), 2, "C is covered by D: only its bio keeps it");
        assert_eq!(handles(&d), 2, "D is the newest landed image");
        gated.land_tx(c_tx);
        assert_eq!(handles(&c), 1);
        assert_eq!(handles(&e), 3);
    });
}

/// The background checkpointer's core in the tests below: committers
/// run on core 0 (area 0).
const CHECKPOINTER_CORE: usize = 2;

/// Ring blocks of each area of [`background_journal`] — more than one
/// chunk's 65, so the area has a mark. A durable committer keeps its
/// own transaction (two ring blocks) in flight, which puts the mark at
/// six free blocks: the 49th one-block transaction passes it and the
/// 52nd fills the ring.
const BACKGROUND_AREA: u64 = 104;

/// The commit that passes [`BACKGROUND_AREA`]'s mark.
const PASSES_MARK: u64 = 49;

/// A journal of two [`BACKGROUND_AREA`]-block areas over `gated`,
/// checkpointed in the background.
fn background_journal(gated: &Arc<GatedDev>) -> Arc<MqJournal> {
    let dev: Arc<dyn BlockDevice> = Arc::clone(gated) as Arc<dyn BlockDevice>;
    let areas = AreaSpec::split(JOURNAL_START, 2 * BACKGROUND_AREA, CORES);
    Arc::new(MqJournal::with_checkpoint_core(
        dev,
        areas,
        HORIZON_LBA,
        CHECKPOINTER_CORE,
    ))
}

/// Commits `n` one-block transactions (two ring blocks each) from core
/// 0, 1 µs apart, counting each in `logged` as it returns.
fn commit_from_core_0(
    journal: &Arc<MqJournal>,
    n: u64,
    logged: &Arc<AtomicU64>,
) -> ccnvme_sim::SimJoinHandle<()> {
    let (j, logged) = (Arc::clone(journal), Arc::clone(logged));
    ccnvme_sim::spawn("committer", 0, move || {
        for i in 0..n {
            let tx = tx_with(&*j, &[(300 + i % 7, i as u8)], &[]);
            j.commit_tx(tx, Durability::Durable).expect("commit ok");
            logged.fetch_add(1, Ordering::SeqCst);
            ccnvme_sim::delay(1_000);
        }
    })
}

fn reserve_waits(dev: &Arc<GatedDev>) -> u64 {
    let snap = dev.obs().expect("gated obs").metrics.snapshot();
    snap.histogram("journal.mq.reserve_wait_ns")
        .map_or(0, |h| h.summary.count)
}

/// A pass over an area holds no lock its commits need: while the
/// background checkpoint's home writes wait at the gate, the area keeps
/// logging until its ring is truly full, and only the commit that finds
/// it full waits — for that pass's release, not for a pass of its own.
#[test]
fn mq_commits_keep_logging_while_a_background_pass_writes_home() {
    Sim::run_main(CHECKPOINTER_CORE + 1, || {
        let gated = Arc::new(GatedDev::default());
        gated.held_txs.lock().insert(0);
        let journal = background_journal(&gated);
        let logged = Arc::new(AtomicU64::new(0));
        let full = BACKGROUND_AREA / 2;
        let committer = commit_from_core_0(&journal, full + 1, &logged);
        ccnvme_sim::delay(2 * full * 1_000);
        // Commit PASSES_MARK kicked a pass, which writes home, held,
        // while the rest fill the ring.
        assert!(
            gated.held.lock().iter().any(|b| b.tx_id == 0),
            "no checkpoint is writing home"
        );
        assert_eq!(
            logged.load(Ordering::SeqCst),
            full,
            "the area stopped logging while its pass wrote home"
        );
        gated.land_tx(0);
        committer.join();
        assert_eq!(logged.load(Ordering::SeqCst), full + 1);
        assert_eq!(reserve_waits(&gated), 1, "only the last commit waited");
        let cores = gated.checkpoint_io_cores.lock().clone();
        assert!(
            cores.iter().all(|&c| c == CHECKPOINTER_CORE),
            "a commit ran checkpoint I/O: submitted from cores {cores:?}"
        );
    });
}

/// A commit checkpoints only when its ring is full: with the background
/// checkpointer keeping up, five laps of the ring run no checkpoint
/// I/O on the committer's core and no commit waits for space.
#[test]
fn mq_a_commit_below_a_full_ring_runs_no_checkpoint_io() {
    Sim::run_main(CHECKPOINTER_CORE + 1, || {
        let gated = Arc::new(GatedDev::default());
        let journal = background_journal(&gated);
        let logged = Arc::new(AtomicU64::new(0));
        commit_from_core_0(&journal, 5 * BACKGROUND_AREA / 2, &logged).join();
        let cores = gated.checkpoint_io_cores.lock().clone();
        assert!(!cores.is_empty(), "nothing was checkpointed");
        assert!(
            cores.iter().all(|&c| c == CHECKPOINTER_CORE),
            "a commit ran checkpoint I/O: submitted from cores {cores:?}"
        );
        assert_eq!(reserve_waits(&gated), 0, "a commit found its ring full");
    });
}

/// A release chain across three areas in falling index order — area 0's
/// front waits for an older version in area 1 to leave, area 1's for
/// one in area 2 — under a single committer that fills area 0: the
/// commit that finds the ring full checkpoints round after round until
/// the chain unwinds, rather than waiting for a commit nobody makes.
#[test]
fn mq_a_full_ring_unwinds_a_release_chain_across_three_areas() {
    const AREAS: usize = 3;
    const AREA: u64 = 16;
    Sim::run_main(AREAS, || {
        let gated = Arc::new(GatedDev::default());
        let dev: Arc<dyn BlockDevice> = Arc::clone(&gated) as Arc<dyn BlockDevice>;
        let areas = AreaSpec::split(JOURNAL_START, AREAS as u64 * AREA, AREAS);
        let journal = Arc::new(MqJournal::new(dev, areas, HORIZON_LBA));
        let commit_on = |core: usize, lbas: &'static [u64]| {
            let j = Arc::clone(&journal);
            ccnvme_sim::spawn("chain", core, move || {
                let metas: Vec<(u64, u8)> = lbas.iter().map(|&l| (l, core as u8)).collect();
                j.commit_tx(tx_with(&*j, &metas, &[]), Durability::Durable)
                    .expect("commit ok");
            })
            .join();
        };
        // X = 100 in area 2; X and Y = 101 in area 1; Y in area 0.
        commit_on(2, &[100]);
        commit_on(1, &[100, 101]);
        commit_on(0, &[101]);
        // The committer fills area 0 with one-block transactions (two
        // ring blocks each) and commits one more.
        let j = Arc::clone(&journal);
        ccnvme_sim::spawn("committer", 0, move || {
            for i in 0..AREA / 2 {
                let tx = tx_with(&*j, &[(200 + i, 1)], &[]);
                j.commit_tx(tx, Durability::Durable).expect("commit ok");
            }
        })
        .join();
        assert_eq!(
            reserve_waits(&gated),
            1,
            "the last commit found its ring full"
        );
        assert_eq!(
            gated.blocks.lock()[&101][0],
            0,
            "Y went home from area 0's image"
        );
    });
}

/// `shutdown` waits for the pass the checkpointer is running: no
/// checkpoint I/O reaches the device after it returns.
#[test]
fn mq_shutdown_waits_for_the_running_pass() {
    Sim::run_main(CHECKPOINTER_CORE + 1, || {
        let gated = Arc::new(GatedDev::default());
        gated.held_txs.lock().insert(0);
        let journal = background_journal(&gated);
        commit_from_core_0(&journal, PASSES_MARK, &Arc::new(AtomicU64::new(0))).join();
        assert!(
            gated.held.lock().iter().any(|b| b.tx_id == 0),
            "no checkpoint is writing home"
        );
        // The checkpoint I/O submitted when `shutdown` returned.
        let at_return = Arc::new(AtomicU64::new(u64::MAX));
        let (j, g, r) = (
            Arc::clone(&journal),
            Arc::clone(&gated),
            Arc::clone(&at_return),
        );
        let stopper = ccnvme_sim::spawn("unmount", 1, move || {
            j.shutdown();
            let n = g.checkpoint_io_cores.lock().len() as u64;
            r.store(n, Ordering::SeqCst);
        });
        ccnvme_sim::delay(100_000);
        assert_eq!(
            at_return.load(Ordering::SeqCst),
            u64::MAX,
            "shutdown returned while the pass wrote home"
        );
        gated.land_tx(0);
        stopper.join();
        ccnvme_sim::delay(100_000);
        let submitted = gated.checkpoint_io_cores.lock().len() as u64;
        assert_eq!(at_return.load(Ordering::SeqCst), submitted);
        assert!(
            gated.blocks.lock().contains_key(&HORIZON_LBA),
            "the pass ended before its horizon write"
        );
    });
}
