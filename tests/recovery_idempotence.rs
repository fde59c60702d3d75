//! Property: journal replay is idempotent and restartable.
//!
//! `replay_updates` is the one recovery step that mutates media, so a
//! crash *during* recovery re-runs it from the top over whatever the
//! interrupted attempt already wrote. This proptest commits a random
//! batch of transactions, crashes adversarially, and then replays the
//! recovered window in deliberately messy ways — a random partial
//! prefix first (the interrupted attempt), then recovery from the top —
//! scan and replay — one to three times (the re-runs). The media must
//! end byte-identical to a single clean replay of the same image.
//!
//! Transactions journal blocks whole or as byte-range patches, so the
//! window holds patches over (a) a surviving full copy and (b) nothing
//! but the device's own home block — which the interrupted attempt may
//! already have rewritten when the re-run reads it back as its base.

use std::{
    collections::{HashMap, HashSet},
    sync::Arc,
};

use ccnvme_repro::block::{submit_and_wait, Bio, BioFlags, BlockDevice};
use ccnvme_repro::ccnvme::CcNvmeDriver;
use ccnvme_repro::journal::{
    recover::replay_updates, Durability, Journal, MqJournal, TxBlock, TxDescriptor,
};
use ccnvme_repro::obs::hash::IntMap;
use ccnvme_repro::sim::Sim;
use ccnvme_repro::ssd::{
    CrashMode, CtrlConfig, DurableImage, MediaBlock, NvmeController, SsdProfile,
};
use parking_lot::Mutex;
use proptest::prelude::*;

const CORES: usize = 2;
const HORIZON_LBA: u64 = 999;
const JOURNAL_START: u64 = 1_000;
const JOURNAL_LEN: u64 = 256;

/// One journaled home block: written whole with `byte`, or only its
/// `slot`-th 256-byte slot (a patch).
#[derive(Debug, Clone)]
struct MetaSpec {
    lba: u64,
    byte: u8,
    slot: Option<usize>,
}

/// One random transaction: a few journaled home blocks.
#[derive(Debug, Clone)]
struct TxSpec {
    metas: Vec<MetaSpec>,
}

fn tx_strategy() -> impl Strategy<Value = TxSpec> {
    // Few home blocks, so patches land on blocks journaled whole
    // earlier, on blocks only ever patched, and on each other.
    let meta =
        (10u64..22, any::<u8>(), any::<bool>(), 0usize..16).prop_map(|(lba, byte, patch, slot)| {
            MetaSpec {
                lba,
                byte,
                slot: patch.then_some(slot),
            }
        });
    proptest::collection::vec(meta, 1..4).prop_map(|metas| TxSpec { metas })
}

fn block(byte: u8) -> ccnvme_repro::block::BioBuf {
    Arc::new(Mutex::new(vec![byte; 4096]))
}

fn cc_stack(profile: SsdProfile) -> (Arc<CcNvmeDriver>, Arc<dyn BlockDevice>) {
    let mut cfg = CtrlConfig::new(profile);
    cfg.device_core = CORES;
    let drv = Arc::new(CcNvmeDriver::new(
        NvmeController::new(cfg),
        CORES as u16,
        64,
    ));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&drv) as Arc<dyn BlockDevice>;
    (drv, dev)
}

fn reboot(
    image: &DurableImage,
    profile: SsdProfile,
) -> (
    Arc<CcNvmeDriver>,
    Arc<dyn BlockDevice>,
    ccnvme_repro::ccnvme::RecoveryReport,
) {
    let mut cfg = CtrlConfig::new(profile);
    cfg.device_core = CORES;
    let (drv, report) =
        CcNvmeDriver::probe(NvmeController::from_image(cfg, image), CORES as u16, 64);
    let drv = Arc::new(drv);
    let dev: Arc<dyn BlockDevice> = Arc::clone(&drv) as Arc<dyn BlockDevice>;
    (drv, dev, report)
}

/// Full-media snapshot for byte-identical comparison (everything lands:
/// all posted writes, whole cache).
fn media(drv: &CcNvmeDriver) -> IntMap<u64, MediaBlock> {
    drv.controller().crash_snapshot(CrashMode::SETTLED).blocks
}

fn run_case(
    txs: Vec<TxSpec>,
    crash_seed: u64,
    prefix_frac: u8,
    reruns: u8,
) -> Result<(), TestCaseError> {
    let failure: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let f2 = Arc::clone(&failure);
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("idempotence", 0, move || {
        let profile = SsdProfile::optane_905p();
        let (drv, dev) = cc_stack(profile.clone());
        let areas = ccnvme_repro::journal::AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = MqJournal::new(Arc::clone(&dev), areas, HORIZON_LBA);
        // Half the home blocks hold something before the journal sees
        // them: a patch with no full copy under it lands on that.
        let mut cache: HashMap<u64, Vec<u8>> = HashMap::new();
        for lba in (10u64..22).step_by(2) {
            submit_and_wait(&*dev, Bio::write(lba, block(lba as u8), BioFlags::NONE))
                .expect("seed home block");
            cache.insert(lba, vec![lba as u8; 4096]);
        }
        for spec in &txs {
            let mut tx = TxDescriptor::new(journal.alloc_tx_id());
            for m in &spec.metas {
                if tx.meta.iter().any(|b| b.final_lba == m.lba) {
                    continue; // One record per block and transaction.
                }
                // The image is the block as the writer's cache holds it
                // — cumulative — whatever part of it was written.
                let image = cache.entry(m.lba).or_insert_with(|| vec![0; 4096]);
                let written = m.slot.map_or(0..4096, |s| s * 256..s * 256 + 256);
                image[written.clone()].fill(m.byte);
                tx.meta.push(TxBlock {
                    final_lba: m.lba,
                    buf: Arc::new(Mutex::new(image.clone())),
                });
                if m.slot.is_some() {
                    tx.written.insert(m.lba, [written].into_iter().collect());
                }
            }
            journal.commit_tx(tx, Durability::Durable).expect("commit");
        }
        journal.shutdown();
        let image = drv
            .controller()
            .power_fail(CrashMode::adversarial(crash_seed));

        // Reference: one clean replay on a fresh boot of the image.
        let reference = {
            let (drv2, dev2, report) = reboot(&image, profile.clone());
            let areas = ccnvme_repro::journal::AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
            let j2 = MqJournal::new(Arc::clone(&dev2), areas, HORIZON_LBA);
            let updates = j2.recover(&report.unfinished_tx_ids());
            replay_updates(&dev2, &updates).expect("clean replay");
            j2.shutdown();
            media(&drv2)
        };
        // Every commit was durable, so the clean replay must rebuild
        // every block exactly as its writer last saw it: patches landed
        // on the right base, in order.
        if let Some(lba) = cache
            .keys()
            .find(|lba| reference.get(lba).map(|b| &b[..]) != cache.get(lba).map(|b| &b[..]))
        {
            *f2.lock() = Some(format!("block {lba} replayed to the wrong content"));
        }

        // Messy path: a second boot of the SAME image; replay a random
        // prefix (the interrupted attempt), then recover from the top
        // 1..=3 times (the re-runs after re-crashes): each scans the
        // journal again and rebuilds patched blocks over whatever the
        // attempts before it left at home.
        let (drv3, dev3, report) = reboot(&image, profile);
        let areas = ccnvme_repro::journal::AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let j3 = MqJournal::new(Arc::clone(&dev3), areas, HORIZON_LBA);
        let discard: HashSet<u64> = report.unfinished_tx_ids();
        let updates = j3.recover(&discard);
        let cut = updates.len() * (prefix_frac as usize % 101) / 100;
        replay_updates(&dev3, &updates[..cut]).expect("partial replay");
        for _ in 0..reruns.max(1) {
            let again = j3.recover(&discard);
            replay_updates(&dev3, &again).expect("full replay");
        }
        j3.shutdown();
        let messy = media(&drv3);
        if messy != reference {
            let diff = messy
                .iter()
                .filter(|(lba, data)| reference.get(lba) != Some(*data))
                .count();
            *f2.lock() = Some(format!(
                "media diverged after partial+{}x replay: {diff} blocks differ",
                reruns.max(1)
            ));
        }
    });
    sim.run();
    let fail = failure.lock().take();
    prop_assert!(fail.is_none(), "{}", fail.unwrap_or_default());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 32,
    })]

    #[test]
    fn replay_is_idempotent_over_random_windows(
        txs in proptest::collection::vec(tx_strategy(), 1..8),
        crash_seed in any::<u64>(),
        prefix_frac in any::<u8>(),
        reruns in 1u8..=3,
    ) {
        run_case(txs, crash_seed, prefix_frac, reruns)?;
    }
}
