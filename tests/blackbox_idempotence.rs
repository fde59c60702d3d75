//! Property: the flight-recorder mount is idempotent and its verdicts
//! are stable under adversarial power cuts.
//!
//! A random batch of journal transactions runs on the ccNVMe driver
//! while a crasher thread takes an adversarial snapshot at a random
//! virtual instant — committed PMR bytes plus a seeded prefix of the
//! in-flight posted writes, exactly what a power cut leaves, including
//! torn blackbox slots (a record is one 64-byte posted write). The
//! torn ring is then analyzed repeatedly, and the crash image is booted
//! repeatedly:
//!
//! * N× forensics of the same image must agree on every per-transaction
//!   verdict and must never contradict the recovery scan — the seals
//!   make a torn tail detectable, not ambiguous.
//! * Recovery's effect on the recorder region is deterministic: two
//!   independent boots of the same crash image leave byte-identical
//!   blackbox regions (the re-format is the only write recovery makes
//!   there), and forensics of those regions agree.

use std::sync::Arc;

use ccnvme_repro::block::BlockDevice;
use ccnvme_repro::ccnvme::{image_forensics, CcNvmeDriver, PmrLayout};
use ccnvme_repro::journal::{Durability, Journal, MqJournal, TxBlock, TxDescriptor};
use ccnvme_repro::obs::blackbox::BLACKBOX_BYTES;
use ccnvme_repro::obs::TxVerdict;
use ccnvme_repro::pcie::PmrImage;
use ccnvme_repro::sim::Sim;
use ccnvme_repro::ssd::{CrashMode, CtrlConfig, DurableImage, NvmeController, SsdProfile};
use parking_lot::Mutex;
use proptest::prelude::*;

const CORES: usize = 2;
const HORIZON_LBA: u64 = 999;
const JOURNAL_START: u64 = 1_000;
const JOURNAL_LEN: u64 = 256;

/// One random transaction: a few journaled home blocks.
#[derive(Debug, Clone)]
struct TxSpec {
    metas: Vec<(u64, u8)>,
}

fn tx_strategy() -> impl Strategy<Value = TxSpec> {
    proptest::collection::vec((10u64..60, any::<u8>()), 1..4).prop_map(|metas| TxSpec { metas })
}

fn block(byte: u8) -> ccnvme_repro::block::BioBuf {
    Arc::new(Mutex::new(vec![byte; 4096]))
}

fn ctrl_config() -> CtrlConfig {
    let mut cfg = CtrlConfig::new(SsdProfile::optane_905p());
    cfg.device_core = CORES;
    cfg
}

/// Runs the transactions while a crasher thread cuts power at a random
/// virtual instant, and returns the adversarial crash image.
fn crashed_image(txs: Vec<TxSpec>, crash_seed: u64, delay_frac: u8) -> DurableImage {
    let captured: Arc<Mutex<Option<DurableImage>>> = Arc::new(Mutex::new(None));
    let cap = Arc::clone(&captured);
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("bb-prop-workload", 0, move || {
        let drv = Arc::new(CcNvmeDriver::new(
            NvmeController::new(ctrl_config()),
            CORES as u16,
            64,
        ));
        let crasher = {
            let drv = Arc::clone(&drv);
            // A workload of a few commits spans tens of µs of virtual
            // time; the fraction lands the cut anywhere inside it.
            let delay_ns = 500 + (delay_frac as u64) * 600;
            ccnvme_repro::sim::spawn("bb-prop-crasher", 1, move || {
                ccnvme_repro::sim::delay(delay_ns);
                drv.controller()
                    .crash_snapshot(CrashMode::adversarial(crash_seed))
            })
        };
        let dev: Arc<dyn BlockDevice> = Arc::clone(&drv) as Arc<dyn BlockDevice>;
        let areas = ccnvme_repro::journal::AreaSpec::split(JOURNAL_START, JOURNAL_LEN, CORES);
        let journal = MqJournal::new(dev, areas, HORIZON_LBA);
        for spec in &txs {
            let mut tx = TxDescriptor::new(journal.alloc_tx_id());
            for (lba, byte) in &spec.metas {
                tx.meta.push(TxBlock {
                    final_lba: *lba,
                    buf: block(*byte),
                });
            }
            journal.commit_tx(tx, Durability::Durable).expect("commit");
        }
        *cap.lock() = Some(crasher.join());
        journal.shutdown();
    });
    sim.run();
    let img = captured.lock().take().expect("crash snapshot taken");
    img
}

/// The comparable essence of one forensics pass.
type Essence = (u32, u64, u32, Vec<(u64, TxVerdict)>, Vec<String>);

fn forensics_essence(pmr: &PmrImage) -> Result<Essence, String> {
    let fx = image_forensics(pmr)?;
    Ok((
        fx.report.epoch,
        fx.report.lapped,
        fx.report.invalid_slots,
        fx.report.txs.iter().map(|t| (t.tx_id, t.verdict)).collect(),
        fx.contradictions,
    ))
}

/// Boots the image through real recovery (probe re-formats the ring
/// under the next generation) and returns the graceful PMR image.
fn boot_pmr(image: &DurableImage) -> PmrImage {
    let captured: Arc<Mutex<Option<PmrImage>>> = Arc::new(Mutex::new(None));
    let cap = Arc::clone(&captured);
    let image = image.clone();
    let mut sim = Sim::new(CORES + 1);
    sim.spawn("bb-prop-boot", 0, move || {
        let (drv, _report) = CcNvmeDriver::probe(
            NvmeController::from_image(ctrl_config(), &image),
            CORES as u16,
            64,
        );
        let graceful = drv.controller().crash_snapshot(CrashMode::SETTLED);
        *cap.lock() = Some(graceful.pmr);
    });
    sim.run();
    let out = captured.lock().take().expect("boot completed");
    out
}

/// The recorder's sub-region of a PMR image.
fn bb_region(pmr: &PmrImage) -> Vec<u8> {
    let layout = PmrLayout::decode_header(&pmr.read_vec(0, 64)).expect("bootable image");
    pmr.read_vec(layout.blackbox_off(), BLACKBOX_BYTES as usize)
}

fn run_case(
    txs: Vec<TxSpec>,
    crash_seed: u64,
    delay_frac: u8,
    remounts: u8,
) -> Result<(), TestCaseError> {
    let image = crashed_image(txs, crash_seed, delay_frac);
    // N× forensics of the torn ring: every pass sees the same verdicts
    // and a contradiction-free cross-check.
    let first = forensics_essence(&image.pmr);
    prop_assert!(
        first.is_ok(),
        "torn ring failed to mount: {:?}",
        first.err()
    );
    let first = first.unwrap();
    prop_assert!(
        first.4.is_empty(),
        "adversarial cut produced contradictions: {:?}",
        first.4
    );
    for round in 1..=remounts.max(1) {
        let again = forensics_essence(&image.pmr).expect("stable mount");
        prop_assert!(
            again == first,
            "re-mount {round} changed the analysis: {again:?} vs {first:?}"
        );
    }
    // Recovery is deterministic on the recorder region: two boots of
    // the same image leave byte-identical rings with equal analyses.
    let pmr_a = boot_pmr(&image);
    let pmr_b = boot_pmr(&image);
    prop_assert!(
        bb_region(&pmr_a) == bb_region(&pmr_b),
        "independent recoveries left different blackbox bytes"
    );
    let fx_a = forensics_essence(&pmr_a).expect("recovered ring mounts");
    let fx_b = forensics_essence(&pmr_b).expect("recovered ring mounts");
    prop_assert!(fx_a == fx_b, "recovered-ring analyses diverged");
    prop_assert!(
        fx_a.4.is_empty(),
        "recovered image contradicts itself: {:?}",
        fx_a.4
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 32,
    })]

    #[test]
    fn blackbox_mount_is_idempotent_over_adversarial_crashes(
        txs in proptest::collection::vec(tx_strategy(), 1..6),
        crash_seed in any::<u64>(),
        delay_frac in any::<u8>(),
        remounts in 1u8..=3,
    ) {
        run_case(txs, crash_seed, delay_frac, remounts)?;
    }
}
