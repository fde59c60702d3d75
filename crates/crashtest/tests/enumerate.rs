//! The exhaustive crash-surface enumerator, exercised end to end.
//!
//! The smoke tier (always on) proves *completeness*: every event-prefix
//! of the workload's persistence log is explored — the state count is
//! asserted exactly, not sampled — and each one recovers to an
//! fsck-clean, oracle-clean file system. The re-crash tier proves
//! *convergence*: recovery interrupted at each of its own persistence
//! events still lands on the same final media image. The deep tier
//! (`CCNVME_ENUM_DEEP=1`) adds torn posted-write expansion and re-crash
//! sweeps over every explored image.

use ccnvme_crashtest::{
    sweep, workloads, FsScript, FsSurface, RecrashSweep, StackConfig, SweepPlan, SweepReport,
};
use ccnvme_ssd::SsdProfile;
use mqfs::FsVariant;

/// The smoke stack: MQFS on the power-loss-protected Optane 905P, so
/// the crash surface has no volatile-cache dimension and block
/// comparisons are deterministic.
fn smoke_stack() -> StackConfig {
    let mut cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
    cfg.journal_blocks = 256;
    cfg
}

fn sweep_fs(script: FsScript, plan: &SweepPlan) -> SweepReport {
    let surface = FsSurface {
        script,
        stack: smoke_stack(),
    };
    sweep(surface, plan)
}

fn deep() -> bool {
    std::env::var("CCNVME_ENUM_DEEP")
        .map(|v| v == "1")
        .unwrap_or(false)
}

#[test]
fn smoke_workload_explores_every_event_prefix() {
    let r = sweep_fs(workloads::create_delete(1), &SweepPlan::every());
    assert!(r.events > 0, "instrumentation recorded no events");
    // Completeness, asserted exactly: one state per event boundary,
    // including the empty prefix (crash at t0) and the full log.
    assert_eq!(
        r.states,
        r.events + 1,
        "enumerator must explore every event-prefix"
    );
    assert!(
        r.failures.is_empty(),
        "crash states failed recovery: {:?}",
        r.failures
    );
    // Exact: (32, 33) while a create read the new inode's table block
    // and a directory's new block from the device first; each skipped
    // read took its submission events off the log.
    assert_eq!((r.events, r.states), (16, 17), "crash surface moved");
    assert_eq!(r.clean, r.states, "every state must recover clean");
    // Forensics coverage: the flight recorder mounted cleanly on every
    // explored image and no verdict contradicted the recovery scan
    // (contradictions and mount failures land in `failures`, asserted
    // empty above).
    assert_eq!(
        r.count("forensics_images"),
        r.states,
        "every crash image must get a forensics pass"
    );
    // The runtime persist-order sanitizer replays the same recorded log
    // through its shadow queues: the dynamic dual of the static lint gate
    // must agree that no doorbell outran the flush covering its slots.
    assert_eq!(
        r.sanitizer_violations, 0,
        "persist-order sanitizer flagged a doorbell-before-flush reorder"
    );
    // The campaign's machine-readable export carries the counters.
    let snap = r.metrics();
    assert_eq!(
        snap.counters["crashenum.create_delete.states"],
        r.states as u64
    );
    assert_eq!(
        snap.counters["crashenum.create_delete.clean"],
        r.clean as u64
    );
    assert_eq!(
        snap.counters["crashenum.create_delete.forensics_images"],
        r.states as u64
    );
    assert_eq!(
        snap.counters["crashenum.create_delete.sanitizer_violations"],
        0
    );
}

#[test]
fn extent_life_cycle_recovers_at_every_event_prefix() {
    // In-place extent growth, a spill into a leaf block, unlink, and
    // reuse of the freed data and leaf blocks by a new file.
    let r = sweep_fs(workloads::extent_spill(), &SweepPlan::every());
    // Exact: the run is deterministic, so a moved count means the
    // workload's persistence traffic changed. It was (133, 134) while a
    // directory fsync re-journaled groups a durable commit had carried:
    // `fsync(/ext)` after the unlink journaled the create's whole-block
    // write of `/ext`'s directory block again, though the first
    // `fsync(a)` had made it durable. The two events that went are that
    // ring copy's submission entry in the PMR and its media write; the
    // unlink's record edits now ride the JD as patches. It was (131, 132)
    // while creates read the table blocks and directory blocks they were
    // about to fill.
    assert_eq!((r.events, r.states), (115, 116), "crash surface moved");
    assert!(
        r.failures.is_empty(),
        "crash states failed recovery: {:?}",
        r.failures
    );
    assert_eq!(r.clean, r.states, "every state must recover clean");
    assert_eq!(r.count("forensics_images"), r.states);
    assert_eq!(r.sanitizer_violations, 0);
}

/// Every way a create or an unlink edits a directory's record chain,
/// on a directory of two blocks, through remount, fsck, the durability
/// oracle, forensics and the persist-order sanitizer at every event
/// prefix.
///
/// Mutation-checked: with `write_dirents` writing a split record's
/// `rec_len` into the cached block through a `WriteSet` nobody journals
/// (the new record declared, its predecessor's `rec_len` not), the
/// sweep reports 38 clean states of 59, the first failure at prefix
/// 709: `/dr: holds {00l…, …, 20l…} nlink 2 — step 1 has {00l…, …,
/// 20l…, s} nlink 2, step 2 has {00l…, …, 19l…, s} nlink 2` (the
/// name lists elided here). On media the old `rec_len` of block 0's last
/// record still spans the bytes the patch put `s` in, so the chain
/// skips it.
#[test]
fn dir_records_recover_at_every_event_prefix() {
    let r = sweep_fs(workloads::dir_records(), &SweepPlan::every());
    assert!(
        r.failures.is_empty(),
        "crash states failed recovery: {:?}",
        r.failures
    );
    // Exact: the run is deterministic, so a moved count means the
    // directory path's persistence traffic changed. It was (166, 167)
    // while each create read its inode's table block first.
    assert_eq!((r.events, r.states), (58, 59), "crash surface moved");
    assert_eq!(r.clean, r.states, "every state must recover clean");
    assert_eq!(r.count("forensics_images"), r.states);
    assert_eq!(r.sanitizer_violations, 0);
}

/// Operation-group retirement: a create made durable by its own `fsync`
/// is not journaled again by the directory's, one carried by a
/// `fatomic` is — at every event prefix, through remount, fsck, the
/// durability oracle, forensics and the persist-order sanitizer.
#[test]
fn carried_groups_recover_at_every_event_prefix() {
    let r = sweep_fs(workloads::carried_groups(), &SweepPlan::every());
    assert!(
        r.failures.is_empty(),
        "crash states failed recovery: {:?}",
        r.failures
    );
    // Exact: the run is deterministic, so a moved count means what a
    // directory fsync journals changed. It was (44, 45) while creates
    // read the blocks they were about to fill.
    assert_eq!((r.events, r.states), (24, 25), "crash surface moved");
    assert_eq!(r.clean, r.states, "every state must recover clean");
    assert_eq!(r.count("forensics_images"), r.states);
    assert_eq!(r.sanitizer_violations, 0);
}

/// A checkpoint off the commit path: every event prefix of
/// [`workloads::background_checkpoint`], whose pass runs on the
/// journald core between the appends' commits, through remount, fsck,
/// the durability oracle, forensics and the persist-order sanitizer.
#[test]
fn background_checkpoint_recovers_at_every_event_prefix() {
    let mut stack = smoke_stack();
    stack.journal_blocks = workloads::BACKGROUND_JOURNAL_BLOCKS;
    let surface = FsSurface {
        script: workloads::background_checkpoint(),
        stack,
    };
    let r = sweep(surface, &SweepPlan::every());
    assert!(
        r.failures.is_empty(),
        "crash states failed recovery: {:?}",
        r.failures
    );
    // Exact: the run is deterministic, so a moved count means the
    // background pass's persistence traffic, or where it falls among
    // the commits, changed.
    assert_eq!((r.events, r.states), (289, 290), "crash surface moved");
    assert_eq!(r.clean, r.states, "every state must recover clean");
    assert_eq!(r.count("forensics_images"), r.states);
    assert_eq!(r.sanitizer_violations, 0);
}

#[test]
fn recovery_recrashed_at_each_of_its_events_converges() {
    let plan = SweepPlan {
        recrash: RecrashSweep::FinalImage,
        ..SweepPlan::every()
    };
    let r = sweep_fs(workloads::create_delete(1), &plan);
    assert!(
        r.recovery_recrashes > 0,
        "re-crash sweep injected no crash points into recovery"
    );
    // It was (16, 17, 1681) while the journal scan read one block per
    // command: the 974 cuts that went were read commands' P-SQ slot and
    // doorbell writes. Recovery's 10 block writes and flushes remain.
    assert_eq!(
        (r.events, r.states, r.recovery_recrashes),
        (16, 17, 707),
        "crash surface moved"
    );
    assert!(
        r.failures.is_empty(),
        "crash-during-recovery diverged: {:?}",
        r.failures
    );
}

#[test]
fn deep_enumeration_with_torn_tails_and_full_recrash() {
    if !deep() {
        return; // Bounded tier: run with CCNVME_ENUM_DEEP=1.
    }
    let plan = SweepPlan {
        torn_depth: 2,
        recrash: RecrashSweep::EveryImage,
        ..SweepPlan::every()
    };
    let r = sweep_fs(workloads::create_delete(2), &plan);
    assert!(
        r.states > r.events + 1,
        "torn expansion explored no extra states"
    );
    assert!(r.recovery_recrashes > 0);
    assert!(
        r.failures.is_empty(),
        "deep enumeration failures: {:?}",
        r.failures
    );
}

/// The stack [`workloads::patch_chain`] is written for: two cores, a
/// journal of four blocks per area, and hardware queues just deep enough
/// — the re-crash sweep cuts every recovery at each of its persistence
/// events, most of which are the probe re-sealing queue slots.
fn patch_chain_stack() -> StackConfig {
    let mut cfg = smoke_stack();
    cfg.journal_blocks = workloads::PATCH_CHAIN_JOURNAL_BLOCKS;
    cfg.queue_depth = 16;
    cfg
}

fn sweep_patch_chain(recrash: RecrashSweep) -> SweepReport {
    let surface = FsSurface {
        script: workloads::patch_chain(),
        stack: patch_chain_stack(),
    };
    let plan = SweepPlan {
        recrash,
        ..SweepPlan::every()
    };
    let r = sweep(surface, &plan);
    assert!(
        r.failures.is_empty(),
        "crash states failed recovery: {:?}",
        r.failures
    );
    // Exact: the run is deterministic, so a moved count means the
    // patch path's persistence traffic changed. It was (241, 242) while
    // creates read the blocks they were about to fill.
    assert_eq!((r.events, r.states), (229, 230), "crash surface moved");
    assert_eq!(r.clean, r.states, "every state must recover clean");
    assert_eq!(r.count("forensics_images"), r.states);
    assert_eq!(r.sanitizer_violations, 0);
    r
}

/// The patch record's crash surface: every event prefix of
/// [`workloads::patch_chain`] through remount, fsck, the durability
/// oracle, forensics and the persist-order sanitizer, and the recovery
/// of the final image re-crashed at each of its own events.
///
/// Mutation-checked: with the release rule weakened to "skip when a
/// newer version exists elsewhere, release anyway" (`Chain::settled`
/// accepting a newer *patch*) the sweep reports 185 clean states of
/// 226, the first failure at prefix 817: `/p29: holds 4096 bytes [10]
/// nlink 1 — step 7 has 8192 bytes [10 11] nlink 1, step 8 has 8192
/// bytes [10 11] nlink 1` — `/p29`'s persisted append is lost.
#[test]
fn patch_chain_recovers_at_every_event_prefix() {
    let r = sweep_patch_chain(RecrashSweep::FinalImage);
    // 635 while the journal scan read one block per command; the 24
    // cuts that went were read commands' PMR writes.
    assert_eq!(r.recovery_recrashes, 611, "crash surface moved");
}

/// Every image of the patch surface re-crashed at every event of its
/// recovery: a block rebuilt from patches over the device's own copy
/// must converge however often replay is cut (about 25 minutes).
#[test]
fn deep_patch_chain_recrashes_every_image() {
    if !deep() {
        return; // Bounded tier: run with CCNVME_ENUM_DEEP=1.
    }
    let r = sweep_patch_chain(RecrashSweep::EveryImage);
    assert!(r.recovery_recrashes > r.states * 100);
}
