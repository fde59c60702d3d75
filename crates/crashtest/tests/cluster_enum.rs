//! Cluster crash-surface enumeration: every consistent global cut,
//! every down-subset recovery schedule, all-or-nothing and exactly-once
//! asserted throughout (ISSUE 9 acceptance sweep).

use ccnvme_crashtest::cluster::Step;
use ccnvme_crashtest::{sweep, ClusterSurface, Cuts, RecrashSweep, SweepPlan, SweepReport};

fn assert_clean(report: &SweepReport) {
    assert_eq!(
        report.clean,
        report.states,
        "{} of {} states failed: {:?}",
        report.states - report.clean,
        report.states,
        report.failures
    );
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(
        report.sanitizer_violations, 0,
        "persist-order sanitizer tripped: {:?}",
        report.failures
    );
    // The sweep must actually cut through prepared-but-undecided
    // windows, and between two participants' steps, or it proved
    // nothing about resolution.
    assert!(
        report.count("resolved_in_doubt") > 0,
        "no in-doubt work resolved"
    );
    assert!(
        report.count("split_in_doubt") > 0,
        "no state held a gtx in doubt on only some participants"
    );
}

/// The counts a sweep is pinned by.
fn counts(report: &SweepReport) -> (usize, usize, usize, usize, usize) {
    (
        report.events,
        report.cuts,
        report.states,
        report.count("resolved_in_doubt"),
        report.count("split_in_doubt"),
    )
}

/// Smoke tier: two shards plus the coordinator, sampled cuts, every
/// down-subset at each. Fast enough for the debug workspace test run.
#[test]
fn cluster_smoke_sweep_is_all_or_nothing() {
    let plan = SweepPlan {
        cuts: Cuts::EveryNthInstant(9),
        ..SweepPlan::every()
    };
    let report = sweep(ClusterSurface::scripted(2, 3), &plan);
    assert!(report.events > 0);
    assert!(report.cuts >= 8, "only {} cuts sampled", report.cuts);
    // Exact: the run is deterministic, so a moved count means the
    // script's persistence traffic (or the cut placement) changed. A
    // local transaction of two members is 7 events (two SQE writes
    // into the PMR, the doorbell, two media writes, the completion
    // head, the flight recorder's burst), of one member 5; a
    // coordinator verdict is 1, its sealed line in the PMR (the flush
    // that follows it is no event). The script's prepares and decides
    // are two-member transactions, its one-shard commit a one-member
    // one, and it records two verdicts (the commit's and the abort's
    // presumed abort): 64 events, 72 while each verdict was a
    // one-member transaction. The commit's prepares fan out but reach
    // the two shards one capsule apart, and the abort's go one round
    // trip apart (`prepare_on`): the sampled cuts resolve 56 in-doubt
    // intents, and in 8 of the 72 states one participant held a gtx in
    // doubt and the other did not. Every 9th instant of the 64 still
    // samples 9 cuts.
    assert_eq!(counts(&report), (64, 9, 72, 56, 8), "crash surface moved");
    assert_clean(&report);
}

/// The fourth scripted transaction races the client's commit verdict
/// against a second client's resolve inquiry for its gtx, each served
/// on its own host core. Both must answer the one decision the
/// coordinator records, and the cuts that land inside the race must
/// recover all-or-nothing like any other.
#[test]
fn cluster_verdict_racing_resolve_sweep_is_all_or_nothing() {
    let plan = SweepPlan {
        cuts: Cuts::EveryNthInstant(1),
        ..SweepPlan::every()
    };
    let report = sweep(ClusterSurface::scripted(2, 4), &plan);
    // Every event has an instant of its own, so each is a cut. The
    // script records three verdicts (commit, abort, race: the racing
    // resolve finds the verdict's line claimed and answers from it),
    // each one sealed PMR line where a one-member transaction took 5
    // events: 105 → 93 events. The 12 cuts that went all fell inside a
    // verdict, between its step's prepares and decides, with both
    // participants in doubt, so each resolved 2 intents in all 8 down
    // subsets and split none: 880 → 688 resolved, 144 of the 752
    // states split a gtx across its participants, as before.
    assert_eq!(
        counts(&report),
        (93, 94, 752, 688, 144),
        "crash surface moved"
    );
    assert_clean(&report);
}

/// Shard 1 is partitioned away from the client before anything runs.
/// The two-shard commit then fails to prepare there and must answer
/// abort (`Ok(false)`), so it may never surface, though shard 0 held
/// its intent; the commit to shard 1 alone fails outright; the commit
/// to shard 0 alone succeeds. Every cut: 24 cuts × 8 down-subsets. In
/// 48 states shard 0 mounts the aborted gtx in doubt, and each of them
/// is split, since shard 1 never prepared it. A client that acks that
/// commit fails states with "acked commit lost".
#[test]
fn cluster_partitioned_sweep_is_all_or_nothing() {
    let surface = ClusterSurface {
        shards: 2,
        steps: vec![
            Step::Partition(1),
            Step::Commit(vec![0, 1]),
            Step::Commit(vec![1]),
            Step::Commit(vec![0]),
        ],
    };
    let report = sweep(surface, &SweepPlan::every());
    // The abort verdict is one sealed PMR line, where a one-member
    // transaction took 5 events: 27 → 23 events. The 4 cuts that went
    // each held shard 0's intent in doubt in all 8 down subsets: 80 →
    // 48 resolved and split.
    assert_eq!(
        counts(&report),
        (23, 24, 192, 48, 48),
        "crash surface moved"
    );
    assert_clean(&report);
}

/// Deep tier (`CCNVME_ENUM_DEEP=1`): three shards, the complete cut
/// surface, all 16 down-subsets per cut.
#[test]
fn deep_cluster_full_sweep_is_all_or_nothing() {
    if std::env::var("CCNVME_ENUM_DEEP").is_err() {
        eprintln!("skipping deep cluster sweep (set CCNVME_ENUM_DEEP=1)");
        return;
    }
    let plan = SweepPlan {
        cuts: Cuts::EveryNthInstant(1),
        ..SweepPlan::every()
    };
    let report = sweep(ClusterSurface::scripted(3, 4), &plan);
    assert_clean(&report);
}

/// Deep tier: the engine's re-crash sweep on several domains at once.
/// The recovery of the nothing-lost image set is cut at every event
/// prefix of its three merged logs (~900 cuts), and every cut must
/// settle to the same media on every domain.
#[test]
fn deep_cluster_recovery_recrashed_at_each_of_its_events_converges() {
    if std::env::var("CCNVME_ENUM_DEEP").is_err() {
        return;
    }
    let plan = SweepPlan {
        cuts: Cuts::EveryNthInstant(9),
        recrash: RecrashSweep::FinalImage,
        ..SweepPlan::every()
    };
    let report = sweep(ClusterSurface::scripted(2, 3), &plan);
    assert!(
        report.recovery_recrashes > 1,
        "recovery logged no events to cut at"
    );
    assert_clean(&report);
}
