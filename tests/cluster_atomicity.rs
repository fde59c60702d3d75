//! Property: random multi-shard transactions driven through the
//! cluster client, with one random domain (a shard or the coordinator)
//! partitioned away at a random step, recover all-or-nothing at every
//! sampled crash cut — the cluster crash surface's oracle under the
//! sweep engine, fed a seeded script.
//!
//! Each case scripts a handful of commits with random participant sets
//! against a 2-shard + coordinator cluster served over loopback fabric.
//! After the partition the client's commits start aborting, parking in
//! doubt, or failing outright. The sweep cuts the run at every n-th
//! instant (a random stride), boots every cut under every down-subset
//! recovery schedule and checks, per `ClusterSurface`: a transaction is
//! visible on ALL of its participants or NONE; a commit acked before
//! the cut is fully visible; an abort ack (or a transaction that never
//! got a gtx) is never visible; recovery order does not change the
//! media; re-recovering the settled cluster finds nothing in doubt and
//! changes nothing; and the persist-order sanitizer stays silent.

use ccnvme_repro::crashtest::cluster::Step;
use ccnvme_repro::crashtest::{sweep, ClusterSurface, Cuts, SweepPlan};
use proptest::prelude::*;

/// Participant shards; the coordinator makes it three domains.
const SHARDS: usize = 2;

/// One commit per participant mask, with the partition of `target`
/// before step `at` (none when `at` is past the end).
fn script(masks: &[u8], at: usize, target: usize) -> Vec<Step> {
    let mut steps: Vec<Step> = masks
        .iter()
        .map(|&m| Step::Commit((0..SHARDS).filter(|s| m >> s & 1 == 1).collect()))
        .collect();
    if at <= steps.len() {
        steps.insert(at, Step::Partition(target));
    }
    steps
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]
    #[test]
    fn random_cluster_schedules_stay_atomic(
        masks in proptest::collection::vec(1u8..4, 2..6),
        part_at in 0usize..6,
        part_target in 0usize..=SHARDS,
        stride in 12usize..32,
    ) {
        let surface = ClusterSurface {
            shards: SHARDS,
            steps: script(&masks, part_at, part_target),
        };
        let plan = SweepPlan {
            cuts: Cuts::EveryNthInstant(stride),
            ..SweepPlan::every()
        };
        let r = sweep(surface, &plan);
        prop_assert!(
            r.clean == r.states && r.failures.is_empty(),
            "{} of {} states failed: {:?}",
            r.states - r.clean,
            r.states,
            r.failures
        );
        prop_assert_eq!(r.sanitizer_violations, 0);
    }
}
