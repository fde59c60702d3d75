//! Property: a single injected command failure inside a `REQ_TX` group
//! leaves either ALL of the transaction's blocks visible after remount,
//! or NONE of them — never a torn subset — at every crash cut.
//!
//! Each case is one seeded schedule of the fault campaign: one
//! unrecoverable fault (media write error, torn DMA or stall; the kind
//! and the seed, which places the window inside the script's
//! transaction traffic, come from proptest) armed on a script that
//! commits one multi-block file per transaction. The sweep cuts the run
//! at every n-th instant through the end state and boots every cut on
//! healthy hardware: an fsynced file is byte-exact, any other absent,
//! empty or untorn; the run itself degrades to read-only; the
//! persist-order sanitizer stays silent.

use ccnvme_repro::crashtest::{run_fault_campaign, FaultCampaignConfig, StackConfig};
use ccnvme_repro::fault::FaultKind;
use ccnvme_repro::ssd::SsdProfile;
use mqfs::FsVariant;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
    #[test]
    fn single_member_failure_is_all_or_none(kind_idx in 0usize..3, seed in any::<u64>()) {
        let kind = [FaultKind::MediaWrite, FaultKind::TornDma, FaultKind::Stall][kind_idx];
        let mut stack = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 2);
        stack.journal_blocks = 512;
        stack.queue_depth = 64;
        let cfg = FaultCampaignConfig { stack, schedules: 1, seed };
        let r = run_fault_campaign(&[kind], &cfg).remove(0);
        prop_assert!(r.failures.is_empty(), "{:?} seed {}: {:?}", kind, seed, r.failures);
        prop_assert_eq!(r.sanitizer_violations, 0);
        prop_assert_eq!(r.count("fired"), r.count("degraded"));
    }
}
