//! Property: ploc mount (crash recovery) is idempotent and convergent,
//! and every crash state of a random workload holds exactly-once.
//!
//! Each case draws a random multi-client script — unique values and
//! keys, so a doubled effect and a lost one are both visible — and
//! sweeps the ploc crash surface over it: a cut at every n-th instant of
//! the recorded run (a random stride, so up to 19 operations stay within
//! the time budget), plus a random depth of torn posted-write tails (what
//! a power cut leaves in flight), is mounted and held to the surface's
//! exactly-once oracle. Every explored image's recovery is then
//! re-crashed at each of its own persistence events, the last cut
//! being the finished mount itself: each re-mount must land on the same
//! per-client verdicts and the same region bytes as the uninterrupted
//! mount (a mount performs only byte-identical writes on
//! an already-recovered image).

use ccnvme_repro::crashtest::{sweep, Cuts, PlocSurface, RecrashSweep, SweepPlan};
use ccnvme_repro::ploc::{PlocConfig, PlocOp};
use proptest::prelude::*;

const CLIENTS: u16 = 2;

/// One random operation: (client selector, kind selector, payload).
type OpSpec = (u8, u8, u8);

/// Spreads the specs over the clients; operation `i`'s value and key
/// carry `i`, so both are unique across the script.
fn script(specs: &[OpSpec]) -> Vec<Vec<PlocOp>> {
    let mut script = vec![Vec::new(); CLIENTS as usize];
    for (i, &(c, kind, v)) in specs.iter().enumerate() {
        let val = v as u64 + i as u64 * 256;
        let op = match kind % 6 {
            0 => PlocOp::Push(val),
            1 => PlocOp::Enqueue(val),
            2 => PlocOp::Insert {
                key: i as u32,
                val: v as u32,
            },
            3 => PlocOp::Pop,
            4 => PlocOp::Dequeue,
            _ => PlocOp::Lookup { key: v as u32 },
        };
        script[(c as u16 % CLIENTS) as usize].push(op);
    }
    script
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 32,
    })]

    #[test]
    fn mount_is_idempotent_over_adversarial_crashes(
        torn_depth in 0usize..=1,
        stride in 3usize..10,
        specs in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 4..20),
    ) {
        let surface = PlocSurface {
            ploc: PlocConfig {
                clients: CLIENTS,
                pool: 16,
                buckets: 4,
            },
            script: script(&specs),
            fabric: false,
        };
        let plan = SweepPlan {
            cuts: Cuts::EveryNthInstant(stride),
            torn_depth,
            recrash: RecrashSweep::EveryImage,
        };
        let r = sweep(surface, &plan);
        prop_assert!(r.recovery_recrashes > r.states, "recovery logged no events");
        prop_assert!(
            r.clean == r.states && r.failures.is_empty(),
            "{} of {} states failed: {:?}",
            r.states - r.clean,
            r.states,
            r.failures
        );
    }
}
