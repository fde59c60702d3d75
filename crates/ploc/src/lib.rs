//! ccnvme-ploc — detectable persistent lock-free data structures on the
//! NVMe PMR.
//!
//! The paper's claim (§4.4) is that crash-consistent MMIO primitives are
//! a *substrate*: anything that can express its commit point as ordered
//! posted writes plus one flush can ride them. MQFS is the transaction
//! flavor of that claim; this crate is the shared-state flavor — a
//! Treiber stack, a Michael–Scott queue and a fixed-bucket hash map
//! living in a PMR sub-region, with **detectable, exactly-once**
//! operations in the sense of Sela & Petrank's durable queues: after
//! any crash, `recover(client)` answers the in-flight operation's
//! definitive result — never lost, never doubled.
//!
//! Layering:
//!
//! * [`region`] — the PMR sub-region (starting at
//!   `ccnvme::PmrLayout::app_region_off`),
//!   write-through shadow, persistent help watermarks;
//! * [`checkpoint`] — sealed per-client INTENT/RESULT mementos
//!   ([`Checkpoint`]);
//! * [`cas`] — [`DetectableCas`], the owner-evidence + help protocol;
//! * [`structures`] — the pool and the three structures;
//! * [`service`] — [`PlocService`]: format, mount (crash recovery),
//!   per-client exactly-once dispatch. Served remotely by the fabric
//!   target's `PLOC_OP` capsule (`crates/fabric`).
//!
//! Crash correctness is enforced by the exhaustive enumerator in
//! `crates/crashtest` (every persistence-event prefix of a mixed
//! workload recovers to exactly-once semantics) — see DESIGN.md §13.

pub mod cas;
pub mod checkpoint;
pub mod region;
pub mod service;
pub mod structures;

pub use cas::{owner_parse, owner_word, DetectableCas, OWNER_NONE};
pub use checkpoint::{Checkpoint, Memento, OpResult, PlocOp};
pub use region::{PlocGeometry, PlocRegion};
pub use service::{PlocConfig, PlocError, PlocService, RecoverVerdict};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ccnvme_obs::Obs;
    use ccnvme_sim::Sim;
    use ccnvme_ssd::{CrashMode, CtrlConfig, NvmeController, SsdProfile};

    use super::*;

    fn fresh_service() -> (Arc<PlocService>, Arc<NvmeController>) {
        let ctrl = Arc::new(NvmeController::new(CtrlConfig::new(
            SsdProfile::optane_905p(),
        )));
        let base = ccnvme::PmrLayout::new(1, 16).app_region_off();
        let svc = PlocService::format(
            ctrl.pmr(),
            base,
            PlocConfig {
                clients: 4,
                pool: 32,
                buckets: 4,
            },
            Obs::new(),
        );
        (svc, ctrl)
    }

    #[test]
    fn stack_queue_hash_basics() {
        Sim::run_main(2, || {
            let (svc, _ctrl) = fresh_service();
            assert_eq!(svc.op(0, 1, PlocOp::Push(10)), Ok(OpResult::Done));
            assert_eq!(svc.op(0, 2, PlocOp::Push(20)), Ok(OpResult::Done));
            assert_eq!(svc.op(1, 1, PlocOp::Pop), Ok(OpResult::Value(20)));
            assert_eq!(svc.stack_contents(), vec![10]);

            assert_eq!(svc.op(0, 3, PlocOp::Enqueue(1)), Ok(OpResult::Done));
            assert_eq!(svc.op(0, 4, PlocOp::Enqueue(2)), Ok(OpResult::Done));
            assert_eq!(svc.op(1, 2, PlocOp::Dequeue), Ok(OpResult::Value(1)));
            assert_eq!(svc.queue_contents(), vec![2]);
            assert_eq!(svc.op(1, 3, PlocOp::Dequeue), Ok(OpResult::Value(2)));
            assert_eq!(svc.op(1, 4, PlocOp::Dequeue), Ok(OpResult::Empty));

            assert_eq!(
                svc.op(2, 1, PlocOp::Insert { key: 7, val: 70 }),
                Ok(OpResult::Done)
            );
            assert_eq!(
                svc.op(2, 2, PlocOp::Insert { key: 7, val: 71 }),
                Ok(OpResult::Full),
                "unique keys: a second insert must not overwrite"
            );
            assert_eq!(
                svc.op(3, 1, PlocOp::Lookup { key: 7 }),
                Ok(OpResult::Value(70))
            );
            assert_eq!(
                svc.op(3, 2, PlocOp::Lookup { key: 8 }),
                Ok(OpResult::NotFound)
            );
            assert_eq!(svc.hash_contents(), vec![(7, 70)]);
        });
    }

    #[test]
    fn replay_cache_answers_repeats_and_rejects_gaps() {
        Sim::run_main(2, || {
            let (svc, _ctrl) = fresh_service();
            assert_eq!(svc.op(0, 1, PlocOp::Push(5)), Ok(OpResult::Done));
            // Same sequence again: replayed, not re-executed.
            assert_eq!(svc.op(0, 1, PlocOp::Push(5)), Ok(OpResult::Done));
            assert_eq!(svc.stack_contents(), vec![5]);
            assert!(matches!(
                svc.op(0, 3, PlocOp::Pop),
                Err(PlocError::BadSeq {
                    expected: 2,
                    got: 3,
                    ..
                })
            ));
            assert!(matches!(
                svc.op(9, 1, PlocOp::Pop),
                Err(PlocError::BadClient { .. })
            ));
        });
    }

    #[test]
    fn graceful_remount_preserves_contents_and_replay_floor() {
        let image = Sim::run_main(2, || {
            let (svc, ctrl) = fresh_service();
            for (i, v) in [3u64, 1, 4].iter().enumerate() {
                svc.op(0, i as u32 + 1, PlocOp::Push(*v)).expect("push");
            }
            svc.op(1, 1, PlocOp::Enqueue(9)).expect("enq");
            svc.op(2, 1, PlocOp::Insert { key: 1, val: 2 })
                .expect("ins");
            ctrl.crash_snapshot(CrashMode::SETTLED)
        });
        Sim::run_main(2, move || {
            let ctrl = Arc::new(NvmeController::from_image(
                CtrlConfig::new(SsdProfile::optane_905p()),
                &image,
            ));
            let base = ccnvme::PmrLayout::new(1, 16).app_region_off();
            let svc = PlocService::mount(ctrl.pmr(), base, Obs::new()).expect("mount");
            assert_eq!(svc.stack_contents(), vec![4, 1, 3]);
            assert_eq!(svc.queue_contents(), vec![9]);
            assert_eq!(svc.hash_contents(), vec![(1, 2)]);
            assert_eq!(
                svc.recover(0),
                Ok(RecoverVerdict::Completed {
                    seq: 3,
                    result: OpResult::Done
                })
            );
            // The replay floor survived: repeating the last op replays,
            // the next op executes.
            assert_eq!(svc.op(0, 3, PlocOp::Push(4)), Ok(OpResult::Done));
            assert_eq!(svc.op(0, 4, PlocOp::Pop), Ok(OpResult::Value(4)));
        });
    }

    /// A push that checked the top's claim links above the node a pop
    /// claims before the link lands, so a claimed node can sit below an
    /// unclaimed one. It is popped already, and once a mount and a live
    /// pop have unlinked it, its node is free again.
    #[test]
    fn a_claimed_node_below_the_top_is_popped_and_freed() {
        Sim::run_main(2, || {
            let (svc, ctrl) = fresh_service();
            assert_eq!(svc.op(0, 1, PlocOp::Push(1)), Ok(OpResult::Done));
            assert_eq!(svc.op(0, 2, PlocOp::Push(2)), Ok(OpResult::Done));
            // Client 1's pop claims the node of 1, now below 2's.
            let r = &svc.shared.r;
            let top = structures::ptr_idx(r.load(r.geo().stack_cell())).expect("top");
            let below = r.load(r.geo().node_off(top) + 16);
            let claim = r.geo().node_off(structures::ptr_idx(below).expect("below")) + 8;
            r.cas_word(claim, structures::ptr_tag(below), owner_word(1, 1))
                .expect("unclaimed");
            assert_eq!(svc.stack_contents(), vec![2]);

            let cc = CtrlConfig::new(SsdProfile::optane_905p());
            let ctrl = NvmeController::from_image(cc, &ctrl.crash_snapshot(CrashMode::SETTLED));
            let base = ccnvme::PmrLayout::new(1, 16).app_region_off();
            let svc = PlocService::mount(ctrl.pmr(), base, Obs::new()).expect("mount");
            assert_eq!(svc.stack_contents(), vec![2]);
            assert_eq!(svc.op(0, 3, PlocOp::Pop), Ok(OpResult::Value(2)));
            assert_eq!(svc.op(0, 4, PlocOp::Pop), Ok(OpResult::Empty));
            // Every node but the queue dummy.
            assert_eq!(svc.free_nodes(), 31);
        });
    }

    #[test]
    fn pool_exhaustion_answers_full_and_frees_recycle() {
        Sim::run_main(2, || {
            let ctrl = Arc::new(NvmeController::new(CtrlConfig::new(
                SsdProfile::optane_905p(),
            )));
            let base = ccnvme::PmrLayout::new(1, 16).app_region_off();
            let svc = PlocService::format(
                ctrl.pmr(),
                base,
                PlocConfig {
                    clients: 1,
                    pool: 3, // dummy + 2 usable
                    buckets: 2,
                },
                Obs::new(),
            );
            assert_eq!(svc.op(0, 1, PlocOp::Push(1)), Ok(OpResult::Done));
            assert_eq!(svc.op(0, 2, PlocOp::Push(2)), Ok(OpResult::Done));
            assert_eq!(svc.op(0, 3, PlocOp::Push(3)), Ok(OpResult::Full));
            // Pops recycle nodes back into the pool.
            assert_eq!(svc.op(0, 4, PlocOp::Pop), Ok(OpResult::Value(2)));
            assert_eq!(svc.op(0, 5, PlocOp::Push(9)), Ok(OpResult::Done));
            assert_eq!(svc.stack_contents(), vec![9, 1]);
        });
    }

    #[test]
    fn contended_clients_conserve_values() {
        Sim::run_main(6, || {
            let (svc, _ctrl) = fresh_service();
            let mut joins = Vec::new();
            for c in 0..4u16 {
                let svc = Arc::clone(&svc);
                joins.push(ccnvme_sim::spawn(
                    &format!("ploc-client-{c}"),
                    c as usize % 4,
                    move || {
                        let mut seq = 0;
                        let mut popped = Vec::new();
                        for i in 0..6u64 {
                            seq += 1;
                            svc.op(c, seq, PlocOp::Push(c as u64 * 100 + i))
                                .expect("push");
                            if i % 2 == 1 {
                                seq += 1;
                                match svc.op(c, seq, PlocOp::Pop).expect("pop") {
                                    OpResult::Value(v) => popped.push(v),
                                    OpResult::Empty => {}
                                    other => panic!("pop answered {other:?}"),
                                }
                            }
                        }
                        popped
                    },
                ));
            }
            let mut seen: Vec<u64> = Vec::new();
            for j in joins {
                seen.extend(j.join());
            }
            seen.extend(svc.stack_contents());
            seen.sort_unstable();
            let mut want: Vec<u64> = (0..4u64)
                .flat_map(|c| (0..6u64).map(move |i| c * 100 + i))
                .collect();
            want.sort_unstable();
            assert_eq!(seen, want, "pushes must be conserved across pops + stack");
        });
    }
}
