//! One cluster node: the 2PC participant/coordinator engine over the
//! node's own ccNVMe device.
//!
//! Every mutating step is one ordinary local ccNVMe transaction, so the
//! node inherits the §4 crash contract wholesale: a step either never
//! happened or is completely replayed by the node's own recovery — the
//! crash-surface enumerator then only has to reason about *which steps*
//! survived on each domain, never about torn steps.
//!
//! State machine of a prepared transaction on a participant:
//!
//! ```text
//!            TX_PREPARE (intent tx)          TX_DECIDE commit (apply tx)
//!   FREE ───────────────────────▶ PREPARED ─────────────────────▶ FREE
//!                                   │                (writes + header
//!                                   │                 clear, atomic)
//!                                   │ TX_DECIDE abort (clear tx)
//!                                   ▼
//!                                  FREE
//! ```
//!
//! `mount` rebuilds the PREPARED set by scanning intent headers after
//! the device's journal replay, and reports it as the in-doubt list for
//! the resolve step ([`resolve_in_doubt_local`] /
//! [`resolve_in_doubt_remote`]).
//!
//! A transaction with this node as its only participant skips the
//! machine: `TX_COMMIT` writes its blocks home as one local transaction
//! (`commit_one`), so no slot is ever PREPARED for it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme_block::{commit_tx, read_block, BLOCK_SIZE};
use ccnvme_fabric::capsule::admits;
use ccnvme_fabric::{ClusterBackend, FabricClient, FabricError, ShardWrite, Status};
use ccnvme_obs::{Counter, Gauge, Obs};
use ccnvme_runtime::RtMutex;
use parking_lot::Mutex;

use crate::layout::{
    decode_decision, decode_gtx_hwm, decode_intent, encode_decision, encode_gtx_hwm, encode_intent,
    ShardLayout, DECISION_ABORT, DECISION_COMMIT,
};

/// Global tx ids the coordinator durably reserves per high-water-mark
/// write. A larger batch amortizes the reservation transaction; every
/// id below the durable mark is burned by a crash, which only costs
/// address space.
const GTX_RESERVE_BATCH: u64 = 1024;

/// `cluster.*` counters and gauges of one node, registered into the
/// node stack's metrics registry.
#[derive(Debug)]
pub struct NodeStats {
    /// Intents durably staged (phase 1 commit points).
    pub prepares: Arc<Counter>,
    /// Transactions applied: decide-commits and one-phase commits.
    pub applies: Arc<Counter>,
    /// Prepared transactions discarded (decide-abort).
    pub aborts: Arc<Counter>,
    /// Coordinator decision records written.
    pub decisions: Arc<Counter>,
    /// Resolves answered by writing a presumed-abort record.
    pub presumed_aborts: Arc<Counter>,
    /// Currently prepared-but-undecided transactions.
    pub in_doubt: Arc<Gauge>,
}

impl NodeStats {
    fn registered(obs: &Obs) -> NodeStats {
        let reg = &obs.metrics;
        NodeStats {
            prepares: reg.counter("cluster.prepares"),
            applies: reg.counter("cluster.applies"),
            aborts: reg.counter("cluster.aborts"),
            decisions: reg.counter("cluster.decisions"),
            presumed_aborts: reg.counter("cluster.presumed_aborts"),
            in_doubt: reg.gauge("cluster.in_doubt"),
        }
    }
}

/// One staged-but-undecided transaction.
struct PreparedTx {
    slot: u64,
    /// `(window-relative lba, data of at most a block)` in staged order.
    writes: Vec<(u64, Vec<u8>)>,
}

/// One cluster node (participant and/or coordinator) over a ccNVMe
/// device window described by a [`ShardLayout`].
pub struct ClusterNode {
    drv: Arc<CcNvmeDriver>,
    layout: ShardLayout,
    obs: Arc<Obs>,
    /// Serializes mutating 2PC steps. Each step spans a map check plus
    /// a device transaction, and the get-or-set contract of the
    /// decision region only holds if check and write are one critical
    /// section.
    exec: RtMutex<()>,
    prepared: Mutex<HashMap<u64, PreparedTx>>,
    free_slots: Mutex<Vec<u64>>,
    decisions: Mutex<HashMap<u64, bool>>,
    /// Next free decision-record slot — the coordinator decision word's
    /// durable cursor.
    decision_seq: AtomicU64,
    next_gtx: AtomicU64,
    /// In-memory mirror of the durable gtx high-water mark: ids are
    /// only ever handed out below it, so a remounted coordinator —
    /// which reseeds `next_gtx` *from* the mark — can never re-issue a
    /// gtx that an earlier incarnation gave to a client, even one that
    /// only left traces on remote shards.
    gtx_hwm: AtomicU64,
    stats: NodeStats,
}

impl ClusterNode {
    /// Mounts a node on `drv`'s window `layout`, scanning the intent
    /// and decision regions and the gtx high-water mark left by the
    /// device's journal replay — a pure read, so re-mounting a settled
    /// image is byte-idempotent. Returns the node and the in-doubt gtx
    /// list (prepared intents with no local decision) for the caller
    /// to resolve against the coordinator.
    ///
    /// Must be called from a simulated thread, after
    /// [`CcNvmeDriver::probe`] has run recovery.
    pub fn mount(drv: Arc<CcNvmeDriver>, layout: ShardLayout) -> (Arc<ClusterNode>, Vec<u64>) {
        let obs = ccnvme_block::obs_of(&*drv);
        let stats = NodeStats::registered(&obs);
        let read = |lba| {
            read_block(&*drv, lba)
                .unwrap_or_else(|st| panic!("mount scan read failed at lba {lba}: {st:?}"))
        };
        let mut decisions = HashMap::new();
        let mut max_gtx = 0u64;
        let mut cursor = 0u64;
        for i in 0..layout.decision_slots {
            if let Some((gtx, commit)) = decode_decision(&read(layout.decision_lba(i))) {
                decisions.insert(gtx, commit);
                max_gtx = max_gtx.max(gtx);
                cursor = i + 1;
            }
        }
        let mut prepared = HashMap::new();
        let mut free_slots = Vec::new();
        for slot in 0..layout.intent_slots {
            match decode_intent(&read(layout.slot_header(slot))) {
                Some((gtx, lbas)) => {
                    let writes = lbas
                        .iter()
                        .enumerate()
                        .map(|(j, &lba)| (lba, read(layout.slot_data(slot, j as u64))))
                        .collect();
                    prepared.insert(gtx, PreparedTx { slot, writes });
                    max_gtx = max_gtx.max(gtx);
                }
                None => free_slots.push(slot),
            }
        }
        let mut in_doubt: Vec<u64> = prepared.keys().copied().collect();
        in_doubt.sort_unstable();
        stats.in_doubt.set(in_doubt.len() as i64);
        // Any id this node's earlier incarnations handed out is below
        // the durable high-water mark (the reservation transaction
        // completes before the ids are served), so seeding at the mark
        // makes allocation crash-unique — including for gtxs whose only
        // traces live on remote shards. The scan maximum is a
        // defensive floor for pre-mark media.
        let hwm = decode_gtx_hwm(&read(layout.gtx_hwm_lba())).unwrap_or(0);
        let node = Arc::new(ClusterNode {
            drv,
            layout,
            obs,
            exec: RtMutex::new(()),
            prepared: Mutex::new(prepared),
            free_slots: Mutex::new(free_slots),
            decisions: Mutex::new(decisions),
            decision_seq: AtomicU64::new(cursor),
            next_gtx: AtomicU64::new((max_gtx + 1).max(hwm)),
            gtx_hwm: AtomicU64::new(hwm),
            stats,
        });
        (node, in_doubt)
    }

    /// The node's window geometry.
    pub fn layout(&self) -> ShardLayout {
        self.layout
    }

    /// The node's `cluster.*` stats.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The node's driver (for harnesses that crash the device under
    /// the node).
    pub fn driver(&self) -> Arc<CcNvmeDriver> {
        Arc::clone(&self.drv)
    }

    /// Submits `writes` as one local ccNVMe transaction (the last write
    /// commits it) and waits for every bio to complete. Crash-atomicity
    /// already holds at the atomicity point (the two persistent MMIOs
    /// of §4.3); the wait is for *error* visibility — a 2PC step's `Ok`
    /// mutates this node's in-memory protocol maps and is acked to the
    /// client, so an injected media/timeout failure must surface in the
    /// returned status, never after the state has diverged from the
    /// media.
    fn local_tx(&self, writes: Vec<(u64, Vec<u8>)>) -> Status {
        commit_tx(&*self.drv, self.drv.alloc_tx_id(), writes)
            .map_or_else(Status::from, |()| Status::Ok)
    }

    fn record_decision(&self, gtx: u64, commit: bool) -> Status {
        // ord: SeqCst — the decision cursor is the coordinator decision
        // word's allocator; it must never be observed behind the map
        // insert that a concurrent get-or-set check relies on.
        let idx = self.decision_seq.fetch_add(1, Ordering::SeqCst);
        if idx >= self.layout.decision_slots {
            return Status::TxOverflow;
        }
        let st = self.local_tx(vec![(
            self.layout.decision_lba(idx),
            encode_decision(gtx, commit),
        )]);
        if st.is_ok() {
            self.decisions.lock().insert(gtx, commit);
            self.stats.decisions.inc();
        }
        st
    }
}

impl ClusterBackend for ClusterNode {
    fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    fn alloc_gtx(&self) -> (Status, u64) {
        loop {
            // ord: SeqCst — gtx ids must be unique across handler
            // cores; a stale next_gtx/hwm read would hand a collision.
            let cur = self.next_gtx.load(Ordering::SeqCst);
            // ord: SeqCst — pairs with the hwm store after reservation.
            if cur < self.gtx_hwm.load(Ordering::SeqCst) {
                if self
                    .next_gtx
                    // ord: SeqCst — the CAS is the uniqueness point.
                    .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    return (Status::Ok, cur);
                }
                continue;
            }
            // The reserved range is spent: durably raise the mark
            // before serving past it, so a crash+remount (which seeds
            // from the mark) can never re-issue an id this incarnation
            // handed out — even one whose only traces are prepared
            // intents on remote shards.
            let _exec = self.exec.lock();
            // ord: SeqCst — re-check under the exec lock; another core
            // may have reserved while we queued.
            if self.next_gtx.load(Ordering::SeqCst) < self.gtx_hwm.load(Ordering::SeqCst) {
                continue;
            }
            // ord: SeqCst — the reservation base must see every CAS
            // that won before we took the lock.
            let new_hwm = self.next_gtx.load(Ordering::SeqCst) + GTX_RESERVE_BATCH;
            let st = self.local_tx(vec![(self.layout.gtx_hwm_lba(), encode_gtx_hwm(new_hwm))]);
            if !st.is_ok() {
                return (st, 0);
            }
            // ord: SeqCst — publish the raised mark only after it is
            // durable; allocator readers race this store.
            self.gtx_hwm.store(new_hwm, Ordering::SeqCst);
        }
    }

    fn prepare(&self, gtx: u64, writes: &[ShardWrite]) -> Status {
        if !admits(writes, self.layout.data_blocks) {
            return Status::Protocol;
        }
        let _exec = self.exec.lock();
        if self.prepared.lock().contains_key(&gtx) {
            // Re-prepare of a known gtx (client restart): already
            // staged, the ack it missed is simply repeated.
            return Status::Ok;
        }
        let Some(slot) = self.free_slots.lock().pop() else {
            return Status::TxOverflow;
        };
        let staged: Vec<(u64, Vec<u8>)> = writes.iter().map(|w| (w.lba, w.data.clone())).collect();
        let mut intent: Vec<(u64, Vec<u8>)> = staged
            .iter()
            .enumerate()
            .map(|(j, (_, data))| (self.layout.slot_data(slot, j as u64), data.clone()))
            .collect();
        let lbas: Vec<u64> = staged.iter().map(|(lba, _)| *lba).collect();
        intent.push((self.layout.slot_header(slot), encode_intent(gtx, &lbas)));
        let st = self.local_tx(intent);
        if st.is_ok() {
            self.prepared.lock().insert(
                gtx,
                PreparedTx {
                    slot,
                    writes: staged,
                },
            );
            self.stats.prepares.inc();
            self.stats.in_doubt.inc();
        } else {
            self.free_slots.lock().push(slot);
        }
        st
    }

    fn decide(&self, gtx: u64, commit: bool) -> Status {
        let _exec = self.exec.lock();
        let Some(tx) = self.prepared.lock().remove(&gtx) else {
            // Already applied/aborted, or never prepared here: the
            // idempotent no-op that makes redecide-after-recovery safe.
            return Status::Ok;
        };
        // Apply + free in one transaction: the staged writes land on
        // their final LBAs and the intent header clears atomically, so
        // "visible" and "no longer in-doubt" cannot come apart in a
        // crash. A read issued after this decide must observe the data.
        // An abort only clears the header.
        let mut apply: Vec<(u64, Vec<u8>)> = if commit {
            tx.writes
                .iter()
                .map(|(lba, data)| (self.layout.base + lba, data.clone()))
                .collect()
        } else {
            Vec::new()
        };
        apply.push((
            self.layout.slot_header(tx.slot),
            vec![0u8; BLOCK_SIZE as usize],
        ));
        let st = self.local_tx(apply);
        if st.is_ok() {
            self.free_slots.lock().push(tx.slot);
            self.stats.in_doubt.dec();
            if commit {
                self.stats.applies.inc();
            } else {
                self.stats.aborts.inc();
            }
        } else {
            self.prepared.lock().insert(gtx, tx);
        }
        st
    }

    /// One local transaction straight to the home LBAs. `exec` is not
    /// taken: it guards the get-or-set of the protocol maps, and this
    /// touches none of them. Data blocks were never isolated: a decide,
    /// too, copies staged blocks home regardless of later writers.
    fn commit_one(&self, _gtx: u64, writes: &[ShardWrite]) -> Status {
        if !admits(writes, self.layout.data_blocks) {
            return Status::Protocol;
        }
        let st = self.local_tx(
            writes
                .iter()
                .map(|w| (self.layout.base + w.lba, w.data.clone()))
                .collect(),
        );
        if st.is_ok() {
            self.stats.applies.inc();
        }
        st
    }

    fn verdict(&self, gtx: u64, commit: bool) -> (Status, u64) {
        let _exec = self.exec.lock();
        if let Some(&recorded) = self.decisions.lock().get(&gtx) {
            // Get-or-set: the durable decision wins over the request.
            let word = if recorded {
                DECISION_COMMIT
            } else {
                DECISION_ABORT
            };
            return (Status::Ok, word);
        }
        let st = self.record_decision(gtx, commit);
        if st.is_ok() {
            (
                st,
                if commit {
                    DECISION_COMMIT
                } else {
                    DECISION_ABORT
                },
            )
        } else {
            (st, 0)
        }
    }

    fn resolve(&self, gtx: u64) -> (Status, u64) {
        let _exec = self.exec.lock();
        if let Some(&recorded) = self.decisions.lock().get(&gtx) {
            let word = if recorded {
                DECISION_COMMIT
            } else {
                DECISION_ABORT
            };
            return (Status::Ok, word);
        }
        // Presumed abort, made stable before answering: once an inquiry
        // has been told "abort", no later verdict retry can record
        // "commit" — the get-or-set in `verdict` will find this record.
        let st = self.record_decision(gtx, false);
        if st.is_ok() {
            self.stats.presumed_aborts.inc();
            (st, DECISION_ABORT)
        } else {
            (st, 0)
        }
    }

    fn read_block(&self, lba: u64) -> Result<Vec<u8>, Status> {
        if lba >= self.layout.data_blocks {
            return Err(Status::Protocol);
        }
        read_block(&*self.drv, self.layout.base + lba).map_err(Status::from)
    }
}

/// Resolves a participant's in-doubt transactions against a coordinator
/// node reachable by direct call (same process — the crash enumerator's
/// recovery wave). Returns how many were resolved to commit.
pub fn resolve_in_doubt_local(
    participant: &ClusterNode,
    coordinator: &ClusterNode,
    in_doubt: &[u64],
) -> usize {
    let mut commits = 0;
    for &gtx in in_doubt {
        let (st, word) = coordinator.resolve(gtx);
        assert!(st.is_ok(), "coordinator resolve({gtx}) failed: {st:?}");
        let commit = word == DECISION_COMMIT;
        let st = participant.decide(gtx, commit);
        assert!(st.is_ok(), "participant decide({gtx}) failed: {st:?}");
        commits += commit as usize;
    }
    commits
}

/// Resolves a participant's in-doubt transactions against a remote
/// coordinator over an established fabric session. Returns how many
/// resolved to commit; fails (leaving the rest in doubt, to be retried)
/// if the coordinator is unreachable.
pub fn resolve_in_doubt_remote(
    participant: &ClusterNode,
    coordinator: &mut FabricClient,
    in_doubt: &[u64],
) -> Result<usize, FabricError> {
    let mut commits = 0;
    for &gtx in in_doubt {
        let commit = coordinator.tx_resolve(gtx)?;
        let st = participant.decide(gtx, commit);
        if !st.is_ok() {
            return Err(FabricError::Remote(st));
        }
        commits += commit as usize;
    }
    Ok(commits)
}
