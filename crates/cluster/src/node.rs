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
//! the resolve step ([`resolve_in_doubt_local`]). A resolve inquiry is a
//! coordinator verdict that proposes abort: the recorded decision wins,
//! and with none the presumed abort is recorded before the answer.
//!
//! A transaction with this node as its only participant skips the
//! machine: `TX_COMMIT` writes its blocks home as one local transaction
//! (`commit_one`), so no slot is ever PREPARED for it.
//!
//! The protocol tables sit under one lock that no media write holds
//! (§4 separates atomicity from durability, so a step's outcome can be
//! claimed in memory before its write and published after it). A step
//! locks, checks and *claims* what it will write — an intent preparing
//! or deciding, a decision recording, the gtx high-water mark
//! reserving — then runs its local transaction unlocked, then re-locks
//! to publish the outcome or roll the claim back. A second step on the
//! same gtx waits for that claim to settle, never for the node.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme_block::{commit_tx, read_block, read_run, BLOCK_SIZE};
use ccnvme_fabric::capsule::admits;
use ccnvme_fabric::{ClusterBackend, ShardWrite, Status};
use ccnvme_obs::{Counter, Gauge, Obs};
use ccnvme_runtime::{RtCondvar, RtMutex, RtMutexGuard};

use crate::layout::{
    decode_decision, decode_gtx_hwm, decode_intent, encode_decision, encode_gtx_hwm, encode_intent,
    ShardLayout, DECISION_ABORT, DECISION_COMMIT,
};

/// Global tx ids the coordinator durably reserves per high-water-mark
/// write. A larger batch amortizes the reservation transaction; every
/// id below the durable mark is burned by a crash, which only costs
/// address space.
const GTX_RESERVE_BATCH: u64 = 1024;

/// Global tx ids one `AllocTx` leases to a client. It divides
/// `GTX_RESERVE_BATCH`, so one reservation serves whole leases.
pub const GTX_LEASE: u64 = 64;

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
    /// Gtx leases served (`AllocTx` answers).
    pub gtx_leases: Arc<Counter>,
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
            gtx_leases: reg.counter("cluster.gtx_leases"),
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

/// One gtx's entry in a protocol table.
enum Entry<T> {
    /// A step claimed the gtx and its local transaction is in flight.
    Claimed,
    /// On media.
    Durable(T),
}

/// Whether a step holds a claim on `gtx` in `table`.
fn claimed<T>(table: &HashMap<u64, Entry<T>>, gtx: u64) -> bool {
    matches!(table.get(&gtx), Some(Entry::Claimed))
}

/// A node's protocol state.
struct NodeSt {
    intents: HashMap<u64, Entry<PreparedTx>>,
    free_slots: Vec<u64>,
    /// Coordinator decisions (`true` = commit).
    decisions: HashMap<u64, Entry<bool>>,
    /// Next free decision-record slot.
    decision_cursor: u64,
    next_gtx: u64,
    /// In-memory mirror of the durable gtx high-water mark: ids are
    /// only ever handed out below it, so a remounted coordinator —
    /// which reseeds `next_gtx` *from* the mark — can never re-issue a
    /// gtx that an earlier incarnation gave to a client, even one that
    /// only left traces on remote shards.
    gtx_hwm: u64,
    /// A step is durably raising the mark.
    reserving: bool,
}

/// One cluster node (participant and/or coordinator) over a ccNVMe
/// device window described by a [`ShardLayout`].
pub struct ClusterNode {
    drv: Arc<CcNvmeDriver>,
    layout: ShardLayout,
    obs: Arc<Obs>,
    st: RtMutex<NodeSt>,
    /// Notified, with `st` held, by every step that settles a claim;
    /// the woken steps re-check once that step unlocks.
    settled: RtCondvar,
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
        // One run over the protocol window, decoded in place: intent
        // slots (header, then staged data), decision records, the mark.
        // A block is needed when it is a header, a record, the mark or a
        // live intent's staged data; a failed read of one is a panic.
        let start = layout.slot_header(0);
        let decisions_at = start + layout.intent_slots * ShardLayout::slot_blocks();
        let hwm_lba = layout.gtx_hwm_lba();
        let mut decisions = HashMap::new();
        let mut max_gtx = 0u64;
        let mut cursor = 0u64;
        let mut free_slots = Vec::new();
        // Each live slot's gtx and intent, its staged data filled in as
        // the run reaches it.
        let mut live: Vec<(u64, PreparedTx)> = Vec::new();
        let mut hwm = 0;
        read_run(&*drv, start, hwm_lba + 1 - start, |lba, block| {
            let block =
                || block.unwrap_or_else(|st| panic!("mount scan read failed at lba {lba}: {st:?}"));
            if lba == hwm_lba {
                hwm = decode_gtx_hwm(block()).unwrap_or(0);
            } else if lba >= decisions_at {
                // Every slot: records may land out of cursor order, and
                // a failed one leaves a hole.
                if let Some((gtx, commit)) = decode_decision(block()) {
                    decisions.insert(gtx, Entry::Durable(commit));
                    max_gtx = max_gtx.max(gtx);
                    cursor = lba - decisions_at + 1;
                }
            } else {
                let at = lba - start;
                let (slot, j) = (
                    at / ShardLayout::slot_blocks(),
                    at % ShardLayout::slot_blocks(),
                );
                if j == 0 {
                    match decode_intent(block()) {
                        Some((gtx, lbas)) => {
                            let writes = lbas.into_iter().map(|to| (to, Vec::new())).collect();
                            live.push((gtx, PreparedTx { slot, writes }));
                            max_gtx = max_gtx.max(gtx);
                        }
                        None => free_slots.push(slot),
                    }
                } else if let Some((_, tx)) = live.last_mut().filter(|(_, tx)| tx.slot == slot) {
                    if let Some((_, data)) = tx.writes.get_mut(j as usize - 1) {
                        *data = block().to_vec();
                    }
                }
            }
        });
        let intents: HashMap<u64, Entry<PreparedTx>> = live
            .into_iter()
            .map(|(gtx, tx)| (gtx, Entry::Durable(tx)))
            .collect();
        let mut in_doubt: Vec<u64> = intents.keys().copied().collect();
        in_doubt.sort_unstable();
        stats.in_doubt.set(in_doubt.len() as i64);
        // Any id this node's earlier incarnations handed out is below
        // the durable high-water mark (the reservation transaction
        // completes before the ids are served), so seeding at the mark
        // makes allocation crash-unique — including for gtxs whose only
        // traces live on remote shards. The scan maximum is a
        // defensive floor for pre-mark media.
        let node = Arc::new(ClusterNode {
            drv,
            layout,
            obs,
            st: RtMutex::new(NodeSt {
                intents,
                free_slots,
                decisions,
                decision_cursor: cursor,
                next_gtx: (max_gtx + 1).max(hwm),
                gtx_hwm: hwm,
                reserving: false,
            }),
            settled: RtCondvar::new(),
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
    /// mutates this node's in-memory protocol tables and is acked to
    /// the client, so an injected media/timeout failure must surface in
    /// the returned status, never after the state has diverged from the
    /// media.
    fn local_tx(&self, writes: Vec<(u64, Vec<u8>)>) -> Status {
        commit_tx(&*self.drv, self.drv.alloc_tx_id(), writes)
            .map_or_else(Status::from, |()| Status::Ok)
    }

    /// Locks the protocol state once `claimed` no longer holds.
    fn lock_settled(&self, claimed: impl Fn(&NodeSt) -> bool) -> RtMutexGuard<'_, NodeSt> {
        let mut st = self.st.lock();
        while claimed(&st) {
            st = self.settled.wait(st);
        }
        st
    }
}

impl ClusterBackend for ClusterNode {
    fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    fn alloc_gtx(&self) -> (Status, Range<u64>) {
        let mut st = self.lock_settled(|st| st.reserving);
        let lease = st.next_gtx..st.next_gtx + GTX_LEASE;
        if lease.end > st.gtx_hwm {
            // The reserved range cannot cover the lease: durably raise
            // the mark before serving any of it, so a crash+remount
            // (which seeds from the mark) can never re-issue an id this
            // incarnation handed out — even one whose only traces are
            // prepared intents on remote shards.
            let hwm = st.next_gtx + GTX_RESERVE_BATCH;
            st.reserving = true;
            drop(st);
            let status = self.local_tx(vec![(self.layout.gtx_hwm_lba(), encode_gtx_hwm(hwm))]);
            st = self.st.lock();
            st.reserving = false;
            self.settled.notify_all();
            if !status.is_ok() {
                return (status, 0..0);
            }
            st.gtx_hwm = hwm;
        }
        st.next_gtx = lease.end;
        self.stats.gtx_leases.inc();
        (Status::Ok, lease)
    }

    /// The get-or-set of `gtx`'s coordinator decision: a recorded one
    /// wins over the proposal; with none, the proposal is made durable
    /// before it is answered. A resolve inquiry proposes abort, so once
    /// it has been told "abort", no later verdict retry can record
    /// "commit".
    fn verdict(&self, gtx: u64, commit: bool) -> (Status, u64) {
        let word = |commit| {
            if commit {
                DECISION_COMMIT
            } else {
                DECISION_ABORT
            }
        };
        let mut st = self.lock_settled(|st| claimed(&st.decisions, gtx));
        if let Some(Entry::Durable(recorded)) = st.decisions.get(&gtx) {
            return (Status::Ok, word(*recorded));
        }
        let idx = st.decision_cursor;
        if idx >= self.layout.decision_slots {
            return (Status::TxOverflow, 0);
        }
        st.decision_cursor += 1;
        st.decisions.insert(gtx, Entry::Claimed);
        drop(st);
        let status = self.local_tx(vec![(
            self.layout.decision_lba(idx),
            encode_decision(gtx, commit),
        )]);
        let mut st = self.st.lock();
        self.settled.notify_all();
        if !status.is_ok() {
            st.decisions.remove(&gtx);
            return (status, 0);
        }
        st.decisions.insert(gtx, Entry::Durable(commit));
        self.stats.decisions.inc();
        (status, word(commit))
    }

    fn prepare(&self, gtx: u64, writes: &[ShardWrite]) -> Status {
        if !admits(writes, self.layout.data_blocks) {
            return Status::Protocol;
        }
        let mut st = self.lock_settled(|st| claimed(&st.intents, gtx));
        if st.intents.contains_key(&gtx) {
            // Re-prepare of a known gtx (client restart): already
            // staged, the ack it missed is simply repeated.
            return Status::Ok;
        }
        let Some(slot) = st.free_slots.pop() else {
            return Status::TxOverflow;
        };
        st.intents.insert(gtx, Entry::Claimed);
        drop(st);
        let writes: Vec<(u64, Vec<u8>)> = writes.iter().map(|w| (w.lba, w.data.clone())).collect();
        let mut intent: Vec<(u64, Vec<u8>)> = writes
            .iter()
            .enumerate()
            .map(|(j, (_, data))| (self.layout.slot_data(slot, j as u64), data.clone()))
            .collect();
        let lbas: Vec<u64> = writes.iter().map(|(lba, _)| *lba).collect();
        intent.push((self.layout.slot_header(slot), encode_intent(gtx, &lbas)));
        let status = self.local_tx(intent);
        let mut st = self.st.lock();
        self.settled.notify_all();
        if status.is_ok() {
            st.intents
                .insert(gtx, Entry::Durable(PreparedTx { slot, writes }));
            self.stats.prepares.inc();
            self.stats.in_doubt.inc();
        } else {
            st.intents.remove(&gtx);
            st.free_slots.push(slot);
        }
        status
    }

    fn decide(&self, gtx: u64, commit: bool) -> Status {
        let mut st = self.lock_settled(|st| claimed(&st.intents, gtx));
        let Some(Entry::Durable(tx)) = st.intents.remove(&gtx) else {
            // Already applied/aborted, or never prepared here: the
            // idempotent no-op that makes redecide-after-recovery safe.
            return Status::Ok;
        };
        st.intents.insert(gtx, Entry::Claimed);
        drop(st);
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
        let status = self.local_tx(apply);
        let mut st = self.st.lock();
        self.settled.notify_all();
        if !status.is_ok() {
            st.intents.insert(gtx, Entry::Durable(tx));
            return status;
        }
        st.intents.remove(&gtx);
        st.free_slots.push(tx.slot);
        self.stats.in_doubt.dec();
        if commit {
            self.stats.applies.inc();
        } else {
            self.stats.aborts.inc();
        }
        status
    }

    /// One local transaction straight to the home LBAs, with no claim:
    /// it touches none of the protocol tables. Data blocks were never
    /// isolated: a decide, too, copies staged blocks home regardless of
    /// later writers.
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

    fn read_block(&self, lba: u64) -> Result<Vec<u8>, Status> {
        if lba >= self.layout.data_blocks {
            return Err(Status::Protocol);
        }
        read_block(&*self.drv, self.layout.base + lba).map_err(Status::from)
    }
}

/// Resolves a participant's in-doubt transactions against a coordinator
/// node reachable by direct call (same process — the crash enumerator's
/// recovery wave): each asks with a verdict that proposes abort. Returns
/// how many were resolved to commit.
pub fn resolve_in_doubt_local(
    participant: &ClusterNode,
    coordinator: &ClusterNode,
    in_doubt: &[u64],
) -> usize {
    let mut commits = 0;
    for &gtx in in_doubt {
        let (st, word) = coordinator.verdict(gtx, false);
        assert!(
            st.is_ok(),
            "coordinator inquiry for gtx {gtx} failed: {st:?}"
        );
        let commit = word == DECISION_COMMIT;
        let st = participant.decide(gtx, commit);
        assert!(st.is_ok(), "participant decide({gtx}) failed: {st:?}");
        commits += commit as usize;
    }
    commits
}
