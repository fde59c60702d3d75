//! Multi-queue journaling (§5.2) with selective revocation (§5.4).
//!
//! Each core owns a journal area mapped to its ccNVMe hardware queue and
//! commits transactions *in the application's context*: the ordered data
//! blocks, the journaled metadata copies and the journal description
//! block go out as one ccNVMe transaction (`REQ_TX` members + a
//! `REQ_TX_COMMIT` JD). There is no commit record — ringing the P-SQDB
//! plays that role — and no FLUSH ordering points.
//!
//! Cross-core coordination happens through in-memory *version trees*
//! (the paper's per-core radix trees): every journaled block registers a
//! `(tx_id, area)` version keyed by its home LBA. Checkpointing one area
//! never suspends logging on the others; conflicts resolve by
//! transaction ID:
//!
//! * a checkpoint writes a block home only if it holds the globally
//!   newest version; superseded copies are skipped ("another journal
//!   area contains a newer block", §5.2);
//! * a per-LBA *floor* remembers the newest version already written
//!   home, so a slower area never overwrites newer data with a stale
//!   copy;
//! * journal ring space is released FIFO, and only once no *older* live
//!   version of any contained block remains in another area — this keeps
//!   the newest journal copy replayable for as long as any older copy
//!   is, which recovery's ID-ordered replay relies on;
//! * before any released space can be reused, the global *horizon*
//!   (replay floor) is persisted with FUA.
//!
//! Block reuse across queues follows §5.4: if the stale copy is mid-
//! checkpoint the writer must journal the new content (case 1,
//! [`ReuseAction::MustJournal`]); otherwise the copy is dropped from the
//! trees and a revoke record rides in the next JD (case 2). "Stale copy"
//! means every copy recovery could still replay, not just the live ones:
//! a released copy stays intact in its ring until overwritten and stays
//! at or above the horizon for as long as a slower area pins it, so it is
//! revoked too; a revoked copy is never written home; and the revoking
//! transaction keeps its ring space until no other area holds an older
//! transaction, so the record outlives every copy it revokes.

use std::{
    collections::{BTreeSet, HashMap, HashSet, VecDeque},
    sync::{
        atomic::{AtomicBool, AtomicU64, Ordering},
        Arc,
    },
};

use ccnvme_block::{Bio, BioBuf, BioFlags, BioStatus, BioWaiter};
use ccnvme_obs::{Counter, Histogram};
use ccnvme_runtime::RtMutex;

use crate::{
    area::{AreaRing, AreaSpec},
    format::{self, JdBlock, JdEntry},
    recover::{read_horizon, recover_areas, RecoverMode, RecoveredUpdate},
    CommitError, Dev, Durability, Journal, ReuseAction, TxDescriptor,
};

/// Number of version trees (the paper shards its radix trees similarly).
const NTREES: usize = 16;

/// Block-group granularity used to pick a tree in metadata-journaling
/// mode (§5.2: "hashing the block group ID of the journaled metadata").
const BLOCKS_PER_GROUP: u64 = 32_768;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VerState {
    /// Journaled, awaiting checkpoint ("log"/"logged" in Figure 6).
    Logged,
    /// Being written home right now ("chp" in Figure 6).
    Chp,
}

#[derive(Debug, Clone, Copy)]
struct Version {
    tx_id: u64,
    area: usize,
    state: VerState,
}

#[derive(Default)]
struct Chain {
    /// Live journal copies of this block, ascending `tx_id`.
    versions: Vec<Version>,
    /// Newest version already checkpointed home or revoked: no copy at
    /// or below it is ever written home.
    floor: u64,
}

type Tree = RtMutex<HashMap<u64, Chain>>;

struct LoggedTx {
    tx_id: u64,
    /// Ring blocks consumed (meta blocks + the JD).
    ring_blocks: u64,
    /// (home LBA, shadow copy) of every journaled block.
    blocks: Vec<(u64, BioBuf)>,
    /// The JD carries revoke records.
    revoking: bool,
    /// Completion tracker for the transaction's journal writes; a tx can
    /// only be checkpointed once its journal copies are on media.
    waiter: BioWaiter,
}

struct AreaSt {
    logged: VecDeque<LoggedTx>,
}

struct MqArea {
    ring: AreaRing,
    st: RtMutex<AreaSt>,
    /// Oldest live transaction ID in this area (u64::MAX when empty);
    /// feeds the global horizon computation without cross-area locks.
    oldest_live: AtomicU64,
}

struct MqInner {
    dev: Dev,
    areas: Vec<Arc<MqArea>>,
    trees: Vec<Tree>,
    next_tx: AtomicU64,
    horizon_lba: u64,
    /// Last horizon value persisted (avoid redundant FUA writes).
    horizon_written: AtomicU64,
    /// Set after an unrecoverable commit-path error; further commits are
    /// refused and errored transactions are never checkpointed.
    aborted: AtomicBool,
    /// Committed transactions (`journal.mq.commits`).
    commits: Arc<Counter>,
    /// Commit latency from `commit_tx` entry to return
    /// (`journal.mq.commit_ns`; the Atomic path excludes the durability
    /// wait by construction).
    commit_hist: Arc<Histogram>,
    /// Checkpoint passes run (`journal.mq.checkpoints`).
    checkpoints: Arc<Counter>,
    /// Duration of one checkpoint pass (`journal.mq.checkpoint_ns`).
    checkpoint_hist: Arc<Histogram>,
}

/// The multi-queue journal engine.
pub struct MqJournal {
    inner: Arc<MqInner>,
}

fn tree_index(final_lba: u64) -> usize {
    // SplitMix of the block-group id.
    let mut z = (final_lba / BLOCKS_PER_GROUP).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z >> 33) as usize % NTREES
}

impl MqJournal {
    /// Creates the engine over one journal area per core. `horizon_lba`
    /// holds the persistent replay floor.
    pub fn new(dev: Dev, areas: Vec<AreaSpec>, horizon_lba: u64) -> Self {
        assert!(!areas.is_empty(), "need at least one journal area");
        let obs = ccnvme_block::obs_of(dev.as_ref());
        let areas = areas
            .into_iter()
            .enumerate()
            .map(|(idx, spec)| {
                let _ = idx;
                Arc::new(MqArea {
                    ring: AreaRing::new(spec),
                    st: RtMutex::new(AreaSt {
                        logged: VecDeque::new(),
                    }),
                    oldest_live: AtomicU64::new(u64::MAX),
                })
            })
            .collect();
        MqJournal {
            inner: Arc::new(MqInner {
                dev,
                areas,
                trees: (0..NTREES).map(|_| RtMutex::new(HashMap::new())).collect(),
                next_tx: AtomicU64::new(1),
                horizon_lba,
                horizon_written: AtomicU64::new(0),
                aborted: AtomicBool::new(false),
                commits: obs.metrics.counter("journal.mq.commits"),
                commit_hist: obs.metrics.histogram("journal.mq.commit_ns"),
                checkpoints: obs.metrics.counter("journal.mq.checkpoints"),
                checkpoint_hist: obs.metrics.histogram("journal.mq.checkpoint_ns"),
            }),
        }
    }

    /// The journal areas (for recovery configuration).
    pub fn areas(&self) -> Vec<AreaSpec> {
        self.inner.areas.iter().map(|a| a.ring.spec()).collect()
    }

    fn area_for_current_core(&self) -> usize {
        ccnvme_runtime::current_core() % self.inner.areas.len()
    }

    /// Splits an oversized transaction into chained chunks sharing its
    /// transaction ID and commits them back to back. Revokes ride in the
    /// first chunk. Durability waits for every chunk at the end.
    fn commit_chunked(&self, tx: TxDescriptor, durability: Durability) -> Result<(), CommitError> {
        let TxDescriptor {
            tx_id,
            mut data,
            mut meta,
            revokes,
            unpin,
        } = tx;
        let mut unpin = Some(unpin);
        let mut first = true;
        while !data.is_empty() || !meta.is_empty() || (first && !revokes.is_empty()) {
            let mut chunk = TxDescriptor::new(tx_id);
            if first {
                chunk.revokes = revokes.clone();
                first = false;
            }
            while chunk.meta.len() < CHUNK_META
                && chunk.meta.len() + chunk.data.len() < CHUNK_TOTAL
                && !meta.is_empty()
            {
                chunk.meta.push(meta.pop().expect("non-empty"));
            }
            while chunk.meta.len() + chunk.data.len() < CHUNK_TOTAL && !data.is_empty() {
                chunk.data.push(data.pop().expect("non-empty"));
            }
            let last = data.is_empty() && meta.is_empty();
            let d = if last { durability } else { Durability::Atomic };
            let mut chunk = chunk;
            if last {
                chunk.unpin = unpin.take().unwrap_or_default();
            }
            if let Err(e) = self.commit_tx(chunk, d) {
                // Thaw anything a later chunk would have thawed.
                for f in unpin.take().unwrap_or_default() {
                    f();
                }
                return Err(e);
            }
        }
        if durability == Durability::Durable {
            // The final chunk's Durable wait covered only itself; wait
            // for the rest by quiescing this area's outstanding I/O.
            let area = &self.inner.areas[self.area_for_current_core()];
            let waiters: Vec<ccnvme_block::BioWaiter> = {
                let st = area.st.lock();
                st.logged
                    .iter()
                    .filter(|t| t.tx_id == tx_id)
                    .map(|t| t.waiter.clone_handle())
                    .collect()
            };
            for w in waiters {
                if w.wait().is_err() {
                    let status = w.first_error().unwrap_or(BioStatus::Error);
                    // ord: SeqCst — abort must publish before any later
                    // commit on another queue can report success.
                    self.inner.aborted.store(true, Ordering::SeqCst);
                    return Err(CommitError::Io(status));
                }
            }
        }
        Ok(())
    }

    /// Checkpoints `area_idx`: writes home the globally newest copies,
    /// releases the FIFO-safe prefix of the ring and advances the
    /// persistent horizon. Runs in the caller's context; other areas keep
    /// logging throughout (§5.2).
    fn checkpoint_area(&self, area_idx: usize) {
        let t0 = ccnvme_runtime::now();
        let inner = &self.inner;
        let area = &inner.areas[area_idx];
        let mut st = area.st.lock();
        // Phase 1: decide what to write home. Only transactions whose
        // journal writes completed are eligible (a running transaction is
        // never checkpointed).
        let mut to_write: Vec<(u64, u64, BioBuf)> = Vec::new(); // (lba, tx, buf)
        for tx in st.logged.iter() {
            if tx.waiter.outstanding() != 0 {
                break; // FIFO: later txs are at least as young.
            }
            if tx.waiter.first_error().is_some() {
                // This transaction's journal copies are unreliable (the
                // driver failed the whole ccNVMe transaction); never
                // write them home. The journal is aborted.
                // ord: SeqCst — abort publication (see commit_tx).
                inner.aborted.store(true, Ordering::SeqCst);
                continue;
            }
            for (lba, buf) in &tx.blocks {
                let mut tree = inner.trees[tree_index(*lba)].lock();
                let chain = match tree.get_mut(lba) {
                    Some(c) => c,
                    None => continue,
                };
                if chain.floor >= tx.tx_id {
                    continue; // Stale: a newer copy already went home.
                }
                let newest = chain.versions.iter().map(|v| v.tx_id).max().unwrap_or(0);
                if newest > tx.tx_id {
                    continue; // Another area holds a newer copy; skip.
                }
                // Globally newest: mark `chp` so concurrent block reuse
                // takes the MustJournal path (§5.4 case 1).
                for v in chain.versions.iter_mut() {
                    if v.tx_id == tx.tx_id && v.area == area_idx {
                        v.state = VerState::Chp;
                    }
                }
                to_write.push((*lba, tx.tx_id, Arc::clone(buf)));
            }
        }
        // Phase 2: write home + flush.
        if !to_write.is_empty() {
            let waiter = BioWaiter::new();
            for (lba, _tx, buf) in &to_write {
                let mut bio = Bio::write(*lba, Arc::clone(buf), BioFlags::NONE);
                waiter.attach(&mut bio);
                inner.dev.submit_bio(bio);
            }
            let _ = waiter.wait();
            if inner.dev.has_volatile_cache() {
                let fw = BioWaiter::new();
                let mut flush = Bio::flush();
                fw.attach(&mut flush);
                inner.dev.submit_bio(flush);
                let _ = fw.wait();
            }
            // Record the new floors.
            for (lba, tx_id, _buf) in &to_write {
                let mut tree = inner.trees[tree_index(*lba)].lock();
                if let Some(chain) = tree.get_mut(lba) {
                    chain.floor = chain.floor.max(*tx_id);
                }
            }
        }
        // Phase 3: release the safe FIFO prefix. A transaction's space
        // (and its tree versions) may go only when no OLDER live version
        // of any of its blocks remains elsewhere — that keeps the newest
        // replayable copy alive as long as any older one is.
        let mut released_blocks = 0u64;
        while let Some(front) = st.logged.front() {
            if front.waiter.outstanding() != 0 {
                break;
            }
            let tx_id = front.tx_id;
            // A revoke record suppresses copies from older transactions;
            // it may go only when no other area still holds one (they
            // are all below the horizon this release then persists).
            let mut safe =
                !(front.revoking && self.areas_older_than(area_idx, tx_id).next().is_some());
            'blocks: for (lba, _) in &front.blocks {
                let tree = inner.trees[tree_index(*lba)].lock();
                if let Some(chain) = tree.get(lba) {
                    for v in &chain.versions {
                        if v.tx_id < tx_id {
                            safe = false;
                            break 'blocks;
                        }
                    }
                }
            }
            if !safe {
                break;
            }
            let tx = st.logged.pop_front().expect("front checked");
            for (lba, _) in &tx.blocks {
                let mut tree = inner.trees[tree_index(*lba)].lock();
                if let Some(chain) = tree.get_mut(lba) {
                    chain
                        .versions
                        .retain(|v| !(v.tx_id == tx.tx_id && v.area == area_idx));
                    if chain.versions.is_empty() && chain.floor == 0 {
                        tree.remove(lba);
                    }
                }
            }
            released_blocks += tx.ring_blocks;
        }
        // ord: SeqCst — per-area replay floor; the horizon writer below
        // min()s across areas and must see checkpointed entries leave.
        area.oldest_live.store(
            st.logged.front().map_or(u64::MAX, |t| t.tx_id),
            Ordering::SeqCst,
        );
        if released_blocks > 0 {
            // Phase 4: persist the horizon before the freed space can be
            // overwritten by future commits.
            let h = inner
                .areas
                .iter()
                // ord: SeqCst — pairs with the oldest_live stores above;
                // the horizon must not pass a still-live transaction.
                .map(|a| a.oldest_live.load(Ordering::SeqCst))
                .min()
                .unwrap_or(u64::MAX);
            // ord: SeqCst — clamp to the allocation frontier so an
            // all-idle journal never publishes a horizon above next_tx.
            let h = h.min(inner.next_tx.load(Ordering::SeqCst));
            // ord: SeqCst — monotone horizon; racing checkpointers must
            // agree on who writes the higher floor.
            if h > inner.horizon_written.load(Ordering::SeqCst) {
                let hw = BioWaiter::new();
                let hbuf: BioBuf = Arc::new(parking_lot::Mutex::new(format::encode_horizon(h)));
                let mut hbio = Bio::write(
                    inner.horizon_lba,
                    hbuf,
                    BioFlags {
                        preflush: false,
                        fua: true,
                        tx: false,
                        tx_commit: false,
                    },
                );
                hw.attach(&mut hbio);
                inner.dev.submit_bio(hbio);
                let _ = hw.wait();
                // ord: SeqCst — only advances after the horizon block is
                // durable; fetch_max keeps racing checkpointers monotone.
                inner.horizon_written.fetch_max(h, Ordering::SeqCst);
            }
            area.ring.release(released_blocks);
        }
        drop(st);
        inner.checkpoints.inc();
        inner.checkpoint_hist.record(ccnvme_runtime::now() - t0);
    }

    /// The areas other than `area_idx` whose oldest live transaction is
    /// older than `tx_id`.
    fn areas_older_than(&self, area_idx: usize, tx_id: u64) -> impl Iterator<Item = usize> + '_ {
        let areas = self.inner.areas.iter().enumerate();
        areas
            // ord: SeqCst — pairs with the oldest_live stores.
            .filter(move |(i, a)| *i != area_idx && a.oldest_live.load(Ordering::SeqCst) < tx_id)
            .map(|(i, _)| i)
    }

    /// Finds which areas hold versions older than the front of
    /// `area_idx`'s log (the areas blocking its release), in ascending
    /// index: the caller checkpoints — takes the `st` lock of — each in
    /// turn, and lock hand-off order decides persist order, so a hash
    /// set's per-process iteration order here made runs irreproducible.
    fn blocking_areas(&self, area_idx: usize) -> Vec<usize> {
        let inner = &self.inner;
        let area = &inner.areas[area_idx];
        let st = area.st.lock();
        let mut blockers = BTreeSet::new();
        if let Some(front) = st.logged.front() {
            if front.revoking {
                blockers.extend(self.areas_older_than(area_idx, front.tx_id));
            }
            for (lba, _) in &front.blocks {
                let tree = inner.trees[tree_index(*lba)].lock();
                if let Some(chain) = tree.get(lba) {
                    for v in &chain.versions {
                        if v.tx_id < front.tx_id && v.area != area_idx {
                            blockers.insert(v.area);
                        }
                    }
                }
            }
        }
        blockers.into_iter().collect()
    }
}

/// Maximum journaled blocks per sub-transaction chunk. Transactions
/// larger than this are split into chained chunks sharing one ID — the
/// same strategy JBD2 uses for compounds larger than one descriptor, and
/// also what keeps a transaction smaller than the hardware queue (a
/// ccNVMe transaction cannot exceed the ring: its members may only
/// complete after the commit request).
const CHUNK_META: usize = 64;

/// Maximum total blocks (data + meta) per chunk.
const CHUNK_TOTAL: usize = 96;

impl Journal for MqJournal {
    fn commit_tx(&self, mut tx: TxDescriptor, durability: Durability) -> Result<(), CommitError> {
        // ord: SeqCst — pairs with abort stores; a commit must never
        // succeed after the journal declared itself dead.
        if self.inner.aborted.load(Ordering::SeqCst) {
            tx.run_unpin();
            return Err(CommitError::Aborted);
        }
        if tx.is_empty() {
            return Ok(());
        }
        if tx.meta.len() > CHUNK_META || tx.data.len() + tx.meta.len() > CHUNK_TOTAL {
            return self.commit_chunked(tx, durability);
        }
        let t0 = ccnvme_runtime::now();
        let inner = &self.inner;
        let area_idx = self.area_for_current_core();
        let area = &inner.areas[area_idx];
        let need = tx.meta.len() as u64 + 1;
        assert!(
            need <= area.ring.spec().len,
            "transaction larger than the whole journal area"
        );
        // Reserve journal space, checkpointing our own area as needed —
        // and, if release is blocked by older copies in other areas,
        // checkpointing those too (rare cross-queue conflict).
        let mut attempts = 0u32;
        let lbas = loop {
            if let Some(l) = area.ring.alloc(need) {
                break l;
            }
            attempts += 1;
            self.checkpoint_area(area_idx);
            if area.ring.free() >= need {
                continue;
            }
            for b in self.blocking_areas(area_idx) {
                self.checkpoint_area(b);
            }
            self.checkpoint_area(area_idx);
            if area.ring.free() >= need {
                continue;
            }
            if attempts >= 2 {
                // Release-gating chains can span several areas (A's
                // front blocked by B, B's by C, ...). Checkpointing
                // everything resolves any chain: release order follows
                // transaction IDs, which are acyclic.
                self.checkpoint_all();
                if area.ring.free() >= need {
                    continue;
                }
            }
            // Still full: the front transaction's journal I/O has not
            // completed yet (e.g. a large fatomic burst). Wait for it so
            // the next checkpoint can release its space, and let the
            // virtual clock advance so this loop cannot spin in real
            // time while other threads make progress.
            let front_waiter = {
                let st = area.st.lock();
                st.logged.front().map(|t| t.waiter.clone_handle())
            };
            if let Some(w) = front_waiter {
                let _ = w.wait();
            }
            ccnvme_runtime::delay(1_000);
        };
        let (jd_lba, block_lbas) = lbas.split_last().expect("need >= 1");
        // Register versions before any I/O so concurrent checkpoints and
        // reuse checks see the transaction.
        for blk in &tx.meta {
            let mut tree = inner.trees[tree_index(blk.final_lba)].lock();
            let chain = tree.entry(blk.final_lba).or_default();
            chain.versions.push(Version {
                tx_id: tx.tx_id,
                area: area_idx,
                state: VerState::Logged,
            });
        }
        // Submit everything as one ccNVMe transaction: data to home
        // locations, metadata copies to the journal, the JD as the
        // commit request. In the application's context — no handoff.
        let waiter = BioWaiter::new();
        for blk in &tx.data {
            let mut bio =
                Bio::write(blk.final_lba, Arc::clone(&blk.buf), BioFlags::TX).with_tx_id(tx.tx_id);
            waiter.attach(&mut bio);
            inner.dev.submit_bio(bio);
        }
        let mut entries = Vec::with_capacity(tx.meta.len());
        for (i, blk) in tx.meta.iter().enumerate() {
            let sum = format::block_checksum(&blk.buf.lock());
            entries.push(JdEntry {
                final_lba: blk.final_lba,
                journal_lba: block_lbas[i],
                checksum: sum,
            });
            let mut bio =
                Bio::write(block_lbas[i], Arc::clone(&blk.buf), BioFlags::TX).with_tx_id(tx.tx_id);
            waiter.attach(&mut bio);
            inner.dev.submit_bio(bio);
        }
        let jd = JdBlock {
            tx_id: tx.tx_id,
            entries,
            revokes: tx.revokes.clone(),
        };
        let jd_buf: BioBuf = Arc::new(parking_lot::Mutex::new(jd.encode()));
        let mut jd_bio = Bio::write(*jd_lba, jd_buf, BioFlags::TX_COMMIT).with_tx_id(tx.tx_id);
        waiter.attach(&mut jd_bio);
        // Log the transaction before the commit goes out so a same-core
        // checkpoint triggered later sees it (it skips until I/O done).
        {
            let mut st = area.st.lock();
            st.logged.push_back(LoggedTx {
                tx_id: tx.tx_id,
                ring_blocks: need,
                blocks: tx
                    .meta
                    .iter()
                    .map(|b| (b.final_lba, Arc::clone(&b.buf)))
                    .collect(),
                revoking: !tx.revokes.is_empty(),
                waiter: waiter.clone_handle(),
            });
            if st.logged.len() == 1 {
                // ord: SeqCst — first live entry resets the area's
                // replay floor; checkpoint horizon math reads it.
                area.oldest_live.store(tx.tx_id, Ordering::SeqCst);
            }
        }
        inner.dev.submit_bio(jd_bio);
        // Atomicity is reached the moment submit_bio returned for the
        // commit (the two MMIOs of §4). Durability waits for completion.
        let failed = if durability == Durability::Durable {
            waiter.wait().is_err()
        } else {
            // fatomic: errors normally surface asynchronously (at the
            // next checkpoint), but pick up anything already known.
            waiter.first_error().is_some()
        };
        // Without shadow paging the frozen pages thaw only now — after
        // the journal writes (the +MQJournal ablation's remaining cost).
        tx.run_unpin();
        if failed {
            // The driver failed the whole ccNVMe transaction (one member
            // hit an unrecoverable error). Its journal copies are dead;
            // abort the journal.
            let status = waiter.first_error().unwrap_or(BioStatus::Error);
            // ord: SeqCst — abort publication (journal copies are dead).
            inner.aborted.store(true, Ordering::SeqCst);
            return Err(CommitError::Io(status));
        }
        inner.commits.inc();
        inner.commit_hist.record(ccnvme_runtime::now() - t0);
        Ok(())
    }

    fn is_aborted(&self) -> bool {
        // ord: SeqCst — pairs with abort stores.
        self.inner.aborted.load(Ordering::SeqCst)
    }

    fn note_block_reuse(&self, lba: u64) -> ReuseAction {
        let mut tree = self.inner.trees[tree_index(lba)].lock();
        let Some(chain) = tree.get_mut(&lba) else {
            return ReuseAction::None;
        };
        if chain.versions.iter().any(|v| v.state == VerState::Chp) {
            // §5.4 case 1: mid-checkpoint — the caller must journal the
            // new content (regress to data journaling for this block).
            return ReuseAction::MustJournal;
        }
        let newest = chain
            .versions
            .iter()
            .map(|v| v.tx_id)
            .fold(chain.floor, u64::max);
        // ord: SeqCst — pairs with the horizon_written updates.
        if newest == 0 || newest < self.inner.horizon_written.load(Ordering::SeqCst) {
            // Every copy ever journaled is below the persisted horizon:
            // recovery skips them without help.
            return ReuseAction::None;
        }
        // §5.4 case 2: some copy may still be replayed — a live one, or
        // a released one whose JD is intact and at or above a horizon
        // that a slower area pins. Drop the live copies from the trees,
        // raise the floor so no checkpoint writes them home over the new
        // content, and have the caller ride a revoke record in its next
        // transaction.
        chain.versions.clear();
        chain.floor = newest;
        ReuseAction::Revoked
    }

    fn checkpoint_all(&self) {
        // Two rounds: the first may leave FIFO-blocked suffixes whose
        // blockers get checkpointed in the second.
        for _ in 0..2 {
            for i in 0..self.inner.areas.len() {
                self.checkpoint_area(i);
            }
        }
    }

    fn alloc_tx_id(&self) -> u64 {
        // ord: SeqCst — tx IDs are the global commit order (§5.1).
        self.inner.next_tx.fetch_add(1, Ordering::SeqCst)
    }

    fn set_tx_floor(&self, floor: u64) {
        // ord: SeqCst — recovery floor must be ordered against
        // concurrent ID allocation.
        self.inner.next_tx.fetch_max(floor + 1, Ordering::SeqCst);
    }

    fn recover(&self, discard: &HashSet<u64>) -> Vec<RecoveredUpdate> {
        let min_tx = read_horizon(&self.inner.dev, self.inner.horizon_lba);
        let specs: Vec<AreaSpec> = self.areas();
        recover_areas(
            &self.inner.dev,
            &specs,
            RecoverMode::ChecksumOnly,
            min_tx,
            discard,
        )
    }

    fn persist_replay_floor(&self, floor: u64) {
        let inner = &self.inner;
        // ord: SeqCst — monotone horizon; never regress a floor a
        // checkpointer already persisted.
        if floor <= inner.horizon_written.load(Ordering::SeqCst) {
            return;
        }
        let hw = BioWaiter::new();
        let hbuf: BioBuf = Arc::new(parking_lot::Mutex::new(format::encode_horizon(floor)));
        let mut hbio = Bio::write(
            inner.horizon_lba,
            hbuf,
            BioFlags {
                preflush: false,
                fua: true,
                tx: false,
                tx_commit: false,
            },
        );
        hw.attach(&mut hbio);
        inner.dev.submit_bio(hbio);
        if hw.wait().is_ok() {
            // ord: SeqCst — only advances after the horizon block is
            // durable; fetch_max keeps racing writers monotone.
            inner.horizon_written.fetch_max(floor, Ordering::SeqCst);
        }
    }

    fn shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_index_is_stable_and_bounded() {
        for lba in [
            0u64,
            1,
            BLOCKS_PER_GROUP,
            BLOCKS_PER_GROUP * 7 + 3,
            u64::MAX / 2,
        ] {
            let t = tree_index(lba);
            assert!(t < NTREES);
            assert_eq!(t, tree_index(lba));
        }
    }

    #[test]
    fn same_group_same_tree() {
        assert_eq!(tree_index(5), tree_index(6));
        assert_eq!(tree_index(0), tree_index(BLOCKS_PER_GROUP - 1));
    }

    /// The committer checkpoints its blockers in the order this returns,
    /// so the order must not depend on a hasher's per-process seed.
    #[test]
    fn blocking_areas_come_in_ascending_index() {
        use ccnvme::CcNvmeDriver;
        use ccnvme_sim::{spawn, Sim};
        use ccnvme_ssd::{CtrlConfig, NvmeController, SsdProfile};

        use crate::TxBlock;

        const AREAS: usize = 5;
        for _ in 0..16 {
            let order = Sim::run_main(AREAS + 1, || {
                let mut cfg = CtrlConfig::new(SsdProfile::optane_905p());
                cfg.device_core = AREAS;
                let ctrl = NvmeController::new(cfg);
                let dev: Dev = Arc::new(CcNvmeDriver::new(ctrl, AREAS as u16, 64));
                let areas = AreaSpec::split(1_000, 64 * AREAS as u64, AREAS);
                let journal = Arc::new(MqJournal::new(dev, areas, 999));
                let commit = |j: &MqJournal, lbas: &[u64]| {
                    let mut tx = TxDescriptor::new(j.alloc_tx_id());
                    tx.meta.extend(lbas.iter().map(|&final_lba| TxBlock {
                        final_lba,
                        buf: Arc::new(parking_lot::Mutex::new(vec![0u8; 4096])),
                    }));
                    j.commit_tx(tx, Durability::Durable).expect("commit");
                };
                // Areas 4, 3, 2, 1 each log one older copy of a block...
                for core in (1..AREAS).rev() {
                    let j = Arc::clone(&journal);
                    spawn("w", core, move || commit(&j, &[10 + core as u64])).join();
                }
                // ...that area 0's front transaction then overwrites.
                commit(&journal, &[11, 12, 13, 14]);
                journal.blocking_areas(0)
            });
            assert_eq!(order, vec![1, 2, 3, 4]);
        }
    }
}
