//! Classic journaling (JBD2-style) and its Horae variant.
//!
//! A single journal area and a single dedicated commit thread
//! ("kjournald"): application threads hand their transactions over and
//! sleep; the commit thread merges everything queued into one compound
//! transaction (group commit) and runs the protocol of §3:
//!
//! 1. write the journal description block and the journaled blocks, wait;
//! 2. FLUSH (ordering point);
//! 3. write the commit record with FUA, wait.
//!
//! The Horae variant (HoraeFS, OSDI '20 \[27\]) removes the ordering points: the
//! descriptor, journaled blocks and commit record are all submitted
//! together and awaited once. Both variants keep the commit record and
//! the dedicated-thread context switches — the costs that MQFS/ccNVMe
//! eliminate.

use std::{
    collections::{HashMap, HashSet},
    sync::{
        atomic::{AtomicBool, AtomicU64, Ordering},
        Arc,
    },
};

use ccnvme_block::{flush_cache, write_blocks, Bio, BioFlags, BioStatus, BioWaiter, BlockBuf};
use ccnvme_obs::{seal::crc32c, Counter, Histogram};
use ccnvme_runtime::{Ns, RtCondvar, RtMutex};

use crate::{
    area::{AreaRing, AreaSpec},
    format::{self, JdBlock, JdEntry, CHUNK_BLOCKS, CHUNK_REVOKES},
    recover::{recover_areas, write_horizon, RecoverMode, RecoveredUpdate},
    CommitError, Dev, Durability, Journal, ReuseAction, TxDescriptor,
};

/// How the commit thread seals a compound transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitStyle {
    /// JBD2: journal blocks, wait, FLUSH, commit record with FUA, wait.
    Classic,
    /// HoraeFS: everything submitted together, commit record FUA, one
    /// wait, trailing durability flush on volatile-cache devices.
    Horae,
    /// Figure 13's "+ccNVMe" ablation: keep the single-area, dedicated-
    /// thread structure but commit through a ccNVMe transaction — the
    /// journal blocks are `REQ_TX` members and the JD is the
    /// `REQ_TX_COMMIT`; no commit record, no FLUSH bios.
    CcTx,
}

/// Context-switch cost between the application and the commit thread.
const CTX_SWITCH: Ns = 1_300;

/// CPU cost of preparing one compound commit (list management, tags).
const COMMIT_PREP_CPU: Ns = 1_500;

struct TicketSt {
    done: bool,
    err: Option<BioStatus>,
}

struct Ticket {
    st: RtMutex<TicketSt>,
    cv: RtCondvar,
}

struct PendingTx {
    tx: TxDescriptor,
    ticket: Arc<Ticket>,
}

struct CommitQ {
    queue: Vec<PendingTx>,
    shutdown: bool,
}

/// A journaled block awaiting checkpoint.
struct CheckpointEntry {
    buf: BlockBuf,
}

struct ClassicInner {
    dev: Dev,
    ring: AreaRing,
    style: CommitStyle,
    /// Block holding the persistent replay floor (journal superblock).
    horizon_lba: u64,
    /// Highest committed compound transaction ID.
    max_committed: AtomicU64,
    next_tx: AtomicU64,
    q: RtMutex<CommitQ>,
    q_cv: RtCondvar,
    /// Journaled-but-not-checkpointed blocks, keyed by home LBA.
    /// A `RtMutex` because checkpointing holds it across device waits.
    pending: RtMutex<HashMap<u64, CheckpointEntry>>,
    /// Home LBAs whose stale journal copies must be revoked in the next
    /// compound commit.
    revokes: RtMutex<Vec<u64>>,
    /// Set after an unrecoverable commit- or checkpoint-path error;
    /// further commits are refused.
    aborted: AtomicBool,
    /// Compound commits written (`journal.classic.commits`).
    commits: Arc<Counter>,
    /// Duration of one compound commit (`journal.classic.commit_ns`).
    commit_hist: Arc<Histogram>,
    /// Checkpoint passes run (`journal.classic.checkpoints`).
    checkpoints: Arc<Counter>,
    /// Duration of one checkpoint pass (`journal.classic.checkpoint_ns`).
    checkpoint_hist: Arc<Histogram>,
}

/// The classic (JBD2-style) journal engine; `horae: true` removes the
/// ordering points.
pub struct ClassicJournal {
    inner: Arc<ClassicInner>,
}

impl ClassicJournal {
    /// Creates the engine over one journal area and starts the commit
    /// thread pinned to `thread_core`. `horizon_lba` is the journal
    /// superblock location holding the persistent replay floor.
    pub fn new(
        dev: Dev,
        area: AreaSpec,
        horizon_lba: u64,
        style: CommitStyle,
        thread_core: usize,
    ) -> Self {
        let obs = ccnvme_block::obs_of(dev.as_ref());
        let inner = Arc::new(ClassicInner {
            dev,
            ring: AreaRing::new(area),
            style,
            horizon_lba,
            max_committed: AtomicU64::new(0),
            next_tx: AtomicU64::new(1),
            q: RtMutex::new(CommitQ {
                queue: Vec::new(),
                shutdown: false,
            }),
            q_cv: RtCondvar::new(),
            pending: RtMutex::new(HashMap::new()),
            revokes: RtMutex::new(Vec::new()),
            aborted: AtomicBool::new(false),
            commits: obs.metrics.counter("journal.classic.commits"),
            commit_hist: obs.metrics.histogram("journal.classic.commit_ns"),
            checkpoints: obs.metrics.counter("journal.classic.checkpoints"),
            checkpoint_hist: obs.metrics.histogram("journal.classic.checkpoint_ns"),
        });
        let worker = Arc::clone(&inner);
        let name = match style {
            CommitStyle::Classic => "kjournald",
            CommitStyle::Horae => "horae-journald",
            CommitStyle::CcTx => "cc-journald",
        };
        ccnvme_runtime::spawn_daemon(name, thread_core, move || commit_thread(worker));
        ClassicJournal { inner }
    }

    /// The journal area (for recovery configuration).
    pub fn area(&self) -> AreaSpec {
        self.inner.ring.spec()
    }
}

fn commit_thread(inner: Arc<ClassicInner>) {
    loop {
        let batch: Vec<PendingTx> = {
            let mut q = inner.q.lock();
            loop {
                if q.shutdown {
                    return;
                }
                if !q.queue.is_empty() {
                    break std::mem::take(&mut q.queue);
                }
                q = inner.q_cv.wait(q);
            }
        };
        // Waking up and assembling the compound costs CPU (the overhead
        // §3 attributes to the separate journaling thread).
        ccnvme_runtime::cpu(CTX_SWITCH + COMMIT_PREP_CPU);
        let mut batch = batch;
        let t0 = ccnvme_runtime::now();
        let res = commit_compound(&inner, &mut batch);
        inner.commits.inc();
        inner.commit_hist.record(ccnvme_runtime::now() - t0);
        if res.is_err() {
            // ord: SeqCst — the abort flag must publish before any
            // later commit on another thread can report success.
            inner.aborted.store(true, Ordering::SeqCst);
        }
        // Safety net: thaw anything the compound path did not.
        for p in batch.iter_mut() {
            p.tx.run_unpin();
        }
        let batch = batch;
        for p in &batch {
            let mut st = p.ticket.st.lock();
            st.done = true;
            st.err = res.err();
            drop(st);
            p.ticket.cv.notify_all();
        }
    }
}

/// Thaws every frozen page of the batch (journal copies are on media).
fn unpin_batch(batch: &mut [PendingTx]) {
    for p in batch.iter_mut() {
        p.tx.run_unpin();
    }
}

/// Runs the compound-commit protocol for a batch of transactions.
fn commit_compound(inner: &Arc<ClassicInner>, batch: &mut [PendingTx]) -> Result<(), BioStatus> {
    // Merge: one copy per home block (the last writer wins), compound
    // revoke list, highest tx id stamps the compound.
    let mut merged: HashMap<u64, crate::TxBlock> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    let mut compound_id = 0;
    for p in batch.iter() {
        compound_id = compound_id.max(p.tx.tx_id);
        for blk in &p.tx.meta {
            if merged.insert(blk.final_lba, blk.clone()).is_none() {
                order.push(blk.final_lba);
            }
        }
    }
    let mut revokes: Vec<u64> = {
        let mut r = inner.revokes.lock();
        std::mem::take(&mut *r)
    };
    for p in batch.iter() {
        revokes.extend_from_slice(&p.tx.revokes);
    }
    if merged.is_empty() && revokes.is_empty() {
        return Ok(());
    }
    // Compounds larger than one descriptor (or than the hardware queue,
    // for the ccNVMe commit style) are split into chained chunks sharing
    // the compound ID, each sealed by its own commit record / ccNVMe
    // commit request; blocks and revokes alike spill from one chunk's JD
    // into the next. A compound that fits one chunk thaws its pages as
    // soon as their journal copies are on media, a chained one once the
    // last chunk is sealed.
    let chunks = (order.len().div_ceil(CHUNK_BLOCKS))
        .max(revokes.len().div_ceil(CHUNK_REVOKES))
        .max(1);
    for i in 0..chunks {
        let part = |len: usize, per: usize| (i * per).min(len)..((i + 1) * per).min(len);
        let chunk = &order[part(order.len(), CHUNK_BLOCKS)];
        let blocks: Vec<&crate::TxBlock> = chunk.iter().map(|l| &merged[l]).collect();
        let chunk_revokes = revokes[part(revokes.len(), CHUNK_REVOKES)].to_vec();
        let thaw = (chunks == 1).then_some(&mut *batch);
        commit_chunk(inner, compound_id, chunk, &blocks, chunk_revokes, thaw)?;
    }
    // ord: SeqCst — the replay ceiling may only advance after the
    // commit record is durable; reordering would let checkpoint
    // overwrite journal blocks recovery still needs.
    inner.max_committed.fetch_max(compound_id, Ordering::SeqCst);
    unpin_batch(batch);
    // Account the journaled blocks for checkpointing; a revoked block's
    // journal copy is stale and must never be written home.
    let mut pending = inner.pending.lock();
    for (lba, blk) in merged {
        pending.insert(lba, CheckpointEntry { buf: blk.buf });
    }
    for r in &revokes {
        pending.remove(r);
    }
    Ok(())
}

/// Commits one chunk of a compound: journal blocks + JD, sealed by its
/// own commit record / ccNVMe commit request. `thaw`, when given, is the
/// batch whose frozen pages are released the moment the journal copies
/// are on media.
fn commit_chunk(
    inner: &Arc<ClassicInner>,
    compound_id: u64,
    order: &[u64],
    blocks: &[&crate::TxBlock],
    revokes: Vec<u64>,
    thaw: Option<&mut [PendingTx]>,
) -> Result<(), BioStatus> {
    let on_media = || thaw.into_iter().for_each(unpin_batch);
    // Journal space: JD + blocks (+ commit record for the classic styles).
    let need = order.len() as u64
        + if inner.style == CommitStyle::CcTx {
            1
        } else {
            2
        };
    let run = loop {
        match inner.ring.alloc(need) {
            Some(run) => break run,
            None => {
                checkpoint_now(inner);
                // ord: SeqCst — pairs with the aborted stores; must see
                // a checkpoint failure before retrying the ring alloc.
                if inner.aborted.load(Ordering::SeqCst) {
                    return Err(BioStatus::Error);
                }
            }
        }
    };
    let (jd_pos, first_block) = if inner.style == CommitStyle::CcTx {
        // ccNVMe style: the JD is the commit request and goes LAST.
        (run.end - 1, run.start)
    } else {
        (run.start, run.start + 1)
    };
    let jd_lba = inner.ring.lba(jd_pos);
    let block_lba = |i: usize| inner.ring.lba(first_block + i as u64);
    // Build the descriptor.
    let mut entries = Vec::with_capacity(order.len());
    for (i, blk) in blocks.iter().enumerate() {
        entries.push(JdEntry {
            final_lba: order[i],
            journal_lba: block_lba(i),
            checksum: u64::from(crc32c(&blk.buf)),
        });
    }
    let jd = JdBlock {
        tx_id: compound_id,
        entries,
        revokes,
        patches: Vec::new(),
    };
    let jd_buf = jd.encode();
    let waiter = BioWaiter::new();
    match inner.style {
        CommitStyle::CcTx => {
            // Members first, the JD commit last; atomicity and implicit
            // durability barrier come from the ccNVMe transaction.
            for (i, blk) in blocks.iter().enumerate() {
                let mut bio =
                    Bio::write(block_lba(i), blk.buf.clone(), BioFlags::TX).with_tx_id(compound_id);
                waiter.attach(&mut bio);
                inner.dev.submit_bio(bio);
            }
            let mut jd_bio =
                Bio::write(jd_lba, jd_buf, BioFlags::TX_COMMIT).with_tx_id(compound_id);
            waiter.attach(&mut jd_bio);
            inner.dev.submit_bio(jd_bio);
            waiter.wait()?;
            on_media();
        }
        CommitStyle::Horae | CommitStyle::Classic => {
            let mut jd_bio = Bio::write(jd_lba, jd_buf, BioFlags::NONE);
            waiter.attach(&mut jd_bio);
            inner.dev.submit_bio(jd_bio);
            for (i, blk) in blocks.iter().enumerate() {
                let mut bio = Bio::write(block_lba(i), blk.buf.clone(), BioFlags::NONE);
                waiter.attach(&mut bio);
                inner.dev.submit_bio(bio);
            }
            let commit_lba = inner.ring.lba(run.end - 1);
            let commit_buf = format::encode_commit_record(compound_id);
            if inner.style == CommitStyle::Horae {
                // Horae: no ordering point — the commit record goes out
                // with the journal blocks; a single wait at the end.
                let mut commit_bio = Bio::write(
                    commit_lba,
                    commit_buf,
                    BioFlags {
                        preflush: false,
                        fua: true,
                        tx: false,
                        tx_commit: false,
                    },
                );
                waiter.attach(&mut commit_bio);
                inner.dev.submit_bio(commit_bio);
                waiter.wait()?;
                on_media();
                // Durability (not ordering): one trailing cache drain so
                // the journal blocks are stable before fsync returns.
                // Horae's ordering layer guarantees this on real HW.
                flush_cache(&*inner.dev)?;
            } else {
                // Classic: wait for the journal blocks, then FLUSH + FUA
                // commit record (the two ordering points of §3). The
                // pages thaw as soon as their journal copies are written
                // (JBD2 clears BJ_Shadow here), letting the next compound
                // assemble during the commit-record wait.
                waiter.wait()?;
                on_media();
                let commit_waiter = BioWaiter::new();
                let mut commit_bio = Bio::write(commit_lba, commit_buf, BioFlags::PREFLUSH_FUA);
                commit_waiter.attach(&mut commit_bio);
                inner.dev.submit_bio(commit_bio);
                commit_waiter.wait()?;
            }
        }
    }
    Ok(())
}

/// Writes every pending journaled block home and resets the ring.
/// Runs in the commit thread; holds the pending map for the duration so
/// block reuse cannot race with the checkpoint writes.
fn checkpoint_now(inner: &Arc<ClassicInner>) {
    let t0 = ccnvme_runtime::now();
    inner.checkpoints.inc();
    let mut pending = inner.pending.lock();
    if !pending.is_empty() {
        let home = pending.iter().map(|(lba, e)| (*lba, e.buf.clone()));
        if write_blocks(&*inner.dev, home)
            .and_then(|()| flush_cache(&*inner.dev))
            .is_err()
        {
            // Abort WITHOUT advancing the horizon or releasing the ring:
            // the journal copies are now the only good ones, and replay
            // after remount will need them.
            // ord: SeqCst — abort publication; later loads on any
            // thread must observe it before trusting journal space.
            inner.aborted.store(true, Ordering::SeqCst);
            return;
        }
        pending.clear();
    }
    // Persist the replay floor before reusing any journal space, so
    // recovery never replays a transaction whose journal blocks may have
    // been overwritten (the JBD2 journal-superblock protocol).
    // ord: SeqCst — the horizon written to disk must reflect every
    // commit whose checkpoint writes we just waited on.
    let h = inner.max_committed.load(Ordering::SeqCst) + 1;
    if write_horizon(&inner.dev, inner.horizon_lba, h).is_err() {
        // The old floor may still be the one on media: replay would
        // walk journal space this release hands out for overwriting.
        // ord: SeqCst — abort publication (see above).
        inner.aborted.store(true, Ordering::SeqCst);
        return;
    }
    inner.ring.release_all();
    inner.checkpoint_hist.record(ccnvme_runtime::now() - t0);
}

impl Journal for ClassicJournal {
    fn commit_tx(&self, mut tx: TxDescriptor, _durability: Durability) -> Result<(), CommitError> {
        // Classic journaling cannot decouple atomicity from durability;
        // `fatomic` degenerates to `fsync` here.
        // ord: SeqCst — pairs with abort stores; a commit must never
        // succeed after the journal declared itself dead.
        if self.inner.aborted.load(Ordering::SeqCst) {
            tx.run_unpin();
            return Err(CommitError::Aborted);
        }
        if tx.is_empty() {
            return Ok(());
        }
        // Ordered mode: data reaches its final location before the
        // metadata commits.
        let data = tx.data.iter().map(|b| (b.final_lba, b.buf.clone()));
        if let Err(status) = write_blocks(&*self.inner.dev, data) {
            // ord: SeqCst — abort publication (ordered-data failure).
            self.inner.aborted.store(true, Ordering::SeqCst);
            tx.run_unpin();
            return Err(CommitError::Io(status));
        }
        let ticket = Arc::new(Ticket {
            st: RtMutex::new(TicketSt {
                done: false,
                err: None,
            }),
            cv: RtCondvar::new(),
        });
        {
            let mut q = self.inner.q.lock();
            q.queue.push(PendingTx {
                tx,
                ticket: Arc::clone(&ticket),
            });
        }
        self.inner.q_cv.notify_one();
        let err = {
            let mut st = ticket.st.lock();
            while !st.done {
                st = ticket.cv.wait(st);
            }
            st.err
        };
        // Returning from the journald handoff costs a context switch.
        ccnvme_runtime::cpu(CTX_SWITCH);
        match err {
            None => Ok(()),
            Some(status) => Err(CommitError::Io(status)),
        }
    }

    fn is_aborted(&self) -> bool {
        // ord: SeqCst — pairs with abort stores.
        self.inner.aborted.load(Ordering::SeqCst)
    }

    fn note_block_reuse(&self, lba: u64) -> ReuseAction {
        let mut pending = self.inner.pending.lock();
        if pending.remove(&lba).is_some() {
            drop(pending);
            self.inner.revokes.lock().push(lba);
            ReuseAction::Revoked
        } else {
            ReuseAction::None
        }
    }

    fn checkpoint_all(&self) {
        // Drain queued commits first so their blocks are checkpointed.
        // Push an empty marker through the commit thread to serialize.
        let ticket = Arc::new(Ticket {
            st: RtMutex::new(TicketSt {
                done: false,
                err: None,
            }),
            cv: RtCondvar::new(),
        });
        {
            let mut q = self.inner.q.lock();
            q.queue.push(PendingTx {
                tx: TxDescriptor::new(0),
                ticket: Arc::clone(&ticket),
            });
        }
        self.inner.q_cv.notify_one();
        {
            let mut st = ticket.st.lock();
            while !st.done {
                st = ticket.cv.wait(st);
            }
        }
        checkpoint_now(&self.inner);
    }

    fn alloc_tx_id(&self) -> u64 {
        // ord: SeqCst — tx IDs are the global commit order (§5.1).
        self.inner.next_tx.fetch_add(1, Ordering::SeqCst)
    }

    fn set_tx_floor(&self, floor: u64) {
        // ord: SeqCst — recovery floor must be ordered against
        // concurrent ID allocation.
        self.inner.next_tx.fetch_max(floor + 1, Ordering::SeqCst);
        // ord: SeqCst — replayed transactions are committed by
        // definition; the ceiling must cover them before new commits.
        self.inner.max_committed.fetch_max(floor, Ordering::SeqCst);
    }

    fn recover(&self, discard: &HashSet<u64>) -> Vec<RecoveredUpdate> {
        let min_tx = crate::recover::read_horizon(&self.inner.dev, self.inner.horizon_lba);
        let mode = if self.inner.style == CommitStyle::CcTx {
            RecoverMode::ChecksumOnly
        } else {
            RecoverMode::RequireCommitRecord
        };
        recover_areas(
            &self.inner.dev,
            &[self.inner.ring.spec()],
            mode,
            min_tx,
            discard,
        )
    }

    fn persist_replay_floor(&self, floor: u64) -> Result<(), BioStatus> {
        // Guard against regressing a horizon a prior checkpoint already
        // pushed further (classic checkpoints persist max_committed + 1).
        if floor <= crate::recover::read_horizon(&self.inner.dev, self.inner.horizon_lba) {
            return Ok(());
        }
        // Nothing here remembers the floor: one that did not land is
        // re-read as the old one, and replay starts that much earlier.
        write_horizon(&self.inner.dev, self.inner.horizon_lba, floor)
    }

    fn shutdown(&self) {
        let mut q = self.inner.q.lock();
        q.shutdown = true;
        drop(q);
        self.inner.q_cv.notify_all();
    }
}
