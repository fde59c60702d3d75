//! Multi-queue journaling (§5.2) with selective revocation (§5.4) and
//! sub-block records.
//!
//! Each core owns a journal area mapped to its ccNVMe hardware queue and
//! commits transactions *in the application's context*: the ordered data
//! blocks, the journaled metadata and the journal description block go
//! out as one ccNVMe transaction (`REQ_TX` members + a `REQ_TX_COMMIT`
//! JD). There is no commit record — ringing the P-SQDB plays that role —
//! and no FLUSH ordering points.
//!
//! A journaled block travels in one of two forms. A *full copy* is the
//! whole block in a ring slot, mapped by a JD entry. A block whose
//! writers declared only a few bytes written ([`TxDescriptor::written`])
//! travels as *patches* — `(home LBA, offset, bytes)` records inside the
//! JD that is written anyway — while the JD's byte budget lasts; the
//! smallest go first and the rest spill as full copies. The one
//! definition everything below follows from: **a version is superseded
//! only by a newer live full copy; a patch patches.**
//!
//! Cross-core coordination happens through in-memory *version trees*
//! (the paper's per-core radix trees): every journaled block registers a
//! `(tx_id, area)` version keyed by its home LBA, with the whole block as
//! the transaction saw it (its *image*). Images are cumulative — the
//! file system allocates IDs and takes snapshots under one barrier, so a
//! newer image holds every older transaction's bytes — which is why an
//! area needs only the newest one. Checkpointing one area never
//! suspends logging on the others; conflicts resolve by transaction ID:
//!
//! * a checkpoint writes home the newest image whose transaction is
//!   completely on media, whichever area logged it — never at or below
//!   the per-LBA *floor* (the newest image already home), never while
//!   another home write of the same block is in flight;
//! * a logged transaction leaves its ring only when every block it
//!   carries is superseded by a newer live full copy or has `floor >=`
//!   its ID — a newer *patch* elsewhere does not stand in for it;
//! * journal ring space is released FIFO, and only once no *older* live
//!   version of any contained block remains in another area — this keeps
//!   the newest journal record replayable for as long as any older one
//!   is, which recovery's ID-ordered replay relies on;
//! * before any released space can be reused, the global *horizon*
//!   (replay floor) is persisted with FUA. It never passes a transaction
//!   that is still to be logged: IDs handed out by `alloc_tx_id` pin it
//!   until their commit logged them (or turned out empty).
//!
//! Block reuse across queues follows §5.4: if the block is being written
//! home right now the writer must journal the new content (case 1,
//! [`ReuseAction::MustJournal`]); otherwise its versions are dropped
//! from the trees and a revoke record rides in the next JD (case 2).
//! "Stale record" means every record recovery could still replay, not
//! just the live ones: a released one stays intact in its ring until
//! overwritten and stays at or above the horizon for as long as a slower
//! area pins it, so it is revoked too; a revoked block is never written
//! home; and the revoking transaction keeps its ring space until no
//! other area holds an older transaction, so the record outlives every
//! record it revokes.

use std::{
    collections::{BTreeMap, BTreeSet, HashSet, VecDeque},
    ops::Range,
    sync::{
        atomic::{AtomicBool, AtomicU64, Ordering},
        Arc,
    },
};

use ccnvme_block::{flush_cache, write_blocks, Bio, BioFlags, BioStatus, BioWaiter, BlockBuf};
use ccnvme_obs::{hash::IntMap, seal::crc32c, Counter, EventKind, Histogram, Obs, TraceEvent};
use ccnvme_runtime::{RtCondvar, RtMutex, RtMutexGuard};

use crate::{
    area::{AreaRing, AreaSpec},
    format::{self, JdEntry, CHUNK_BLOCKS, CHUNK_REVOKES},
    recover::{read_horizon, recover_areas, write_horizon, RecoverMode, RecoveredUpdate},
    ByteRanges, CommitError, Dev, Durability, Journal, ReuseAction, TxBlock, TxDescriptor,
};

/// Number of version trees (the paper shards its radix trees similarly).
const NTREES: usize = 16;

/// Block-group granularity used to pick a tree in metadata-journaling
/// mode (§5.2: "hashing the block group ID of the journaled metadata").
const BLOCKS_PER_GROUP: u64 = 32_768;

/// Maximum total blocks (data + journaled) per chunk.
const CHUNK_TOTAL: usize = 96;

/// The I/O phases of a checkpoint pass that wait behind the device's
/// backlog: home writes, the flush, the horizon with FUA. While each
/// phase waits, an area logs about the journal blocks it has in flight
/// when the pass starts (Little's law: its log rate times the backlog's
/// latency). So the background checkpointer starts on an area once its
/// ring has no more than this many times those blocks free: the pass
/// then releases before the rest of the ring is used. A durable
/// committer keeps one transaction in flight, and its area's pass
/// starts a few blocks short of full; a burst of atomic commits keeps
/// the device's backlog in flight, and its pass starts that far ahead.
const PASS_PHASES: u64 = 3;

/// A ring of at most one chunk's ring blocks (its copies and its JD)
/// has no mark: a single commit can fill it, and the commit that finds
/// it full checkpoints it.
const MARKED_RING_MIN: u64 = CHUNK_BLOCKS as u64 + 1;

// A chunk's inline set is a bitmask over its journaled blocks.
const _: () = assert!(CHUNK_BLOCKS <= u64::BITS as usize);

/// One live journal record of a home block.
#[derive(Debug, Clone, Copy)]
struct Version {
    tx_id: u64,
    area: usize,
    /// A whole-block copy in the ring (supersedes every older version);
    /// otherwise byte-range patches inside the JD.
    full: bool,
}

/// A home block as one transaction saw it, whole.
struct Image {
    tx_id: u64,
    buf: BlockBuf,
    /// The transaction's journal writes.
    waiter: BioWaiter,
}

impl Image {
    /// Whether the transaction is completely, and successfully, on
    /// media — only then may anything of it be written home.
    fn on_media(&self) -> bool {
        self.waiter.landed()
    }
}

#[derive(Default)]
struct Chain {
    /// Live journal records of this block.
    versions: Vec<Version>,
    /// Images of live versions that may still be the one to write home,
    /// ascending `tx_id`: the newest one on media and those after it.
    images: Vec<Image>,
    /// Newest image already checkpointed home, or the revoke that ended
    /// the block's life as metadata: no image at or below it is ever
    /// written home, and no record at or below it needs its ring space.
    floor: u64,
    /// A checkpoint is writing an image of this block home right now
    /// ("chp" in Figure 6): nobody else may, and a writer reusing the
    /// block must journal its content (§5.4 case 1).
    going_home: bool,
}

impl Chain {
    /// Whether the record transaction `tx_id` logged of this block no
    /// longer needs to stay replayable: an image at least as new is
    /// home (or the block was revoked), or a newer live full copy
    /// stands in for it. A newer patch does not.
    fn settled(&self, tx_id: u64) -> bool {
        self.floor >= tx_id || self.versions.iter().any(|v| v.full && v.tx_id > tx_id)
    }

    /// The newest image whose transaction is on media: a scan of the
    /// images in flight, which only a checkpoint pays.
    fn newest_image_on_media(&self) -> Option<&Image> {
        self.images.iter().rev().find(|i| i.on_media())
    }

    /// Drops images from the front that will never be the one written
    /// home: those at or below the floor, then each one the next image,
    /// on media, covers (images are cumulative). It stops at the first
    /// image whose successor is still in flight, so it costs
    /// O(dropped + 1), not a scan of the backlog; an image behind a
    /// straggler goes once the straggler lands.
    fn drop_covered_images(&mut self) {
        let floor = self.floor;
        let mut covered = self.images.partition_point(|i| i.tx_id <= floor);
        while self
            .images
            .get(covered + 1)
            .is_some_and(|next| next.on_media())
        {
            covered += 1;
        }
        self.images.drain(..covered);
    }

    /// Forgets transaction `tx_id`'s image (images ascend by ID).
    fn drop_image_of(&mut self, tx_id: u64) {
        let from = self.images.partition_point(|i| i.tx_id < tx_id);
        let to = self.images.partition_point(|i| i.tx_id <= tx_id);
        self.images.drain(from..to);
    }
}

type Tree = RtMutex<IntMap<u64, Chain>>;

struct LoggedTx {
    tx_id: u64,
    /// Ring blocks consumed (full copies + the JD).
    ring_blocks: u64,
    /// Home LBA of every journaled block, full copy or patched.
    blocks: Vec<u64>,
    /// The JD carries revoke records.
    revoking: bool,
    /// Completion tracker for the transaction's journal writes; a tx can
    /// only be checkpointed once its journal records are on media.
    waiter: BioWaiter,
}

#[derive(Default)]
struct AreaSt {
    logged: VecDeque<LoggedTx>,
    /// Transactions ever logged here: a committer waiting for one to
    /// come in compares counts.
    logs: u64,
    /// A checkpoint pass over the area is running (at most one is).
    checkpointing: bool,
    /// Committers in `reserve` waiting for a transaction to be logged.
    waiting: usize,
}

struct MqArea {
    ring: AreaRing,
    st: RtMutex<AreaSt>,
    /// Notified when a pass over the area ends — its ring space
    /// released — and, while a committer waits, when a transaction is
    /// logged. No `st` holder waits for I/O, so commits keep logging
    /// while a pass writes home.
    changed: RtCondvar,
    /// Queued for, or in, a background pass.
    kicked: AtomicBool,
    /// Oldest live transaction ID in this area (u64::MAX when empty);
    /// feeds the global horizon computation without cross-area locks.
    oldest_live: AtomicU64,
}

/// The background checkpointer: a daemon that checkpoints the areas
/// whose rings passed the mark, one pass at a time, in the order they
/// passed it. It starts at the first kick, so a journal whose rings
/// never pass the mark — most boots of a crash sweep — runs no thread
/// for it.
struct Checkpointer {
    core: usize,
    st: RtMutex<CheckpointerSt>,
    /// Notified on a kick, and when a pass ends after `shutdown`.
    cv: RtCondvar,
}

#[derive(Default)]
struct CheckpointerSt {
    queue: VecDeque<usize>,
    started: bool,
    /// A pass is running: `shutdown` waits for its end.
    busy: bool,
    shutdown: bool,
}

struct MqInner {
    dev: Dev,
    obs: Arc<Obs>,
    areas: Vec<Arc<MqArea>>,
    trees: Vec<Tree>,
    next_tx: AtomicU64,
    /// IDs handed out by `alloc_tx_id` whose transaction has not been
    /// logged yet. The horizon stays at or below the oldest: such a
    /// transaction will still be logged under its ID, however many
    /// checkpoints — its own committer's included — run before that.
    unlogged: parking_lot::Mutex<BTreeSet<u64>>,
    horizon_lba: u64,
    /// Last horizon value persisted (avoid redundant FUA writes).
    horizon_written: AtomicU64,
    /// Set after an unrecoverable commit-path error; further commits are
    /// refused and errored transactions are never checkpointed.
    aborted: AtomicBool,
    /// Checkpoints the areas past the mark off the commit path.
    checkpointer: Checkpointer,
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
    /// Virtual time a commit that found its ring full waited for space
    /// (`journal.mq.reserve_wait_ns`).
    reserve_wait_hist: Arc<Histogram>,
    /// Patch records written into JDs (`journal.mq.patches`).
    patches: Arc<Counter>,
    /// Payload bytes of those records (`journal.mq.patch_bytes`).
    patch_bytes: Arc<Counter>,
    /// Journaled blocks written to the ring as whole copies — declared
    /// whole, or too large for what was left of the JD
    /// (`journal.mq.spilled_copies`).
    spilled_copies: Arc<Counter>,
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

/// One chunk of a transaction: what one JD describes.
#[derive(Default)]
struct Chunk {
    data: Vec<TxBlock>,
    meta: Vec<TxBlock>,
    revokes: Vec<u64>,
}

/// Takes the first `n` elements of `v`: the whole `Vec` itself, with no
/// allocation, when it holds no more.
fn take_front<T>(v: &mut Vec<T>, n: usize) -> Vec<T> {
    if v.len() <= n {
        return std::mem::take(v);
    }
    let rest = v.split_off(n);
    std::mem::replace(v, rest)
}

/// Bytes the patches for `ranges` take in a JD.
fn patch_cost(ranges: &ByteRanges) -> usize {
    ranges
        .iter()
        .map(|r| format::PATCH_HEADER_BYTES + r.len())
        .sum()
}

/// Whether an area's ring has passed the mark: no more than
/// [`PASS_PHASES`] times its journal blocks in flight — the newest
/// transactions whose writes have not all landed — are free.
fn past_mark(ring: &AreaRing, st: &AreaSt) -> bool {
    if ring.spec().len <= MARKED_RING_MIN {
        return false;
    }
    let in_flight: u64 = st
        .logged
        .iter()
        .rev()
        .take_while(|t| t.waiter.outstanding() != 0)
        .map(|t| t.ring_blocks)
        .sum();
    ring.free() <= PASS_PHASES * in_flight
}

impl MqJournal {
    /// Creates the engine over one journal area per core. `horizon_lba`
    /// holds the persistent replay floor. Its background checkpointer
    /// runs on the calling thread's core.
    pub fn new(dev: Dev, areas: Vec<AreaSpec>, horizon_lba: u64) -> Self {
        Self::with_checkpoint_core(dev, areas, horizon_lba, ccnvme_runtime::current_core())
    }

    /// [`MqJournal::new`] with the background checkpointer on `core` —
    /// one no committer runs on (MQFS: `FsConfig::journald_core`).
    pub fn with_checkpoint_core(
        dev: Dev,
        areas: Vec<AreaSpec>,
        horizon_lba: u64,
        core: usize,
    ) -> Self {
        assert!(!areas.is_empty(), "need at least one journal area");
        let obs = ccnvme_block::obs_of(dev.as_ref());
        let areas = areas
            .into_iter()
            .map(|spec| {
                Arc::new(MqArea {
                    ring: AreaRing::new(spec),
                    st: RtMutex::new(AreaSt::default()),
                    changed: RtCondvar::new(),
                    kicked: AtomicBool::new(false),
                    oldest_live: AtomicU64::new(u64::MAX),
                })
            })
            .collect();
        let metrics = &obs.metrics;
        MqJournal {
            inner: Arc::new(MqInner {
                dev,
                areas,
                trees: (0..NTREES)
                    .map(|_| RtMutex::new(IntMap::default()))
                    .collect(),
                next_tx: AtomicU64::new(1),
                unlogged: parking_lot::Mutex::new(BTreeSet::new()),
                horizon_lba,
                horizon_written: AtomicU64::new(0),
                aborted: AtomicBool::new(false),
                checkpointer: Checkpointer {
                    core,
                    st: RtMutex::new(CheckpointerSt::default()),
                    cv: RtCondvar::new(),
                },
                commits: metrics.counter("journal.mq.commits"),
                commit_hist: metrics.histogram("journal.mq.commit_ns"),
                checkpoints: metrics.counter("journal.mq.checkpoints"),
                checkpoint_hist: metrics.histogram("journal.mq.checkpoint_ns"),
                reserve_wait_hist: metrics.histogram("journal.mq.reserve_wait_ns"),
                patches: metrics.counter("journal.mq.patches"),
                patch_bytes: metrics.counter("journal.mq.patch_bytes"),
                spilled_copies: metrics.counter("journal.mq.spilled_copies"),
                obs,
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

    /// Queues `area_idx` for a background pass, unless it is queued or
    /// in one already, starting the daemon at the first kick.
    fn kick(&self, area_idx: usize) {
        let ck = &self.inner.checkpointer;
        let area = &self.inner.areas[area_idx];
        // ord: SeqCst — the daemon clears the flag after its pass; one
        // kick per pass.
        if area.kicked.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut st = ck.st.lock();
        if st.shutdown {
            return;
        }
        st.queue.push_back(area_idx);
        let start = !std::mem::replace(&mut st.started, true);
        drop(st);
        if start {
            let journal = MqJournal {
                inner: Arc::clone(&self.inner),
            };
            ccnvme_runtime::spawn_daemon("mq-checkpointer", ck.core, move || {
                journal.run_checkpointer()
            });
        } else {
            ck.cv.notify_one();
        }
    }

    /// The background checkpointer's loop: one pass per kick, until
    /// `shutdown`.
    fn run_checkpointer(&self) {
        let ck = &self.inner.checkpointer;
        let mut st = ck.st.lock();
        loop {
            if st.shutdown {
                return;
            }
            let Some(area_idx) = st.queue.pop_front() else {
                st = ck.cv.wait(st);
                continue;
            };
            st.busy = true;
            drop(st);
            self.background_pass(area_idx);
            let area = &self.inner.areas[area_idx];
            // ord: SeqCst — pairs with the swap in `kick`.
            area.kicked.store(false, Ordering::SeqCst);
            st = ck.st.lock();
            st.busy = false;
            if st.shutdown {
                ck.cv.notify_all();
            }
        }
    }

    /// A pass over `area_idx` off the commit path. When nothing left the
    /// ring and no other area held its front, the front's journal
    /// writes are in flight: the daemon waits for them and passes again.
    fn background_pass(&self, area_idx: usize) {
        let released = |released| released > 0;
        if self.checkpoint_through_blockers(area_idx, released) {
            return;
        }
        let front = {
            let st = self.inner.areas[area_idx].st.lock();
            st.logged.front().map(|t| t.waiter.clone_handle())
        };
        if let Some(w) = front {
            let _ = w.wait();
            self.checkpoint_through_blockers(area_idx, released);
        }
    }

    /// Checkpoints `area_idx` and, unless `done` with the blocks that
    /// released, the areas holding versions older than its front — in
    /// ascending index — then `area_idx` again. Returns `done` of the
    /// last pass.
    fn checkpoint_through_blockers(&self, area_idx: usize, done: impl Fn(u64) -> bool) -> bool {
        if done(self.checkpoint_area(area_idx)) {
            return true;
        }
        for b in self.blocking_areas(area_idx) {
            self.checkpoint_area(b);
        }
        done(self.checkpoint_area(area_idx))
    }

    /// One pass over every area, in index order. Returns the ring
    /// blocks released.
    fn checkpoint_round(&self) -> u64 {
        (0..self.inner.areas.len())
            .map(|i| self.checkpoint_area(i))
            .sum()
    }

    /// Reserves `need` blocks of `area_idx`'s ring. A commit that finds
    /// it full waits for space: for the pass running over it, else
    /// checkpointing our own area and, if release is blocked by older
    /// records in other areas, those too (rare cross-queue conflict).
    /// `None` once the journal is aborted and the ring stays full: a
    /// failed checkpoint releases nothing, ever.
    fn reserve(&self, area_idx: usize, need: u64) -> Option<Range<u64>> {
        let area = &self.inner.areas[area_idx];
        assert!(
            need <= area.ring.spec().len,
            "transaction larger than the whole journal area"
        );
        if let Some(run) = area.ring.alloc(need) {
            return Some(run);
        }
        let t0 = ccnvme_runtime::now();
        let has_room = |_| area.ring.free() >= need;
        let mut attempts = 0u32;
        let run = loop {
            if let Some(run) = area.ring.alloc(need) {
                break Some(run);
            }
            if self.await_pass(area_idx) {
                continue;
            }
            attempts += 1;
            // What this attempt cannot free, a transaction logged here
            // from now on may.
            let logs = area.st.lock().logs;
            if self.checkpoint_through_blockers(area_idx, has_room) {
                continue;
            }
            if attempts >= 2 {
                // Release-gating chains can span several areas (A's
                // front blocked by B, B's by C, ...), in any index order.
                // Rounds over every area resolve any chain — release
                // order follows transaction IDs, which are acyclic —
                // each freeing the next link, until one frees nothing.
                while !has_room(0) && self.checkpoint_round() > 0 {}
                if has_room(0) {
                    continue;
                }
            }
            // ord: SeqCst — pairs with the abort stores; must see a
            // checkpoint failure before waiting for space again.
            if self.inner.aborted.load(Ordering::SeqCst) {
                break None;
            }
            self.await_progress(area_idx, (attempts >= 2).then_some(logs));
        };
        self.inner
            .reserve_wait_hist
            .record(ccnvme_runtime::now() - t0);
        run
    }

    /// Waits for the end of the pass over `area_idx` that is running, if
    /// one is: its release is what a full ring waits for. Returns
    /// whether there was one.
    fn await_pass(&self, area_idx: usize) -> bool {
        let area = &self.inner.areas[area_idx];
        let mut st = area.st.lock();
        if !st.checkpointing {
            return false;
        }
        while st.checkpointing {
            st = area.changed.wait(st);
        }
        true
    }

    /// A full ring that no pass could free waits for what holds it: the
    /// journal writes in flight in every area (a release needs the
    /// records it releases, and older ones elsewhere, on media), else a
    /// pass running over any area (it holds blocks it writes home),
    /// else — `settled`, once rounds over every area freed nothing — a
    /// transaction still to be logged here, whose ring space another
    /// thread on this core reserved: the area's log count passing
    /// `settled`, the count before those rounds.
    fn await_progress(&self, area_idx: usize, settled: Option<u64>) {
        let inner = &self.inner;
        let mut in_flight = Vec::new();
        for a in &inner.areas {
            let st = a.st.lock();
            in_flight.extend(
                st.logged
                    .iter()
                    .filter(|t| t.waiter.outstanding() != 0)
                    .map(|t| t.waiter.clone_handle()),
            );
        }
        if !in_flight.is_empty() {
            for w in in_flight {
                let _ = w.wait();
            }
            return;
        }
        let mut passed = false;
        for i in 0..inner.areas.len() {
            passed |= self.await_pass(i);
        }
        let Some(logs) = settled.filter(|_| !passed) else {
            return;
        };
        let area = &inner.areas[area_idx];
        let mut st = area.st.lock();
        while st.logs == logs {
            st.waiting += 1;
            st = area.changed.wait(st);
            st.waiting -= 1;
        }
    }

    /// Commits one chunk as one ccNVMe transaction: data to home
    /// locations, full copies to the ring, the JD — patches and revokes
    /// inside — as the commit request. In the application's context, no
    /// handoff. `last` chunks un-pin the transaction's ID from the
    /// horizon once logged. Returns the tracker of everything submitted,
    /// or `None` — nothing submitted — when the journal aborted with no
    /// ring space left.
    fn commit_chunk(
        &self,
        tx_id: u64,
        chunk: Chunk,
        written: &BTreeMap<u64, ByteRanges>,
        last: bool,
    ) -> Option<BioWaiter> {
        let inner = &self.inner;
        let area_idx = self.area_for_current_core();
        let area = &inner.areas[area_idx];
        // Which blocks ride inside the JD: cheapest patches first, while
        // the bytes left beside the revokes and the entries last (a
        // block that moves inline gives its entry's bytes back). Bit `i`
        // of `inline` stands for `chunk.meta[i]`.
        let mut left = format::JD_BUDGET
            - chunk.revokes.len() * format::REVOKE_BYTES
            - chunk.meta.len() * format::ENTRY_BYTES;
        // (cost, home LBA — the tie-break — and index in the chunk).
        let mut by_cost = [(0usize, 0u64, 0usize); CHUNK_BLOCKS];
        let mut patchable = 0;
        for (i, b) in chunk.meta.iter().enumerate() {
            if let Some(ranges) = written.get(&b.final_lba) {
                by_cost[patchable] = (patch_cost(ranges), b.final_lba, i);
                patchable += 1;
            }
        }
        let by_cost = &mut by_cost[..patchable];
        by_cost.sort_unstable();
        let mut inline = 0u64;
        for &(cost, _, i) in by_cost.iter() {
            if cost <= left + format::ENTRY_BYTES {
                left = left + format::ENTRY_BYTES - cost;
                inline |= 1 << i;
            }
        }
        let is_inline = |i: usize| inline & (1 << i) != 0;
        let n_inline = inline.count_ones() as usize;
        let copies = chunk.meta.len() - n_inline;
        let need = copies as u64 + 1;
        let run = self.reserve(area_idx, need)?;
        // The copies fill the run in order; the JD takes its last block.
        let copy_lba = |k: usize| area.ring.lba(run.start + k as u64);
        let jd_lba = area.ring.lba(run.end - 1);
        // Build every bio first, so the tracker is complete before
        // anybody can see it: a checkpoint on another core reads it
        // through the versions registered below.
        let waiter = BioWaiter::new();
        let member = |lba: u64, buf: &BlockBuf| {
            let mut bio = Bio::write(lba, buf.clone(), BioFlags::TX).with_tx_id(tx_id);
            waiter.attach(&mut bio);
            bio
        };
        let copied = || {
            chunk
                .meta
                .iter()
                .enumerate()
                .filter(|&(i, _)| !is_inline(i))
        };
        let inlined = || chunk.meta.iter().enumerate().filter(|&(i, _)| is_inline(i));
        let mut members: Vec<Bio> = Vec::with_capacity(chunk.data.len() + copies);
        members.extend(chunk.data.iter().map(|b| member(b.final_lba, &b.buf)));
        members.extend(
            copied()
                .enumerate()
                .map(|(k, (_, blk))| member(copy_lba(k), &blk.buf)),
        );
        // Entries, revokes and patches go straight into the JD block:
        // each patch's bytes come from the image itself.
        let patches = || {
            inlined().flat_map(|(_, blk)| {
                let image = &blk.buf;
                written[&blk.final_lba]
                    .iter()
                    .map(move |r| (blk.final_lba, r.start as u16, &image[r]))
            })
        };
        let entries = copied().enumerate().map(|(k, (_, blk))| JdEntry {
            final_lba: blk.final_lba,
            journal_lba: copy_lba(k),
            checksum: u64::from(crc32c(&blk.buf)),
        });
        let jd = format::encode_jd(tx_id, entries, &chunk.revokes, patches());
        inner.spilled_copies.add(copies as u64);
        let (n_patches, patch_bytes) =
            patches().fold((0, 0), |(n, sum), (_, _, b)| (n + 1, sum + b.len() as u64));
        inner.patches.add(n_patches);
        inner.patch_bytes.add(patch_bytes);
        let revoking = !chunk.revokes.is_empty();
        let mut jd_bio = Bio::write(jd_lba, jd, BioFlags::TX_COMMIT).with_tx_id(tx_id);
        waiter.attach(&mut jd_bio);
        // Register versions before any I/O so concurrent checkpoints and
        // reuse checks see the transaction.
        for (i, blk) in chunk.meta.iter().enumerate() {
            let mut tree = inner.trees[tree_index(blk.final_lba)].lock();
            let chain = tree.entry(blk.final_lba).or_default();
            chain.versions.push(Version {
                tx_id,
                area: area_idx,
                full: !is_inline(i),
            });
            let at = chain.images.partition_point(|i| i.tx_id < tx_id);
            chain.images.insert(
                at,
                Image {
                    tx_id,
                    buf: blk.buf.clone(),
                    waiter: waiter.clone_handle(),
                },
            );
            chain.drop_covered_images();
        }
        inner.obs.trace.record(
            TraceEvent {
                at: ccnvme_runtime::now(),
                kind: EventKind::JournalCommit,
                qid: area_idx as u16 + 1,
                tx_id,
                arg: TraceEvent::journal_commit_arg(copies, n_inline),
                ctx: ccnvme_obs::ctx::current(),
            },
            true,
        );
        for bio in members {
            inner.dev.submit_bio(bio);
        }
        // Log the transaction before the commit goes out so a same-core
        // checkpoint triggered later sees it (it skips until I/O done).
        let (wake, kick) = {
            let mut st = area.st.lock();
            st.logged.push_back(LoggedTx {
                tx_id,
                ring_blocks: need,
                blocks: chunk.meta.iter().map(|b| b.final_lba).collect(),
                revoking,
                waiter: waiter.clone_handle(),
            });
            st.logs += 1;
            if st.logged.len() == 1 {
                // ord: SeqCst — first live entry resets the area's
                // replay floor; checkpoint horizon math reads it.
                area.oldest_live.store(tx_id, Ordering::SeqCst);
            }
            // ord: SeqCst — pairs with the store after a pass; an area
            // queued or in a pass needs no scan of its log.
            let kick = !area.kicked.load(Ordering::SeqCst) && past_mark(&area.ring, &st);
            (st.waiting > 0, kick)
        };
        if wake {
            area.changed.notify_all();
        }
        if last {
            // Only now: the area's `oldest_live` covers the ID from here
            // on, and the horizon reads `unlogged` before `oldest_live`.
            inner.unlogged.lock().remove(&tx_id);
        }
        inner.dev.submit_bio(jd_bio);
        if kick {
            self.kick(area_idx);
        }
        Some(waiter)
    }

    /// The replay floor to publish: below every live transaction and
    /// every transaction still to be logged.
    fn horizon(&self) -> u64 {
        let inner = &self.inner;
        // Read under the `unlogged` lock, where IDs are handed out, and
        // before the areas: a commit logs its transaction first and
        // un-pins its ID second.
        let unlogged = {
            let unlogged = inner.unlogged.lock();
            // ord: SeqCst — clamp to the allocation frontier so an
            // all-idle journal never publishes a horizon above next_tx.
            let next = inner.next_tx.load(Ordering::SeqCst);
            unlogged.first().copied().unwrap_or(next)
        };
        inner
            .areas
            .iter()
            // ord: SeqCst — pairs with the oldest_live stores; the
            // horizon must not pass a still-live transaction.
            .map(|a| a.oldest_live.load(Ordering::SeqCst))
            .fold(unlogged, u64::min)
    }

    /// Checkpoints `area_idx`: writes home the newest images on media of
    /// the blocks its transactions carry, releases the FIFO-safe prefix
    /// of the ring and advances the persistent horizon. At most one pass
    /// over an area runs at a time; it holds the area's `st` only to
    /// read and trim the log, never across I/O, so the area keeps
    /// logging throughout — and other areas do anyway (§5.2). Returns
    /// the ring blocks released.
    fn checkpoint_area(&self, area_idx: usize) -> u64 {
        let t0 = ccnvme_runtime::now();
        let area = &self.inner.areas[area_idx];
        let mut st = area.st.lock();
        while st.checkpointing {
            st = area.changed.wait(st);
        }
        st.checkpointing = true;
        let released = self.checkpoint_pass(area_idx, st);
        let mut st = area.st.lock();
        st.checkpointing = false;
        if let Some(n) = released.filter(|&n| n > 0) {
            area.ring.release(n);
        }
        drop(st);
        area.changed.notify_all();
        if released.is_some() {
            self.inner.checkpoints.inc();
            self.inner
                .checkpoint_hist
                .record(ccnvme_runtime::now() - t0);
        }
        released.unwrap_or(0)
    }

    /// The phases of one pass over `area_idx`, entered with its `st`
    /// held and the area marked as checkpointing. Returns the ring
    /// blocks the caller may release — the horizon above them is on
    /// media — or `None` when the pass aborted the journal.
    fn checkpoint_pass(&self, area_idx: usize, st: RtMutexGuard<'_, AreaSt>) -> Option<u64> {
        let inner = &self.inner;
        let area = &inner.areas[area_idx];
        // Phase 1: decide what to write home. Only transactions whose
        // journal writes completed are eligible (a running transaction is
        // never checkpointed).
        let mut to_write: Vec<(u64, u64, BlockBuf)> = Vec::new(); // (lba, tx, image)
        for tx in st.logged.iter() {
            if tx.waiter.outstanding() != 0 {
                break; // FIFO: later txs are at least as young.
            }
            if tx.waiter.first_error().is_some() {
                // This transaction's journal records are unreliable (the
                // driver failed the whole ccNVMe transaction); never
                // write them home. The journal is aborted.
                // ord: SeqCst — abort publication (see commit_tx).
                inner.aborted.store(true, Ordering::SeqCst);
                continue;
            }
            for lba in &tx.blocks {
                let mut tree = inner.trees[tree_index(*lba)].lock();
                let Some(chain) = tree.get_mut(lba) else {
                    continue;
                };
                if chain.going_home || chain.settled(tx.tx_id) {
                    // Somebody is doing it — one home write of a block
                    // at a time, or the device may land an older image
                    // last — or there is nothing to do.
                    continue;
                }
                // The newest image on media, whichever area logged it:
                // it holds this transaction's bytes and everything
                // since. `going_home` also sends concurrent block reuse
                // down the MustJournal path (§5.4 case 1).
                let image = chain
                    .newest_image_on_media()
                    .expect("an unsettled record on media keeps an image at or above it");
                to_write.push((*lba, image.tx_id, image.buf.clone()));
                chain.going_home = true;
            }
        }
        drop(st);
        // Phase 2: write home + flush.
        if !to_write.is_empty() {
            let home = to_write
                .iter()
                .map(|(lba, _tx, image)| (*lba, image.clone()));
            let landed = write_blocks(&*inner.dev, home)
                .and_then(|()| flush_cache(&*inner.dev))
                .is_ok();
            // Record the new floors — of images that are home for sure.
            for (lba, tx_id, _image) in &to_write {
                let mut tree = inner.trees[tree_index(*lba)].lock();
                if let Some(chain) = tree.get_mut(lba) {
                    chain.going_home = false;
                    if landed {
                        chain.floor = chain.floor.max(*tx_id);
                        chain.drop_covered_images();
                    }
                }
            }
            if !landed {
                // Abort WITHOUT releasing anything: the journal copies
                // are now the only good ones, and replay after remount
                // will need them.
                // ord: SeqCst — abort publication (see commit_tx).
                inner.aborted.store(true, Ordering::SeqCst);
                return None;
            }
        }
        // Phase 3: release the safe FIFO prefix. A transaction's space
        // (and its tree versions) may go only when every block it
        // carries is settled — home, revoked, or under a newer live full
        // copy — and no OLDER live version of any of them remains
        // elsewhere: that keeps the newest replayable record alive as
        // long as any older one is. Commits logged meanwhile joined the
        // back of the log; only this pass takes from its front.
        let mut st = area.st.lock();
        let mut released_blocks = 0u64;
        while let Some(front) = st.logged.front() {
            if front.waiter.outstanding() != 0 {
                break;
            }
            let tx_id = front.tx_id;
            // A failed transaction has nothing worth keeping.
            let dead = front.waiter.first_error().is_some();
            // A revoke record suppresses records from older transactions;
            // it may go only when no other area still holds one (they
            // are all below the horizon this release then persists).
            let mut safe =
                !(front.revoking && self.areas_older_than(area_idx, tx_id).next().is_some());
            for lba in &front.blocks {
                let tree = inner.trees[tree_index(*lba)].lock();
                if let Some(chain) = tree.get(lba) {
                    safe &= (dead || chain.settled(tx_id))
                        && chain.versions.iter().all(|v| v.tx_id >= tx_id);
                }
            }
            if !safe {
                break;
            }
            let tx = st.logged.pop_front().expect("front checked");
            for lba in &tx.blocks {
                let mut tree = inner.trees[tree_index(*lba)].lock();
                if let Some(chain) = tree.get_mut(lba) {
                    chain
                        .versions
                        .retain(|v| !(v.tx_id == tx.tx_id && v.area == area_idx));
                    chain.drop_image_of(tx.tx_id);
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
        drop(st);
        if released_blocks > 0 {
            // Phase 4: persist the horizon before the freed space can be
            // overwritten by future commits.
            let h = self.horizon();
            // ord: SeqCst — monotone horizon; racing checkpointers must
            // agree on who writes the higher floor.
            if h > inner.horizon_written.load(Ordering::SeqCst) {
                if write_horizon(&inner.dev, inner.horizon_lba, h).is_err() {
                    // The floor on media still admits the records this
                    // release would let commits overwrite: keep the
                    // ring and stop taking commits.
                    // ord: SeqCst — abort publication (see commit_tx).
                    inner.aborted.store(true, Ordering::SeqCst);
                    return None;
                }
                // ord: SeqCst — only advances after the horizon block is
                // durable; fetch_max keeps racing checkpointers monotone.
                inner.horizon_written.fetch_max(h, Ordering::SeqCst);
            }
        }
        Some(released_blocks)
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
            for lba in &front.blocks {
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

impl Journal for MqJournal {
    fn commit_tx(&self, mut tx: TxDescriptor, durability: Durability) -> Result<(), CommitError> {
        // ord: SeqCst — pairs with abort stores; a commit must never
        // succeed after the journal declared itself dead.
        if self.inner.aborted.load(Ordering::SeqCst) {
            self.inner.unlogged.lock().remove(&tx.tx_id);
            tx.run_unpin();
            return Err(CommitError::Aborted);
        }
        if tx.is_empty() {
            // Nothing will be logged under this ID.
            self.inner.unlogged.lock().remove(&tx.tx_id);
            tx.run_unpin();
            return Ok(());
        }
        let t0 = ccnvme_runtime::now();
        // One JD describes at most a chunk: transactions with more
        // blocks, or more revokes, than one holds go out as chained
        // chunks sharing the ID, back to back; all but the last only
        // need to be atomic. A transaction that fits one chunk is that
        // chunk, moved rather than copied.
        let mut earlier: Vec<BioWaiter> = Vec::new();
        let last = loop {
            let meta = take_front(&mut tx.meta, CHUNK_BLOCKS);
            let data = take_front(&mut tx.data, CHUNK_TOTAL - meta.len());
            let chunk = Chunk {
                revokes: take_front(&mut tx.revokes, CHUNK_REVOKES),
                data,
                meta,
            };
            let last = tx.data.is_empty() && tx.meta.is_empty() && tx.revokes.is_empty();
            let Some(waiter) = self.commit_chunk(tx.tx_id, chunk, &tx.written, last) else {
                self.inner.unlogged.lock().remove(&tx.tx_id);
                tx.run_unpin();
                return Err(CommitError::Aborted);
            };
            if last {
                break waiter;
            }
            earlier.push(waiter);
        };
        // Atomicity is reached the moment submit_bio returned for the
        // last commit request (the two MMIOs of §4). Durability waits
        // for completion of every chunk.
        let failed = earlier
            .iter()
            .chain([&last])
            .find_map(|w| match durability {
                Durability::Durable => w.wait().err(),
                // fatomic: errors normally surface asynchronously (at the
                // next checkpoint), but pick up anything already known.
                Durability::Atomic => w.first_error(),
            });
        // Without shadow paging the frozen pages thaw only now — after
        // the journal writes (the +MQJournal ablation's remaining cost).
        tx.run_unpin();
        if let Some(status) = failed {
            // The driver failed the whole ccNVMe transaction (one member
            // hit an unrecoverable error). Its journal records are dead;
            // abort the journal.
            // ord: SeqCst — abort must publish before any later commit
            // on another queue can report success.
            self.inner.aborted.store(true, Ordering::SeqCst);
            return Err(CommitError::Io(status));
        }
        self.inner.commits.inc();
        self.inner.commit_hist.record(ccnvme_runtime::now() - t0);
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
        if chain.going_home {
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
            // Every record ever journaled is below the persisted horizon:
            // recovery skips them without help.
            return ReuseAction::None;
        }
        // §5.4 case 2: some record may still be replayed — a live one, or
        // a released one whose JD is intact and at or above a horizon
        // that a slower area pins. Drop the live versions from the
        // trees, raise the floor so no checkpoint writes an image home
        // over the new content, and have the caller ride a revoke record
        // in its next transaction.
        chain.versions.clear();
        chain.images.clear();
        chain.floor = newest;
        ReuseAction::Revoked
    }

    fn checkpoint_all(&self) {
        // Two rounds: the first may leave FIFO-blocked suffixes whose
        // blockers get checkpointed in the second.
        for _ in 0..2 {
            self.checkpoint_round();
        }
    }

    fn alloc_tx_id(&self) -> u64 {
        let mut unlogged = self.inner.unlogged.lock();
        // ord: SeqCst — tx IDs are the global commit order (§5.1).
        let id = self.inner.next_tx.fetch_add(1, Ordering::SeqCst);
        unlogged.insert(id);
        id
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

    fn persist_replay_floor(&self, floor: u64) -> Result<(), BioStatus> {
        let inner = &self.inner;
        // ord: SeqCst — monotone horizon; never regress a floor a
        // checkpointer already persisted.
        if floor <= inner.horizon_written.load(Ordering::SeqCst) {
            return Ok(());
        }
        write_horizon(&inner.dev, inner.horizon_lba, floor)?;
        // ord: SeqCst — only advances after the horizon block is
        // durable; fetch_max keeps racing writers monotone.
        inner.horizon_written.fetch_max(floor, Ordering::SeqCst);
        Ok(())
    }

    /// Stops the background checkpointer, waiting for the end of the
    /// pass it is running: no checkpoint writes to the device after
    /// this returns.
    fn shutdown(&self) {
        let ck = &self.inner.checkpointer;
        let mut st = ck.st.lock();
        st.shutdown = true;
        ck.cv.notify_all();
        while st.busy {
            st = ck.cv.wait(st);
        }
    }
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
                        buf: BlockBuf::new(vec![0u8; 4096]),
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
