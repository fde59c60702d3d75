//! The ccNVMe driver: crash consistency coupled to data dissemination.
//!
//! Differences from the baseline driver, following §4 of the paper:
//!
//! * Submission queues live in the device's **PMR** (P-SQ) and entries
//!   are inserted with posted, write-combined MMIO stores.
//! * **Transaction-aware MMIO and doorbell** (§4.3): entries of a
//!   transaction accumulate without flushing; the `REQ_TX_COMMIT` bio
//!   triggers exactly one persistent-MMIO flush and one P-SQDB ring,
//!   regardless of the transaction size. The transaction is crash-atomic
//!   the instant `submit_bio` returns for the commit bio — that is the
//!   paper's "atomicity in two MMIOs" claim, and what `fatomic` builds
//!   on.
//! * **In-order, transaction-unit completion** (§4.4): the driver
//!   completes requests to the upper layer only when every preceding
//!   request in the queue is done *and* the done-prefix ends at a
//!   transaction boundary; it then advances the persistent P-SQ-head and
//!   rings the CQ doorbell once per transaction.
//! * **Recovery** (§4.4): on probe after a crash, the entries between
//!   P-SQ-head and P-SQDB are returned as the unfinished transactions.
//! * A busy command is retried through a volatile **retry SQ** in host
//!   memory, never through a second P-SQ slot: the P-SQ entry is its
//!   recovery record and stays in the window until the in-order pop.

use std::{
    collections::{HashSet, VecDeque},
    sync::{
        atomic::{AtomicU64, Ordering},
        Arc, OnceLock,
    },
};

use ccnvme_block::{Bio, BioOp, BioStatus, BlockDevice};
use ccnvme_obs::{hash::IntMap, EventKind, Obs};
use ccnvme_pcie::MmioRegion;
use ccnvme_runtime::{RtCondvar, RtMutex};
use ccnvme_ssd::{
    CompletionEntry, HostMemory, NvmeCommand, NvmeController, QueueParams, SqBacking, Status,
};
use parking_lot::Mutex;

use crate::{
    errpolicy::{Age, ErrPolicy},
    hostq::{spawn_daemons, watchdog_daemon, Attempt, ErrPath, QueueObs},
    layout::PmrLayout,
    recovery::{scan_pmr, RecoveryReport},
    DEFAULT_CAPACITY_BLOCKS, SUBMIT_CPU,
};

/// Base of the CQ doorbell registers used by the ccNVMe queues (the CQ
/// stays volatile; only submission state must persist).
const DB_BASE: u64 = 0x1000;

struct Slot {
    bio: Bio,
    /// The slot's command and the state of its latest attempt.
    attempt: Attempt,
    done: bool,
    status: BioStatus,
    /// Transaction boundary: a commit request or a non-transactional
    /// request completes the done-prefix up to and including itself.
    boundary: bool,
    /// Transaction membership, for transaction-atomic error handling.
    is_tx: bool,
    tx_id: u64,
}

struct CcqSt {
    /// Ring index of the next free slot.
    tail: u32,
    /// Ring index of `slots.front()` (first not-yet-completed request).
    head_idx: u32,
    /// Outstanding requests in submission order.
    slots: VecDeque<Slot>,
    /// Tail value of the last P-SQDB ring. The watchdog re-rings this —
    /// not the current tail — so a kick never exposes entries of a
    /// not-yet-committed transaction to the device.
    last_rung: u32,
    /// Transactions with at least one failed member, keyed by tx id.
    /// Every bio of such a transaction completes with the recorded
    /// status (transaction-atomic error handling); the entry is dropped
    /// when the transaction's boundary slot pops.
    failed_txs: IntMap<u64, BioStatus>,
    /// Entries written to the queue's persistent abort log so far
    /// (mirrors the count line in the PMR).
    abort_logged: u32,
    /// Tail of the retry SQ: the last value rung on its doorbell.
    retry_tail: u32,
    /// `advance_queue`'s list of popped bios, kept empty between calls
    /// so its buffer is reused.
    finished: Vec<(Bio, BioStatus)>,
}

/// A queue's retry SQ: a volatile ring in host memory that the device
/// fetches like a baseline queue's. A busy command was never executed,
/// so its retry needs a submission slot but no second recovery record:
/// it goes here under its own command id (its P-SQ ring index), and its
/// completion resolves its own P-SQ slot. At most depth − 1 commands
/// can be busy and the device frees a host-SQ slot at fetch, so the
/// ring never fills.
struct RetrySq {
    ring: Arc<Mutex<Vec<u8>>>,
    db_off: u64,
}

struct CcQueue {
    /// 0-based index into the PMR layout (`obs.qid` is this plus one).
    idx: u16,
    ring_off: u64,
    db_off: u64,
    head_off: u64,
    cqdb_off: u64,
    /// Lifecycle events and `ccnvme.q{qid}.complete_ns`.
    obs: QueueObs,
    dev: Arc<CcDev>,
    st: RtMutex<CcqSt>,
    cv: RtCondvar,
    /// Created by the queue's first retry: a healthy run has none.
    retry_sq: OnceLock<RetrySq>,
}

/// The device as a queue sees it. The controller holds the completion
/// callbacks, so they reach what the driver shares through their queue,
/// never through the driver.
struct CcDev {
    layout: PmrLayout,
    pmr: Arc<MmioRegion>,
    regs: Arc<MmioRegion>,
    hostmem: Arc<HostMemory>,
    /// Recovery-generation counter: the ring epoch every SQE is sealed
    /// under. Bumped (in the PMR header) on each probe so slots from a
    /// previous life of the ring fail epoch validation during recovery.
    generation: u32,
    err: ErrPath<CcQueue>,
}

impl CcQueue {
    /// Position in `st.slots` of the slot at `ring_idx`, if it is still
    /// outstanding.
    fn pos_of(&self, st: &CcqSt, ring_idx: u16) -> Option<usize> {
        let depth = self.dev.layout.depth;
        let pos = ((ring_idx as u32 + depth - st.head_idx) % depth) as usize;
        (pos < st.slots.len()).then_some(pos)
    }
}

struct CcInner {
    ctrl: NvmeController,
    dev: Arc<CcDev>,
    queues: Vec<Arc<CcQueue>>,
    capacity: u64,
    volatile_cache: bool,
    next_tx: AtomicU64,
    obs: Arc<Obs>,
}

/// The ccNVMe host driver.
pub struct CcNvmeDriver {
    inner: Arc<CcInner>,
}

/// Crash-safe, re-entrant (re-)format of the PMR for `layout` (DESIGN.md
/// §11), carrying the discard set of `report` over in the abort logs.
/// Returns the new ring generation and each queue's abort-log count.
///
/// Probe may itself be cut by a crash at any posted write; the ordering
/// below keeps the discard set derivable at every cut:
///
///   1. append the window's tx IDs to the persistent abort logs (old
///      entries stay byte-identical in place — a partial append can only
///      lose *new* entries, and those are then still in the window of
///      the still-current old header);
///   2. publish the new counts (entries before counts: a crash between
///      them leaves appended entries invisible, never garbage);
///   3. on a same-geometry PMR, write the bumped-generation header
///      *before* touching the windows: a cut while the heads/doorbells
///      are being zeroed can resurrect a stale window ([0, old-db) once
///      a head is zeroed but its doorbell is not), and only the
///      already-durable new generation makes those slots fail epoch
///      validation instead of being replayed — their IDs are safe in the
///      abort logs by FIFO ordering;
///   4. zero the heads and doorbells (emptying the windows);
///   5. on a fresh or re-laid-out PMR the header instead goes LAST, so a
///      cut mid-format reads as unformatted rather than as a formatted
///      PMR over garbage structures;
///   6. one flush for the whole sequence (the caller's, after it posted
///      the flight-recorder header behind these writes).
fn reformat(pmr: &MmioRegion, layout: PmrLayout, report: &RecoveryReport) -> (u32, Vec<u32>) {
    let generation = report.generation.wrapping_add(1);
    let cap = layout.abort_capacity();
    let nq = layout.nqueues as usize;
    let mut counts: Vec<u32> = vec![0; nq];
    let mut present: HashSet<u64> = HashSet::new();
    // Old per-queue log prefixes can only be preserved in place when
    // the previous incarnation used the same geometry (it always does
    // in practice; a geometry change rewrites the logs from the scanned
    // report instead).
    let same_geometry = PmrLayout::decode_header(&pmr.read(0, 64)) == Some(layout);
    let mut additions: Vec<(u16, u64)> = Vec::new();
    if same_geometry {
        for q in 0..layout.nqueues {
            let old = layout.read_abort_log(q, &|off, len| pmr.read(off, len));
            counts[q as usize] = old.len() as u32;
            present.extend(old);
        }
    } else {
        let mut old: Vec<u64> = report.aborted.iter().copied().collect();
        old.sort_unstable();
        additions.extend(old.into_iter().map(|id| (0u16, id)));
    }
    additions.extend(report.unfinished.iter().map(|t| (t.queue, t.tx_id)));
    for (tq, id) in additions {
        if !present.insert(id) {
            continue;
        }
        // Prefer the transaction's own queue; spill to the next one
        // with space (a full log needs a pathological number of
        // failures — the FS degrades read-only long before).
        let start = tq as usize % nq;
        if let Some(qi) = (0..nq)
            .map(|k| (start + k) % nq)
            .find(|&qi| counts[qi] < cap)
        {
            layout.write_abort_entry(pmr, qi as u16, counts[qi], id);
            counts[qi] += 1;
        }
    }
    for q in 0..layout.nqueues {
        layout.publish_abort_count(pmr, q, counts[q as usize]);
    }
    if same_geometry {
        pmr.write(0, &layout.encode_header_with_generation(generation));
    }
    for q in 0..layout.nqueues {
        pmr.write(layout.head_off(q), &0u32.to_le_bytes());
        // ccnvme-lint: allow(persist-order) — format path: zeroing a
        // doorbell before the queue is live exposes nothing; the
        // caller's flush makes the whole layout durable at once.
        pmr.write(layout.db_off(q), &0u32.to_le_bytes());
    }
    if !same_geometry {
        pmr.write(0, &layout.encode_header_with_generation(generation));
    }
    (generation, counts)
}

impl CcNvmeDriver {
    /// Formats the PMR for `num_queues` queues of `depth` slots and
    /// attaches to `ctrl` with a fresh (empty) transaction state.
    pub fn new(ctrl: NvmeController, num_queues: u16, depth: u32) -> Self {
        let (driver, _report) = Self::probe(ctrl, num_queues, depth);
        driver
    }

    /// Attaches to `ctrl`, first scanning the PMR for the unfinished
    /// transactions of a previous incarnation (§4.4 crash recovery: "the
    /// transactions of the P-SQ that range from the P-SQ-head to P-SQDB
    /// are unfinished ones"). The report is empty when the PMR was never
    /// formatted or the previous shutdown was clean.
    pub fn probe(ctrl: NvmeController, num_queues: u16, depth: u32) -> (Self, RecoveryReport) {
        Self::probe_with_policy(ctrl, num_queues, depth, ErrPolicy::default())
    }

    /// [`CcNvmeDriver::probe`] with an explicit error-handling policy.
    pub fn probe_with_policy(
        ctrl: NvmeController,
        num_queues: u16,
        depth: u32,
        policy: ErrPolicy,
    ) -> (Self, RecoveryReport) {
        assert!(num_queues > 0 && depth > 1, "need queues with capacity");
        let pmr = ctrl.pmr();
        let volatile_cache = ctrl.profile().volatile_cache;
        let layout = PmrLayout::new(num_queues, depth);
        assert!(
            layout.total_size() <= pmr.size(),
            "PMR too small: need {} bytes, have {}",
            layout.total_size(),
            pmr.size()
        );
        // Recovery scan happens before re-formatting.
        let report = scan_pmr(&pmr).unwrap_or_default();
        let (generation, abort_counts) = reformat(&pmr, layout, &report);
        // Format the flight-recorder region under the new generation.
        // The sealed blackbox header is one more posted write riding the
        // format's single flush below — the recorder itself never
        // flushes, so attaching it adds no ordering edge to the
        // protocol (records from the previous generation simply fail
        // epoch validation at the next forensics mount).
        let obs = ctrl.link().obs.clone();
        let bb_fits = layout.blackbox_off() + ccnvme_obs::blackbox::BLACKBOX_BYTES <= pmr.size();
        let blackbox = bb_fits.then(|| {
            ccnvme_obs::Blackbox::format(
                Arc::clone(&pmr) as Arc<dyn ccnvme_obs::BlackboxSink>,
                layout.blackbox_off(),
                generation,
            )
        });
        pmr.flush();
        if let Some(bb) = blackbox {
            obs.trace.attach_blackbox(bb);
        }
        let (err, retry_rx) = ErrPath::new(policy, &obs);
        let dev = Arc::new(CcDev {
            layout,
            pmr,
            regs: ctrl.regs(),
            hostmem: ctrl.hostmem(),
            generation,
            err,
        });
        let mut queues = Vec::with_capacity(num_queues as usize);
        for i in 0..num_queues {
            let qid = i + 1;
            let q = Arc::new(CcQueue {
                idx: i,
                ring_off: layout.ring_off(i),
                db_off: layout.db_off(i),
                head_off: layout.head_off(i),
                cqdb_off: DB_BASE + qid as u64 * 8 + 4,
                obs: QueueObs::new(&obs, qid, &format!("ccnvme.q{qid}.complete_ns")),
                dev: Arc::clone(&dev),
                st: RtMutex::new(CcqSt {
                    tail: 0,
                    head_idx: 0,
                    slots: VecDeque::new(),
                    last_rung: 0,
                    failed_txs: IntMap::default(),
                    // The merged log survives the probe; appends must
                    // land after the preserved prefix.
                    abort_logged: abort_counts[i as usize],
                    retry_tail: 0,
                    finished: Vec::new(),
                }),
                cv: RtCondvar::new(),
                retry_sq: OnceLock::new(),
            });
            let cb_q = Arc::clone(&q);
            ctrl.create_io_queue(QueueParams {
                qid,
                depth,
                sq: SqBacking::Pmr {
                    ring: q.ring_off,
                    doorbell: q.db_off,
                },
                on_complete: Arc::new(move |entry| complete_in_order(&cb_q, entry)),
            });
            queues.push(q);
        }
        let inner = Arc::new(CcInner {
            ctrl,
            dev,
            queues,
            capacity: DEFAULT_CAPACITY_BLOCKS,
            volatile_cache,
            next_tx: AtomicU64::new(1),
            obs,
        });
        let wd = Arc::clone(&inner);
        let rd = Arc::clone(&inner);
        spawn_daemons(
            "ccnvme",
            retry_rx,
            move || cc_watchdog_loop(wd),
            move |q, cid| cc_resubmit(&rd.ctrl, q, cid),
        );
        (CcNvmeDriver { inner }, report)
    }

    /// The underlying controller (power-fail injection, traffic).
    pub fn controller(&self) -> &NvmeController {
        &self.inner.ctrl
    }

    /// The PMR layout in use.
    pub fn layout(&self) -> PmrLayout {
        self.inner.dev.layout
    }

    /// Allocates a fresh, globally ordered transaction ID (the
    /// linearization point of §5.1).
    pub fn alloc_tx_id(&self) -> u64 {
        // ord: SeqCst — tx IDs are the global commit order; a weaker
        // RMW could let IDs disagree with journal write order (§5.1).
        self.inner.next_tx.fetch_add(1, Ordering::SeqCst)
    }

    /// Ensures subsequently allocated transaction IDs exceed `floor`
    /// (used after recovery so new transactions sort after replayed ones).
    pub fn bump_tx_floor(&self, floor: u64) {
        // ord: SeqCst — must be ordered against concurrent alloc_tx_id
        // so post-recovery IDs strictly exceed every replayed one.
        self.inner.next_tx.fetch_max(floor + 1, Ordering::SeqCst);
    }

    /// Clears every queue's persistent abort log. The stack calls this
    /// only after recovery fully consumed the discard set — i.e. the
    /// journal's replay floor is durably past every discarded ID, so
    /// the log entries can never matter again. A crash between the
    /// floor persist and this clear merely leaves stale entries below
    /// the floor (harmless); a crash mid-clear leaves some logs zeroed
    /// and some intact, equally harmless for the same reason.
    pub fn clear_abort_logs(&self) {
        let inner = &self.inner;
        for q in &inner.queues {
            let mut st = q.st.lock();
            st.abort_logged = 0;
            q.dev.layout.publish_abort_count(&q.dev.pmr, q.idx, 0);
        }
        inner.dev.pmr.flush();
    }

    /// Waits until every outstanding request on every queue completed
    /// (graceful shutdown, §5.5: MQFS drains in-progress transactions so
    /// it never depends on ccNVMe state after a clean unmount).
    pub fn quiesce(&self) {
        for q in &self.inner.queues {
            let mut st = q.st.lock();
            while !st.slots.is_empty() {
                st = q.cv.wait(st);
            }
        }
    }

    fn queue_for_current_core(&self) -> &Arc<CcQueue> {
        let core = ccnvme_runtime::current_core();
        &self.inner.queues[core % self.inner.queues.len()]
    }
}

// ccnvme-lint: commit_path
fn enqueue(q: &Arc<CcQueue>, bio: Bio, ring: bool, flush_first: bool) {
    let tx_id = bio.tx_id;
    let trace = bio.ctx;
    let flags = bio.flags;
    let mut attempt = Attempt::from_bio(&q.dev.hostmem, &bio);
    // Persist the begin witness only for the transaction's commit
    // boundary: one record per tx in the flight recorder instead of one
    // per bio keeps the recorder's posted-write tax off the per-bio hot
    // path. The volatile ring still sees every bio.
    q.obs
        .event(EventKind::TxBegin, tx_id, 0, trace, flags.tx_commit);
    // Reserve the next ring slot (block while the ring is full; one
    // slot stays empty so a full ring never reads as an empty one). The
    // slot index doubles as the command id; it stays unique because a
    // slot is only reused after its in-order completion.
    let cmd = {
        let mut st = q.st.lock();
        while st.slots.len() as u32 >= q.dev.layout.depth - 1 {
            st = q.cv.wait(st);
        }
        let cmd = attempt.start(st.tail as u16);
        st.tail = (st.tail + 1) % q.dev.layout.depth;
        st.slots.push_back(Slot {
            bio,
            attempt,
            done: false,
            status: BioStatus::Ok,
            boundary: flags.tx_commit || !flags.tx,
            is_tx: flags.tx || flags.tx_commit,
            tx_id,
        });
        cmd
    };
    store_sqe(q, &cmd);
    q.obs
        .event(EventKind::SqeStore, tx_id, cmd.cid as u64, trace, true);
    if ring {
        let tail = if flush_first {
            // Persistent-MMIO flush: clflush + mfence + zero-byte read.
            // After this, every entry of the transaction is in the PMR
            // (step 2a).
            q.dev.pmr.flush();
            q.obs.event(EventKind::MmioFlush, tx_id, 0, trace, true);
            ring_doorbell(q)
        } else {
            // ccnvme-lint: allow(persist-order) — non-boundary ring:
            // the SQE is sealed with the ring epoch and a CRC-32C slot
            // checksum, so recovery discards a torn or stale slot;
            // durability is only promised at the commit boundary,
            // whose ring takes the flush_first arm above.
            ring_doorbell(q)
        };
        q.obs
            .event(EventKind::Doorbell, tx_id, tail as u64, trace, true);
    }
}

/// Inserts `cmd` into its P-SQ slot with posted write-combining stores
/// (step 1 of Figure 3), sealed with the ring epoch and a slot checksum
/// so recovery discards torn or stale slots.
fn store_sqe(q: &CcQueue, cmd: &NvmeCommand) {
    let mut raw = cmd.encode();
    ccnvme_obs::seal::seal_line(&mut raw, q.dev.generation);
    q.dev.pmr.write(q.ring_off + cmd.cid as u64 * 64, &raw);
}

/// Rings the persistent doorbell (step 2b of Figure 3) and returns the
/// tail it rang. Ringing with the current tail also exposes any entries
/// queued after ours by sibling threads on this core, which is safe: the
/// doorbell value is a queue position, not a transaction boundary.
fn ring_doorbell(q: &CcQueue) -> u32 {
    let tail_now = {
        let mut st = q.st.lock();
        st.last_rung = st.tail;
        st.tail
    };
    q.dev.pmr.write(q.db_off, &tail_now.to_le_bytes());
    tail_now
}

/// Completion-side logic, for the P-SQ and the retry SQ alike:
/// first-come-first-complete per queue, in transaction units (§4.4).
/// Error completions are resolved through the host error ladder first:
/// transient busy schedules a transparent retry, and everything else
/// records a typed status for the in-order pop.
fn complete_in_order(q: &Arc<CcQueue>, entry: CompletionEntry) {
    {
        let mut st = q.st.lock();
        if let Some(pos) = q.pos_of(&st, entry.cid) {
            apply_result(&mut st, q, pos, entry.status);
        }
    }
    advance_queue(q);
}

/// Records the outcome of one command attempt on its slot:
/// transparent retry for transient busy, typed terminal status
/// otherwise. Caller holds the queue lock.
fn apply_result(st: &mut CcqSt, q: &Arc<CcQueue>, pos: usize, status: Status) {
    let ring_idx = (st.head_idx + pos as u32) % q.dev.layout.depth;
    let s = &mut st.slots[pos];
    if s.done {
        return;
    }
    if let Some(backoff) = s.attempt.on_busy(status) {
        // The backoff is not device time: age the slot from here.
        s.attempt.submitted_at = ccnvme_runtime::now();
        q.dev.err.retry_after(q, ring_idx as u16, backoff);
        return;
    }
    match q.dev.err.terminal(status) {
        BioStatus::Ok => s.done = true,
        failed => {
            fail_slot(st, q, pos, failed);
        }
    }
}

/// The one way a slot ends unsuccessfully — error completion and
/// watchdog timeout alike: marks the slot at `pos` done with `status`
/// and, the first time a member of its transaction fails, dooms the
/// whole transaction. Returns `false`, changing nothing, when the slot
/// had already ended. Caller holds the queue lock.
///
/// Dooming persists the transaction ID into the queue's abort log in the
/// PMR. Posted MMIO writes stay ordered, and the log entry is written
/// before the in-order pop advances the P-SQ-head — so after any crash a
/// failed transaction is visible either inside the unfinished window or
/// in the abort log, and recovery discards it. Without this, a
/// transaction whose only failed member was an ordered-data write would
/// leave intact, checksummed journal content that recovery would replay.
fn fail_slot(st: &mut CcqSt, q: &CcQueue, pos: usize, status: BioStatus) -> bool {
    let s = &mut st.slots[pos];
    if s.done {
        return false;
    }
    s.done = true;
    s.status = status;
    let (tx_id, trace) = (s.tx_id, s.attempt.cmd.ctx);
    if s.is_tx && !st.failed_txs.contains_key(&tx_id) {
        st.failed_txs.insert(tx_id, status);
        q.dev.err.stats.tx_failures.inc();
        let dev = &q.dev;
        if dev
            .layout
            .append_abort_entry(&dev.pmr, q.idx, st.abort_logged, tx_id)
        {
            st.abort_logged += 1;
            // Posted after the log entry + count: a durable tx_abort
            // record is proof the abort-log append itself is durable.
            q.obs.event(
                EventKind::TxAbort,
                tx_id,
                st.abort_logged as u64,
                trace,
                true,
            );
        }
    }
    true
}

/// Pops the longest done-prefix that ends at a transaction boundary,
/// persists the new P-SQ-head and rings the CQ doorbell, completing the
/// popped bios (a failed transaction fails every one of its bios).
fn advance_queue(q: &CcQueue) {
    let (new_head, mut finished) = {
        let mut st = q.st.lock();
        // Longest done-prefix, truncated at the last transaction
        // boundary inside it: requests complete to the upper layer only
        // in whole transactions.
        let mut boundary_len = 0;
        for (i, s) in st.slots.iter().enumerate() {
            if !s.done {
                break;
            }
            if s.boundary {
                boundary_len = i + 1;
            }
        }
        if boundary_len == 0 {
            return;
        }
        let mut finished = std::mem::take(&mut st.finished);
        for _ in 0..boundary_len {
            let s = st.slots.pop_front().expect("prefix length checked");
            st.head_idx = (st.head_idx + 1) % q.dev.layout.depth;
            if s.attempt.token != 0 {
                q.dev.hostmem.unregister(s.attempt.token);
            }
            // Transaction-atomic error handling: one failed member fails
            // the whole transaction.
            let status = if s.is_tx {
                st.failed_txs.get(&s.tx_id).copied().unwrap_or(s.status)
            } else {
                s.status
            };
            if s.is_tx && s.boundary {
                st.failed_txs.remove(&s.tx_id);
            }
            q.obs.completed(s.attempt.submitted_at);
            finished.push((s.bio, status));
        }
        (st.head_idx, finished)
    };
    // Chained completion doorbell (§4.4): persist the new P-SQ-head
    // (posted MMIO into the PMR — a lost update only widens the recovery
    // window), then ring the CQ doorbell. One pair per transaction, not
    // per request: two of Table 1's four MMIOs. The head also advances
    // past failed or aborted transactions — they were completed to the
    // upper layer as failures, so recovery must never replay them.
    q.dev.pmr.write(q.head_off, &new_head.to_le_bytes());
    q.dev.regs.write(q.cqdb_off, &new_head.to_le_bytes());
    for (mut bio, status) in finished.drain(..) {
        // Same thinning as TxBegin: the commit bio's completion is the
        // one durable witness per transaction (it rides right after the
        // head-advance write above, which it proves).
        q.obs.event(
            EventKind::Completion,
            bio.tx_id,
            0,
            bio.ctx,
            bio.flags.tx_commit,
        );
        bio.complete(status);
    }
    // Hand the list back for the next call, unless the queue is held:
    // waiting for it would move virtual time.
    if let Some(mut st) = q.st.try_lock() {
        st.finished = finished;
    }
    // Wake slot waiters (and quiescers) only after the upper layer saw
    // the completions.
    q.cv.notify_all();
    // Drain the flight recorder's staged burst off the commit window:
    // posted here, on the completion-callback thread after the waiters
    // woke, the burst's MMIO cost and link time overlap the caller's
    // next operation instead of extending this one (and the next
    // commit's flush no longer finds it in flight).
    q.obs.hub.trace.publish();
}

/// Stage 1/2 of the timeout ladder for the ccNVMe driver. Unlike the
/// baseline driver there is no queue re-creation: the P-SQ is
/// persistent state, so a wedged transaction is aborted in place and the
/// in-order pop advances the persistent head past it (recovery must not
/// replay an aborted transaction anyway).
fn cc_watchdog_loop(inner: Arc<CcInner>) {
    watchdog_daemon(
        &inner.dev.err,
        &inner.queues,
        |q, age| {
            let aborted = {
                let mut st = q.st.lock();
                let mut to_abort: Vec<usize> = Vec::new();
                for (i, s) in st.slots.iter_mut().enumerate() {
                    if !s.done && age(&mut s.attempt) == Age::Expired {
                        to_abort.push(i);
                    }
                }
                // A timed-out transaction member dooms its whole
                // transaction.
                for &i in &to_abort {
                    if fail_slot(&mut st, q, i, BioStatus::Timeout) {
                        q.dev.err.stats.timeouts.inc();
                    }
                }
                !to_abort.is_empty()
            };
            if aborted {
                advance_queue(q);
            }
            aborted
        },
        |q| {
            // Re-ring the last rung tail: recovers a dropped P-SQDB
            // MMIO without exposing uncommitted transaction members.
            let tail = q.st.lock().last_rung;
            // ccnvme-lint: allow(persist-order) — re-ring of
            // `last_rung`, a tail whose entries were flushed before
            // the original ring; no new SQE bytes are exposed.
            q.dev.pmr.write(q.db_off, &tail.to_le_bytes());
            // And the retry tail: recovers a dropped retry doorbell.
            // Rung under the lock, so it never goes behind a newer tail
            // `cc_resubmit` rang.
            if let Some(sq) = q.retry_sq.get() {
                let st = q.st.lock();
                q.dev.regs.write(sq.db_off, &st.retry_tail.to_le_bytes());
            }
        },
    )
}

/// `q`'s retry SQ, created on first use: its qid and doorbell follow
/// the P-SQs', its depth is the P-SQ's, and its completions take the
/// same in-order path.
fn retry_sq<'q>(ctrl: &NvmeController, q: &'q Arc<CcQueue>) -> &'q RetrySq {
    q.retry_sq.get_or_init(|| {
        let depth = q.dev.layout.depth;
        let qid = q.dev.layout.nqueues + q.obs.qid;
        let sq = RetrySq {
            ring: Arc::new(Mutex::new(vec![0u8; depth as usize * 64])),
            db_off: DB_BASE + qid as u64 * 8,
        };
        let cb_q = Arc::clone(q);
        ctrl.create_io_queue(QueueParams {
            qid,
            depth,
            sq: SqBacking::Host {
                ring: Arc::clone(&sq.ring),
                doorbell: sq.db_off,
            },
            on_complete: Arc::new(move |entry| complete_in_order(&cb_q, entry)),
        });
        sq
    })
}

/// Resubmits the busy command at ring index `cid` through `q`'s retry
/// SQ, under the same command id. Its P-SQ entry stays in the recovery
/// window until the in-order pop, so the retry writes nothing to the
/// PMR and never waits for a P-SQ slot.
fn cc_resubmit(ctrl: &NvmeController, q: &Arc<CcQueue>, cid: u16) {
    let sq = retry_sq(ctrl, q);
    let mut st = q.st.lock();
    let Some(pos) = q.pos_of(&st, cid).filter(|&pos| !st.slots[pos].done) else {
        return; // aborted by the watchdog meanwhile
    };
    let cmd = st.slots[pos].attempt.restart();
    let off = st.retry_tail as usize * 64;
    sq.ring.lock()[off..off + 64].copy_from_slice(&cmd.encode());
    st.retry_tail = (st.retry_tail + 1) % q.dev.layout.depth;
    q.dev.err.stats.retries.inc();
    // Rung under the lock, like the watchdog's re-ring: the doorbell
    // only moves forward.
    q.dev.regs.write(sq.db_off, &st.retry_tail.to_le_bytes());
}

impl BlockDevice for CcNvmeDriver {
    fn submit_bio(&self, mut bio: Bio) {
        ccnvme_runtime::cpu(SUBMIT_CPU);
        let q = Arc::clone(self.queue_for_current_core());
        match bio.op {
            BioOp::Flush if !self.inner.volatile_cache => bio.complete(BioStatus::Ok),
            BioOp::Write => {
                // Transaction-aware MMIO and doorbell: members are only
                // stored; the commit flushes once and rings once.
                let commit = bio.flags.tx_commit;
                let ring = commit || !bio.flags.tx;
                enqueue(&q, bio, ring, commit);
            }
            BioOp::Flush | BioOp::Read => enqueue(&q, bio, true, false),
        }
    }

    fn num_queues(&self) -> usize {
        self.inner.queues.len()
    }

    fn has_volatile_cache(&self) -> bool {
        self.inner.volatile_cache
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity
    }

    fn obs(&self) -> Option<Arc<Obs>> {
        Some(Arc::clone(&self.inner.obs))
    }
}

#[cfg(test)]
mod tests {
    use ccnvme_block::{read_block, submit_and_wait, BioBuf, BioFlags, BioWaiter};
    use ccnvme_sim::Sim;
    use ccnvme_ssd::{CacheSurvival, CrashMode, CtrlConfig, SsdProfile};
    use parking_lot::Mutex;

    use super::*;

    fn buf(byte: u8) -> BioBuf {
        Arc::new(Mutex::new(vec![byte; 4096]))
    }

    fn driver_on(profile: SsdProfile, host_cores: usize) -> CcNvmeDriver {
        let mut cfg = CtrlConfig::new(profile);
        cfg.device_core = host_cores;
        CcNvmeDriver::new(NvmeController::new(cfg), host_cores as u16, 64)
    }

    /// Submits a transaction of `n` member writes plus a commit write and
    /// returns a waiter over all of them.
    fn submit_tx(drv: &CcNvmeDriver, tx_id: u64, base_lba: u64, n: u64) -> BioWaiter {
        let waiter = BioWaiter::new();
        for i in 0..n {
            let mut bio =
                Bio::write(base_lba + i, buf(i as u8 + 1), BioFlags::TX).with_tx_id(tx_id);
            waiter.attach(&mut bio);
            drv.submit_bio(bio);
        }
        let mut commit = Bio::write(base_lba + n, buf(0xcc), BioFlags::TX_COMMIT).with_tx_id(tx_id);
        waiter.attach(&mut commit);
        drv.submit_bio(commit);
        waiter
    }

    #[test]
    fn transaction_completes_and_data_lands() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::optane_p5800x(), 1);
            let w = submit_tx(&drv, drv.alloc_tx_id(), 100, 3);
            w.wait().expect("tx durable");
            for (i, lba) in (100..103).enumerate() {
                assert_eq!(
                    drv.controller().store().block(lba).expect("landed")[0],
                    i as u8 + 1
                );
            }
            assert_eq!(
                drv.controller().store().block(103).expect("landed")[0],
                0xcc
            );
        });
        sim.run();
    }

    #[test]
    fn one_flush_one_doorbell_per_transaction() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::optane_p5800x(), 1);
            let t0 = drv.controller().link().traffic.snapshot();
            let w = submit_tx(&drv, drv.alloc_tx_id(), 0, 7); // 8 requests total
            w.wait().expect("tx ok");
            let d = drv.controller().link().traffic.snapshot().since(&t0);
            // Transaction-aware MMIO and doorbell: exactly one persistent
            // flush regardless of transaction size (§4.3).
            assert_eq!(d.mmio_flushes, 1);
            // Table 1 (MQFS/ccNVMe): 4 MMIOs — flush + P-SQDB + P-SQ-head
            // + CQDB. P-SQDB and P-SQ-head are PMR stores; CQDB is the
            // register doorbell.
            assert_eq!(d.mmio_doorbells, 1, "one CQDB ring");
            // No SQE-fetch DMA (entries read from PMR); one CQE per
            // request.
            assert_eq!(d.dma_queue, 8);
            assert_eq!(d.block_ios, 8);
        });
        sim.run();
    }

    #[test]
    fn atomicity_point_is_the_doorbell() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::optane_p5800x(), 1);
            let tx = drv.alloc_tx_id();
            // Submit the whole transaction; do NOT wait for durability.
            let _w = submit_tx(&drv, tx, 50, 2);
            // Crash immediately after submit_bio(commit) returned. The
            // doorbell ring is a posted write; let it arrive (any crash
            // cut that includes it must show the WHOLE transaction —
            // entries were flushed before the doorbell, so "all").
            let mode = CrashMode {
                torn: usize::MAX,
                cache: CacheSurvival::DropAll,
            };
            let image = drv.controller().power_fail(mode);
            let ctrl2 =
                NvmeController::from_image(CtrlConfig::new(SsdProfile::optane_p5800x()), &image);
            let (_drv2, report) = CcNvmeDriver::probe(ctrl2, 1, 64);
            let tx_rec = report
                .unfinished
                .iter()
                .find(|t| t.tx_id == tx)
                .expect("transaction visible in P-SQ window");
            assert_eq!(tx_rec.requests.len(), 3);
            assert!(tx_rec.has_commit);
        });
        sim.run();
    }

    #[test]
    fn uncommitted_members_are_invisible_or_torn_after_crash() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::optane_p5800x(), 1);
            let tx = drv.alloc_tx_id();
            // Members only — no commit, so no flush and no doorbell.
            for i in 0..2u64 {
                let bio = Bio::write(60 + i, buf(1), BioFlags::TX).with_tx_id(tx);
                drv.submit_bio(bio);
            }
            let image = drv.controller().power_fail(CrashMode::adversarial(2));
            let ctrl2 =
                NvmeController::from_image(CtrlConfig::new(SsdProfile::optane_p5800x()), &image);
            let (_drv2, report) = CcNvmeDriver::probe(ctrl2, 1, 64);
            // Doorbell never rung: the window is empty — the transaction
            // atomically never happened.
            assert!(report.unfinished.iter().all(|t| t.tx_id != tx));
            // And the device never executed the writes.
            assert!(!image.blocks.contains_key(&60));
        });
        sim.run();
    }

    #[test]
    fn completions_are_delivered_in_transaction_units() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::optane_p5800x(), 1);
            let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let tx = drv.alloc_tx_id();
            for i in 0..3u64 {
                let flags = if i == 2 {
                    BioFlags::TX_COMMIT
                } else {
                    BioFlags::TX
                };
                let mut bio = Bio::write(200 + i, buf(1), flags).with_tx_id(tx);
                let order2 = Arc::clone(&order);
                bio.end_io = Some(Arc::new(move |_| order2.lock().push(i)));
                drv.submit_bio(bio);
            }
            drv.quiesce();
            // All three completed together, in submission order.
            assert_eq!(*order.lock(), vec![0, 1, 2]);
        });
        sim.run();
    }

    #[test]
    fn recovery_after_clean_run_is_empty() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::optane_p5800x(), 1);
            let w = submit_tx(&drv, drv.alloc_tx_id(), 300, 2);
            w.wait().expect("tx ok");
            drv.quiesce();
            let image = drv.controller().crash_snapshot(CrashMode::SETTLED);
            let ctrl2 =
                NvmeController::from_image(CtrlConfig::new(SsdProfile::optane_p5800x()), &image);
            let (_drv2, report) = CcNvmeDriver::probe(ctrl2, 1, 64);
            assert!(report.unfinished.is_empty(), "head caught up with doorbell");
        });
        sim.run();
    }

    #[test]
    fn fatomic_latency_is_microseconds_durability_is_not() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::optane_905p(), 1);
            let tx = drv.alloc_tx_id();
            let t0 = ccnvme_sim::now();
            let w = submit_tx(&drv, tx, 400, 2);
            let atomic_done = ccnvme_sim::now() - t0; // submit returned
            w.wait().expect("durable");
            let durable_done = ccnvme_sim::now() - t0;
            // Atomicity costs MMIOs only (~a few us); durability waits
            // for the device (~10 us write latency + completion).
            assert!(atomic_done < 8_000, "atomic={atomic_done}");
            assert!(durable_done > atomic_done + 5_000, "durable={durable_done}");
        });
        sim.run();
    }

    #[test]
    fn non_tx_requests_flow_like_plain_nvme() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::optane_p5800x(), 1);
            let data = buf(0x42);
            submit_and_wait(&drv, Bio::write(500, data, BioFlags::NONE)).expect("write");
            assert_eq!(read_block(&drv, 500).expect("read")[0], 0x42);
        });
        sim.run();
    }

    #[test]
    fn tx_ids_are_monotone_and_bumpable() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::optane_p5800x(), 1);
            let a = drv.alloc_tx_id();
            let b = drv.alloc_tx_id();
            assert!(b > a);
            drv.bump_tx_floor(1000);
            assert!(drv.alloc_tx_id() > 1000);
        });
        sim.run();
    }

    #[test]
    fn ring_wraps_correctly_under_sustained_load() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::optane_p5800x(), 1);
            // 3 laps around the 64-deep ring.
            for round in 0..48u64 {
                let w = submit_tx(&drv, drv.alloc_tx_id(), round * 8, 3);
                w.wait().expect("tx ok");
            }
            drv.quiesce();
        });
        sim.run();
    }

    /// A transaction's virtual latency does not depend on where the
    /// flight recorder stands in its ring: a burst whose slots cross
    /// the ring's end is drained after the waiters wake, like every
    /// other. A single-block transaction persists three records (begin,
    /// doorbell, completion) and the ring has 255 = 3 × 85 slots, so
    /// the `k` plain writes before the loop (one doorbell record each)
    /// fix for good which of a transaction's records meets the end.
    #[test]
    fn a_transactions_latency_does_not_depend_on_the_recorders_phase() {
        use ccnvme_obs::blackbox::BLACKBOX_SLOTS;
        const TXS: u64 = 270;
        const WARM_UP: usize = 5;
        assert!(
            3 * TXS >= 3 * BLACKBOX_SLOTS as u64,
            "three records a transaction, three laps"
        );
        for k in 0..3u64 {
            let lats = Sim::run_main(2, move || {
                let drv = driver_on(SsdProfile::optane_p5800x(), 1);
                for lba in 0..k {
                    submit_and_wait(&drv, Bio::write(lba, buf(1), BioFlags::NONE)).expect("write");
                }
                (0..TXS)
                    .map(|i| {
                        let t0 = ccnvme_sim::now();
                        submit_tx(&drv, drv.alloc_tx_id(), 8 + i % 64, 0)
                            .wait()
                            .expect("tx ok");
                        ccnvme_sim::now() - t0
                    })
                    .collect::<Vec<_>>()
            });
            let steady = lats[WARM_UP];
            let off: Vec<(usize, u64)> = lats
                .iter()
                .copied()
                .enumerate()
                .skip(WARM_UP)
                .filter(|&(_, lat)| lat != steady)
                .collect();
            assert_eq!(
                off,
                vec![],
                "k = {k}: transactions off the {steady} ns latency"
            );
        }
    }

    mod faults {
        use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, Trigger};

        use super::*;

        fn driver_on_faulty(plan: FaultPlan, depth: u32) -> CcNvmeDriver {
            let mut cfg =
                CtrlConfig::new(SsdProfile::optane_p5800x()).with_fault(Arc::new(plan.injector()));
            cfg.device_core = 1;
            CcNvmeDriver::new(NvmeController::new(cfg), 1, depth)
        }

        /// Submits a transaction and collects every member's completion
        /// status, in submission order.
        fn submit_tx_statuses(
            drv: &CcNvmeDriver,
            tx_id: u64,
            base_lba: u64,
            n: u64,
        ) -> Arc<Mutex<Vec<BioStatus>>> {
            let statuses: Arc<Mutex<Vec<BioStatus>>> = Arc::new(Mutex::new(Vec::new()));
            for i in 0..=n {
                let flags = if i == n {
                    BioFlags::TX_COMMIT
                } else {
                    BioFlags::TX
                };
                let mut bio = Bio::write(base_lba + i, buf(i as u8 + 1), flags).with_tx_id(tx_id);
                let st2 = Arc::clone(&statuses);
                bio.end_io = Some(Arc::new(move |status| st2.lock().push(status)));
                drv.submit_bio(bio);
            }
            statuses
        }

        #[test]
        fn busy_member_is_retried_and_tx_succeeds() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                let plan = FaultPlan::new(7).rule(FaultRule::new(FaultKind::Busy, Trigger::Nth(1)));
                let drv = driver_on_faulty(plan, 64);
                let w = submit_tx(&drv, drv.alloc_tx_id(), 100, 3);
                w.wait()
                    .expect("transaction durable despite transient busy");
                for (i, lba) in (100..103).enumerate() {
                    assert_eq!(
                        drv.controller().store().block(lba).expect("landed")[0],
                        i as u8 + 1
                    );
                }
                let e = drv.controller().link().obs.metrics.snapshot();
                assert_eq!(e.counter("host_err.busy_completions"), 1);
                assert_eq!(e.counter("host_err.retries"), 1);
                assert_eq!(e.counter("host_err.retries_exhausted"), 0);
                assert_eq!(e.counter("host_err.tx_failures"), 0);
            });
            sim.run();
        }

        #[test]
        fn media_error_fails_the_whole_transaction() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                // Fault exactly one member write (lba 201).
                let plan = FaultPlan::new(7).rule(FaultRule::new(
                    FaultKind::MediaWrite,
                    Trigger::LbaRange {
                        start: 201,
                        end: 202,
                    },
                ));
                let drv = driver_on_faulty(plan, 64);
                let statuses = submit_tx_statuses(&drv, drv.alloc_tx_id(), 200, 3);
                drv.quiesce();
                // Transaction-atomic failure: every bio of the tx —
                // including the untouched members and the commit — fails
                // with the member's media status.
                assert_eq!(*statuses.lock(), vec![BioStatus::Media; 4]);
                let e = drv.controller().link().obs.metrics.snapshot();
                assert_eq!(e.counter("host_err.media_errors"), 1);
                assert_eq!(e.counter("host_err.tx_failures"), 1);
                // The queue keeps working: an independent follow-up
                // transaction succeeds.
                let w = submit_tx(&drv, drv.alloc_tx_id(), 300, 2);
                w.wait().expect("next tx unaffected");
            });
            sim.run();
        }

        #[test]
        fn stalled_commit_times_out_and_fails_tx() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                // The 4th write command fetched is the commit.
                let plan =
                    FaultPlan::new(7).rule(FaultRule::new(FaultKind::Stall, Trigger::Nth(4)));
                let drv = driver_on_faulty(plan, 64);
                let policy = ErrPolicy::default();
                let t0 = ccnvme_sim::now();
                let statuses = submit_tx_statuses(&drv, drv.alloc_tx_id(), 400, 3);
                drv.quiesce();
                let elapsed = ccnvme_sim::now() - t0;
                assert!(elapsed >= policy.timeout, "elapsed={elapsed}");
                assert_eq!(*statuses.lock(), vec![BioStatus::Timeout; 4]);
                let e = drv.controller().link().obs.metrics.snapshot();
                assert_eq!(e.counter("host_err.timeouts"), 1);
                assert_eq!(e.counter("host_err.tx_failures"), 1);
                // The stalled transaction was aborted in place; the ring
                // still serves new transactions.
                let w = submit_tx(&drv, drv.alloc_tx_id(), 500, 2);
                w.wait().expect("queue alive after tx abort");
            });
            sim.run();
        }

        #[test]
        fn failed_tx_is_in_the_discard_set_after_power_fail() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                // Fail one ordered member; the commit and the other
                // members land intact — exactly the case where journal
                // content would look replayable.
                let plan = FaultPlan::new(3).rule(FaultRule::new(
                    FaultKind::MediaWrite,
                    Trigger::LbaRange {
                        start: 701,
                        end: 702,
                    },
                ));
                let drv = driver_on_faulty(plan, 64);
                let tx = drv.alloc_tx_id();
                let statuses = submit_tx_statuses(&drv, tx, 700, 3);
                drv.quiesce();
                assert_eq!(*statuses.lock(), vec![BioStatus::Media; 4]);
                // A later healthy transaction advances the head past the
                // failed one.
                let ok_tx = drv.alloc_tx_id();
                submit_tx(&drv, ok_tx, 800, 2).wait().expect("tx ok");
                drv.quiesce();
                let image = drv.controller().power_fail(CrashMode::adversarial(5));
                let ctrl2 = NvmeController::from_image(
                    CtrlConfig::new(SsdProfile::optane_p5800x()),
                    &image,
                );
                let (_drv2, report) = CcNvmeDriver::probe(ctrl2, 1, 64);
                // The abort log preserves the failure across the crash:
                // the tx is discarded even though the window moved on.
                assert!(report.aborted.contains(&tx), "abort log persisted");
                assert!(report.unfinished_tx_ids().contains(&tx));
                assert!(!report.unfinished_tx_ids().contains(&ok_tx));
            });
            sim.run();
        }

        #[test]
        fn fail_slot_ends_a_slot_once_and_dooms_its_transaction_once() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                let drv = driver_on(SsdProfile::optane_p5800x(), 1);
                let tx = drv.alloc_tx_id();
                // Two members, no commit: stored, never rung, so both
                // slots stay outstanding.
                for lba in 0..2u64 {
                    drv.submit_bio(Bio::write(lba, buf(1), BioFlags::TX).with_tx_id(tx));
                }
                let q = &drv.inner.queues[0];
                {
                    let mut st = q.st.lock();
                    // Retry budget exhausted on member 0, which the
                    // watchdog then ages out as well; member 1 times out.
                    assert!(fail_slot(&mut st, q, 0, BioStatus::Busy));
                    assert!(!fail_slot(&mut st, q, 0, BioStatus::Timeout));
                    assert!(fail_slot(&mut st, q, 1, BioStatus::Timeout));
                    assert_eq!(st.slots[0].status, BioStatus::Busy);
                    assert_eq!(st.failed_txs.get(&tx), Some(&BioStatus::Busy));
                    assert_eq!(st.abort_logged, 1);
                }
                let e = drv.controller().link().obs.metrics.snapshot();
                assert_eq!(e.counter("host_err.tx_failures"), 1);
                let pmr = &q.dev.pmr;
                pmr.flush();
                let log = q
                    .dev
                    .layout
                    .read_abort_log(q.idx, &|off, len| pmr.read(off, len));
                assert_eq!(log, vec![tx]);
            });
            sim.run();
        }

        #[test]
        fn dropped_psqdb_is_recovered_by_watchdog_kick() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                let plan = FaultPlan::new(7)
                    .rule(FaultRule::new(FaultKind::DoorbellDrop, Trigger::Nth(1)));
                let drv = driver_on_faulty(plan, 64);
                let policy = ErrPolicy::default();
                let t0 = ccnvme_sim::now();
                let w = submit_tx(&drv, drv.alloc_tx_id(), 600, 2);
                w.wait().expect("tx durable after re-rung doorbell");
                let elapsed = ccnvme_sim::now() - t0;
                assert!(elapsed >= policy.kick_after, "elapsed={elapsed}");
                assert!(elapsed < policy.timeout, "kick, not abort: {elapsed}");
                let e = drv.controller().link().obs.metrics.snapshot();
                assert!(e.counter("host_err.doorbell_kicks") >= 1);
                assert_eq!(e.counter("host_err.timeouts"), 0);
                assert_eq!(e.counter("host_err.tx_failures"), 0);
                for (i, lba) in (600..602).enumerate() {
                    assert_eq!(
                        drv.controller().store().block(lba).expect("landed")[0],
                        i as u8 + 1
                    );
                }
            });
            sim.run();
        }

        #[test]
        fn busy_head_of_a_full_ring_is_retried_before_any_kick() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                // A 4-deep ring holds three commands: three writes fill
                // it, and the first of them, its head, completes busy.
                let plan = FaultPlan::new(7).rule(FaultRule::new(FaultKind::Busy, Trigger::Nth(1)));
                let drv = driver_on_faulty(plan, 4);
                let t0 = ccnvme_sim::now();
                let waiter = BioWaiter::new();
                for lba in 0..3u64 {
                    let mut bio = Bio::write(lba, buf(lba as u8 + 1), BioFlags::NONE);
                    waiter.attach(&mut bio);
                    drv.submit_bio(bio);
                }
                assert_eq!(waiter.wait(), Ok(()));
                let elapsed = ccnvme_sim::now() - t0;
                assert!(
                    elapsed < ErrPolicy::default().kick_after,
                    "elapsed={elapsed}"
                );
                let e = drv.controller().link().obs.metrics.snapshot();
                assert_eq!(e.counter("host_err.retries"), 1);
                assert_eq!(e.counter("host_err.timeouts"), 0);
                for lba in 0..3u64 {
                    assert_eq!(
                        drv.controller().store().block(lba).expect("landed")[0],
                        lba as u8 + 1
                    );
                }
            });
            sim.run();
        }

        #[test]
        fn a_crash_during_a_retry_recovers_each_member_once() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                let plan = FaultPlan::new(7).rule(FaultRule::new(FaultKind::Busy, Trigger::Nth(1)));
                let drv = driver_on_faulty(plan, 64);
                let tx = drv.alloc_tx_id();
                let _w = submit_tx(&drv, tx, 900, 2);
                // Crash as soon as the busy member's retry is submitted.
                let retries = drv
                    .controller()
                    .link()
                    .obs
                    .metrics
                    .counter("host_err.retries");
                while retries.get() == 0 {
                    ccnvme_sim::delay(1_000);
                }
                let mode = CrashMode {
                    torn: usize::MAX,
                    cache: CacheSurvival::DropAll,
                };
                let image = drv.controller().power_fail(mode);
                let ctrl2 = NvmeController::from_image(
                    CtrlConfig::new(SsdProfile::optane_p5800x()),
                    &image,
                );
                let (_drv2, report) = CcNvmeDriver::probe(ctrl2, 1, 64);
                let txs: Vec<_> = report.unfinished.iter().filter(|t| t.tx_id == tx).collect();
                assert_eq!(txs.len(), 1, "{:?}", report.unfinished);
                let lbas: Vec<u64> = txs[0].requests.iter().map(|r| r.lba).collect();
                assert_eq!(lbas, [900, 901, 902]);
                assert_eq!(report.rejected_slots, 0);
            });
            sim.run();
        }

        #[test]
        fn a_dropped_retry_doorbell_is_recovered_by_one_kick() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                // The write completes busy, and the doorbell of its retry
                // (the second the device sees, after the P-SQDB ring) is
                // dropped.
                let plan = FaultPlan::new(7)
                    .rule(FaultRule::new(FaultKind::Busy, Trigger::Nth(1)))
                    .rule(FaultRule::new(FaultKind::DoorbellDrop, Trigger::Nth(2)));
                let drv = driver_on_faulty(plan, 64);
                let policy = ErrPolicy::default();
                let t0 = ccnvme_sim::now();
                submit_and_wait(&drv, Bio::write(5, buf(5), BioFlags::NONE)).expect("write");
                let elapsed = ccnvme_sim::now() - t0;
                assert!(elapsed >= policy.kick_after, "elapsed={elapsed}");
                assert!(elapsed < policy.timeout, "kick, not abort: {elapsed}");
                let e = drv.controller().link().obs.metrics.snapshot();
                assert_eq!(e.counter("fault.doorbell_drops"), 1);
                assert_eq!(e.counter("host_err.retries"), 1);
                assert_eq!(e.counter("host_err.doorbell_kicks"), 1);
                assert_eq!(e.counter("host_err.timeouts"), 0);
                assert_eq!(drv.controller().store().block(5).expect("landed")[0], 5);
            });
            sim.run();
        }
    }
}
