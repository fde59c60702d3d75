//! The simulated NVMe controller.
//!
//! One daemon thread per I/O queue fetches commands (DMA from host
//! memory, or a direct read when the queue lives in the PMR), transfers
//! data over the shared PCIe link, reserves device-internal resources
//! (IOPS and media-bandwidth gates) and hands the command to a global
//! *completer* that applies the media effect at the computed completion
//! instant, posts the completion (CQE DMA + optional MSI-X) and invokes
//! the driver's callback.
//!
//! Power loss can be injected at any instant ([`CrashMode`]): in-flight
//! commands vanish, the volatile write cache survives as the mode's
//! [`CacheSurvival`] says, and the PMR image keeps the committed bytes
//! plus a PCIe-ordered prefix of the in-flight MMIO writes (§4.4 of the
//! paper: the PMR content is saved to flash by capacitor energy and
//! restored on the next power-up).

use std::{
    cmp::Reverse,
    collections::{BinaryHeap, HashMap},
    sync::{
        atomic::{AtomicBool, AtomicU64, Ordering},
        Arc,
    },
};

use ccnvme_fault::{FaultInjector, FaultKind, FaultOp, OpClass};
use ccnvme_obs::{hash::IntMap, EventKind, Histogram, TraceEvent};
use ccnvme_pcie::{
    cost, mmio::RegionKind, BandwidthGate, ChannelBank, DmaKind, MmioRegion, PcieLink, PmrImage,
};
use ccnvme_runtime::{Ns, RtCondvar, RtMutex};
use parking_lot::Mutex;

use crate::{
    command::{CompletionEntry, NvmeCommand, Opcode, Status},
    hostmem::{HostBuf, HostMemory, SrcBuf},
    persist::{PersistEventKind, PersistLog},
    profile::SsdProfile,
    store::{BlockStore, CacheSurvival, MediaBlock, BLOCK_SIZE},
};

/// Extra latency for fetching a queue entry directly from the PMR
/// (device-internal memory read, no PCIe crossing).
const PMR_FETCH_NS: Ns = 100;

/// Size of the doorbell/control register BAR.
const REGS_SIZE: u64 = 1 << 16;

/// Controller construction options.
#[derive(Debug, Clone)]
pub struct CtrlConfig {
    /// Device performance profile.
    pub profile: SsdProfile,
    /// Transaction-aware interrupt coalescing (§4.6): raise an MSI-X
    /// only for the commit request of a transaction (and for non-
    /// transactional requests), suppressing the per-member interrupts.
    pub irq_coalesce_tx: bool,
    /// Simulated core the controller's daemon threads run on. Device
    /// threads never execute CPU work, but pinning them away from host
    /// cores keeps scheduling traces readable.
    pub device_core: usize,
    /// Optional fault injector consulted at command execution and
    /// doorbell arrival. `None` means a healthy device.
    pub fault: Option<Arc<FaultInjector>>,
    /// Record every durable-effecting event into a [`PersistLog`] so the
    /// crash-surface enumerator can materialize the exact durable state
    /// at every event boundary (DESIGN.md §11). Off by default.
    pub record_persistence: bool,
}

impl CtrlConfig {
    /// Stock NVMe behaviour for `profile` (no ccNVMe device extensions).
    pub fn new(profile: SsdProfile) -> Self {
        CtrlConfig {
            profile,
            irq_coalesce_tx: false,
            device_core: 0,
            fault: None,
            record_persistence: false,
        }
    }

    /// Attaches a fault injector (builder style).
    pub fn with_fault(mut self, injector: Arc<FaultInjector>) -> Self {
        self.fault = Some(injector);
        self
    }
}

/// Where a submission queue's entries and its tail doorbell live.
pub enum SqBacking {
    /// Classic NVMe: a ring in host memory, which the device fetches
    /// with a 64 B DMA per entry (the paper's "DMA(Q)"), and a volatile
    /// doorbell register.
    Host {
        /// The ring.
        ring: Arc<Mutex<Vec<u8>>>,
        /// Byte offset of the doorbell within the register BAR.
        doorbell: u64,
    },
    /// ccNVMe: a ring inside the device's PMR (P-SQ), which the host
    /// wrote via MMIO so the device reads it without crossing PCIe, and
    /// a persistent doorbell (P-SQDB) beside it.
    Pmr {
        /// Byte offset of slot 0 within the PMR.
        ring: u64,
        /// Byte offset of the doorbell within the PMR.
        doorbell: u64,
    },
}

/// Driver callback invoked for every completion.
pub type CompletionFn = Arc<dyn Fn(CompletionEntry) + Send + Sync>;

/// Parameters for creating one I/O queue.
pub struct QueueParams {
    /// Queue identifier (1-based for I/O queues).
    pub qid: u16,
    /// Ring capacity in slots.
    pub depth: u32,
    /// Entry storage and tail doorbell.
    pub sq: SqBacking,
    /// Completion callback (runs on the device completer thread).
    pub on_complete: CompletionFn,
}

/// What a power cut leaves beyond the PMR's arrived bytes and the
/// durable media: asked of a live device
/// ([`NvmeController::crash_snapshot`]) and of a recorded run
/// ([`PersistCursor::image`](crate::PersistCursor::image)) in the same
/// terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashMode {
    /// How many not-yet-arrived posted MMIO writes additionally survive
    /// (beyond those that already arrived). PCIe ordering makes this a
    /// prefix of the in-flight queue.
    pub torn: usize,
    /// The fate of blocks still in the volatile write cache.
    pub cache: CacheSurvival,
}

impl CrashMode {
    /// A settled device: every posted write landed, the whole cache
    /// destaged — what a graceful power-down or a converged recovery
    /// leaves.
    pub const SETTLED: CrashMode = CrashMode {
        torn: usize::MAX,
        cache: CacheSurvival::KeepAll,
    };

    /// The most adversarial crash: nothing beyond what provably arrived
    /// survives, and the whole volatile cache is lost. The seed selects
    /// nothing (the cache is dropped whole); it stays for API stability.
    pub fn adversarial(_seed: u64) -> Self {
        CrashMode {
            torn: 0,
            cache: CacheSurvival::DropAll,
        }
    }
}

/// The device state that survives a power cycle. It shares its PMR
/// pages and its blocks with the device that left it and with every
/// device booted from it; nothing in it is copied until written.
#[derive(Clone)]
pub struct DurableImage {
    /// PMR content (saved to flash on power loss, restored on power-up).
    pub pmr: PmrImage,
    /// Durable media blocks.
    pub blocks: IntMap<u64, MediaBlock>,
}

impl DurableImage {
    /// A device that never ran: a zeroed PMR of `pmr_size` bytes and
    /// empty media.
    pub fn blank(pmr_size: u64) -> DurableImage {
        DurableImage {
            pmr: PmrImage::zeroed(pmr_size as usize),
            blocks: IntMap::default(),
        }
    }
}

/// What the completer must do when a command's media time arrives.
enum Action {
    /// Programs the first `len` bytes of the host buffer `buf` (whole
    /// blocks) from `lba` on. The device reads `buf` only now, at the
    /// media program, and keeps its blocks by reference: the buffer is
    /// immutable, so nobody can change them under the store.
    WriteBlocks {
        lba: u64,
        buf: SrcBuf,
        len: usize,
        durable: bool,
        also_flush: bool,
    },
    ReadBlocks {
        lba: u64,
        nblocks: u16,
        token: u64,
    },
    Flush,
    Nop,
}

struct Job {
    at: Ns,
    seq: u64,
    qid: u16,
    cid: u16,
    sq_head: u32,
    status: Status,
    tx_id: u64,
    tx_flags: crate::command::TxFlags,
    ctx: ccnvme_obs::TraceCtx,
    irq: bool,
    action: Action,
    on_complete: CompletionFn,
}

impl Job {
    /// Command `cid`'s completion on `q`, delivered an interrupt latency
    /// after `at`: untagged, interrupting, with nothing left to do.
    /// [`push_with_seq`] stamps its sequence number.
    fn new(q: &QueueShared, cid: u16, sq_head: u32, at: Ns, status: Status) -> Job {
        Job {
            at: at + cost::IRQ_DELIVERY,
            seq: 0,
            qid: q.qid,
            cid,
            sq_head,
            status,
            tx_id: 0,
            tx_flags: crate::command::TxFlags::NONE,
            ctx: ccnvme_obs::TraceCtx::ZERO,
            irq: true,
            action: Action::Nop,
            on_complete: Arc::clone(&q.on_complete),
        }
    }

    /// [`Job::new`] for `cmd`, carrying its transaction tags.
    fn of(q: &QueueShared, cmd: &NvmeCommand, sq_head: u32, at: Ns, status: Status) -> Job {
        Job {
            tx_id: cmd.tx_id,
            tx_flags: cmd.tx_flags,
            ctx: cmd.ctx,
            ..Job::new(q, cmd.cid, sq_head, at, status)
        }
    }
}

impl PartialEq for Job {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Job {}
impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Job {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct CompleterSt {
    heap: BinaryHeap<Reverse<Job>>,
    seq: u64,
    shutdown: bool,
}

struct CompleterShared {
    st: RtMutex<CompleterSt>,
    cv: RtCondvar,
}

struct QSt {
    tail: u32,
    /// Arrival time of the doorbell write that set `tail`: the worker
    /// must not fetch before this instant (PCIe FIFO ordering guarantees
    /// the queue entries have arrived by then).
    tail_visible_at: Ns,
    shutdown: bool,
}

struct QueueShared {
    qid: u16,
    depth: u32,
    sq: SqBacking,
    on_complete: CompletionFn,
    st: RtMutex<QSt>,
    cv: RtCondvar,
}

impl QueueShared {
    /// Tells the queue's worker to exit.
    fn stop(&self) {
        self.st.lock().shutdown = true;
        self.cv.notify_all();
    }
}

struct CtrlInner {
    cfg: CtrlConfig,
    link: Arc<PcieLink>,
    store: Arc<BlockStore>,
    pmr: Arc<MmioRegion>,
    regs: Arc<MmioRegion>,
    hostmem: Arc<HostMemory>,
    read_channels: ChannelBank,
    write_channels: ChannelBank,
    /// Cache flushes serialize on the device (a FLUSH drains the whole
    /// volatile cache; concurrent flushes queue behind each other).
    flush_unit: ChannelBank,
    read_bw: BandwidthGate,
    write_bw: BandwidthGate,
    completer: CompleterShared,
    queues: Mutex<HashMap<u16, Arc<QueueShared>>>,
    db_targets: Mutex<IntMap<(bool, u64), Arc<QueueShared>>>,
    /// Bit [`doorbell_bit`] of every doorbell ever registered, so a
    /// store that cannot be one — a P-SQ head or a CQ head update —
    /// skips the `db_targets` lock. Bits are never cleared: a deleted
    /// queue's, or a colliding store's, only costs the lookup.
    db_filter: AtomicU64,
    alive: AtomicBool,
    /// Device service time per command (fetch-to-media-done estimate),
    /// exported as `ssd.service_ns`.
    svc_hist: Arc<Histogram>,
    /// Durable-effecting event log, present when
    /// [`CtrlConfig::record_persistence`] is set.
    persist: Option<Arc<PersistLog>>,
}

/// A simulated NVMe SSD controller.
///
/// Must be created and used from inside a simulation (its worker threads
/// are simulated daemon threads).
pub struct NvmeController {
    inner: Arc<CtrlInner>,
}

impl NvmeController {
    /// Creates a powered-up controller with empty media.
    pub fn new(cfg: CtrlConfig) -> Self {
        let blank = DurableImage::blank(cfg.profile.pmr_size);
        Self::from_image(cfg, &blank)
    }

    /// Creates a controller powered up from `image`: its media holds the
    /// image's blocks and its PMR the image's pages, shared until
    /// written, and a recorded run replays on top of the image.
    pub fn from_image(cfg: CtrlConfig, image: &DurableImage) -> Self {
        let profile = cfg.profile.clone();
        let link = Arc::new(PcieLink::new(profile.link_bw));
        let store = Arc::new(BlockStore::from_image(
            !profile.volatile_cache,
            image.blocks.clone(),
        ));
        let pmr = Arc::new(MmioRegion::from_image(
            "pmr",
            RegionKind::Pmr,
            image.pmr.clone(),
            Arc::clone(&link),
        ));
        let regs = Arc::new(MmioRegion::new(
            "regs",
            RegionKind::Registers,
            REGS_SIZE,
            Arc::clone(&link),
        ));
        if let Some(f) = cfg.fault.as_deref() {
            f.counters().register_into(&link.obs.metrics);
        }
        let persist = cfg
            .record_persistence
            .then(|| Arc::new(PersistLog::new(image.clone())));
        let inner = Arc::new(CtrlInner {
            read_channels: ChannelBank::new(profile.read_channels()),
            write_channels: ChannelBank::new(profile.write_channels()),
            flush_unit: ChannelBank::new(1),
            read_bw: BandwidthGate::new(profile.seq_read_bw),
            write_bw: BandwidthGate::new(profile.seq_write_bw),
            svc_hist: link.obs.metrics.histogram("ssd.service_ns"),
            cfg,
            link,
            store,
            pmr,
            regs,
            hostmem: Arc::new(HostMemory::new()),
            completer: CompleterShared {
                st: RtMutex::new(CompleterSt {
                    heap: BinaryHeap::new(),
                    seq: 0,
                    shutdown: false,
                }),
                cv: RtCondvar::new(),
            },
            queues: Mutex::new(HashMap::new()),
            db_targets: Mutex::new(IntMap::default()),
            db_filter: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            persist,
        });
        // Doorbell dispatch hooks: both BARs route writes at registered
        // offsets to the owning queue's worker.
        let weak = Arc::downgrade(&inner);
        inner
            .regs
            .set_write_hook(Box::new(move |off, data, arrive_at| {
                if let Some(i) = weak.upgrade() {
                    i.doorbell(false, off, data, arrive_at);
                }
            }));
        let weak = Arc::downgrade(&inner);
        inner
            .pmr
            .set_write_hook(Box::new(move |off, data, arrive_at| {
                if let Some(i) = weak.upgrade() {
                    if let Some(p) = &i.persist {
                        // The hook runs on the issuing thread at post
                        // time; the write becomes crash-durable only at
                        // its PCIe arrival instant.
                        p.record(
                            arrive_at,
                            PersistEventKind::PmrWrite {
                                off,
                                data: data.to_vec(),
                                issued_at: ccnvme_runtime::now(),
                            },
                        );
                    }
                    i.doorbell(true, off, data, arrive_at);
                }
            }));
        if let Some(p) = &inner.persist {
            // A completed non-posted PMR read is a §4.3 drain point:
            // every write recorded before it has arrived. The sanitizer
            // replays these marks against the event log to assert no
            // doorbell exposed an unflushed P-SQ slot.
            let p2 = Arc::clone(p);
            inner
                .pmr
                .set_flush_hook(Box::new(move |at| p2.record_mmio_flush(at)));
        }
        // The completer daemon.
        let inner2 = Arc::clone(&inner);
        let device_core = inner.cfg.device_core;
        ccnvme_runtime::spawn_daemon("ssd-completer", device_core, move || completer_loop(inner2));
        NvmeController { inner }
    }

    /// The device's PCIe link (traffic counters live here).
    pub fn link(&self) -> Arc<PcieLink> {
        Arc::clone(&self.inner.link)
    }

    /// The persistent memory region BAR.
    pub fn pmr(&self) -> Arc<MmioRegion> {
        Arc::clone(&self.inner.pmr)
    }

    /// The doorbell/control register BAR.
    pub fn regs(&self) -> Arc<MmioRegion> {
        Arc::clone(&self.inner.regs)
    }

    /// The host-memory registry for data buffers.
    pub fn hostmem(&self) -> Arc<HostMemory> {
        Arc::clone(&self.inner.hostmem)
    }

    /// The backing block store (test inspection).
    pub fn store(&self) -> Arc<BlockStore> {
        Arc::clone(&self.inner.store)
    }

    /// The device profile.
    pub fn profile(&self) -> &SsdProfile {
        &self.inner.cfg.profile
    }

    /// Creates an I/O queue and starts its fetch worker.
    ///
    /// # Panics
    ///
    /// Panics if the queue id is already in use.
    pub fn create_io_queue(&self, params: QueueParams) {
        let q = Arc::new(QueueShared {
            qid: params.qid,
            depth: params.depth,
            sq: params.sq,
            on_complete: params.on_complete,
            st: RtMutex::new(QSt {
                tail: 0,
                tail_visible_at: 0,
                shutdown: false,
            }),
            cv: RtCondvar::new(),
        });
        let prev = self.inner.queues.lock().insert(params.qid, Arc::clone(&q));
        assert!(prev.is_none(), "queue {} already exists", params.qid);
        let key = match q.sq {
            SqBacking::Host { doorbell, .. } => (false, doorbell),
            SqBacking::Pmr { doorbell, .. } => (true, doorbell),
        };
        let filter = &self.inner.db_filter;
        // ord: Relaxed — the queue is created before the driver can ring
        // its doorbell, and that ordering is the driver's own.
        filter.fetch_or(doorbell_bit(key), Ordering::Relaxed);
        self.inner.db_targets.lock().insert(key, Arc::clone(&q));
        let inner = Arc::clone(&self.inner);
        let device_core = self.inner.cfg.device_core;
        ccnvme_runtime::spawn_daemon(&format!("ssd-q{}", params.qid), device_core, move || {
            worker_loop(inner, q)
        });
    }

    /// Stops a queue's worker and forgets the queue.
    pub fn delete_io_queue(&self, qid: u16) {
        if let Some(q) = self.inner.queues.lock().remove(&qid) {
            q.stop();
        }
    }

    /// Injects a power failure and returns the surviving device state:
    /// the device stops, every in-flight command is lost, and what is
    /// left is [`Self::crash_snapshot`] in `mode`.
    pub fn power_fail(&self, mode: CrashMode) -> DurableImage {
        // ord: SeqCst — the kill switch must be visible to every
        // worker before we snapshot the durable image.
        self.inner.alive.store(false, Ordering::SeqCst);
        for q in self.inner.queues.lock().values() {
            q.stop();
        }
        {
            let mut st = self.inner.completer.st.lock();
            st.shutdown = true;
            st.heap.clear();
            drop(st);
            self.inner.completer.cv.notify_all();
        }
        self.crash_snapshot(mode)
    }

    /// Non-destructive crash snapshot: the [`DurableImage`] a power
    /// failure in `mode` at this instant would leave behind, while the
    /// device keeps running. [`CrashMode::SETTLED`] is the graceful
    /// power-down's image once the caller has quiesced its own I/O.
    pub fn crash_snapshot(&self, mode: CrashMode) -> DurableImage {
        DurableImage {
            pmr: self.inner.pmr.crash_image(mode.torn),
            blocks: self.inner.store.image(&mode.cache),
        }
    }

    /// The persistence-event log, when
    /// [`CtrlConfig::record_persistence`] was set.
    pub fn persist_log(&self) -> Option<Arc<PersistLog>> {
        self.inner.persist.clone()
    }
}

/// Bytes of a doorbell store: both drivers ring every doorbell with one
/// little-endian `u32`.
const DOORBELL_BYTES: usize = 4;

/// The tail a store of doorbell width carries; `None` for any other
/// store (a 64 B P-SQ entry, an 8 B abort-log record), which then costs
/// no doorbell lookup at all.
fn doorbell_tail(data: &[u8]) -> Option<u32> {
    <[u8; DOORBELL_BYTES]>::try_from(data)
        .ok()
        .map(u32::from_le_bytes)
}

/// The bit of `CtrlInner::db_filter` that a doorbell at `(is_pmr, off)`
/// sets: one of 64, by a multiplicative hash.
fn doorbell_bit((is_pmr, off): (bool, u64)) -> u64 {
    let h = (off << 1 | u64::from(is_pmr)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    1 << (h >> 58)
}

impl CtrlInner {
    fn doorbell(&self, is_pmr: bool, off: u64, data: &[u8], arrive_at: Ns) {
        let Some(tail) = doorbell_tail(data) else {
            return;
        };
        // ord: Relaxed — see `create_io_queue`.
        if self.db_filter.load(Ordering::Relaxed) & doorbell_bit((is_pmr, off)) == 0 {
            return;
        }
        let target = self.db_targets.lock().get(&(is_pmr, off)).cloned();
        if let Some(q) = target {
            // A dropped doorbell models a lost MMIO notification: for a
            // PMR doorbell the *value* still persisted (the write landed
            // in the PMR before this hook runs), but the controller never
            // notices the new tail until the host rings again.
            if let Some(f) = self.cfg.fault.as_deref() {
                let op = FaultOp {
                    class: OpClass::Doorbell,
                    lba: 0,
                    nblocks: 0,
                    qid: q.qid,
                    now: arrive_at,
                };
                if f.decide(&op).map(|i| i.kind) == Some(FaultKind::DoorbellDrop) {
                    return;
                }
            }
            let mut st = q.st.lock();
            st.tail = tail % q.depth;
            st.tail_visible_at = st.tail_visible_at.max(arrive_at);
            drop(st);
            q.cv.notify_one();
        }
    }
}

fn worker_loop(inner: Arc<CtrlInner>, q: Arc<QueueShared>) {
    let mut head: u32 = 0;
    loop {
        {
            let mut st = q.st.lock();
            while st.tail == head && !st.shutdown {
                st = q.cv.wait(st);
            }
            if st.shutdown {
                return;
            }
        }
        loop {
            let (tail, visible_at) = {
                let st = q.st.lock();
                if st.shutdown {
                    return;
                }
                (st.tail, st.tail_visible_at)
            };
            if tail == head {
                break;
            }
            // Honour PCIe posted-write ordering: the doorbell (and hence
            // every entry written before it) is only device-visible once
            // the posted write physically arrives.
            let now = ccnvme_runtime::now();
            if visible_at > now {
                ccnvme_runtime::delay(visible_at - now);
            }
            let raw = fetch_entry(&inner, &q, head);
            head = (head + 1) % q.depth;
            match NvmeCommand::decode(&raw) {
                Some(cmd) => {
                    inner.link.obs.trace.record(
                        TraceEvent {
                            at: ccnvme_runtime::now(),
                            kind: EventKind::DmaFetch,
                            qid: q.qid,
                            tx_id: cmd.tx_id,
                            arg: cmd.cid as u64,
                            ctx: cmd.ctx,
                        },
                        true,
                    );
                    execute(&inner, &q, cmd, head)
                }
                None => {
                    // Unknown opcode: complete with an error so the host
                    // does not hang on the slot.
                    let cid = u16::from_le_bytes([raw[2], raw[3]]);
                    let now = ccnvme_runtime::now();
                    push_with_seq(&inner, Job::new(&q, cid, head, now, Status::InvalidField));
                }
            }
        }
    }
}

fn fetch_entry(inner: &CtrlInner, q: &QueueShared, slot: u32) -> [u8; 64] {
    let mut raw = [0u8; 64];
    match &q.sq {
        SqBacking::Host { ring, .. } => {
            inner.link.dma_to_device(64, DmaKind::QueueEntry);
            let mem = ring.lock();
            let off = slot as usize * 64;
            raw.copy_from_slice(&mem[off..off + 64]);
        }
        SqBacking::Pmr { ring, .. } => {
            ccnvme_runtime::delay(PMR_FETCH_NS);
            inner
                .pmr
                .device_read_into(ring + slot as u64 * 64, &mut raw);
        }
    }
    raw
}

fn push_with_seq(inner: &CtrlInner, mut job: Job) {
    {
        let mut st = inner.completer.st.lock();
        job.seq = st.seq;
        st.seq += 1;
        if !st.shutdown {
            st.heap.push(Reverse(job));
        }
    }
    inner.completer.cv.notify_one();
}

fn execute(inner: &CtrlInner, q: &QueueShared, cmd: NvmeCommand, sq_head: u32) {
    let profile = &inner.cfg.profile;
    let now = ccnvme_runtime::now();
    // §4.6 transaction-aware interrupt coalescing: only the commit
    // request of a transaction raises MSI-X.
    let irq = !inner.cfg.irq_coalesce_tx || !cmd.tx_flags.is_tx() || cmd.tx_flags.tx_commit;
    // Fault injection: ask the plan whether this command misbehaves.
    let injection = inner.cfg.fault.as_deref().and_then(|f| {
        let class = match cmd.opcode {
            Opcode::Read => OpClass::Read,
            Opcode::Write => OpClass::Write,
            Opcode::Flush => OpClass::Flush,
        };
        f.decide(&FaultOp {
            class,
            lba: cmd.lba,
            nblocks: cmd.nblocks,
            qid: q.qid,
            now,
        })
    });
    match injection.map(|i| i.kind) {
        // A stalled command is fetched but never completed; the host's
        // timeout path is the only way out.
        Some(FaultKind::Stall) => return,
        // Transient busy: reject quickly without touching the media.
        Some(FaultKind::Busy) => {
            push_with_seq(inner, Job::of(q, &cmd, sq_head, now, Status::Busy));
            return;
        }
        _ => {}
    }
    let (at, status, action) = match cmd.opcode {
        Opcode::Write => {
            match inner.hostmem.get(cmd.data_token) {
                Some(HostBuf::Src(buf)) => {
                    let bytes = cmd.bytes();
                    // Host → device data transfer (the "Block I/O" of
                    // Table 1). The DMA engine streams it while the fetch
                    // worker moves on; the media program starts once the
                    // data has arrived.
                    let dma_end = inner.link.dma_to_device_async(bytes, DmaKind::BlockData);
                    assert!(
                        buf.len() as u64 >= bytes,
                        "data buffer smaller than command length"
                    );
                    // A commit request implies a durability barrier when a
                    // volatile cache is present (§4.2: flush + FUA).
                    let commit_barrier = cmd.tx_flags.tx_commit && profile.volatile_cache;
                    let durable = cmd.fua || commit_barrier;
                    let cached = !durable && profile.volatile_cache;
                    let bw_end = inner.write_bw.acquire(bytes);
                    // The media program occupies one internal channel for
                    // the full write latency even when the completion is
                    // acknowledged from the cache earlier.
                    let occupancy = profile.write_lat * cmd.nblocks.max(1) as u64;
                    let lat = if cached {
                        profile.cached_write_lat
                    } else {
                        profile.write_lat
                    };
                    let ch_end = inner.write_channels.book_after(dma_end, occupancy, lat);
                    let mut at = ch_end.max(bw_end).max(now);
                    if commit_barrier {
                        let cost = profile.flush_base
                            + profile.flush_per_block * inner.store.dirty_count() as u64;
                        at = at.max(inner.flush_unit.book_after(at, cost, cost));
                    }
                    match injection {
                        // Torn DMA: only a prefix of the payload reached
                        // the device before the transfer failed. The
                        // prefix still lands on media (that is what makes
                        // it dangerous) but the command reports a write
                        // fault and performs no barrier.
                        Some(inj) if inj.kind == FaultKind::TornDma => (
                            at,
                            Status::MediaWriteError,
                            Action::WriteBlocks {
                                lba: cmd.lba,
                                buf,
                                len: inj.torn_blocks as usize * BLOCK_SIZE as usize,
                                durable,
                                also_flush: false,
                            },
                        ),
                        // Media write fault: nothing lands.
                        Some(_) => (at, Status::MediaWriteError, Action::Nop),
                        None => (
                            at,
                            Status::Success,
                            Action::WriteBlocks {
                                lba: cmd.lba,
                                buf,
                                len: bytes as usize,
                                durable,
                                also_flush: commit_barrier,
                            },
                        ),
                    }
                }
                // No buffer, or one the host registered to be written.
                _ => (now, Status::InvalidField, Action::Nop),
            }
        }
        Opcode::Read => {
            let bytes = cmd.bytes();
            let bw_end = inner.read_bw.acquire(bytes);
            let occupancy = profile.read_lat * cmd.nblocks.max(1) as u64;
            let ch_end = inner.read_channels.book(occupancy, profile.read_lat);
            // Device → host transfer time after the media read.
            let xfer = cost::transfer_ns(bytes, profile.link_bw);
            let at = ch_end.max(bw_end).max(now) + xfer;
            match injection {
                // Unrecovered read error: the buffer is left untouched.
                Some(_) => (at, Status::MediaReadError, Action::Nop),
                None => (
                    at,
                    Status::Success,
                    Action::ReadBlocks {
                        lba: cmd.lba,
                        nblocks: cmd.nblocks,
                        token: cmd.data_token,
                    },
                ),
            }
        }
        Opcode::Flush => {
            let cost_ns =
                profile.flush_base + profile.flush_per_block * inner.store.dirty_count() as u64;
            let at = inner.flush_unit.book(cost_ns, cost_ns);
            match injection {
                // A failed flush leaves the cache undrained.
                Some(_) => (at, Status::InternalError, Action::Nop),
                None => (at, Status::Success, Action::Flush),
            }
        }
    };
    inner.svc_hist.record(at.saturating_sub(now));
    let job = Job {
        // Error completions are never coalesced away: the host must see
        // them even when the transaction's members are silent.
        irq: irq || status.is_err(),
        action,
        ..Job::of(q, &cmd, sq_head, at, status)
    };
    push_with_seq(inner, job);
}

fn completer_loop(inner: Arc<CtrlInner>) {
    loop {
        let job = {
            let mut st = inner.completer.st.lock();
            loop {
                if st.shutdown {
                    return;
                }
                let due = st.heap.peek().map(|Reverse(j)| j.at);
                match due {
                    None => st = inner.completer.cv.wait(st),
                    Some(at) => {
                        let now = ccnvme_runtime::now();
                        if at <= now {
                            break st.heap.pop().expect("peeked above").0;
                        }
                        let (g, _) = inner.completer.cv.wait_timeout(st, at - now);
                        st = g;
                    }
                }
            }
        };
        fire(&inner, job);
    }
}

fn fire(inner: &CtrlInner, job: Job) {
    // ord: SeqCst — pairs with the power_fail kill switch; no job
    // may fire after the crash point.
    if !inner.alive.load(Ordering::SeqCst) {
        return;
    }
    match job.action {
        Action::WriteBlocks {
            lba,
            buf,
            len,
            durable,
            also_flush,
        } => {
            // Each whole block of the first `len` bytes lands as a
            // reference into the host's buffer — a torn transfer's
            // prefix too — with no copy. The log records where the
            // store routed it.
            for i in 0..len / BLOCK_SIZE as usize {
                let lba = lba + i as u64;
                let block = MediaBlock::new(Arc::clone(&buf), i);
                let logged = inner.persist.as_ref().map(|p| (p, block.clone()));
                let durable = inner.store.write_block(lba, block, durable);
                if let Some((p, data)) = logged {
                    let kind = PersistEventKind::BlockWrite { lba, data, durable };
                    p.record(ccnvme_runtime::now(), kind);
                }
            }
            if also_flush {
                drain_cache(inner);
            }
            inner.link.obs.trace.record(
                TraceEvent {
                    at: ccnvme_runtime::now(),
                    kind: EventKind::MediaWrite,
                    qid: job.qid,
                    tx_id: job.tx_id,
                    arg: len as u64,
                    ctx: job.ctx,
                },
                true,
            );
        }
        Action::ReadBlocks {
            lba,
            nblocks,
            token,
        } => {
            if let Some(HostBuf::Dst(buf)) = inner.hostmem.get(token) {
                let mut b = buf.lock();
                let n = (nblocks as usize * BLOCK_SIZE as usize).min(b.len());
                for (i, chunk) in b[..n].chunks_mut(BLOCK_SIZE as usize).enumerate() {
                    inner.store.read_into(lba + i as u64, chunk);
                }
            }
        }
        Action::Flush => drain_cache(inner),
        Action::Nop => {}
    }
    // CQE posting: a 16 B DMA to the host-side completion queue.
    inner.link.upstream.acquire(16 + cost::TLP_HEADER);
    inner.link.traffic.dma_queue.inc();
    let now = ccnvme_runtime::now();
    inner.link.obs.trace.record(
        TraceEvent {
            at: now,
            kind: EventKind::CqePost,
            qid: job.qid,
            tx_id: job.tx_id,
            arg: job.cid as u64,
            ctx: job.ctx,
        },
        true,
    );
    if job.irq {
        inner.link.traffic.irqs.inc();
        inner.link.obs.trace.record(
            TraceEvent {
                at: now,
                kind: EventKind::Irq,
                qid: job.qid,
                tx_id: job.tx_id,
                arg: job.cid as u64,
                ctx: job.ctx,
            },
            true,
        );
    }
    let entry = CompletionEntry {
        cid: job.cid,
        qid: job.qid,
        sq_head: job.sq_head,
        status: job.status,
        tx_id: job.tx_id,
        tx_flags: job.tx_flags,
        irq: job.irq,
    };
    (job.on_complete)(entry);
}

/// Drains the volatile cache to media, and logs the drain.
fn drain_cache(inner: &CtrlInner) {
    inner.store.flush();
    if let Some(p) = &inner.persist {
        p.record(ccnvme_runtime::now(), PersistEventKind::Flush);
    }
}

#[cfg(test)]
mod tests {
    use ccnvme_runtime::mpsc_channel;
    use ccnvme_sim::Sim;

    use super::*;
    use crate::command::TxFlags;
    use crate::hostmem::DataBuf;

    /// Builds a controller with one host-memory queue and returns helpers
    /// to submit and await commands.
    struct Harness {
        ctrl: NvmeController,
        sqmem: Arc<Mutex<Vec<u8>>>,
        rx: ccnvme_runtime::Receiver<CompletionEntry>,
        tail: u32,
        next_cid: u16,
    }

    const DEPTH: u32 = 64;

    impl Harness {
        fn new(profile: SsdProfile) -> Harness {
            Harness::with_config(CtrlConfig::new(profile))
        }

        fn with_config(cfg: CtrlConfig) -> Harness {
            let ctrl = NvmeController::new(cfg);
            let sqmem = Arc::new(Mutex::new(vec![0u8; DEPTH as usize * 64]));
            let (tx, rx) = mpsc_channel::<CompletionEntry>(None);
            ctrl.create_io_queue(QueueParams {
                qid: 1,
                depth: DEPTH,
                sq: SqBacking::Host {
                    ring: Arc::clone(&sqmem),
                    doorbell: 0x1000,
                },
                on_complete: Arc::new(move |e| {
                    let _ = tx.try_send(e);
                }),
            });
            Harness {
                ctrl,
                sqmem,
                rx,
                tail: 0,
                next_cid: 0,
            }
        }

        fn submit(&mut self, mut cmd: NvmeCommand) -> u16 {
            cmd.cid = self.next_cid;
            self.next_cid += 1;
            {
                let mut mem = self.sqmem.lock();
                let off = self.tail as usize * 64;
                mem[off..off + 64].copy_from_slice(&cmd.encode());
            }
            self.tail = (self.tail + 1) % DEPTH;
            self.ctrl.regs().write(0x1000, &self.tail.to_le_bytes());
            cmd.cid
        }

        fn write_cmd(&self, lba: u64, byte: u8, fua: bool) -> NvmeCommand {
            let buf = Arc::new(vec![byte; BLOCK_SIZE as usize]);
            self.io_cmd(lba, HostBuf::Src(buf), fua)
        }

        /// A write (of a source) or read (into a destination) of `buf`'s
        /// whole blocks at `lba`, `buf` registered under the command's
        /// data token.
        fn io_cmd(&self, lba: u64, buf: HostBuf, fua: bool) -> NvmeCommand {
            let (opcode, len) = match &buf {
                HostBuf::Src(b) => (Opcode::Write, b.len()),
                HostBuf::Dst(b) => (Opcode::Read, b.lock().len()),
            };
            let nblocks = (len as u64 / BLOCK_SIZE) as u16;
            let token = self.ctrl.hostmem().register(buf);
            NvmeCommand {
                opcode,
                cid: 0,
                nsid: 1,
                lba,
                nblocks,
                fua,
                tx_id: 0,
                tx_flags: TxFlags::NONE,
                data_token: token,
                ctx: ccnvme_obs::TraceCtx::ZERO,
            }
        }

        fn await_completion(&self) -> CompletionEntry {
            self.rx.recv().expect("completer alive")
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let mut h = Harness::new(SsdProfile::optane_p5800x());
            let cmd = h.write_cmd(7, 0xab, false);
            h.submit(cmd);
            let e = h.await_completion();
            assert_eq!(e.status, Status::Success);
            // Read it back.
            let buf: DataBuf = Arc::new(Mutex::new(vec![0u8; BLOCK_SIZE as usize]));
            let token = h.ctrl.hostmem().register(HostBuf::Dst(Arc::clone(&buf)));
            h.submit(NvmeCommand {
                opcode: Opcode::Read,
                cid: 0,
                nsid: 1,
                lba: 7,
                nblocks: 1,
                fua: false,
                tx_id: 0,
                tx_flags: TxFlags::NONE,
                data_token: token,
                ctx: ccnvme_obs::TraceCtx::ZERO,
            });
            let e = h.await_completion();
            assert_eq!(e.status, Status::Success);
            assert_eq!(buf.lock()[0], 0xab);
        });
        sim.run();
    }

    #[test]
    fn a_multi_block_read_lands_each_block_at_its_offset() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            // A volatile cache, so a block can be durable, cached or both.
            let mut h = Harness::new(SsdProfile::intel_750());
            for (lba, byte, fua) in [(20, 0x11, true), (21, 0x22, true), (21, 0x33, false)] {
                let cmd = h.write_cmd(lba, byte, fua);
                h.submit(cmd);
                assert_eq!(h.await_completion().status, Status::Success);
            }
            assert_eq!(h.ctrl.store().dirty_count(), 1);
            let bs = BLOCK_SIZE as usize;
            let buf: DataBuf = Arc::new(Mutex::new(vec![0xff; 3 * bs]));
            let cmd = h.io_cmd(20, HostBuf::Dst(Arc::clone(&buf)), false);
            h.submit(cmd);
            assert_eq!(h.await_completion().status, Status::Success);
            let b = buf.lock();
            // Durable at 20, the cached 0x33 over the durable 0x22 at 21,
            // zeros for the absent 22.
            for (i, want) in [0x11, 0x33, 0].into_iter().enumerate() {
                assert!(
                    b[i * bs..(i + 1) * bs].iter().all(|x| *x == want),
                    "block {i} is not {want:#x}"
                );
            }
        });
        sim.run();
    }

    #[test]
    fn a_completed_write_lives_on_as_the_media_and_a_read_leaves_no_clone() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let mut h = Harness::new(SsdProfile::optane_p5800x());
            let bs = BLOCK_SIZE as usize;
            let src = Arc::new([vec![0x5a; bs], vec![0xa5; bs]].concat());
            let cmd = h.io_cmd(40, HostBuf::Src(Arc::clone(&src)), false);
            let token = cmd.data_token;
            h.submit(cmd);
            assert_eq!(h.await_completion().status, Status::Success);
            h.ctrl.hostmem().unregister(token);
            // The store holds the submitted allocation itself, one
            // reference per block, and nothing else does.
            for (i, lba) in [40, 41].into_iter().enumerate() {
                let kept = h.ctrl.store().block(lba).expect("landed");
                assert!(Arc::ptr_eq(kept.buffer(), &src), "block {lba} was copied");
                assert_eq!(kept.bytes(), &src[i * bs..(i + 1) * bs]);
            }
            assert_eq!(
                Arc::strong_count(&src),
                3,
                "the test's handle and two blocks"
            );
            let dst: DataBuf = Arc::new(Mutex::new(vec![0; 2 * bs]));
            let cmd = h.io_cmd(40, HostBuf::Dst(Arc::clone(&dst)), false);
            let token = cmd.data_token;
            h.submit(cmd);
            assert_eq!(h.await_completion().status, Status::Success);
            h.ctrl.hostmem().unregister(token);
            assert_eq!(Arc::strong_count(&dst), 1, "the read kept the buffer");
            assert_eq!(*dst.lock(), *src);
        });
        sim.run();
    }

    #[test]
    fn only_a_doorbell_width_store_rings() {
        Sim::run_main(2, || {
            let mut h = Harness::new(SsdProfile::optane_p5800x());
            let cmd = h.write_cmd(9, 0x77, false);
            assert_eq!(h.submit(cmd), 0);
            h.await_completion();
            // Put the entry for slot 1 in place, then ring it with every
            // width but the doorbell's.
            let mut cmd = h.write_cmd(10, 0x78, false);
            cmd.cid = 1;
            h.sqmem.lock()[64..128].copy_from_slice(&cmd.encode());
            let tail = 2u32;
            h.ctrl.regs().write(0x1000, &(tail as u64).to_le_bytes());
            h.ctrl.regs().write(0x1000, &(tail as u16).to_le_bytes());
            ccnvme_runtime::delay(1_000_000);
            assert!(
                h.ctrl.store().block(10).is_none(),
                "a non-doorbell store rang"
            );
            h.ctrl.regs().write(0x1000, &tail.to_le_bytes());
            assert_eq!(h.await_completion().status, Status::Success);
            assert!(h.ctrl.store().block(10).is_some());
        });
    }

    /// Whether `inner.doorbell(is_pmr, off, data)` returns while another
    /// OS thread holds the doorbell map — were it to look its target up,
    /// it would wait for the holder's two-second timeout.
    fn rings_without_the_map(inner: &CtrlInner, is_pmr: bool, off: u64, data: &[u8]) -> bool {
        use std::sync::mpsc;
        let timed_out = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (held_tx, held_rx) = mpsc::channel();
            let (done_tx, done_rx) = mpsc::channel::<()>();
            let timed_out = &timed_out;
            s.spawn(move || {
                let map = inner.db_targets.lock();
                held_tx.send(()).expect("test thread alive");
                let waited = done_rx.recv_timeout(std::time::Duration::from_secs(2));
                // ord: SeqCst — test bookkeeping, read after the join.
                timed_out.store(waited.is_err(), Ordering::SeqCst);
                drop(map);
            });
            held_rx.recv().expect("holder started");
            inner.doorbell(is_pmr, off, data, 0);
            let _ = done_tx.send(());
        });
        // ord: SeqCst — the scope joined the holder.
        !timed_out.load(Ordering::SeqCst)
    }

    #[test]
    fn a_p_sq_entry_store_never_takes_the_doorbell_map_lock() {
        Sim::run_main(2, || {
            let h = Harness::new(SsdProfile::optane_p5800x());
            // 64 B at the queue's very doorbell: only its width rules it out.
            assert!(
                rings_without_the_map(&h.ctrl.inner, false, 0x1000, &[0u8; 64]),
                "a 64 B store waited for the doorbell map"
            );
        });
    }

    #[test]
    fn a_doorbell_width_store_off_every_doorbell_skips_the_map() {
        Sim::run_main(2, || {
            let h = Harness::new(SsdProfile::optane_p5800x());
            let inner = &h.ctrl.inner;
            // ord: Relaxed — the queue was created on this thread.
            let filter = inner.db_filter.load(Ordering::Relaxed);
            assert_ne!(filter & doorbell_bit((false, 0x1000)), 0);
            // A CQ-head-like store: 4 B beside the doorbell, on a bit no
            // doorbell set.
            let off = (1..64)
                .map(|k| 0x1000 + 4 * k)
                .find(|&off| filter & doorbell_bit((false, off)) == 0)
                .expect("one free bit of 64");
            assert!(
                rings_without_the_map(inner, false, off, &7u32.to_le_bytes()),
                "a store off every doorbell waited for the doorbell map"
            );
        });
    }

    #[test]
    fn write_latency_is_in_profile_ballpark() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let mut h = Harness::new(SsdProfile::optane_p5800x());
            let t0 = ccnvme_sim::now();
            let cmd = h.write_cmd(1, 1, false);
            h.submit(cmd);
            h.await_completion();
            let lat = ccnvme_sim::now() - t0;
            // Paper: ~9 us for a 4 KB random write through the stack.
            assert!((5_000..25_000).contains(&lat), "lat={lat}");
        });
        sim.run();
    }

    #[test]
    fn completions_pipeline_under_queue_depth() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let mut h = Harness::new(SsdProfile::optane_p5800x());
            let t0 = ccnvme_sim::now();
            let n = 16;
            for i in 0..n {
                let cmd = h.write_cmd(i, i as u8, false);
                h.submit(cmd);
            }
            for _ in 0..n {
                h.await_completion();
            }
            let elapsed = ccnvme_sim::now() - t0;
            // Pipelined execution must be far cheaper than n serial
            // latencies (16 × ~7 us ≈ 112 us serial).
            assert!(elapsed < 60_000, "elapsed={elapsed}");
        });
        sim.run();
    }

    #[test]
    fn flash_cached_write_lost_on_adversarial_crash() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let mut h = Harness::new(SsdProfile::intel_750());
            let cmd = h.write_cmd(3, 9, false);
            h.submit(cmd);
            h.await_completion();
            let image = h.ctrl.power_fail(CrashMode::adversarial(1));
            assert!(!image.blocks.contains_key(&3));
        });
        sim.run();
    }

    #[test]
    fn flash_flush_makes_writes_durable() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let mut h = Harness::new(SsdProfile::intel_750());
            let cmd = h.write_cmd(3, 9, false);
            h.submit(cmd);
            h.await_completion();
            h.submit(NvmeCommand {
                opcode: Opcode::Flush,
                cid: 0,
                nsid: 1,
                lba: 0,
                nblocks: 0,
                fua: false,
                tx_id: 0,
                tx_flags: TxFlags::NONE,
                data_token: 0,
                ctx: ccnvme_obs::TraceCtx::ZERO,
            });
            h.await_completion();
            let image = h.ctrl.power_fail(CrashMode::adversarial(1));
            assert_eq!(image.blocks.get(&3).map(|b| b[0]), Some(9));
        });
        sim.run();
    }

    #[test]
    fn fua_write_survives_crash_on_flash() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let mut h = Harness::new(SsdProfile::intel_750());
            let cmd = h.write_cmd(4, 5, true);
            h.submit(cmd);
            h.await_completion();
            let image = h.ctrl.power_fail(CrashMode::adversarial(1));
            assert_eq!(image.blocks.get(&4).map(|b| b[0]), Some(5));
        });
        sim.run();
    }

    /// The live device and its persistence log are two routes to one
    /// crash model: at any instant, `crash_snapshot(mode)` is the log's
    /// image of the same cut, whatever the cache's fate and however many
    /// posted PMR writes survive: both count the same writes in flight
    /// and tear them by the one FIFO-prefix rule at every depth.
    #[test]
    fn live_snapshot_and_logged_image_agree() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let mut cfg = CtrlConfig::new(SsdProfile::intel_750());
            cfg.record_persistence = true;
            let mut h = Harness::with_config(cfg);
            let log = h.ctrl.persist_log().expect("recording");
            let caches = [
                CacheSurvival::DropAll,
                CacheSurvival::KeepAll,
                CacheSurvival::Subset {
                    seed: 7,
                    keep_prob: 0.5,
                },
            ];
            // Returns how many posted PMR writes were in flight.
            let agree = |h: &Harness, at: &str| {
                let now = ccnvme_sim::now();
                let prefix = log.event_times().partition_point(|&t| t <= now);
                let mut cursor = log.cursor();
                cursor.advance_to(prefix);
                let in_flight = h.ctrl.pmr().in_flight_count();
                assert_eq!(cursor.max_torn(cursor.next_at()), in_flight, "{at}");
                let mut kept = Vec::new();
                for cache in caches {
                    for torn in (0..=in_flight).chain([usize::MAX]) {
                        let mode = CrashMode { torn, cache };
                        let live = h.ctrl.crash_snapshot(mode);
                        let logged = cursor.image(cursor.next_at(), mode);
                        assert!(live.pmr == logged.pmr, "{at}, {mode:?}: PMR differs");
                        assert!(
                            live.blocks == logged.blocks,
                            "{at}, {mode:?}: blocks differ"
                        );
                    }
                    kept.push(
                        h.ctrl
                            .crash_snapshot(CrashMode { torn: 0, cache })
                            .blocks
                            .len(),
                    );
                }
                // Each fate keeps a different share of the cache.
                assert!(kept[0] < kept[2] && kept[2] < kept[1], "{at}: {kept:?}");
                in_flight
            };
            // Durable and cached blocks, a flush, then cached blocks over
            // durable ones and a PMR write that has arrived.
            for lba in 0..48 {
                if lba == 24 {
                    h.submit(NvmeCommand {
                        opcode: Opcode::Flush,
                        cid: 0,
                        nsid: 1,
                        lba: 0,
                        nblocks: 0,
                        fua: false,
                        tx_id: 0,
                        tx_flags: TxFlags::NONE,
                        data_token: 0,
                        ctx: ccnvme_obs::TraceCtx::ZERO,
                    });
                    h.await_completion();
                }
                let cmd = h.write_cmd(lba % 40, lba as u8, lba % 5 == 0);
                h.submit(cmd);
                h.await_completion();
            }
            h.ctrl.pmr().write(64, &[0xaa; 64]);
            h.ctrl.pmr().flush();
            assert_eq!(agree(&h, "quiesced"), 0);
            // Eight overlapping 512 B stores, each slower to drain than
            // to issue, most across a page boundary.
            for i in 0..8u8 {
                h.ctrl.pmr().write(3840 + 128 * i as u64, &[i + 1; 512]);
            }
            let in_flight = agree(&h, "posted writes in flight");
            assert!(in_flight >= 2, "{in_flight} posted writes in flight");
        });
        sim.run();
    }

    #[test]
    fn in_flight_command_lost_on_crash() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let mut h = Harness::new(SsdProfile::optane_905p());
            let cmd = h.write_cmd(5, 6, false);
            h.submit(cmd);
            // Crash immediately: the command has not completed.
            let image = h.ctrl.power_fail(CrashMode::adversarial(1));
            assert!(!image.blocks.contains_key(&5));
        });
        sim.run();
    }

    #[test]
    fn reboot_preserves_durable_blocks_and_pmr() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let mut h = Harness::new(SsdProfile::optane_905p());
            let cmd = h.write_cmd(8, 2, false);
            h.submit(cmd);
            h.await_completion();
            h.ctrl.pmr().write(100, &[0xcc; 8]);
            h.ctrl.pmr().flush();
            let image = h.ctrl.power_fail(CrashMode::adversarial(1));
            let ctrl2 =
                NvmeController::from_image(CtrlConfig::new(SsdProfile::optane_905p()), &image);
            assert_eq!(ctrl2.store().block(8).expect("restored")[0], 2);
            assert_eq!(ctrl2.pmr().crash_image(0).read_vec(100, 8), vec![0xcc; 8]);
            // The device booted on the image itself: its blocks are the
            // image's allocations, and an idle device's settled snapshot
            // shares every PMR page with the region and the image.
            assert!(!image.blocks.is_empty());
            for (lba, block) in &image.blocks {
                let kept = ctrl2.store().block(*lba).expect("booted with it");
                assert!(
                    Arc::ptr_eq(kept.buffer(), block.buffer()),
                    "block {lba} copied"
                );
            }
            let pages = image.pmr.size().div_ceil(ccnvme_pcie::image::PAGE_SIZE);
            let settled = ctrl2.crash_snapshot(CrashMode::SETTLED).pmr;
            assert_eq!(settled.shared_pages(&ctrl2.pmr().crash_image(0)), pages);
            assert_eq!(settled.shared_pages(&image.pmr), pages);
        });
        sim.run();
    }

    #[test]
    fn irq_coalescing_suppresses_member_interrupts() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let mut cfg = CtrlConfig::new(SsdProfile::optane_p5800x());
            cfg.irq_coalesce_tx = true;
            let ctrl = NvmeController::new(cfg);
            let sqmem = Arc::new(Mutex::new(vec![0u8; DEPTH as usize * 64]));
            let (tx, rx) = mpsc_channel::<CompletionEntry>(None);
            ctrl.create_io_queue(QueueParams {
                qid: 1,
                depth: DEPTH,
                sq: SqBacking::Host {
                    ring: Arc::clone(&sqmem),
                    doorbell: 0x1000,
                },
                on_complete: Arc::new(move |e| {
                    let _ = tx.try_send(e);
                }),
            });
            // Two TX members + one commit.
            let mut tail = 0u32;
            for (i, flags) in [TxFlags::TX, TxFlags::TX, TxFlags::TX_COMMIT]
                .into_iter()
                .enumerate()
            {
                let buf = Arc::new(vec![i as u8; BLOCK_SIZE as usize]);
                let token = ctrl.hostmem().register(HostBuf::Src(buf));
                let cmd = NvmeCommand {
                    opcode: Opcode::Write,
                    cid: i as u16,
                    nsid: 1,
                    lba: i as u64,
                    nblocks: 1,
                    fua: false,
                    tx_id: 77,
                    tx_flags: flags,
                    data_token: token,
                    ctx: ccnvme_obs::TraceCtx::ZERO,
                };
                let mut mem = sqmem.lock();
                let off = tail as usize * 64;
                mem[off..off + 64].copy_from_slice(&cmd.encode());
                drop(mem);
                tail += 1;
            }
            ctrl.regs().write(0x1000, &tail.to_le_bytes());
            let mut irqs = 0;
            for _ in 0..3 {
                let e = rx.recv().expect("completion");
                if e.irq {
                    irqs += 1;
                }
            }
            assert_eq!(irqs, 1, "only the commit request interrupts");
            assert_eq!(ctrl.link().traffic.irqs.get(), 1);
        });
        sim.run();
    }

    #[test]
    fn pmr_backed_queue_needs_no_queue_dma() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let ctrl = NvmeController::new(CtrlConfig::new(SsdProfile::optane_p5800x()));
            let (tx, rx) = mpsc_channel::<CompletionEntry>(None);
            ctrl.create_io_queue(QueueParams {
                qid: 1,
                depth: DEPTH,
                sq: SqBacking::Pmr {
                    ring: 4096,
                    doorbell: 0,
                },
                on_complete: Arc::new(move |e| {
                    let _ = tx.try_send(e);
                }),
            });
            let buf = Arc::new(vec![0x5a; BLOCK_SIZE as usize]);
            let token = ctrl.hostmem().register(HostBuf::Src(buf));
            let cmd = NvmeCommand {
                opcode: Opcode::Write,
                cid: 9,
                nsid: 1,
                lba: 11,
                nblocks: 1,
                fua: false,
                tx_id: 1,
                tx_flags: TxFlags::TX_COMMIT,
                data_token: token,
                ctx: ccnvme_obs::TraceCtx::ZERO,
            };
            // Host writes the entry into the P-SQ via MMIO, flushes, then
            // rings the persistent doorbell.
            ctrl.pmr().write(4096, &cmd.encode());
            ctrl.pmr().flush();
            ctrl.pmr().write(0, &1u32.to_le_bytes());
            let e = rx.recv().expect("completion");
            assert_eq!(e.cid, 9);
            assert_eq!(e.tx_id, 1);
            let t = ctrl.link().traffic.snapshot();
            // No SQE fetch DMA; only the CQE posting DMA.
            assert_eq!(t.dma_queue, 1);
            assert_eq!(t.block_ios, 1);
            assert_eq!(t.mmio_flushes, 1);
        });
        sim.run();
    }

    #[test]
    fn sustained_4k_writes_hit_iops_envelope() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let mut h = Harness::new(SsdProfile::optane_905p());
            let n: u64 = 2_000;
            let t0 = ccnvme_sim::now();
            let mut inflight = 0;
            let mut submitted = 0;
            let mut completed = 0;
            while completed < n {
                while inflight < 32 && submitted < n {
                    let cmd = h.write_cmd(submitted % 1_000, submitted as u8, false);
                    h.submit(cmd);
                    submitted += 1;
                    inflight += 1;
                }
                h.await_completion();
                completed += 1;
                inflight -= 1;
            }
            let elapsed = ccnvme_sim::now() - t0;
            let iops = n as f64 / (elapsed as f64 / 1e9);
            // 905P: 550K rand write IOPS. Expect within 25%.
            assert!(
                (400_000.0..620_000.0).contains(&iops),
                "iops={iops:.0} elapsed={elapsed}"
            );
        });
        sim.run();
    }

    mod faults {
        use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, Trigger};

        use super::*;

        fn faulty(profile: SsdProfile, plan: FaultPlan) -> Harness {
            Harness::with_config(CtrlConfig::new(profile).with_fault(Arc::new(plan.injector())))
        }

        #[test]
        fn injected_media_write_error_leaves_media_untouched() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                let plan =
                    FaultPlan::new(1).rule(FaultRule::new(FaultKind::MediaWrite, Trigger::Nth(1)));
                let mut h = faulty(SsdProfile::optane_p5800x(), plan);
                let cmd = h.write_cmd(5, 0xaa, true);
                h.submit(cmd);
                let e = h.await_completion();
                assert_eq!(e.status, Status::MediaWriteError);
                assert_eq!(e.status.sct(), crate::command::StatusCodeType::Media);
                assert!(!h
                    .ctrl
                    .crash_snapshot(CrashMode::SETTLED)
                    .blocks
                    .contains_key(&5));
                // The Nth(1) budget is spent; the retry goes through.
                let cmd = h.write_cmd(5, 0xbb, true);
                h.submit(cmd);
                assert_eq!(h.await_completion().status, Status::Success);
            });
            sim.run();
        }

        #[test]
        fn torn_dma_lands_only_a_strict_prefix() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                let plan =
                    FaultPlan::new(9).rule(FaultRule::new(FaultKind::TornDma, Trigger::Nth(1)));
                let mut h = faulty(SsdProfile::optane_p5800x(), plan);
                let buf = Arc::new(vec![0xcc; 8 * BLOCK_SIZE as usize]);
                let cmd = h.io_cmd(100, HostBuf::Src(buf), true);
                h.submit(cmd);
                let e = h.await_completion();
                assert_eq!(e.status, Status::MediaWriteError);
                // The tear keeps strictly fewer than 8 blocks: what landed
                // is the run 100..100+k, k < 8, each block the host's.
                let image = h.ctrl.crash_snapshot(CrashMode::SETTLED);
                let k = image.blocks.len() as u64;
                assert!(k < 8, "a torn write landed all {k} blocks");
                for lba in 100..100 + k {
                    let block = image.blocks.get(&lba).expect("the landed run is a prefix");
                    assert!(
                        block.iter().all(|b| *b == 0xcc),
                        "lba {lba} is not the host's"
                    );
                }
                let m = h.ctrl.link().obs.metrics.snapshot();
                assert_eq!(m.counter("fault.torn_dma"), 1);
            });
            sim.run();
        }

        #[test]
        fn a_torn_dma_from_a_shared_buffer_lands_exactly_its_whole_blocks_before_the_tear() {
            let bs = BLOCK_SIZE as usize;
            let torn = Sim::run_main(2, move || {
                let mut torn = Vec::new();
                for seed in 1..=8 {
                    let plan = FaultPlan::new(seed)
                        .rule(FaultRule::new(FaultKind::TornDma, Trigger::Nth(1)));
                    let mut h = faulty(SsdProfile::optane_p5800x(), plan);
                    // Three distinct blocks, still held by the host.
                    let buf = Arc::new([vec![1; bs], vec![2; bs], vec![3; bs]].concat());
                    let cmd = h.io_cmd(200, HostBuf::Src(Arc::clone(&buf)), true);
                    h.submit(cmd);
                    assert_eq!(h.await_completion().status, Status::MediaWriteError);
                    let store = h.ctrl.store();
                    let k = (0..3)
                        .take_while(|i| store.block(200 + i).is_some())
                        .count();
                    for i in 0..3 {
                        match store.block(200 + i as u64) {
                            Some(b) if i < k => {
                                assert!(Arc::ptr_eq(b.buffer(), &buf), "block {i} copied");
                                assert_eq!(b.bytes(), &buf[i * bs..(i + 1) * bs]);
                            }
                            None if i >= k => {}
                            _ => panic!("seed {seed}: block {i} breaks the prefix of {k}"),
                        }
                    }
                    torn.push(k);
                }
                torn
            });
            assert!(
                torn.iter().all(|&k| k < 3),
                "a tear landed every block: {torn:?}"
            );
            assert!(torn.contains(&2), "no seed tore after two blocks: {torn:?}");
        }

        #[test]
        fn stalled_command_withholds_its_completion() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                let plan =
                    FaultPlan::new(2).rule(FaultRule::new(FaultKind::Stall, Trigger::Nth(1)));
                let mut h = faulty(SsdProfile::optane_p5800x(), plan);
                let cmd = h.write_cmd(1, 1, false);
                let stalled_cid = h.submit(cmd);
                let cmd = h.write_cmd(2, 2, false);
                let live_cid = h.submit(cmd);
                // Only the second command ever completes.
                let e = h.await_completion();
                assert_eq!(e.cid, live_cid);
                assert_ne!(e.cid, stalled_cid);
                assert!(
                    h.rx.recv_timeout(1_000_000).is_none(),
                    "stalled command must stay silent"
                );
            });
            sim.run();
        }

        #[test]
        fn busy_status_is_transient_and_retry_succeeds() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                let plan = FaultPlan::new(3)
                    .rule(FaultRule::new(FaultKind::Busy, Trigger::Nth(1)).max_hits(1));
                let mut h = faulty(SsdProfile::optane_p5800x(), plan);
                let cmd = h.write_cmd(9, 7, true);
                h.submit(cmd.clone());
                let e = h.await_completion();
                assert_eq!(e.status, Status::Busy);
                assert!(e.status.is_transient());
                h.submit(cmd);
                assert_eq!(h.await_completion().status, Status::Success);
            });
            sim.run();
        }

        #[test]
        fn dropped_doorbell_is_recovered_by_reringing() {
            let mut sim = Sim::new(2);
            sim.spawn("host", 0, || {
                let plan = FaultPlan::new(4)
                    .rule(FaultRule::new(FaultKind::DoorbellDrop, Trigger::Nth(1)));
                let mut h = faulty(SsdProfile::optane_p5800x(), plan);
                let cmd = h.write_cmd(3, 3, false);
                h.submit(cmd);
                // The first doorbell was dropped: no completion arrives.
                assert!(h.rx.recv_timeout(1_000_000).is_none());
                // Ring again with the same tail; the command now executes.
                h.ctrl.regs().write(0x1000, &h.tail.to_le_bytes());
                assert_eq!(h.await_completion().status, Status::Success);
                let m = h.ctrl.link().obs.metrics.snapshot();
                assert_eq!(m.counter("fault.doorbell_drops"), 1);
            });
            sim.run();
        }
    }
}

#[cfg(test)]
mod extra_tests {
    use ccnvme_runtime::mpsc_channel;
    use ccnvme_sim::Sim;
    use parking_lot::Mutex;

    use super::*;
    use crate::command::TxFlags;
    use crate::hostmem::DataBuf;

    #[test]
    fn write_with_missing_buffer_token_fails_cleanly() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let ctrl = NvmeController::new(CtrlConfig::new(SsdProfile::optane_p5800x()));
            let sqmem = Arc::new(Mutex::new(vec![0u8; 64 * 64]));
            let (tx, rx) = mpsc_channel::<CompletionEntry>(None);
            ctrl.create_io_queue(QueueParams {
                qid: 1,
                depth: 64,
                sq: SqBacking::Host {
                    ring: Arc::clone(&sqmem),
                    doorbell: 0x1000,
                },
                on_complete: Arc::new(move |e| {
                    let _ = tx.try_send(e);
                }),
            });
            let cmd = NvmeCommand {
                opcode: Opcode::Write,
                cid: 5,
                nsid: 1,
                lba: 1,
                nblocks: 1,
                fua: false,
                tx_id: 0,
                tx_flags: TxFlags::NONE,
                data_token: 0xdead, // Never registered.
                ctx: ccnvme_obs::TraceCtx::ZERO,
            };
            sqmem.lock()[0..64].copy_from_slice(&cmd.encode());
            ctrl.regs().write(0x1000, &1u32.to_le_bytes());
            let e = rx.recv().expect("completion");
            assert_eq!(e.status, Status::InvalidField);
            assert_eq!(e.cid, 5);
        });
        sim.run();
    }

    #[test]
    fn flush_commands_serialize_on_the_flush_unit() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let profile = SsdProfile::intel_750(); // flush_base = 30 us.
            let flush_base = profile.flush_base;
            let ctrl = NvmeController::new(CtrlConfig::new(profile));
            let sqmem = Arc::new(Mutex::new(vec![0u8; 64 * 64]));
            let (tx, rx) = mpsc_channel::<CompletionEntry>(None);
            ctrl.create_io_queue(QueueParams {
                qid: 1,
                depth: 64,
                sq: SqBacking::Host {
                    ring: Arc::clone(&sqmem),
                    doorbell: 0x1000,
                },
                on_complete: Arc::new(move |e| {
                    let _ = tx.try_send(e);
                }),
            });
            let t0 = ccnvme_sim::now();
            for i in 0..3usize {
                let cmd = NvmeCommand {
                    opcode: Opcode::Flush,
                    cid: i as u16,
                    nsid: 1,
                    lba: 0,
                    nblocks: 0,
                    fua: false,
                    tx_id: 0,
                    tx_flags: TxFlags::NONE,
                    data_token: 0,
                    ctx: ccnvme_obs::TraceCtx::ZERO,
                };
                sqmem.lock()[i * 64..(i + 1) * 64].copy_from_slice(&cmd.encode());
            }
            ctrl.regs().write(0x1000, &3u32.to_le_bytes());
            for _ in 0..3 {
                rx.recv().expect("completion");
            }
            let elapsed = ccnvme_sim::now() - t0;
            assert!(
                elapsed >= 3 * flush_base,
                "three flushes must serialize: {elapsed} < {}",
                3 * flush_base
            );
        });
        sim.run();
    }

    #[test]
    fn read_of_unwritten_blocks_returns_zeros() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let ctrl = NvmeController::new(CtrlConfig::new(SsdProfile::optane_905p()));
            let sqmem = Arc::new(Mutex::new(vec![0u8; 64 * 64]));
            let (tx, rx) = mpsc_channel::<CompletionEntry>(None);
            ctrl.create_io_queue(QueueParams {
                qid: 1,
                depth: 64,
                sq: SqBacking::Host {
                    ring: Arc::clone(&sqmem),
                    doorbell: 0x1000,
                },
                on_complete: Arc::new(move |e| {
                    let _ = tx.try_send(e);
                }),
            });
            let buf: DataBuf = Arc::new(Mutex::new(vec![0xffu8; 2 * BLOCK_SIZE as usize]));
            let token = ctrl.hostmem().register(HostBuf::Dst(Arc::clone(&buf)));
            let cmd = NvmeCommand {
                opcode: Opcode::Read,
                cid: 0,
                nsid: 1,
                lba: 12_345,
                nblocks: 2,
                fua: false,
                tx_id: 0,
                tx_flags: TxFlags::NONE,
                data_token: token,
                ctx: ccnvme_obs::TraceCtx::ZERO,
            };
            sqmem.lock()[0..64].copy_from_slice(&cmd.encode());
            ctrl.regs().write(0x1000, &1u32.to_le_bytes());
            rx.recv().expect("completion");
            assert!(buf.lock().iter().all(|b| *b == 0));
        });
        sim.run();
    }

    /// End-to-end cross-check of the runtime persist-order sanitizer against
    /// the real MMIO path: a protocol-true §4.3 submission (posted store,
    /// flush, doorbell) sanitizes clean, and an injected doorbell-before-flush
    /// reorder on the very same queue is caught with the exact slot named.
    #[test]
    fn persist_order_sanitizer_cross_checks_the_pmr_queue_protocol() {
        use crate::persist::{QueueWindow, SanitizerGeometry};

        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let mut cfg = CtrlConfig::new(SsdProfile::optane_p5800x());
            cfg.record_persistence = true;
            let ctrl = NvmeController::new(cfg);
            let (tx, rx) = mpsc_channel::<CompletionEntry>(None);
            ctrl.create_io_queue(QueueParams {
                qid: 1,
                depth: 64,
                sq: SqBacking::Pmr {
                    ring: 4096,
                    doorbell: 0,
                },
                on_complete: Arc::new(move |e| {
                    let _ = tx.try_send(e);
                }),
            });
            let geo = SanitizerGeometry {
                queues: vec![QueueWindow {
                    qid: 1,
                    db_off: 0,
                    ring_off: 4096,
                    depth: 64,
                    slot_size: 64,
                }],
            };
            // Commit-boundary SQEs: the sanitizer's flush-before-doorbell
            // obligation applies exactly where durability is promised.
            let flush_cmd = |cid: u16| NvmeCommand {
                opcode: Opcode::Flush,
                cid,
                nsid: 1,
                lba: 0,
                nblocks: 0,
                fua: false,
                tx_id: cid as u64,
                tx_flags: TxFlags::TX_COMMIT,
                data_token: 0,
                ctx: ccnvme_obs::TraceCtx::ZERO,
            };

            // Protocol-true submission: posted SQE store, MMIO flush (the
            // clflush + mfence + zero-byte read of §4.3), then the doorbell.
            ctrl.pmr().write(4096, &flush_cmd(1).encode());
            ctrl.pmr().flush();
            ctrl.pmr().write(0, &1u32.to_le_bytes());
            rx.recv().expect("completion for slot 0");

            let plog = ctrl.persist_log().expect("recording enabled");
            assert!(
                plog.sanitize(&geo).is_empty(),
                "a store-flush-ring submission must sanitize clean"
            );
            // The zero must be non-vacuous: the same trace trips the shadow
            // machine once flush marks are discounted.
            assert_eq!(plog.sanitize_ignoring_flushes(&geo).len(), 1);

            // Injected reorder: post slot 1's SQE and ring the doorbell with
            // NO intervening flush. The device happens to read it back fine
            // (no crash here), but the ordering bug is real and the sanitizer
            // must name the exposed slot.
            ctrl.pmr().write(4096 + 64, &flush_cmd(2).encode());
            ctrl.pmr().write(0, &2u32.to_le_bytes());
            rx.recv().expect("completion for slot 1");

            let violations = plog.sanitize(&geo);
            assert_eq!(
                violations.len(),
                1,
                "exactly the unflushed submission is flagged: {violations:?}"
            );
            assert_eq!(violations[0].qid, 1);
            assert_eq!(violations[0].slot, 1);
            assert!(violations[0].to_string().contains("no covering MMIO flush"));
        });
        sim.run();
    }
}
