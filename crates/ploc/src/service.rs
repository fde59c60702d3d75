//! The ploc service: per-client exactly-once operation sequencing over
//! the shared structures, plus format and crash recovery (mount).
//!
//! # Commit discipline (mirrors ccNVMe's two-MMIO commit, §4.3)
//!
//! Per operation the service issues, in posted order: the INTENT
//! checkpoint (unflushed), the structure effect (the linearizing CAS
//! with its evidence), the RESULT checkpoint — then exactly **one**
//! flush before acking the client. Posted-write FIFO makes every crash
//! cut a prefix of that order, so the mount path always lands in one of
//! three regimes per client, each with a definitive verdict:
//!
//! 1. result(seq) durable → [`RecoverVerdict::Completed`] (replayable
//!    from the record — the ack may or may not have escaped);
//! 2. intent(seq) durable, result not → the structures' CAS evidence
//!    decides: evidence present (or help watermark raised) →
//!    `Completed` with the recovered result; otherwise
//!    [`RecoverVerdict::NotExecuted`] — the op touched nothing durable
//!    and the client must re-issue;
//! 3. no in-flight intent → [`RecoverVerdict::Idle`].
//!
//! Mount writes the recovered RESULT checkpoints *before* repairing the
//! structures (sanitize / tail catch-up), so even a crash during
//! recovery never destroys evidence ahead of the verdict it supports —
//! FIFO again. Re-mounting an already-recovered image performs only
//! byte-identical writes, which is what `tests/ploc_idempotence.rs`
//! pins down.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use ccnvme_obs::{Counter, Histogram, Obs};
use ccnvme_pcie::MmioRegion;
use ccnvme_runtime::{now, RtMutex};
use parking_lot::Mutex;

use crate::cas::owner_word;
use crate::checkpoint::{Checkpoint, OpResult, PlocOp};
use crate::region::{PlocGeometry, PlocRegion, SLOT_INTENT, SLOT_RESULT};
use crate::structures::Shared;

/// Ploc sub-region geometry knobs.
#[derive(Debug, Clone, Copy)]
pub struct PlocConfig {
    /// Detectable clients served (client ids are `0..clients`).
    pub clients: u16,
    /// Pool nodes shared by all three structures.
    pub pool: u32,
    /// Hash buckets.
    pub buckets: u32,
}

impl Default for PlocConfig {
    fn default() -> Self {
        PlocConfig {
            clients: 8,
            pool: 64,
            buckets: 8,
        }
    }
}

/// Ploc service errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlocError {
    /// The sub-region header failed to verify (unformatted PMR, torn
    /// header, or a stale generation).
    Unformatted,
    /// Client id out of range for the formatted geometry.
    BadClient { client: u16, clients: u16 },
    /// Out-of-order sequence number (the session protocol guarantees
    /// in-order, gap-free sequences per client).
    BadSeq {
        client: u16,
        expected: u32,
        got: u32,
    },
}

impl std::fmt::Display for PlocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlocError::Unformatted => write!(f, "ploc region failed header verification"),
            PlocError::BadClient { client, clients } => {
                write!(f, "client {client} out of range (formatted for {clients})")
            }
            PlocError::BadSeq {
                client,
                expected,
                got,
            } => write!(f, "client {client}: sequence {got}, expected {expected}"),
        }
    }
}

impl std::error::Error for PlocError {}

/// What recovery decided about one client's operation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverVerdict {
    /// No in-flight operation; `completed` is the last durably answered
    /// sequence (0 = the client never completed anything).
    Idle { completed: u32 },
    /// The in-flight (or last) operation linearized; its definitive
    /// result, recovered exactly once.
    Completed { seq: u32, result: OpResult },
    /// The in-flight operation left no durable effect; the client must
    /// re-issue `seq`.
    NotExecuted { seq: u32 },
}

impl RecoverVerdict {
    /// The next sequence number the client should use.
    pub fn next_seq(&self) -> u32 {
        match *self {
            RecoverVerdict::Idle { completed } => completed + 1,
            RecoverVerdict::Completed { seq, .. } => seq + 1,
            RecoverVerdict::NotExecuted { seq } => seq,
        }
    }
}

/// Per-client serialization + replay cache (volatile; reseeded at mount
/// from the durable checkpoints).
struct ClientState {
    /// Serializes the client's operations across connections. A
    /// `RtMutex` because the critical section issues MMIO (sim time).
    exec: RtMutex<()>,
    last_seq: AtomicU32,
    last_result: Mutex<Option<OpResult>>,
}

struct Metrics {
    ops: Arc<Counter>,
    pushes: Arc<Counter>,
    pops: Arc<Counter>,
    enqueues: Arc<Counter>,
    dequeues: Arc<Counter>,
    inserts: Arc<Counter>,
    lookups: Arc<Counter>,
    replays: Arc<Counter>,
    recovered_ops: Arc<Counter>,
    mounts: Arc<Counter>,
    op_ns: Arc<Histogram>,
    recover_ns: Arc<Histogram>,
}

impl Metrics {
    fn new(obs: &Obs) -> Metrics {
        let c = |n: &str| obs.metrics.counter(n);
        Metrics {
            ops: c("ploc.ops"),
            pushes: c("ploc.pushes"),
            pops: c("ploc.pops"),
            enqueues: c("ploc.enqueues"),
            dequeues: c("ploc.dequeues"),
            inserts: c("ploc.inserts"),
            lookups: c("ploc.lookups"),
            replays: c("ploc.replays"),
            recovered_ops: c("ploc.recovered_ops"),
            mounts: c("ploc.mounts"),
            op_ns: obs.metrics.histogram("ploc.op_ns"),
            recover_ns: obs.metrics.histogram("ploc.recover_ns"),
        }
    }
}

/// The detectable-structures service over one PMR sub-region.
pub struct PlocService {
    pub(crate) shared: Shared,
    clients: Vec<ClientState>,
    verdicts: Vec<RecoverVerdict>,
    obs: Arc<Obs>,
    m: Metrics,
}

impl PlocService {
    /// Formats the sub-region at `pmr[base ..]`: bumps the generation
    /// past whatever epoch the old bytes carried, zeroes the region,
    /// writes the sealed header and the queue's initial dummy, and
    /// flushes. Stale records from a previous life fail their epoch
    /// check afterwards.
    pub fn format(
        pmr: Arc<MmioRegion>,
        base: u64,
        cfg: PlocConfig,
        obs: Arc<Obs>,
    ) -> Arc<PlocService> {
        assert!(cfg.clients > 0 && cfg.pool > 1 && cfg.buckets > 0);
        let geo = PlocGeometry {
            clients: cfg.clients,
            pool: cfg.pool,
            buckets: cfg.buckets,
        };
        let old = pmr.read(base, 64);
        let old_gen = u32::from_le_bytes(old[52..56].try_into().expect("4 bytes"));
        let generation = old_gen.wrapping_add(1).max(1);
        let r = PlocRegion::fresh(pmr, base, geo, generation, &obs);
        r.zero_device();
        let shared = Shared::new(r, &obs);
        // The queue's initial dummy: allocated, never claimed, released
        // (it has no claimer whose result could be pending).
        let (dummy, dptr) = shared.pool.alloc(&shared.r, 0).expect("pool > 1");
        shared.pool.release(&shared.r, dummy);
        {
            let _g = shared.r.lock_cell(shared.r.geo().qhead_cell());
            shared
                .r
                .store_cell_through(shared.r.geo().qhead_cell(), dptr, 0);
        }
        {
            let _g = shared.r.lock_cell(shared.r.geo().qtail_cell());
            shared
                .r
                .store_cell_through(shared.r.geo().qtail_cell(), dptr, 0);
        }
        let header = geo.encode_header(generation);
        shared.r.write_header(&header);
        shared.r.flush();
        let clients = (0..cfg.clients).map(|_| ClientState::fresh()).collect();
        let verdicts = vec![RecoverVerdict::Idle { completed: 0 }; cfg.clients as usize];
        Arc::new(PlocService {
            shared,
            clients,
            verdicts,
            m: Metrics::new(&obs),
            obs,
        })
    }

    /// Mounts an existing sub-region after a crash (or gracefully):
    /// verifies the header, replays per-client detection, completes
    /// half-done pops/dequeues, rebuilds the pool and reseeds the
    /// replay caches. Returns the per-client verdicts.
    ///
    /// Idempotent: re-mounting the image a second time performs only
    /// byte-identical writes.
    pub fn mount(
        pmr: Arc<MmioRegion>,
        base: u64,
        obs: Arc<Obs>,
    ) -> Result<Arc<PlocService>, PlocError> {
        let t0 = now();
        let hraw: [u8; 64] = pmr.read(base, 64).try_into().expect("64 bytes");
        let (geo, generation) = PlocGeometry::decode_header(&hraw).ok_or(PlocError::Unformatted)?;
        let r = PlocRegion::from_device(pmr, base, geo, generation, &obs);
        let shared = Shared::new(r, &obs);
        let m = Metrics::new(&obs);
        m.mounts.inc();

        // Pass 1 — verdicts from checkpoints + evidence, and the RESULT
        // records recovery owes. All record writes are posted *before*
        // any sanitize/tail repair below touches the evidence (FIFO).
        let mut verdicts = Vec::with_capacity(geo.clients as usize);
        let mut clients = Vec::with_capacity(geo.clients as usize);
        for c in 0..geo.clients {
            let intent =
                Checkpoint::<PlocOp>::decode(&shared.r.read_record(c, SLOT_INTENT), generation);
            let result =
                Checkpoint::<OpResult>::decode(&shared.r.read_record(c, SLOT_RESULT), generation);
            let verdict = match (intent, result) {
                (None, None) => RecoverVerdict::Idle { completed: 0 },
                (None, Some(res)) => RecoverVerdict::Idle { completed: res.seq },
                (Some(int), Some(res)) if res.seq == int.seq => RecoverVerdict::Completed {
                    seq: res.seq,
                    result: res.body,
                },
                (Some(int), _) => match Self::detect(&shared, c, int.seq, int.body) {
                    Some(result) => {
                        // The op linearized but its result never became
                        // durable — recovery writes it exactly once.
                        shared.r.write_record(
                            c,
                            SLOT_RESULT,
                            &Checkpoint::new(int.seq, result).encode(generation),
                        );
                        m.recovered_ops.inc();
                        RecoverVerdict::Completed {
                            seq: int.seq,
                            result,
                        }
                    }
                    None => RecoverVerdict::NotExecuted { seq: int.seq },
                },
            };
            let cs = ClientState::fresh();
            match verdict {
                RecoverVerdict::Idle { completed } => {
                    // ord: single-threaded mount seeding the replay cache.
                    cs.last_seq.store(completed, Ordering::Release);
                    if let Some(res) = result {
                        *cs.last_result.lock() = Some(res.body);
                    }
                }
                RecoverVerdict::Completed { seq, result } => {
                    cs.last_seq.store(seq, Ordering::Release); // ord: as above
                    *cs.last_result.lock() = Some(result);
                }
                RecoverVerdict::NotExecuted { seq } => {
                    cs.last_seq.store(seq - 1, Ordering::Release); // ord: as above
                    *cs.last_result.lock() = result.map(|r| r.body);
                }
            }
            verdicts.push(verdict);
            clients.push(cs);
        }

        // Pass 2 — structure repair: finish claimed-but-unswung swings,
        // catch the tail up, rebuild the pool, then make everything
        // durable with the mount's single flush.
        shared.sanitize();
        shared.rebuild_pool();
        shared.r.flush();
        m.recover_ns.record(now().saturating_sub(t0));
        Ok(Arc::new(PlocService {
            shared,
            clients,
            verdicts,
            m,
            obs,
        }))
    }

    /// Evidence scan: did in-flight operation `(c, seq)` linearize? The
    /// predicate is stable (help-before-overwrite keeps it monotone) and
    /// exact: exactly one of `Some(result)` / `None` for any crash cut.
    fn detect(shared: &Shared, c: u16, seq: u32, op: PlocOp) -> Option<OpResult> {
        let w = owner_word(c, seq);
        let geo = *shared.r.geo();
        let helped = shared.r.help_floor(c) >= seq as u64;
        match op {
            PlocOp::Push(_) => {
                (shared.r.load(geo.stack_cell() + 8) == w || helped).then_some(OpResult::Done)
            }
            PlocOp::Enqueue(_) => ((0..geo.pool).any(|n| shared.r.load(geo.node_off(n) + 24) == w)
                || helped)
                .then_some(OpResult::Done),
            PlocOp::Insert { .. } => {
                ((0..geo.buckets).any(|b| shared.r.load(geo.bucket_cell(b) + 8) == w) || helped)
                    .then_some(OpResult::Done)
            }
            PlocOp::Pop | PlocOp::Dequeue => (0..geo.pool)
                .find(|&n| shared.r.load(geo.node_off(n) + 8) == w)
                .map(|n| OpResult::Value(shared.r.load(geo.node_off(n)))),
            // Read-only: never completed by evidence, always re-executed.
            PlocOp::Lookup { .. } => None,
        }
    }

    /// Executes (or replays) client `c`'s operation `seq`. Exactly-once:
    /// a repeat of the last sequence answers from the replay cache; the
    /// result is durable before this returns.
    // ccnvme-lint: commit_path
    pub fn op(&self, c: u16, seq: u32, op: PlocOp) -> Result<OpResult, PlocError> {
        let cs = self.clients.get(c as usize).ok_or(PlocError::BadClient {
            client: c,
            clients: self.shared.r.geo().clients,
        })?;
        let _g = cs.exec.lock();
        let t0 = now();
        // ord: Acquire pairs with the Release store below; the exec lock
        // already serializes, the ordering documents the replay read.
        let last = cs.last_seq.load(Ordering::Acquire);
        if seq == last {
            self.m.replays.inc();
            let cached = *cs.last_result.lock();
            return cached.ok_or(PlocError::BadSeq {
                client: c,
                expected: last + 1,
                got: seq,
            });
        }
        if seq != last + 1 {
            return Err(PlocError::BadSeq {
                client: c,
                expected: last + 1,
                got: seq,
            });
        }
        let generation = self.shared.r.generation();
        // Intent first, unflushed: durable intent + no evidence is the
        // definitive NotExecuted verdict; FIFO orders it before any
        // effect the op makes.
        self.shared
            .r
            .write_record(c, SLOT_INTENT, &Checkpoint::new(seq, op).encode(generation));
        let owner = owner_word(c, seq);
        let (result, release) = match op {
            PlocOp::Push(v) => {
                self.m.pushes.inc();
                self.shared.push(owner, v)
            }
            PlocOp::Pop => {
                self.m.pops.inc();
                self.shared.pop(owner)
            }
            PlocOp::Enqueue(v) => {
                self.m.enqueues.inc();
                self.shared.enqueue(owner, v)
            }
            PlocOp::Dequeue => {
                self.m.dequeues.inc();
                self.shared.dequeue(owner)
            }
            PlocOp::Insert { key, val } => {
                self.m.inserts.inc();
                self.shared.insert(owner, key, val)
            }
            PlocOp::Lookup { key } => {
                self.m.lookups.inc();
                self.shared.lookup(key)
            }
        };
        self.shared.r.write_record(
            c,
            SLOT_RESULT,
            &Checkpoint::new(seq, result).encode(generation),
        );
        // The one flush: result durability is the ack boundary.
        self.shared.r.flush();
        // Only now may a claimed node be recycled — its claim stamp was
        // the recovery evidence for this very result.
        if let Some(n) = release {
            self.shared.pool.release(&self.shared.r, n);
        }
        *cs.last_result.lock() = Some(result);
        // ord: Release publishes the new replay floor.
        cs.last_seq.store(seq, Ordering::Release);
        self.m.ops.inc();
        self.m.op_ns.record(now().saturating_sub(t0));
        Ok(result)
    }

    /// The recovery verdict for `client` (what a reconnecting client
    /// asks first: "did my in-flight op happen?"). Live: operations
    /// executed since mount (or format) advance the verdict, so a
    /// client process restarting against a running target resumes its
    /// sequence space the same way one restarting after a device crash
    /// does.
    pub fn recover(&self, client: u16) -> Result<RecoverVerdict, PlocError> {
        let cs = self
            .clients
            .get(client as usize)
            .ok_or(PlocError::BadClient {
                client,
                clients: self.shared.r.geo().clients,
            })?;
        // Under the exec lock so the (last_seq, last_result) pair is a
        // consistent snapshot against a concurrent op racing in on
        // another connection of the same client.
        let _g = cs.exec.lock();
        // ord: Acquire pairs with the Release publish in `op`.
        let live = cs.last_seq.load(Ordering::Acquire);
        if let v @ RecoverVerdict::NotExecuted { seq } = self.verdicts[client as usize] {
            // The mount said "re-issue seq" and the client has not
            // issued anything since: the verdict stands.
            if live + 1 == seq {
                return Ok(v);
            }
        }
        Ok(match *cs.last_result.lock() {
            Some(result) if live > 0 => RecoverVerdict::Completed { seq: live, result },
            _ => RecoverVerdict::Idle { completed: live },
        })
    }

    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// Region bounds inside the PMR (persist-event coverage checks).
    pub fn region_bounds(&self) -> (u64, u64) {
        self.shared.r.bounds()
    }

    pub fn config(&self) -> PlocConfig {
        let geo = *self.shared.r.geo();
        PlocConfig {
            clients: geo.clients,
            pool: geo.pool,
            buckets: geo.buckets,
        }
    }

    /// Quiesced debug views for oracles and examples.
    pub fn stack_contents(&self) -> Vec<u64> {
        self.shared.stack_contents()
    }

    pub fn queue_contents(&self) -> Vec<u64> {
        self.shared.queue_contents()
    }

    pub fn hash_contents(&self) -> Vec<(u32, u32)> {
        self.shared.hash_contents()
    }

    pub fn free_nodes(&self) -> usize {
        self.shared.pool.free_count()
    }
}

impl ClientState {
    fn fresh() -> ClientState {
        ClientState {
            exec: RtMutex::new(()),
            last_seq: AtomicU32::new(0),
            last_result: Mutex::new(None),
        }
    }
}
