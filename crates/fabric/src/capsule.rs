//! The fabric capsule codec.
//!
//! A capsule is one length-delimited protocol message: NVMe-oF carries
//! SQEs/CQEs in command and response capsules; ours additionally carry
//! the ccNVMe transaction attributes (`REQ_TX` / `REQ_TX_COMMIT` and the
//! 64-bit tx id of the paper's Table 2) and the MQFS syscall surface.
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! +--------+---------+--------+---------+----------------+------------+
//! | magic  | version | opcode |   cid   | opcode-specific|  checksum  |
//! |  u32   |   u8    |   u8   |   u64   |      body      | CRC-32C u64|
//! +--------+---------+--------+---------+----------------+------------+
//! ```
//!
//! `cid` is the per-session command identifier: strictly increasing on
//! requests, echoed on responses. The target processes a session's
//! capsules in cid order and answers retransmitted cids from its
//! response cache, which is what makes commit replay after a partition
//! exactly-once (see `DESIGN.md` §12). The checksum covers everything
//! before it; decoding rejects damage with typed [`CodecError`]s rather
//! than guessing.

use crate::error::CodecError;
use ccnvme_block::{BioStatus, BLOCK_SIZE};
use ccnvme_obs::{seal::crc32c, TraceCtx};
use ccnvme_ploc::{OpResult, RecoverVerdict};
use mqfs::FsError;

/// The ploc operation carried by a [`Capsule::PlocOp`] request.
/// Re-exported under a wire-flavored name so the enum variant and the
/// payload type don't shadow each other at use sites.
pub use ccnvme_ploc::PlocOp as PlocOpWire;

/// Capsule magic: "ccNVMe-oF" squeezed into a u32.
pub const MAGIC: u32 = 0xCC0F_4E56;

/// Protocol version this codec speaks. v2 added the 16-byte trace
/// context that request capsules carry right after the header.
pub const VERSION: u8 = 2;

/// Cap on a data payload (read or write) carried by one capsule.
pub const MAX_DATA: u32 = 1 << 20;

/// Cap on a path field.
pub const MAX_PATH: u32 = 4_096;

/// Header bytes before the body: magic + version + opcode + cid.
const HEADER: usize = 4 + 1 + 1 + 8;

/// Trailing checksum bytes.
const TRAILER: usize = 8;

const OP_HELLO: u8 = 0x01;
const OP_ALLOC_TX: u8 = 0x02;
// 0x03 and 0x11 stay unassigned, so a frame carrying either decodes as
// `BadOpcode`.
const OP_FS_RESOLVE: u8 = 0x04;
const OP_FS_CREATE: u8 = 0x05;
const OP_FS_WRITE: u8 = 0x06;
const OP_FS_READ: u8 = 0x07;
const OP_FS_SYNC: u8 = 0x08;
const OP_FS_STAT: u8 = 0x09;
const OP_METRICS: u8 = 0x0a;
const OP_BYE: u8 = 0x0b;
const OP_PLOC_OP: u8 = 0x0c;
const OP_PLOC_RECOVER: u8 = 0x0d;
const OP_TX_PREPARE: u8 = 0x0e;
const OP_TX_DECIDE: u8 = 0x0f;
const OP_TX_VERDICT: u8 = 0x10;
const OP_BLK_READ: u8 = 0x12;
const OP_TX_COMMIT: u8 = 0x13;
const OP_RESPONSE: u8 = 0x80;

/// Most member writes one `TX_PREPARE` or `TX_COMMIT` capsule may
/// carry. A prepared intent must fit one intent slot on the participant shard,
/// so this wire cap equals the cluster's `SLOT_WRITE_CAP` (asserted by
/// a `ccnvme-cluster` layout test). An overlong transaction is refused
/// by the initiator with a typed [`CodecError::Overflow`] before it
/// takes a command id, and by the decoder should one reach the wire.
pub const MAX_PREPARE_WRITES: u16 = 8;

/// `Ok` if a field of `len` elements fits its protocol cap `max`.
fn capped(len: usize, max: u32) -> Result<(), CodecError> {
    let len = u32::try_from(len).unwrap_or(u32::MAX);
    if len > max {
        return Err(CodecError::Overflow { len, max });
    }
    Ok(())
}

/// Which persistence primitive an `FsSync` capsule invokes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// Atomic + durable (`fsync`).
    Fsync,
    /// Data-only atomic + durable (`fdatasync`).
    Fdatasync,
    /// Atomic only (`fatomic`, §5.1).
    Fatomic,
    /// Data-only atomic (`fdataatomic`).
    Fdataatomic,
}

impl SyncKind {
    fn to_u8(self) -> u8 {
        match self {
            SyncKind::Fsync => 0,
            SyncKind::Fdatasync => 1,
            SyncKind::Fatomic => 2,
            SyncKind::Fdataatomic => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CodecError> {
        Ok(match v {
            0 => SyncKind::Fsync,
            1 => SyncKind::Fdatasync,
            2 => SyncKind::Fatomic,
            3 => SyncKind::Fdataatomic,
            other => return Err(CodecError::BadSyncMode(other)),
        })
    }
}

/// One request operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capsule {
    /// Session handshake. `resume = true` asks the target to re-attach
    /// the existing session state for `client_id` (reconnect after a
    /// partition); `false` starts fresh.
    Hello {
        /// Stable client identity, surviving reconnects.
        client_id: u64,
        /// Re-attach existing session state instead of resetting it.
        resume: bool,
    },
    /// Lease a run of global transaction ids from a cluster coordinator.
    /// The response's `val` is the first id and `aux` the run length
    /// (`0` reads as one id).
    AllocTx,
    /// `resolve(path) -> ino`.
    FsResolve {
        /// Absolute path.
        path: String,
    },
    /// `create(path) -> ino` (idempotent: an existing file resolves).
    FsCreate {
        /// Absolute path.
        path: String,
    },
    /// `write(ino, offset, data)`. The offset is explicit so a
    /// retransmitted write re-executes idempotently.
    FsWrite {
        /// Inode.
        ino: u64,
        /// Byte offset.
        offset: u64,
        /// Payload.
        data: Vec<u8>,
    },
    /// `read(ino, offset, len) -> data`.
    FsRead {
        /// Inode.
        ino: u64,
        /// Byte offset.
        offset: u64,
        /// Bytes to read.
        len: u32,
    },
    /// A persistence point on `ino`.
    FsSync {
        /// Inode.
        ino: u64,
        /// Which primitive.
        mode: SyncKind,
    },
    /// `stat(ino) -> size`.
    FsStat {
        /// Inode.
        ino: u64,
    },
    /// Fetch the target's metrics registry as a `ccnvme-metrics/v1`
    /// JSON document.
    Metrics,
    /// A detectable lock-free operation against the target's ploc
    /// backend (`crates/ploc`). `seq` is the client's per-structure
    /// operation sequence — strictly increasing from 1, independent of
    /// the capsule `cid` — so the target's `PlocService` can answer a
    /// retransmitted operation from its exactly-once result cache.
    PlocOp {
        /// Per-client detectable-op sequence (starts at 1).
        seq: u32,
        /// The operation.
        op: PlocOpWire,
    },
    /// Ask the ploc backend for the session client's recovery verdict
    /// (`PlocService::recover`): what the last issued operation did.
    PlocRecover,
    /// 2PC phase 1 on a participant shard (cluster backend): durably
    /// stage the transaction's member writes for global transaction
    /// `gtx` in an intent slot. The `Ok` ack means the intent
    /// transaction completed — from then on the shard can redo the
    /// writes after any crash, whatever the decision turns out to be.
    /// Idempotent on retransmit and on client restart.
    TxPrepare {
        /// Global (cross-shard) transaction id.
        gtx: u64,
        /// The member writes this shard stages.
        writes: Vec<ShardWrite>,
    },
    /// One whole transaction on the cluster shard that is its only
    /// participant: the member writes go to their home LBAs in the
    /// shard's window as one local ccNVMe transaction (`REQ_TX`
    /// members, the last write `REQ_TX_COMMIT`), with no intent slot, no
    /// decide and no coordinator. The `Ok` ack means the writes are
    /// durable; with no ack the transaction is all there or not at all.
    /// A retransmit is answered from the session's response cache.
    TxCommit {
        /// The global tx id `AllocTx` leased.
        tx_id: u64,
        /// The member writes, applied in place.
        writes: Vec<ShardWrite>,
    },
    /// 2PC phase 2 on a participant shard: apply (`commit = true`) or
    /// discard (`false`) the prepared intent for `gtx`. A decide for an
    /// unknown `gtx` is an idempotent no-op success — the intent was
    /// already applied or never prepared.
    TxDecide {
        /// Global transaction id.
        gtx: u64,
        /// Commit (apply the staged writes) or abort (drop them).
        commit: bool,
    },
    /// Record the coordinator's decision for `gtx` — one sealed 64 B
    /// line of the coordinator's PMR decision log, followed by a PMR
    /// flush; no block I/O. Get-or-set: if a decision for `gtx` is already durable
    /// the recorded one wins and is echoed back (`val` = 1 commit /
    /// 2 abort), so a retried verdict can never contradict itself. A
    /// verdict that proposes abort is also the resolve inquiry for an
    /// in-doubt `gtx`: with no decision recorded, ABORT becomes durable
    /// before the answer (presumed abort), so a late commit verdict
    /// loses to the inquiry.
    TxVerdict {
        /// Global transaction id.
        gtx: u64,
        /// The decision the coordinator wants to record.
        commit: bool,
    },
    /// Read one block of a cluster shard's data window (cluster reads
    /// and the degradation drill's key-range probes).
    BlkRead {
        /// LBA relative to the served window.
        lba: u64,
    },
    /// Orderly session teardown.
    Bye,
}

/// One member write of a `TX_PREPARE` or `TX_COMMIT` capsule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardWrite {
    /// Target LBA, relative to the shard's block window.
    pub lba: u64,
    /// Payload (padded to a block by the shard).
    pub data: Vec<u8>,
}

/// Whether one transaction's member writes are admissible on a window
/// of `blocks` blocks: at least one, at most [`MAX_PREPARE_WRITES`],
/// each inside the window and at most a block.
pub fn admits(writes: &[ShardWrite], blocks: u64) -> bool {
    !writes.is_empty()
        && writes.len() <= MAX_PREPARE_WRITES as usize
        && writes
            .iter()
            .all(|w| w.lba < blocks && w.data.len() <= BLOCK_SIZE as usize)
}

impl Capsule {
    /// `Ok` if every length-capped field fits the cap
    /// [`decode_request`] enforces — the check an initiator runs before
    /// a capsule takes a command id, so an oversized one fails at once
    /// instead of being dropped by the target and retransmitted forever.
    pub fn check_caps(&self) -> Result<(), CodecError> {
        match self {
            Capsule::FsResolve { path } | Capsule::FsCreate { path } => {
                capped(path.len(), MAX_PATH)
            }
            Capsule::FsWrite { data, .. } => capped(data.len(), MAX_DATA),
            Capsule::TxPrepare { writes, .. } | Capsule::TxCommit { writes, .. } => {
                capped(writes.len(), MAX_PREPARE_WRITES as u32)?;
                writes
                    .iter()
                    .try_for_each(|w| capped(w.data.len(), MAX_DATA))
            }
            _ => Ok(()),
        }
    }
}

/// One request: a command id plus the operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Per-session command id. `0` is reserved for `Hello`; all other
    /// requests use strictly increasing ids starting at 1.
    pub cid: u64,
    /// The operation.
    pub op: Capsule,
    /// Trace context stamped by the initiator, carried to the target's
    /// executing thread so one trace id follows the request across the
    /// fabric, retransmissions included (the encoded frame is cached
    /// before its first send and retransmitted byte-identically).
    pub ctx: TraceCtx,
}

impl Request {
    /// A request with no trace context (tests, protocol-internal use).
    pub fn new(cid: u64, op: Capsule) -> Request {
        Request {
            cid,
            op,
            ctx: TraceCtx::ZERO,
        }
    }
}

/// Response status. `Ok` for success; everything else is a typed remote
/// failure the initiator maps back onto [`crate::FabricError::Remote`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success.
    Ok,
    /// A file-system error (round-trips [`FsError`]).
    Fs(FsError),
    /// The backing device failed the bio (generic error).
    BioError,
    /// The backing device reported a media error.
    BioMedia,
    /// The backing device timed out.
    BioTimeout,
    /// The backing device reported transient busy.
    BioBusy,
    /// The request violated the session protocol.
    Protocol,
    /// The operation is not supported by this backend.
    NotSupported,
    /// A cluster node ran out of room for a protocol record: no free
    /// intent slot for a prepare, or a full decision log for a
    /// verdict.
    TxOverflow,
}

impl Status {
    fn to_u8(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Fs(FsError::NotFound) => 1,
            Status::Fs(FsError::Exists) => 2,
            Status::Fs(FsError::NotADirectory) => 3,
            Status::Fs(FsError::IsADirectory) => 4,
            Status::Fs(FsError::NotEmpty) => 5,
            Status::Fs(FsError::NoSpace) => 6,
            Status::Fs(FsError::InvalidName) => 7,
            Status::Fs(FsError::FileTooBig) => 8,
            Status::Fs(FsError::Io) => 9,
            Status::Fs(FsError::ReadOnly) => 10,
            Status::BioError => 20,
            Status::BioMedia => 21,
            Status::BioTimeout => 22,
            Status::BioBusy => 23,
            Status::Protocol => 30,
            Status::NotSupported => 31,
            Status::TxOverflow => 32,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CodecError> {
        Ok(match v {
            0 => Status::Ok,
            1 => Status::Fs(FsError::NotFound),
            2 => Status::Fs(FsError::Exists),
            3 => Status::Fs(FsError::NotADirectory),
            4 => Status::Fs(FsError::IsADirectory),
            5 => Status::Fs(FsError::NotEmpty),
            6 => Status::Fs(FsError::NoSpace),
            7 => Status::Fs(FsError::InvalidName),
            8 => Status::Fs(FsError::FileTooBig),
            9 => Status::Fs(FsError::Io),
            10 => Status::Fs(FsError::ReadOnly),
            20 => Status::BioError,
            21 => Status::BioMedia,
            22 => Status::BioTimeout,
            23 => Status::BioBusy,
            30 => Status::Protocol,
            31 => Status::NotSupported,
            32 => Status::TxOverflow,
            other => return Err(CodecError::BadStatus(other)),
        })
    }

    /// Whether this status reports success.
    pub fn is_ok(self) -> bool {
        self == Status::Ok
    }
}

/// How a backing device's I/O ended, on the wire.
impl From<BioStatus> for Status {
    fn from(s: BioStatus) -> Status {
        match s {
            BioStatus::Ok => Status::Ok,
            BioStatus::Error => Status::BioError,
            BioStatus::Media => Status::BioMedia,
            BioStatus::Timeout => Status::BioTimeout,
            BioStatus::Busy => Status::BioBusy,
        }
    }
}

/// One response capsule: the echoed cid, a status and up to two scalar
/// results plus a data payload (`FsRead` bytes, `Metrics` JSON).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request's cid.
    pub cid: u64,
    /// Outcome.
    pub status: Status,
    /// First scalar result (ino, tx id, credit window, file size, ...).
    pub val: u64,
    /// Second scalar result (`HelloAck`: the session's next expected
    /// cid, so a resuming client can trim its retransmit queue).
    pub aux: u64,
    /// Byte payload.
    pub data: Vec<u8>,
}

impl Response {
    /// A plain-status response with no scalar payload.
    pub fn status(cid: u64, status: Status) -> Response {
        Response {
            cid,
            status,
            val: 0,
            aux: 0,
            data: Vec::new(),
        }
    }

    /// A success response carrying one scalar.
    pub fn ok_val(cid: u64, val: u64) -> Response {
        Response {
            cid,
            status: Status::Ok,
            val,
            aux: 0,
            data: Vec::new(),
        }
    }

    /// A success response carrying read bytes; `val` is their length.
    pub fn ok_data(cid: u64, data: Vec<u8>) -> Response {
        Response {
            val: data.len() as u64,
            data,
            ..Response::ok_val(cid, 0)
        }
    }
}

/// A ploc recovery verdict as a `PlocRecover` response's `(val, aux)`:
/// `aux = verdict | result_tag << 8 | seq << 16` (verdict 0 idle, 1
/// completed, 2 not executed) and `val` the completed operation's result
/// payload ([`OpResult::to_wire`]).
pub fn encode_ploc_verdict(verdict: RecoverVerdict) -> (u64, u64) {
    let (vt, seq, (rt, payload)) = match verdict {
        RecoverVerdict::Idle { completed } => (0, completed, (0, 0)),
        RecoverVerdict::Completed { seq, result } => (1, seq, result.to_wire()),
        RecoverVerdict::NotExecuted { seq } => (2, seq, (0, 0)),
    };
    (payload, vt | (rt as u64) << 8 | (seq as u64) << 16)
}

/// Parses [`encode_ploc_verdict`]'s `(val, aux)`; `None` for an unknown
/// verdict or result tag.
pub fn decode_ploc_verdict(val: u64, aux: u64) -> Option<RecoverVerdict> {
    let seq = (aux >> 16) as u32;
    Some(match aux & 0xff {
        0 => RecoverVerdict::Idle { completed: seq },
        1 => RecoverVerdict::Completed {
            seq,
            result: OpResult::from_wire((aux >> 8) as u8, val)?,
        },
        2 => RecoverVerdict::NotExecuted { seq },
        _ => return None,
    })
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_path(out: &mut Vec<u8>, p: &str) {
    put_u16(out, p.len() as u16);
    out.extend_from_slice(p.as_bytes());
}

/// The body of a `TX_PREPARE` / `TX_COMMIT` capsule.
fn shard_tx_body(gtx: u64, writes: &[ShardWrite]) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64(&mut b, gtx);
    put_u16(&mut b, writes.len() as u16);
    for w in writes {
        put_u64(&mut b, w.lba);
        put_bytes(&mut b, &w.data);
    }
    b
}

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.i + n > self.b.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.b[self.i..self.i + n];
        self.i += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        capped(len, MAX_DATA)?;
        Ok(self.take(len)?.to_vec())
    }

    fn path(&mut self) -> Result<String, CodecError> {
        let len = self.u16()? as usize;
        capped(len, MAX_PATH)?;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::BadString)
    }

    /// The body of a `TX_PREPARE` / `TX_COMMIT` capsule, at most
    /// [`MAX_PREPARE_WRITES`] writes.
    fn shard_tx(&mut self) -> Result<(u64, Vec<ShardWrite>), CodecError> {
        let gtx = self.u64()?;
        let count = self.u16()?;
        capped(count as usize, MAX_PREPARE_WRITES as u32)?;
        let mut writes = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let lba = self.u64()?;
            let data = self.bytes()?;
            writes.push(ShardWrite { lba, data });
        }
        Ok((gtx, writes))
    }

    fn done(&self) -> Result<(), CodecError> {
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(CodecError::Trailing)
        }
    }
}

fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let sum = u64::from(crc32c(&out));
    put_u64(&mut out, sum);
    out
}

fn open(bytes: &[u8]) -> Result<(u8, u64, &[u8]), CodecError> {
    if bytes.len() < HEADER + TRAILER {
        return Err(CodecError::Truncated);
    }
    let (payload, tail) = bytes.split_at(bytes.len() - TRAILER);
    let sum = u64::from_le_bytes(tail.try_into().unwrap());
    let mut c = Cursor { b: payload, i: 0 };
    if c.u32()? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    // Checksum after the magic/version sanity check: a foreign frame
    // reports BadMagic, a damaged fabric frame reports BadChecksum.
    if u64::from(crc32c(payload)) != sum {
        return Err(CodecError::BadChecksum);
    }
    let opcode = c.u8()?;
    let cid = c.u64()?;
    Ok((opcode, cid, &payload[HEADER..]))
}

fn header(opcode: u8, cid: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_u32(&mut out, MAGIC);
    out.push(VERSION);
    out.push(opcode);
    put_u64(&mut out, cid);
    out
}

/// Encodes a request capsule.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let (opcode, body): (u8, Vec<u8>) = match &req.op {
        Capsule::Hello { client_id, resume } => {
            let mut b = Vec::new();
            put_u64(&mut b, *client_id);
            b.push(*resume as u8);
            (OP_HELLO, b)
        }
        Capsule::AllocTx => (OP_ALLOC_TX, Vec::new()),
        Capsule::FsResolve { path } => {
            let mut b = Vec::new();
            put_path(&mut b, path);
            (OP_FS_RESOLVE, b)
        }
        Capsule::FsCreate { path } => {
            let mut b = Vec::new();
            put_path(&mut b, path);
            (OP_FS_CREATE, b)
        }
        Capsule::FsWrite { ino, offset, data } => {
            let mut b = Vec::new();
            put_u64(&mut b, *ino);
            put_u64(&mut b, *offset);
            put_bytes(&mut b, data);
            (OP_FS_WRITE, b)
        }
        Capsule::FsRead { ino, offset, len } => {
            let mut b = Vec::new();
            put_u64(&mut b, *ino);
            put_u64(&mut b, *offset);
            put_u32(&mut b, *len);
            (OP_FS_READ, b)
        }
        Capsule::FsSync { ino, mode } => {
            let mut b = Vec::new();
            put_u64(&mut b, *ino);
            b.push(mode.to_u8());
            (OP_FS_SYNC, b)
        }
        Capsule::FsStat { ino } => {
            let mut b = Vec::new();
            put_u64(&mut b, *ino);
            (OP_FS_STAT, b)
        }
        Capsule::Metrics => (OP_METRICS, Vec::new()),
        Capsule::PlocOp { seq, op } => {
            let (kind, a0, a1) = op.to_wire();
            let mut b = Vec::new();
            put_u32(&mut b, *seq);
            b.push(kind);
            put_u64(&mut b, a0);
            put_u64(&mut b, a1);
            (OP_PLOC_OP, b)
        }
        Capsule::PlocRecover => (OP_PLOC_RECOVER, Vec::new()),
        Capsule::TxPrepare { gtx, writes } => (OP_TX_PREPARE, shard_tx_body(*gtx, writes)),
        Capsule::TxCommit { tx_id, writes } => (OP_TX_COMMIT, shard_tx_body(*tx_id, writes)),
        Capsule::TxDecide { gtx, commit } => {
            let mut b = Vec::new();
            put_u64(&mut b, *gtx);
            b.push(*commit as u8);
            (OP_TX_DECIDE, b)
        }
        Capsule::TxVerdict { gtx, commit } => {
            let mut b = Vec::new();
            put_u64(&mut b, *gtx);
            b.push(*commit as u8);
            (OP_TX_VERDICT, b)
        }
        Capsule::BlkRead { lba } => {
            let mut b = Vec::new();
            put_u64(&mut b, *lba);
            (OP_BLK_READ, b)
        }
        Capsule::Bye => (OP_BYE, Vec::new()),
    };
    let mut out = header(opcode, req.cid);
    // v2: the trace context rides every request, between the header and
    // the opcode-specific body. Responses don't carry one — they echo
    // the cid, which the initiator already maps back to its context.
    out.extend_from_slice(&req.ctx.to_bytes());
    out.extend_from_slice(&body);
    seal(out)
}

/// Decodes a request capsule, rejecting damage with typed errors.
pub fn decode_request(bytes: &[u8]) -> Result<Request, CodecError> {
    let (opcode, cid, body) = open(bytes)?;
    let mut c = Cursor { b: body, i: 0 };
    let ctx_raw: [u8; TraceCtx::WIRE_BYTES] = c
        .take(TraceCtx::WIRE_BYTES)?
        .try_into()
        .expect("exact take");
    let ctx = TraceCtx::from_bytes(&ctx_raw);
    let op = match opcode {
        OP_HELLO => Capsule::Hello {
            client_id: c.u64()?,
            resume: c.u8()? != 0,
        },
        OP_ALLOC_TX => Capsule::AllocTx,
        OP_FS_RESOLVE => Capsule::FsResolve { path: c.path()? },
        OP_FS_CREATE => Capsule::FsCreate { path: c.path()? },
        OP_FS_WRITE => Capsule::FsWrite {
            ino: c.u64()?,
            offset: c.u64()?,
            data: c.bytes()?,
        },
        OP_FS_READ => Capsule::FsRead {
            ino: c.u64()?,
            offset: c.u64()?,
            len: c.u32()?,
        },
        OP_FS_SYNC => Capsule::FsSync {
            ino: c.u64()?,
            mode: SyncKind::from_u8(c.u8()?)?,
        },
        OP_FS_STAT => Capsule::FsStat { ino: c.u64()? },
        OP_METRICS => Capsule::Metrics,
        OP_PLOC_OP => {
            let seq = c.u32()?;
            let kind = c.u8()?;
            let a0 = c.u64()?;
            let a1 = c.u64()?;
            let op = PlocOpWire::from_wire(kind, a0, a1).ok_or(CodecError::BadPlocOp(kind))?;
            Capsule::PlocOp { seq, op }
        }
        OP_PLOC_RECOVER => Capsule::PlocRecover,
        OP_TX_PREPARE => {
            let (gtx, writes) = c.shard_tx()?;
            Capsule::TxPrepare { gtx, writes }
        }
        OP_TX_COMMIT => {
            let (tx_id, writes) = c.shard_tx()?;
            Capsule::TxCommit { tx_id, writes }
        }
        OP_TX_DECIDE => Capsule::TxDecide {
            gtx: c.u64()?,
            commit: c.u8()? != 0,
        },
        OP_TX_VERDICT => Capsule::TxVerdict {
            gtx: c.u64()?,
            commit: c.u8()? != 0,
        },
        OP_BLK_READ => Capsule::BlkRead { lba: c.u64()? },
        OP_BYE => Capsule::Bye,
        other => return Err(CodecError::BadOpcode(other)),
    };
    c.done()?;
    Ok(Request { cid, op, ctx })
}

/// Encodes a response capsule.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = header(OP_RESPONSE, resp.cid);
    out.push(resp.status.to_u8());
    put_u64(&mut out, resp.val);
    put_u64(&mut out, resp.aux);
    put_bytes(&mut out, &resp.data);
    seal(out)
}

/// Decodes a response capsule, rejecting damage with typed errors.
pub fn decode_response(bytes: &[u8]) -> Result<Response, CodecError> {
    let (opcode, cid, body) = open(bytes)?;
    if opcode != OP_RESPONSE {
        return Err(CodecError::BadOpcode(opcode));
    }
    let mut c = Cursor { b: body, i: 0 };
    let status = Status::from_u8(c.u8()?)?;
    let val = c.u64()?;
    let aux = c.u64()?;
    let data = c.bytes()?;
    c.done()?;
    Ok(Response {
        cid,
        status,
        val,
        aux,
        data,
    })
}
