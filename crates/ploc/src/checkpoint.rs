//! Detectable per-client operation checkpoints.
//!
//! A [`Checkpoint<T>`] is one sealed 64-byte PMR record: a sequence
//! number plus a 40-byte body, stamped with the region generation and an
//! CRC-32C seal by the function that seals a ccNVMe SQE slot
//! ([`ccnvme_obs::seal::seal_line`]), so a torn record or one from a
//! previous life of the region fails verification instead of being
//! replayed. Each client owns two checkpoint slots:
//!
//! * **INTENT** — `Checkpoint<PlocOp>`, written (posted, unflushed)
//!   before the operation executes. Durable intent without a durable
//!   result marks an in-flight operation the mount path must resolve.
//! * **RESULT** — `Checkpoint<OpResult>`, written after the operation
//!   linearizes and flushed before the client is acked. The flush is the
//!   exactly-once boundary: an acked result is always recoverable.
//!
//! Detectability (Sela & Petrank's "Durable Queues: The Second
//! Amendment"): when intent `s` is durable but result `s` is not, the
//! structures' CAS evidence (cell owner words, node claim stamps, help
//! watermarks) decides *exactly one* of Completed-with-result or
//! NotExecuted — never "maybe".

use ccnvme_obs::seal::{seal_line, verify_line};

/// Byte offset of the sequence number inside a record.
const SEQ_OFF: usize = 8;
/// Byte range of the body inside a record.
const BODY_OFF: usize = 12;
/// Body bytes available to a memento.
pub const BODY_LEN: usize = 40;

/// A value that can ride a checkpoint record.
pub trait Memento: Sized {
    /// Record-kind tag (byte 0 of the record) distinguishing intent
    /// from result records so a misdirected read never type-confuses.
    const KIND: u8;
    /// Serializes into the 40-byte record body.
    fn encode_body(&self, body: &mut [u8; BODY_LEN]);
    /// Parses a record body; `None` on an unknown encoding.
    fn decode_body(body: &[u8; BODY_LEN]) -> Option<Self>;
}

/// One detectable operation memento: sequence number + body, sealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint<T: Memento> {
    /// Client-local operation sequence number (1-based; 0 = none).
    pub seq: u32,
    /// The checkpointed value.
    pub body: T,
}

impl<T: Memento> Checkpoint<T> {
    pub fn new(seq: u32, body: T) -> Checkpoint<T> {
        Checkpoint { seq, body }
    }

    /// Serializes and seals the record with the region `generation`.
    pub fn encode(&self, generation: u32) -> [u8; 64] {
        let mut raw = [0u8; 64];
        raw[0] = T::KIND;
        raw[SEQ_OFF..SEQ_OFF + 4].copy_from_slice(&self.seq.to_le_bytes());
        let mut body = [0u8; BODY_LEN];
        self.body.encode_body(&mut body);
        raw[BODY_OFF..BODY_OFF + BODY_LEN].copy_from_slice(&body);
        seal_line(&mut raw, generation);
        raw
    }

    /// Verifies the seal against `generation` and parses. `None` for a
    /// torn, stale-generation, never-written or wrong-kind record.
    pub fn decode(raw: &[u8; 64], generation: u32) -> Option<Checkpoint<T>> {
        if !verify_line(raw, generation) || raw[0] != T::KIND {
            return None;
        }
        let seq = u32::from_le_bytes(raw[SEQ_OFF..SEQ_OFF + 4].try_into().expect("4 bytes"));
        let body = T::decode_body(raw[BODY_OFF..BODY_OFF + BODY_LEN].try_into().expect("body"))?;
        (seq > 0).then_some(Checkpoint { seq, body })
    }
}

/// One ploc structure operation, as named by an intent checkpoint and
/// by the fabric `PLOC_OP` capsule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlocOp {
    /// Push a value onto the Treiber stack.
    Push(u64),
    /// Pop the stack.
    Pop,
    /// Enqueue a value on the MS queue.
    Enqueue(u64),
    /// Dequeue the MS queue.
    Dequeue,
    /// Insert a key/value into the hash map (unique keys; an existing
    /// key answers `Full` and leaves the map unchanged).
    Insert { key: u32, val: u32 },
    /// Look a key up (read-only; never checkpointed as completed by
    /// evidence — recovery re-executes it).
    Lookup { key: u32 },
}

impl PlocOp {
    /// Whether the operation can mutate structure state (everything but
    /// `Lookup`). Mutating ops ride the fabric commit/replay machinery.
    pub fn mutates(&self) -> bool {
        !matches!(self, PlocOp::Lookup { .. })
    }

    /// Wire encoding: (kind, arg0, arg1).
    pub fn to_wire(&self) -> (u8, u64, u64) {
        match *self {
            PlocOp::Push(v) => (1, v, 0),
            PlocOp::Pop => (2, 0, 0),
            PlocOp::Enqueue(v) => (3, v, 0),
            PlocOp::Dequeue => (4, 0, 0),
            PlocOp::Insert { key, val } => (5, key as u64, val as u64),
            PlocOp::Lookup { key } => (6, key as u64, 0),
        }
    }

    /// Parses the wire encoding.
    pub fn from_wire(kind: u8, a0: u64, a1: u64) -> Option<PlocOp> {
        Some(match kind {
            1 => PlocOp::Push(a0),
            2 => PlocOp::Pop,
            3 => PlocOp::Enqueue(a0),
            4 => PlocOp::Dequeue,
            5 => PlocOp::Insert {
                key: a0 as u32,
                val: a1 as u32,
            },
            6 => PlocOp::Lookup { key: a0 as u32 },
            _ => return None,
        })
    }
}

impl Memento for PlocOp {
    const KIND: u8 = 1;

    fn encode_body(&self, body: &mut [u8; BODY_LEN]) {
        let (kind, a0, a1) = self.to_wire();
        body[0] = kind;
        body[8..16].copy_from_slice(&a0.to_le_bytes());
        body[16..24].copy_from_slice(&a1.to_le_bytes());
    }

    fn decode_body(body: &[u8; BODY_LEN]) -> Option<PlocOp> {
        let a0 = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
        let a1 = u64::from_le_bytes(body[16..24].try_into().expect("8 bytes"));
        PlocOp::from_wire(body[0], a0, a1)
    }
}

/// The definitive result of a ploc operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// The mutation linearized (push/enqueue/insert).
    Done,
    /// A popped/dequeued/looked-up value.
    Value(u64),
    /// Pop/dequeue on an empty structure.
    Empty,
    /// Lookup miss.
    NotFound,
    /// Node pool exhausted, or insert of an already-present key.
    Full,
}

impl OpResult {
    /// Wire encoding: (tag, payload).
    pub fn to_wire(&self) -> (u8, u64) {
        match *self {
            OpResult::Done => (0, 0),
            OpResult::Value(v) => (1, v),
            OpResult::Empty => (2, 0),
            OpResult::NotFound => (3, 0),
            OpResult::Full => (4, 0),
        }
    }

    /// Parses the wire encoding.
    pub fn from_wire(tag: u8, payload: u64) -> Option<OpResult> {
        Some(match tag {
            0 => OpResult::Done,
            1 => OpResult::Value(payload),
            2 => OpResult::Empty,
            3 => OpResult::NotFound,
            4 => OpResult::Full,
            _ => return None,
        })
    }
}

impl Memento for OpResult {
    const KIND: u8 = 2;

    fn encode_body(&self, body: &mut [u8; BODY_LEN]) {
        let (tag, payload) = self.to_wire();
        body[0] = tag;
        body[8..16].copy_from_slice(&payload.to_le_bytes());
    }

    fn decode_body(body: &[u8; BODY_LEN]) -> Option<OpResult> {
        let payload = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
        OpResult::from_wire(body[0], payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ops() -> Vec<PlocOp> {
        vec![
            PlocOp::Push(0xdead_beef),
            PlocOp::Pop,
            PlocOp::Enqueue(u64::MAX),
            PlocOp::Dequeue,
            PlocOp::Insert { key: 7, val: 42 },
            PlocOp::Lookup { key: 7 },
        ]
    }

    #[test]
    fn op_checkpoints_roundtrip() {
        for (i, op) in all_ops().into_iter().enumerate() {
            let cp = Checkpoint::new(i as u32 + 1, op);
            let raw = cp.encode(3);
            assert_eq!(Checkpoint::<PlocOp>::decode(&raw, 3), Some(cp));
            // Wrong generation: a record from a previous life.
            assert_eq!(Checkpoint::<PlocOp>::decode(&raw, 4), None);
            // Wrong kind: an intent record never parses as a result.
            assert_eq!(Checkpoint::<OpResult>::decode(&raw, 3), None);
        }
    }

    #[test]
    fn result_checkpoints_roundtrip_and_tears_fail() {
        for res in [
            OpResult::Done,
            OpResult::Value(99),
            OpResult::Empty,
            OpResult::NotFound,
            OpResult::Full,
        ] {
            let cp = Checkpoint::new(5, res);
            let raw = cp.encode(1);
            assert_eq!(Checkpoint::<OpResult>::decode(&raw, 1), Some(cp));
            for i in 0..56 {
                let mut torn = raw;
                torn[i] ^= 0x80;
                assert_eq!(
                    Checkpoint::<OpResult>::decode(&torn, 1),
                    None,
                    "tear at byte {i} survived"
                );
            }
        }
        // A never-written (all-zero) slot parses as no checkpoint.
        assert_eq!(Checkpoint::<OpResult>::decode(&[0u8; 64], 0), None);
    }

    #[test]
    fn mutates_classifies_lookup_read_only() {
        for op in all_ops() {
            assert_eq!(op.mutates(), !matches!(op, PlocOp::Lookup { .. }));
        }
    }
}
