//! The crash-consistent flight recorder ("blackbox"): a sealed,
//! fixed-capacity persistent ring of compact trace records in a PMR
//! sub-region.
//!
//! The paper's discipline (§4) is that a small, *ordered* persistent
//! footprint is enough to make state crash-recoverable; the blackbox
//! applies the same discipline to telemetry. Records are written on the
//! **existing posted-write path only** — the recorder never flushes,
//! never rings a doorbell, never reads back. Because PCIe posted writes
//! arrive in FIFO order, a blackbox record posted *after* a protocol
//! write (an SQE store, a doorbell) is durable only if that write is
//! durable: every record that survives a crash is a conservative
//! *witness* of the protocol state it trailed (NVTraverse's
//! destination-over-journey framing — the record certifies what was
//! durably reached, never what was merely attempted).
//!
//! Layout (one 64 B header + [`BLACKBOX_SLOTS`] 64 B record slots):
//! every slot is self-describing — it embeds its own global sequence
//! number — and sealed exactly like an SQE, by [`crate::seal::seal_line`]:
//! the PMR recovery generation at bytes 52..56 and a CRC-32C checksum
//! over bytes 0..56 at 56..60.
//! Mounting is a pure read: scan the slots, drop the ones whose seal
//! fails (torn by the cut, or stale from a previous life of the ring),
//! sort by sequence. Torn tails and lapped writers need no cursor word
//! and no repair writes, so a mount is trivially byte-idempotent.

use std::sync::{Arc, Weak};
// ord: this module deliberately uses std atomics, not the loom shim:
// the blackbox is never attached inside a loom model (it exists only
// under a live PMR sink) and its single cursor has no cross-variable
// protocol to model-check.
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::ctx::TraceCtx;
use crate::seal::{seal_line, sealed_epoch, verify_line};
use crate::trace::{EventKind, TraceEvent};
use crate::Ns;

/// Bytes the blackbox sub-region occupies in the PMR (header + slots).
pub const BLACKBOX_BYTES: u64 = 16 * 1024;

/// Size of one record (and of the header), matching the SQE/seal size.
pub const RECORD_SIZE: u64 = 64;

/// Record slots in the ring (the first 64 B line is the header).
pub const BLACKBOX_SLOTS: u32 = (BLACKBOX_BYTES / RECORD_SIZE - 1) as u32;

/// Magic identifying a formatted blackbox header ("ccBBOX01").
pub const BLACKBOX_MAGIC: u64 = u64::from_le_bytes(*b"ccBBOX01");

/// Records the recorder stages before posting them as one MMIO burst
/// ([`Blackbox::append`]). Eight 64 B lines = 512 B per
/// burst: one MMIO transaction amortizes the per-operation cost across
/// the batch while staying under the posted-write backlog, so the
/// recorder's hot-path tax is a few tens of ns per record instead of a
/// full MMIO op each.
pub const BATCH_RECORDS: usize = 8;

/// Destination a [`Blackbox`] posts its records into. Implemented by
/// the PMR MMIO region; deliberately write-only — the recorder has no
/// way to flush, read back, or ring anything through this trait, which
/// is what keeps it strictly observational.
pub trait BlackboxSink: Send + Sync {
    /// Issues one posted (asynchronous, FIFO-ordered) write.
    fn post(&self, off: u64, data: &[u8]);
}

/// Which lifecycle events are worth persistent witness. Only the
/// host-side protocol milestones are recorded: each rides immediately
/// after the posted PMR write it witnesses, so FIFO order makes the
/// record meaningful. Device-side events (DMA, media, IRQ) stay in the
/// volatile ring only.
pub fn persisted_kind(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::TxBegin | EventKind::Doorbell | EventKind::Completion | EventKind::TxAbort
    )
}

/// Encodes one record: seq, timestamp, event fields, trace context,
/// then the epoch+CRC-32C seal.
fn encode_record(seq: u64, ev: &TraceEvent, epoch: u32) -> [u8; 64] {
    let mut raw = [0u8; 64];
    raw[0..8].copy_from_slice(&seq.to_le_bytes());
    raw[8..16].copy_from_slice(&ev.at.to_le_bytes());
    raw[16] = ev.kind.code();
    raw[18..20].copy_from_slice(&ev.qid.to_le_bytes());
    raw[20..28].copy_from_slice(&ev.tx_id.to_le_bytes());
    raw[28..36].copy_from_slice(&ev.arg.to_le_bytes());
    raw[36..44].copy_from_slice(&ev.ctx.trace_id.to_le_bytes());
    raw[44..48].copy_from_slice(&ev.ctx.span.to_le_bytes());
    raw[48..52].copy_from_slice(&ev.ctx.origin.to_le_bytes());
    seal_line(&mut raw, epoch);
    raw
}

/// Decodes a sealed record slot; `None` if the slot is torn, stale
/// (wrong epoch), or carries an unknown event kind.
fn decode_record(raw: &[u8; 64], epoch: u32) -> Option<BlackboxRecord> {
    if !verify_line(raw, epoch) {
        return None;
    }
    let kind = EventKind::from_code(raw[16])?;
    Some(BlackboxRecord {
        seq: u64::from_le_bytes(raw[0..8].try_into().unwrap()),
        ev: TraceEvent {
            at: Ns::from_le_bytes(raw[8..16].try_into().unwrap()),
            kind,
            qid: u16::from_le_bytes(raw[18..20].try_into().unwrap()),
            tx_id: u64::from_le_bytes(raw[20..28].try_into().unwrap()),
            arg: u64::from_le_bytes(raw[28..36].try_into().unwrap()),
            ctx: TraceCtx {
                trace_id: u64::from_le_bytes(raw[36..44].try_into().unwrap()),
                span: u32::from_le_bytes(raw[44..48].try_into().unwrap()),
                origin: u32::from_le_bytes(raw[48..52].try_into().unwrap()),
            },
        },
    })
}

/// The live recorder: posts sealed records into its PMR sub-region on
/// the existing posted-write path. Strictly observational — see the
/// module docs and the `persist-order` observer rule that enforces it.
pub struct Blackbox {
    /// Weak: the region's link owns the hub this recorder hangs off
    /// (region → link → `Obs` → trace ring → recorder), so a strong
    /// sink would close a cycle that keeps every booted stack's PMR
    /// alive forever. A recorder that outlives its region records
    /// nothing.
    sink: Weak<dyn BlackboxSink>,
    base: u64,
    epoch: u32,
    /// Next global record sequence number. Critical atomic: sequence
    /// uniqueness is what mount-time ordering reconstruction rests on.
    bb_cursor: AtomicU64,
    /// Encoded records staged for the next burst.
    staged: Mutex<Burst>,
}

/// The bytes of one full burst.
const BURST_BYTES: usize = BATCH_RECORDS * RECORD_SIZE as usize;

/// Sealed records for one contiguous burst: the first `len` bytes of
/// `buf` hold the encodings of sequences `start_seq, start_seq+1, …`
/// whose ring slots are consecutive (append flushes the batch before any
/// discontinuity). The stage is one; a burst on its way out is a copy of
/// it on the poster's stack.
#[derive(Clone, Copy)]
struct Burst {
    start_seq: u64,
    len: usize,
    buf: [u8; BURST_BYTES],
}

impl Burst {
    /// Empties the stage, returning what it held; `None` if nothing.
    fn take(&mut self) -> Option<Burst> {
        let staged = *self;
        self.len = 0;
        (staged.len > 0).then_some(staged)
    }
}

impl Blackbox {
    /// Formats the sub-region at `base`: posts one sealed header write
    /// (magic + capacity + epoch). The caller is expected to be inside
    /// its own commit sequence — the header rides the caller's next
    /// flush; `format` itself adds no ordering edge. Old records need
    /// no erasing: they were sealed under a previous epoch and fail
    /// validation at the next mount.
    ///
    /// Records are staged in host memory and posted as one contiguous
    /// multi-record write once [`BATCH_RECORDS`] of them accumulate,
    /// amortizing the per-MMIO-op cost. Batching never weakens what a
    /// surviving record proves — it only narrows *when* one survives. A
    /// record is published at or after the instant it was appended, so
    /// it is still posted after the protocol write it witnesses and the
    /// FIFO argument holds unchanged. The cost is a bounded loss window:
    /// up to `BATCH_RECORDS - 1` staged records vanish at a cut (or a
    /// clean shutdown without [`Blackbox::publish`]), which forensics
    /// already tolerates because absence of a record proves nothing.
    pub fn format(sink: Arc<dyn BlackboxSink>, base: u64, epoch: u32) -> Arc<Blackbox> {
        let mut h = [0u8; 64];
        h[0..8].copy_from_slice(&BLACKBOX_MAGIC.to_le_bytes());
        h[8..12].copy_from_slice(&BLACKBOX_SLOTS.to_le_bytes());
        seal_line(&mut h, epoch);
        sink.post(base, &h);
        Arc::new(Blackbox {
            sink: Arc::downgrade(&sink),
            base,
            epoch,
            bb_cursor: AtomicU64::new(0),
            staged: Mutex::new(Burst {
                start_seq: 0,
                len: 0,
                buf: [0; BURST_BYTES],
            }),
        })
    }

    /// The epoch (PMR recovery generation) this recorder seals with.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// PMR offset of the slot holding sequence number `seq`.
    fn slot_off(&self, seq: u64) -> u64 {
        self.base + RECORD_SIZE * (1 + seq % BLACKBOX_SLOTS as u64)
    }

    /// Posts a burst as one write.
    fn post(&self, burst: &Burst) {
        if let Some(sink) = self.sink.upgrade() {
            sink.post(self.slot_off(burst.start_seq), &burst.buf[..burst.len]);
        }
    }

    /// Appends one record: the sealed record is staged and rides the
    /// next burst. Laps simply overwrite the oldest slot.
    pub fn append(&self, ev: &TraceEvent) {
        // ord: SeqCst — bb_cursor is the ring's only allocator; every
        // record must draw a unique, totally-ordered sequence number.
        let seq = self.bb_cursor.fetch_add(1, Ordering::SeqCst);
        let raw = encode_record(seq, ev, self.epoch);
        // Stage under the lock, post after dropping it: the sink may
        // model link occupancy, and other appenders must not serialize
        // behind that. Two bursts can leave here at once (a forced
        // flush plus a full batch); each covers a disjoint slot run, so
        // their posting order is irrelevant to the mount.
        let mut posts: [Option<Burst>; 2] = [None, None];
        {
            let mut st = self.staged.lock();
            let expected = st.start_seq + (st.len / RECORD_SIZE as usize) as u64;
            // A burst must cover consecutive ring slots: flush staged
            // records before an out-of-order sequence (a slower thread
            // drew its seq earlier but locked later) and before the
            // ring wraps back to slot 0.
            if seq != expected || seq.is_multiple_of(BLACKBOX_SLOTS as u64) {
                posts[0] = st.take();
            }
            if st.len == 0 {
                st.start_seq = seq;
            }
            let at = st.len;
            st.buf[at..at + raw.len()].copy_from_slice(&raw);
            st.len += raw.len();
            if st.len == BURST_BYTES {
                posts[1] = st.take();
            }
        }
        for burst in posts.iter().flatten() {
            self.post(burst);
        }
    }

    /// Posts any staged records now (one burst). Still purely
    /// observational — a posted write with no flush, read-back, or
    /// doorbell — so callers may drain the stage at quiet points
    /// without adding ordering edges. No-op when nothing is staged.
    pub fn publish(&self) {
        let burst = self.staged.lock().take();
        if let Some(burst) = burst {
            self.post(&burst);
        }
    }
}

impl std::fmt::Debug for Blackbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blackbox")
            .field("base", &self.base)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

/// One record recovered from the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlackboxRecord {
    /// Global sequence number (record order across the whole run).
    pub seq: u64,
    /// The recovered event, trace context included.
    pub ev: TraceEvent,
}

/// Result of mounting a blackbox image: the surviving records in
/// sequence order plus an account of what did not survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackboxMount {
    /// Epoch the header was sealed with (the PMR recovery generation).
    pub epoch: u32,
    /// Slot capacity recorded in the header.
    pub slots: u32,
    /// Surviving records, sorted by sequence number.
    pub records: Vec<BlackboxRecord>,
    /// Slots whose seal failed: never written, torn by the cut, or
    /// sealed under a previous epoch. Expected, not an error.
    pub invalid_slots: u32,
    /// Records provably overwritten by ring laps (sequence numbers
    /// below the retained window). Silent history loss, reported so
    /// forensics can refuse to over-claim.
    pub lapped: u64,
}

/// Mounts a blackbox image from raw region bytes (at least
/// [`BLACKBOX_BYTES`], e.g. the blackbox slice of a crash image's PMR).
/// Pure read — calling it N times yields N identical results and never
/// modifies anything. `Err` only for a missing/torn header (the region
/// was never formatted, which recovery treats as "no recorder").
pub fn mount(region: &[u8]) -> Result<BlackboxMount, String> {
    if region.len() < BLACKBOX_BYTES as usize {
        return Err(format!(
            "blackbox region too small: {} < {BLACKBOX_BYTES}",
            region.len()
        ));
    }
    let header: [u8; 64] = region[0..64].try_into().expect("64 bytes");
    let magic = u64::from_le_bytes(header[0..8].try_into().unwrap());
    if magic != BLACKBOX_MAGIC {
        return Err("blackbox header magic missing (region never formatted)".into());
    }
    let Some(epoch) = sealed_epoch(&header) else {
        return Err("blackbox header seal torn".into());
    };
    let slots = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if slots == 0 || slots > BLACKBOX_SLOTS {
        return Err(format!("blackbox header slot count {slots} out of range"));
    }
    let mut records = Vec::new();
    let mut invalid = 0u32;
    for i in 0..slots as usize {
        let off = 64 + i * RECORD_SIZE as usize;
        let raw: [u8; 64] = region[off..off + 64].try_into().expect("64 bytes");
        match decode_record(&raw, epoch) {
            Some(rec) => records.push(rec),
            None => invalid += 1,
        }
    }
    records.sort_by_key(|r| r.seq);
    // Everything below the retained window was overwritten by a lap.
    let lapped = records
        .last()
        .map(|r| (r.seq + 1).saturating_sub(slots as u64))
        .unwrap_or(0);
    Ok(BlackboxMount {
        epoch,
        slots,
        records,
        invalid_slots: invalid,
        lapped,
    })
}

#[cfg(test)]
mod tests {
    use parking_lot::Mutex;

    use super::*;

    /// An in-memory sink: a byte image the tests mount back.
    #[derive(Default)]
    struct MemSink {
        bytes: Mutex<Vec<u8>>,
    }

    impl MemSink {
        fn with_len(len: usize) -> Arc<MemSink> {
            Arc::new(MemSink {
                bytes: Mutex::new(vec![0u8; len]),
            })
        }

        fn image(&self) -> Vec<u8> {
            self.bytes.lock().clone()
        }
    }

    impl BlackboxSink for MemSink {
        fn post(&self, off: u64, data: &[u8]) {
            let mut b = self.bytes.lock();
            b[off as usize..off as usize + data.len()].copy_from_slice(data);
        }
    }

    fn ev(i: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: 100 + i,
            kind,
            qid: 3,
            tx_id: i,
            arg: i * 2,
            ctx: TraceCtx {
                trace_id: 0x1000 + i,
                span: i as u32,
                origin: 9,
            },
        }
    }

    #[test]
    fn append_then_mount_roundtrips() {
        let sink = MemSink::with_len(BLACKBOX_BYTES as usize);
        let bb = Blackbox::format(Arc::clone(&sink) as Arc<dyn BlackboxSink>, 0, 5);
        for i in 0..10 {
            bb.append(&ev(i, EventKind::Doorbell));
        }
        bb.publish();
        let m = mount(&sink.image()).expect("formatted region mounts");
        assert_eq!(m.epoch, 5);
        assert_eq!(m.slots, BLACKBOX_SLOTS);
        assert_eq!(m.records.len(), 10);
        assert_eq!(m.lapped, 0);
        assert_eq!(m.invalid_slots, BLACKBOX_SLOTS - 10);
        for (i, r) in m.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(
                *r,
                BlackboxRecord {
                    seq: i as u64,
                    ev: ev(i as u64, EventKind::Doorbell)
                }
            );
        }
    }

    #[test]
    fn lapped_ring_keeps_newest_and_reports_loss() {
        let sink = MemSink::with_len(BLACKBOX_BYTES as usize);
        let bb = Blackbox::format(Arc::clone(&sink) as Arc<dyn BlackboxSink>, 0, 1);
        let total = BLACKBOX_SLOTS as u64 + 17;
        for i in 0..total {
            bb.append(&ev(i, EventKind::Completion));
        }
        bb.publish();
        let m = mount(&sink.image()).expect("mounts");
        assert_eq!(m.records.len(), BLACKBOX_SLOTS as usize);
        assert_eq!(m.lapped, 17);
        assert_eq!(m.records.first().unwrap().seq, 17);
        assert_eq!(m.records.last().unwrap().seq, total - 1);
    }

    #[test]
    fn torn_slot_is_dropped_not_fatal() {
        let sink = MemSink::with_len(BLACKBOX_BYTES as usize);
        let bb = Blackbox::format(Arc::clone(&sink) as Arc<dyn BlackboxSink>, 0, 2);
        for i in 0..4 {
            bb.append(&ev(i, EventKind::TxBegin));
        }
        bb.publish();
        let mut img = sink.image();
        // Tear a byte of record 2 (slot 2 ⇒ bytes 64*3..64*4).
        img[64 * 3 + 20] ^= 0x40;
        let m = mount(&img).expect("mounts despite the tear");
        let seqs: Vec<u64> = m.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 3]);
        assert_eq!(m.invalid_slots, BLACKBOX_SLOTS - 3);
    }

    #[test]
    fn previous_epoch_records_are_stale_after_reformat() {
        let sink = MemSink::with_len(BLACKBOX_BYTES as usize);
        let bb = Blackbox::format(Arc::clone(&sink) as Arc<dyn BlackboxSink>, 0, 1);
        for i in 0..6 {
            bb.append(&ev(i, EventKind::Doorbell));
        }
        bb.publish();
        // Crash + reformat under the next generation: no erasing, the
        // old records just stop validating.
        let bb2 = Blackbox::format(Arc::clone(&sink) as Arc<dyn BlackboxSink>, 0, 2);
        bb2.append(&ev(100, EventKind::TxBegin));
        bb2.publish();
        let m = mount(&sink.image()).expect("mounts");
        assert_eq!(m.epoch, 2);
        assert_eq!(m.records.len(), 1);
        assert_eq!(m.records[0].ev.tx_id, 100);
    }

    #[test]
    fn unformatted_and_torn_header_rejected() {
        assert!(mount(&vec![0u8; BLACKBOX_BYTES as usize]).is_err());
        assert!(mount(&[0u8; 16]).is_err());
        let sink = MemSink::with_len(BLACKBOX_BYTES as usize);
        let _ = Blackbox::format(Arc::clone(&sink) as Arc<dyn BlackboxSink>, 0, 1);
        let mut img = sink.image();
        img[9] ^= 0xff; // tear the header under its checksum
        assert!(mount(&img).unwrap_err().contains("torn"));
    }

    #[test]
    fn batched_records_post_in_bursts_and_publish_drains() {
        let sink = MemSink::with_len(BLACKBOX_BYTES as usize);
        let bb = Blackbox::format(Arc::clone(&sink) as Arc<dyn BlackboxSink>, 0, 4);
        for i in 0..20 {
            bb.append(&ev(i, EventKind::Doorbell));
        }
        // Two full bursts posted; the 4-record tail is still staged.
        let m = mount(&sink.image()).expect("mounts");
        assert_eq!(m.records.len(), 16);
        assert_eq!(m.records.last().unwrap().seq, 15);
        bb.publish();
        let m = mount(&sink.image()).expect("mounts");
        assert_eq!(m.records.len(), 20);
        for (i, r) in m.records.iter().enumerate() {
            assert_eq!(
                *r,
                BlackboxRecord {
                    seq: i as u64,
                    ev: ev(i as u64, EventKind::Doorbell)
                }
            );
        }
        bb.publish(); // empty stage: no-op
        assert_eq!(mount(&sink.image()).unwrap().records.len(), 20);
    }

    #[test]
    fn batched_burst_never_crosses_the_ring_wrap() {
        let sink = MemSink::with_len(BLACKBOX_BYTES as usize);
        let bb = Blackbox::format(Arc::clone(&sink) as Arc<dyn BlackboxSink>, 0, 9);
        // Land a burst window across the wrap: slots 250..254 then 0..
        let total = BLACKBOX_SLOTS as u64 + 13;
        for i in 0..total {
            bb.append(&ev(i, EventKind::Completion));
        }
        bb.publish();
        let m = mount(&sink.image()).expect("mounts");
        assert_eq!(m.records.len(), BLACKBOX_SLOTS as usize);
        assert_eq!(m.lapped, 13);
        assert_eq!(m.records.first().unwrap().seq, 13);
        assert_eq!(m.records.last().unwrap().seq, total - 1);
    }

    #[test]
    fn mount_is_a_pure_read() {
        let sink = MemSink::with_len(BLACKBOX_BYTES as usize);
        let bb = Blackbox::format(Arc::clone(&sink) as Arc<dyn BlackboxSink>, 0, 3);
        for i in 0..5 {
            bb.append(&ev(i, EventKind::TxAbort));
        }
        bb.publish();
        let img = sink.image();
        let m1 = mount(&img).unwrap();
        let m2 = mount(&img).unwrap();
        assert_eq!(m1, m2);
    }
}
