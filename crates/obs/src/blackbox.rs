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
/// (`Blackbox::append`). Eight 64 B lines = 512 B per
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
/// It holds no mutable state: the records waiting for a burst, and the
/// next sequence number, are a `Burst` under the trace ring's lock
/// ([`crate::TraceRing`]), so one lock both orders a record and stages
/// it.
pub struct Blackbox {
    /// Weak: the region's link owns the hub this recorder hangs off
    /// (region → link → `Obs` → trace ring → recorder), so a strong
    /// sink would close a cycle that keeps every booted stack's PMR
    /// alive forever. A recorder that outlives its region records
    /// nothing.
    sink: Weak<dyn BlackboxSink>,
    base: u64,
    epoch: u32,
}

/// The bytes of one full burst.
const BURST_BYTES: usize = BATCH_RECORDS * RECORD_SIZE as usize;

/// Sealed records of consecutive sequences: the first `len` bytes of
/// `buf` hold the encodings of `start_seq, start_seq+1, …`. Their run
/// of ring slots may cross the ring's end; [`Blackbox::post`] splits it
/// there. The stage is one, and it is also the sequence counter: the
/// next record is `start_seq + len / RECORD_SIZE`, even when the stage
/// is empty. A burst on its way out is a copy of it on the poster's
/// stack.
#[derive(Clone, Copy)]
pub(crate) struct Burst {
    start_seq: u64,
    len: usize,
    buf: [u8; BURST_BYTES],
}

impl Burst {
    /// An empty stage whose first record gets sequence 0.
    pub(crate) const EMPTY: Burst = Burst {
        start_seq: 0,
        len: 0,
        buf: [0; BURST_BYTES],
    };

    /// Sequence number of the next record staged.
    fn next_seq(&self) -> u64 {
        self.start_seq + (self.len / RECORD_SIZE as usize) as u64
    }

    /// Empties the stage, returning what it held; `None` if nothing.
    pub(crate) fn take(&mut self) -> Option<Burst> {
        let staged = *self;
        self.start_seq = staged.next_seq();
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
    /// clean shutdown without [`crate::TraceRing::publish`]), which
    /// forensics already tolerates because absence of a record proves
    /// nothing.
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
        })
    }

    /// PMR offset of the slot holding sequence number `seq`.
    fn slot_off(&self, seq: u64) -> u64 {
        self.base + RECORD_SIZE * (1 + seq % BLACKBOX_SLOTS as u64)
    }

    /// Posts a burst: one write, or two when its run crosses the ring's
    /// end — the slots up to the end, then the rest from slot 0. Called
    /// with no lock held: the sink may model link occupancy, and other
    /// recorders must not serialize behind that. Two bursts may leave
    /// at once; each covers a disjoint slot run, so their posting order
    /// is irrelevant to the mount.
    pub(crate) fn post(&self, burst: &Burst) {
        let Some(sink) = self.sink.upgrade() else {
            return;
        };
        let to_end =
            (BLACKBOX_SLOTS as u64 - burst.start_seq % BLACKBOX_SLOTS as u64) * RECORD_SIZE;
        let (head, tail) = burst.buf[..burst.len].split_at(burst.len.min(to_end as usize));
        sink.post(self.slot_off(burst.start_seq), head);
        if !tail.is_empty() {
            sink.post(self.base + RECORD_SIZE, tail);
        }
    }

    /// Appends one record: seals `ev` under the stage's next sequence
    /// number and stages it. A stage this fills is emptied into the
    /// returned burst, for the caller to [`post`](Self::post) once it
    /// dropped the lock the stage lives under; otherwise the record
    /// rides the next burst. Neither a lap nor the ring's end forces a
    /// post: laps overwrite the oldest slots, and a run that crosses the
    /// end leaves as two writes.
    pub(crate) fn append(&self, stage: &mut Burst, ev: &TraceEvent) -> Option<Burst> {
        let raw = encode_record(stage.next_seq(), ev, self.epoch);
        stage.buf[stage.len..stage.len + raw.len()].copy_from_slice(&raw);
        stage.len += raw.len();
        if stage.len == BURST_BYTES {
            stage.take()
        } else {
            None
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
    use crate::TraceRing;

    /// An in-memory sink: a byte image the tests mount back, and the
    /// log of every post, `(offset, bytes)`.
    #[derive(Default)]
    struct MemSink {
        bytes: Mutex<Vec<u8>>,
        posts: Mutex<Vec<(u64, usize)>>,
    }

    impl MemSink {
        fn with_len(len: usize) -> Arc<MemSink> {
            Arc::new(MemSink {
                bytes: Mutex::new(vec![0u8; len]),
                posts: Mutex::default(),
            })
        }

        fn image(&self) -> Vec<u8> {
            self.bytes.lock().clone()
        }

        /// The posts since the last call.
        fn drain_posts(&self) -> Vec<(u64, usize)> {
            std::mem::take(&mut *self.posts.lock())
        }
    }

    impl BlackboxSink for MemSink {
        fn post(&self, off: u64, data: &[u8]) {
            let mut b = self.bytes.lock();
            b[off as usize..off as usize + data.len()].copy_from_slice(data);
            self.posts.lock().push((off, data.len()));
        }
    }

    /// A trace ring whose persisted events go to a recorder freshly
    /// formatted over `sink` under `epoch`.
    fn recorder(sink: &Arc<MemSink>, epoch: u32) -> TraceRing {
        let ring = TraceRing::new(16);
        ring.attach_blackbox(Blackbox::format(
            Arc::clone(sink) as Arc<dyn BlackboxSink>,
            0,
            epoch,
        ));
        ring
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
        let bb = recorder(&sink, 5);
        for i in 0..10 {
            bb.record(ev(i, EventKind::Doorbell), true);
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
    fn only_milestones_asked_to_persist_are_recorded() {
        let sink = MemSink::with_len(BLACKBOX_BYTES as usize);
        let bb = recorder(&sink, 1);
        bb.record(ev(0, EventKind::Doorbell), true);
        bb.record(ev(1, EventKind::Doorbell), false);
        bb.record(ev(2, EventKind::SqeStore), true);
        bb.record(ev(3, EventKind::Completion), true);
        bb.publish();
        let m = mount(&sink.image()).expect("mounts");
        let txs: Vec<u64> = m.records.iter().map(|r| r.ev.tx_id).collect();
        assert_eq!(txs, vec![0, 3]);
        assert_eq!(bb.recorded(), 4, "the volatile ring keeps every event");
    }

    #[test]
    fn lapped_ring_keeps_newest_and_reports_loss() {
        let sink = MemSink::with_len(BLACKBOX_BYTES as usize);
        let bb = recorder(&sink, 1);
        let total = BLACKBOX_SLOTS as u64 + 17;
        for i in 0..total {
            bb.record(ev(i, EventKind::Completion), true);
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
        let bb = recorder(&sink, 2);
        for i in 0..4 {
            bb.record(ev(i, EventKind::TxBegin), true);
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
        let bb = recorder(&sink, 1);
        for i in 0..6 {
            bb.record(ev(i, EventKind::Doorbell), true);
        }
        bb.publish();
        // Crash + reformat under the next generation: no erasing, the
        // old records just stop validating.
        let bb2 = recorder(&sink, 2);
        bb2.record(ev(100, EventKind::TxBegin), true);
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
        let bb = recorder(&sink, 4);
        for i in 0..20 {
            bb.record(ev(i, EventKind::Doorbell), true);
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

    /// The driver's pattern — three records per transaction, drained
    /// after each — over three laps of the ring, after 0, 1 or 2
    /// lead-in records (the set-up's lone doorbells): a record never
    /// posts (three never fill a burst), and a burst whose slots cross
    /// the ring's end leaves the drain as exactly two writes, the slots
    /// up to the end and then the rest from slot 0.
    #[test]
    fn a_burst_crossing_the_ring_end_leaves_at_the_drain_as_two_writes() {
        const PER_TX: u64 = 3;
        let slots = BLACKBOX_SLOTS as u64;
        let slot_off = |seq: u64| RECORD_SIZE * (1 + seq % slots);
        for lead in 0..PER_TX {
            let sink = MemSink::with_len(BLACKBOX_BYTES as usize);
            let bb = recorder(&sink, 7);
            for seq in 0..lead {
                bb.record(ev(seq, EventKind::Doorbell), true);
                bb.publish();
            }
            sink.drain_posts(); // the header and the lead-in
            let total = lead + 3 * slots;
            let mut crossings = 0;
            for first in (lead..total).step_by(PER_TX as usize) {
                for seq in first..first + PER_TX {
                    bb.record(ev(seq, EventKind::Doorbell), true);
                    assert_eq!(
                        sink.drain_posts(),
                        vec![],
                        "lead {lead}: record {seq} posted"
                    );
                }
                bb.publish();
                let room = slots - first % slots;
                let want = if room < PER_TX {
                    crossings += 1;
                    vec![
                        (slot_off(first), (room * RECORD_SIZE) as usize),
                        (RECORD_SIZE, ((PER_TX - room) * RECORD_SIZE) as usize),
                    ]
                } else {
                    vec![(slot_off(first), (PER_TX * RECORD_SIZE) as usize)]
                };
                assert_eq!(
                    sink.drain_posts(),
                    want,
                    "lead {lead}: the drain after {first}"
                );
            }
            // 255 = 3 × 85: the phase the lead-in sets holds for good.
            assert_eq!(crossings, if lead == 0 { 0 } else { 3 }, "lead {lead}");
            let m = mount(&sink.image()).expect("mounts");
            let seqs: Vec<u64> = m.records.iter().map(|r| r.seq).collect();
            let newest: Vec<u64> = (total - slots..total).collect();
            assert_eq!(seqs, newest, "lead {lead}");
            assert!(m
                .records
                .iter()
                .all(|r| r.ev == ev(r.seq, EventKind::Doorbell)));
            assert_eq!(m.lapped, total - slots);
        }
    }

    #[test]
    fn mount_is_a_pure_read() {
        let sink = MemSink::with_len(BLACKBOX_BYTES as usize);
        let bb = recorder(&sink, 3);
        for i in 0..5 {
            bb.record(ev(i, EventKind::TxAbort), true);
        }
        bb.publish();
        let img = sink.image();
        let m1 = mount(&img).unwrap();
        let m2 = mount(&img).unwrap();
        assert_eq!(m1, m2);
    }
}
