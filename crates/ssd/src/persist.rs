//! Persistence-event log: the total order of durable-effecting events.
//!
//! When [`CtrlConfig::record_persistence`](crate::CtrlConfig) is set, the
//! controller records every event that changes what a power cut would
//! leave behind:
//!
//! * **`PmrWrite`** — a posted MMIO write into the PMR (a WC-buffer
//!   flush landing a P-SQ slot, a P-SQDB ring, a P-SQ-head advance, an
//!   abort-log append). Each carries both the *issue* instant (when the
//!   CPU posted it) and the *arrival* instant (when it physically
//!   reached the device and became crash-durable).
//! * **`BlockWrite`** — a block landing where
//!   [`BlockStore::write_block`](crate::BlockStore::write_block) routed
//!   it: on durable media, or only in the volatile write cache (lost on
//!   power failure unless later flushed).
//! * **`Flush`** — a cache drain making every cached block durable.
//!
//! Sorting the log by `(durable_at, seq)` yields a deterministic legal
//! serialization of durability effects (the log sorts itself once, on
//! the first read after a recording, and never copies a payload to do
//! so); a [`PersistCursor`] walks that order forwards from the image
//! the device booted from, over one running [`PmrImage`] and one block
//! `Media`, and materializes the exact [`DurableImage`] after any event
//! prefix it stands at, plus any PCIe-ordering-legal set of
//! still-posted PMR writes. Because PCIe posted writes to one region
//! arrive FIFO, the legal "torn" sets collapse to a *count*: the first
//! `torn` still-in-flight PMR writes issued before the cut, applied by
//! the same [`PmrImage::with_torn_prefix`] a live crash snapshot uses
//! (see DESIGN.md §11).
//!
//! The log doubles as the ground truth for the **persist-order
//! sanitizer** ([`PersistLog::sanitize`]): a shadow state machine that
//! replays the PMR writes in host program order and asserts the §4.3
//! protocol — no persistent doorbell may expose a ring slot whose
//! posted write was not covered by an earlier MMIO flush. Flush marks
//! arrive through a side channel ([`PersistLog::record_mmio_flush`])
//! rather than as event kinds, so enabling the sanitizer never changes
//! the enumerable crash surface.

use std::{
    collections::HashMap,
    sync::atomic::{AtomicU64, Ordering},
};

use ccnvme_pcie::PmrImage;
use ccnvme_runtime::Ns;
use parking_lot::{Mutex, MutexGuard};

use crate::controller::{CrashMode, DurableImage};
use crate::store::{Media, MediaBlock};

/// One durable-effecting event.
#[derive(Debug, Clone)]
pub enum PersistEventKind {
    /// A posted MMIO write into the PMR. `issued_at` is the CPU-side
    /// post instant; the event's `at` is the PCIe arrival instant.
    PmrWrite {
        /// Byte offset within the PMR.
        off: u64,
        /// The written bytes.
        data: Vec<u8>,
        /// Virtual time the CPU issued the posted write.
        issued_at: Ns,
    },
    /// A block landing on media (`durable`) or in the volatile write
    /// cache only, as the block store routed it.
    BlockWrite {
        /// Logical block address.
        lba: u64,
        /// Block content (exactly [`BLOCK_SIZE`](crate::BLOCK_SIZE)
        /// bytes), shared with the store and the host's buffer.
        data: MediaBlock,
        /// Whether the block went to durable media.
        durable: bool,
    },
    /// A cache drain: every cached block becomes durable.
    Flush,
}

/// A recorded event with its durability instant and tie-break sequence.
struct PersistEvent {
    /// Virtual time the effect became crash-durable.
    at: Ns,
    /// Recording sequence number (tie-break for equal times; recording
    /// order under the deterministic scheduler is itself deterministic).
    seq: u64,
    /// What happened.
    kind: PersistEventKind,
}

/// A completed persistent-MMIO flush, recorded out-of-band: every PMR
/// write with recording seq below `upto_seq` had provably arrived when
/// the flush's non-posted read completed at `at`.
#[derive(Debug, Clone, Copy)]
struct FlushMark {
    at: Ns,
    upto_seq: u64,
}

/// Where one hardware queue's sanitizer-relevant structures live in the
/// PMR: the persistent tail doorbell and the P-SQ ring window.
#[derive(Debug, Clone, Copy)]
pub struct QueueWindow {
    /// Queue index (diagnostics only).
    pub qid: u16,
    /// Byte offset of the persistent tail doorbell (P-SQDB).
    pub db_off: u64,
    /// Byte offset of slot 0 of the P-SQ ring.
    pub ring_off: u64,
    /// Ring capacity in slots.
    pub depth: u32,
    /// Bytes per ring slot.
    pub slot_size: u64,
}

/// The PMR geometry the persist-order sanitizer replays against — one
/// [`QueueWindow`] per hardware queue. Built by the layout owner (the
/// ccNVMe driver's `PmrLayout::sanitizer_geometry`).
#[derive(Debug, Clone, Default)]
pub struct SanitizerGeometry {
    /// Every queue's doorbell + ring window.
    pub queues: Vec<QueueWindow>,
}

/// One detected violation of the §4.3 persist-order protocol: a
/// persistent doorbell exposed a ring slot whose posted write had no
/// covering MMIO flush.
#[derive(Debug, Clone, Copy)]
pub struct SanitizerViolation {
    /// Queue whose doorbell rang.
    pub qid: u16,
    /// The exposed, still-unflushed slot.
    pub slot: u32,
    /// Recording seq of the slot's posted write.
    pub write_seq: u64,
    /// Recording seq of the offending doorbell write.
    pub bell_seq: u64,
    /// Arrival instant of the doorbell write.
    pub bell_at: Ns,
}

impl std::fmt::Display for SanitizerViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queue {}: doorbell (seq {}, t={}) exposed slot {} whose posted \
             write (seq {}) had no covering MMIO flush",
            self.qid, self.bell_seq, self.bell_at, self.slot, self.write_seq
        )
    }
}

/// The ordered log of durable-effecting events for one controller run.
///
/// Plain data once the run is over: every query method is pure and safe
/// to call outside the simulation.
pub struct PersistLog {
    events: Mutex<EventLog>,
    /// Event-log cursor: hands out recording sequence numbers.
    event_seq: AtomicU64,
    /// Completed MMIO flushes, kept out of `events` on purpose: a flush
    /// changes no durable bytes, so it must not widen the enumerable
    /// crash surface — it only feeds the sanitizer.
    flush_marks: Mutex<Vec<FlushMark>>,
    /// The image the device booted from: every prefix replays on it.
    base: DurableImage,
}

/// The recorded events, and whether they currently stand in durability
/// order `(at, seq)`. Recording appends; the first read after an
/// out-of-order append sorts the vector in place — events move, their
/// payloads do not.
struct EventLog {
    ev: Vec<PersistEvent>,
    sorted: bool,
}

impl PersistLog {
    /// An empty log of a device booted from `base`.
    pub fn new(base: DurableImage) -> Self {
        PersistLog {
            events: Mutex::new(EventLog {
                ev: Vec::new(),
                sorted: true,
            }),
            event_seq: AtomicU64::new(0),
            flush_marks: Mutex::new(Vec::new()),
            base,
        }
    }

    /// Records one event. `at` is the instant the effect becomes
    /// crash-durable (PCIe arrival for PMR writes, media-effect time
    /// otherwise).
    pub fn record(&self, at: Ns, kind: PersistEventKind) {
        // ord: SeqCst — the event-log cursor orders durable-effecting
        // events; a relaxed counter could give two racing recorders the
        // same tie-break and make the serialization ambiguous.
        let seq = self.event_seq.fetch_add(1, Ordering::SeqCst);
        let mut log = self.events.lock();
        if log.ev.last().is_some_and(|l| (l.at, l.seq) > (at, seq)) {
            log.sorted = false;
        }
        log.ev.push(PersistEvent { at, seq, kind });
    }

    /// The events in durability order `(at, seq)`.
    fn sorted(&self) -> MutexGuard<'_, EventLog> {
        let mut log = self.events.lock();
        if !log.sorted {
            log.ev.sort_by_key(|e| (e.at, e.seq));
            log.sorted = true;
        }
        log
    }

    /// Records a completed persistent-MMIO flush (the §4.3 `clflush` +
    /// `mfence` + zero-byte read, or any other non-posted PMR read —
    /// both drain every previously posted write). `at` is the read's
    /// completion instant. The mark covers exactly the PMR writes
    /// recorded before this call: on the protocol's single issuing
    /// thread, recording order is issue order.
    pub fn record_mmio_flush(&self, at: Ns) {
        // ord: SeqCst — pairs with the event-seq cursor so the mark's
        // coverage boundary agrees with the recorded write seqs.
        let upto_seq = self.event_seq.load(Ordering::SeqCst);
        self.flush_marks.lock().push(FlushMark { at, upto_seq });
    }

    /// Number of recorded events (= number of enumerable boundaries - 1;
    /// prefixes run `0..=len()`).
    pub fn len(&self) -> usize {
        self.events.lock().ev.len()
    }

    /// True when nothing durable happened.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of recorded PMR posted-write events whose byte range
    /// intersects `[lo, hi)`. Sub-region owners (the ccNVMe driver, the
    /// `ccnvme-ploc` application region) use this to assert coverage:
    /// every MMIO store they issue must show up as an enumerable
    /// durability event, or the crash-surface walk would silently skip
    /// states.
    pub fn pmr_writes_in_range(&self, lo: u64, hi: u64) -> usize {
        let hits = |e: &&PersistEvent| match &e.kind {
            PersistEventKind::PmrWrite { off, data, .. } => {
                *off < hi && off + data.len() as u64 > lo
            }
            _ => false,
        };
        self.events.lock().ev.iter().filter(hits).count()
    }

    /// The durability instant of every event, in durability order — the
    /// time axis crash cuts are placed on, without the payloads.
    pub fn event_times(&self) -> Vec<Ns> {
        self.sorted().ev.iter().map(|e| e.at).collect()
    }

    /// A cursor standing before the first event, over the base image.
    pub fn cursor(&self) -> PersistCursor<'_> {
        PersistCursor {
            log: self,
            pos: 0,
            pmr: self.base.pmr.clone(),
            media: Media::new(self.base.blocks.clone()),
        }
    }

    /// Runs the persist-order sanitizer: replays every PMR write in host
    /// program (recording) order through a shadow machine of `geo` and
    /// returns each doorbell ring that exposed a *commit-boundary* ring
    /// slot whose posted write was not covered by an earlier MMIO flush —
    /// the dynamic dual of the static `persist-order` lint rule.
    ///
    /// The boundary distinction mirrors the driver's contract exactly:
    /// non-boundary SQEs are sealed with the ring epoch and a slot
    /// checksum, so recovery discards them if torn and an unflushed ring
    /// is legal (the same refinement the lint's `allow(persist-order)`
    /// suppression documents). Durability is only *promised* at the
    /// commit boundary (`REQ_TX_COMMIT`), so only there must the flush
    /// provably precede the doorbell. A slot write that does not show
    /// its tx-flags byte is judged strictly, as a boundary.
    pub fn sanitize(&self, geo: &SanitizerGeometry) -> Vec<SanitizerViolation> {
        self.sanitize_with(geo, true)
    }

    /// The sanitizer with every flush mark ignored: on a protocol-true
    /// workload this MUST report violations (each commit doorbell now
    /// looks uncovered). It proves the shadow machine has teeth — a
    /// zero-violation [`Self::sanitize`] result is not vacuous.
    pub fn sanitize_ignoring_flushes(&self, geo: &SanitizerGeometry) -> Vec<SanitizerViolation> {
        self.sanitize_with(geo, false)
    }

    fn sanitize_with(
        &self,
        geo: &SanitizerGeometry,
        honor_flushes: bool,
    ) -> Vec<SanitizerViolation> {
        // Program order, not durability order: the protocol promises the
        // *issue* sequence store → flush → ring, and PCIe FIFO delivery
        // then preserves it on the wire.
        let log = self.events.lock();
        let mut ev: Vec<&PersistEvent> = log.ev.iter().collect();
        ev.sort_by_key(|e| e.seq);
        let mut marks = self.flush_marks.lock().clone();
        marks.sort_by_key(|m| m.upto_seq);
        let mut next_mark = 0usize;

        // Per-queue shadow state: the last exposed tail and the dirty
        // (posted, unflushed) slots with the (seq, arrival, is a commit
        // boundary) that dirtied them.
        struct QShadow {
            tail: u32,
            dirty: HashMap<u32, (u64, Ns, bool)>,
        }
        let base = &self.base.pmr;
        let mut shadows: Vec<QShadow> = geo
            .queues
            .iter()
            .map(|w| {
                // A restored image may carry a non-zero doorbell; start
                // the window there, not at slot 0.
                let tail = if w.db_off as usize + 4 <= base.size() && w.depth > 0 {
                    let db = base.read_vec(w.db_off, 4).try_into().expect("4 bytes");
                    u32::from_le_bytes(db) % w.depth
                } else {
                    0
                };
                QShadow {
                    tail,
                    dirty: HashMap::new(),
                }
            })
            .collect();

        let mut out = Vec::new();
        for e in &ev {
            let PersistEventKind::PmrWrite { off, data, .. } = &e.kind else {
                continue;
            };
            if honor_flushes {
                // A flush covers a slot write only when the write was
                // both recorded before the flush (program order) AND
                // arrived by the flush's completion — a write posted by
                // a concurrent thread mid-flush satisfies neither
                // guarantee and stays dirty.
                while next_mark < marks.len() && marks[next_mark].upto_seq <= e.seq {
                    let m = marks[next_mark];
                    for s in &mut shadows {
                        s.dirty
                            .retain(|_, (wseq, warr, _)| *wseq >= m.upto_seq || *warr > m.at);
                    }
                    next_mark += 1;
                }
            }
            for (w, s) in geo.queues.iter().zip(shadows.iter_mut()) {
                let ring_end = w.ring_off + w.depth as u64 * w.slot_size;
                if *off >= w.ring_off && *off < ring_end {
                    let rel = *off - w.ring_off;
                    let slot = (rel / w.slot_size) as u32;
                    // Dword 12 byte 2 of the SQE carries the tx flags;
                    // bit 1 is REQ_TX_COMMIT. A write that doesn't show
                    // that byte is judged strictly, as a boundary.
                    const TX_FLAGS_BYTE: u64 = 50;
                    let in_slot = rel % w.slot_size;
                    let boundary = if in_slot <= TX_FLAGS_BYTE
                        && (TX_FLAGS_BYTE - in_slot) < data.len() as u64
                    {
                        data[(TX_FLAGS_BYTE - in_slot) as usize] & 0x2 != 0
                    } else {
                        true
                    };
                    s.dirty.insert(slot, (e.seq, e.at, boundary));
                } else if *off == w.db_off && data.len() >= 4 && w.depth > 0 {
                    let new_tail =
                        u32::from_le_bytes(data[..4].try_into().expect("4 bytes")) % w.depth;
                    // The ring exposes [tail, new_tail) to the device;
                    // any still-dirty slot in that window rang before
                    // its covering flush.
                    let mut slot = s.tail;
                    let mut steps = 0;
                    while slot != new_tail && steps < w.depth {
                        // Exposing a sealed non-boundary slot unflushed
                        // is within contract; a commit boundary is not.
                        if let Some((write_seq, _, boundary)) = s.dirty.remove(&slot) {
                            if boundary {
                                out.push(SanitizerViolation {
                                    qid: w.qid,
                                    slot,
                                    write_seq,
                                    bell_seq: e.seq,
                                    bell_at: e.at,
                                });
                            }
                        }
                        slot = (slot + 1) % w.depth;
                        steps += 1;
                    }
                    s.tail = new_tail;
                }
            }
        }
        out
    }
}

/// A forward walk over a [`PersistLog`]'s durability order: one running
/// image that event `p` is applied to exactly once, so a sweep over
/// every prefix costs one replay of the log instead of one per prefix.
pub struct PersistCursor<'a> {
    log: &'a PersistLog,
    pos: usize,
    pmr: PmrImage,
    media: Media,
}

impl PersistCursor<'_> {
    /// Events applied so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Applies events up to (excluding) sorted index `prefix`, clamped
    /// to the end of the log.
    ///
    /// # Panics
    ///
    /// Panics when `prefix` lies behind the cursor.
    pub fn advance_to(&mut self, prefix: usize) {
        let log = self.log.sorted();
        let prefix = prefix.min(log.ev.len());
        assert!(prefix >= self.pos, "a persist cursor only moves forwards");
        for e in &log.ev[self.pos..prefix] {
            match &e.kind {
                PersistEventKind::PmrWrite { off, data, .. } => self.pmr.write(*off, data),
                PersistEventKind::BlockWrite { lba, data, durable } => {
                    self.media.write(*lba, data.clone(), *durable)
                }
                PersistEventKind::Flush => self.media.flush(),
            }
        }
        self.pos = prefix;
    }

    /// The instant the next event becomes durable — the exclusive upper
    /// bound of crash instants this position stands for. `Ns::MAX` at
    /// the end of the log.
    pub fn next_at(&self) -> Ns {
        let log = self.log.sorted();
        log.ev.get(self.pos).map_or(Ns::MAX, |e| e.at)
    }

    /// The PMR writes still posted at a crash at `crash_at` with the
    /// cursor's events applied, in issue order: those after the cursor,
    /// up to the first one issued at or after the crash instant.
    fn posted(log: &EventLog, pos: usize, crash_at: Ns) -> impl Iterator<Item = (u64, &[u8])> {
        let pmr = log.ev[pos..].iter().filter_map(move |e| match &e.kind {
            PersistEventKind::PmrWrite {
                off,
                data,
                issued_at,
            } => Some((*issued_at < crash_at).then_some((*off, &data[..]))),
            _ => None,
        });
        pmr.map_while(|w| w)
    }

    /// How many still-posted PMR writes may additionally survive a crash
    /// at `crash_at` with the cursor's events applied: those issued
    /// before the crash instant but not yet arrived. PCIe FIFO ordering
    /// makes any surviving set a prefix of these, so the answer is a
    /// count.
    pub fn max_torn(&self, crash_at: Ns) -> usize {
        Self::posted(&self.log.sorted(), self.pos, crash_at).count()
    }

    /// The [`DurableImage`] a power cut at `crash_at` leaves with the
    /// cursor's events applied, plus the first `mode.torn` still-posted
    /// PMR writes (clamped to [`Self::max_torn`]), with `mode.cache`
    /// deciding the fate of blocks still in the volatile cache.
    pub fn image(&self, crash_at: Ns, mode: CrashMode) -> DurableImage {
        let log = self.log.sorted();
        DurableImage {
            pmr: self
                .pmr
                .with_torn_prefix(Self::posted(&log, self.pos, crash_at), mode.torn),
            blocks: self.media.image(&mode.cache),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{CacheSurvival, BLOCK_SIZE};
    use ccnvme_obs::hash::IntMap;
    use ccnvme_runtime::DetRng;
    use std::sync::Arc;

    fn mode(torn: usize, cache: CacheSurvival) -> CrashMode {
        CrashMode { torn, cache }
    }

    /// The image a power cut in `mode` leaves after the first `prefix`
    /// events of `log`.
    fn state_at(log: &PersistLog, prefix: usize, mode: CrashMode) -> DurableImage {
        let mut cursor = log.cursor();
        cursor.advance_to(prefix);
        cursor.image(cursor.next_at(), mode)
    }

    /// A log of a device that booted blank, with a PMR of `pmr_size` B.
    fn blank_log(pmr_size: u64) -> PersistLog {
        PersistLog::new(DurableImage::blank(pmr_size))
    }

    #[test]
    fn prefix_replay_applies_events_in_durability_order() {
        let log = blank_log(128);
        // Recorded out of arrival order on purpose.
        log.record(
            20,
            PersistEventKind::PmrWrite {
                off: 0,
                data: vec![2, 2],
                issued_at: 10,
            },
        );
        log.record(
            10,
            PersistEventKind::PmrWrite {
                off: 0,
                data: vec![1, 1],
                issued_at: 5,
            },
        );
        let img = state_at(&log, 2, mode(0, CacheSurvival::DropAll));
        assert_eq!(img.pmr.read_vec(0, 2), &[2, 2]);
        let img = state_at(&log, 1, mode(0, CacheSurvival::DropAll));
        assert_eq!(img.pmr.read_vec(0, 2), &[1, 1]);
        let img = state_at(&log, 0, mode(0, CacheSurvival::DropAll));
        assert_eq!(img.pmr.read_vec(0, 2), &[0, 0]);
    }

    #[test]
    fn torn_tail_is_a_fifo_prefix_of_posted_writes() {
        let log = blank_log(128);
        log.record(
            10,
            PersistEventKind::PmrWrite {
                off: 0,
                data: vec![1],
                issued_at: 1,
            },
        );
        // Posted before t=10 arrives later: in flight at the cut.
        log.record(
            30,
            PersistEventKind::PmrWrite {
                off: 1,
                data: vec![2],
                issued_at: 2,
            },
        );
        log.record(
            40,
            PersistEventKind::PmrWrite {
                off: 2,
                data: vec![3],
                issued_at: 3,
            },
        );
        // Posted after the cut instant: can never survive a crash there.
        log.record(
            50,
            PersistEventKind::PmrWrite {
                off: 3,
                data: vec![4],
                issued_at: 35,
            },
        );
        let mut cursor = log.cursor();
        cursor.advance_to(1);
        assert_eq!(cursor.max_torn(cursor.next_at()), 2);
        // A crash earlier than the next arrival admits fewer: only the
        // write issued at t=2 was in flight at t=3.
        assert_eq!(cursor.max_torn(3), 1);
        let img = state_at(&log, 1, mode(1, CacheSurvival::DropAll));
        assert_eq!(img.pmr.read_vec(0, 4), &[1, 2, 0, 0]);
        let img = state_at(&log, 1, mode(2, CacheSurvival::DropAll));
        assert_eq!(img.pmr.read_vec(0, 4), &[1, 2, 3, 0]);
        // Requesting more than legal clamps at the FIFO-legal maximum.
        let img = state_at(&log, 1, mode(9, CacheSurvival::DropAll));
        assert_eq!(img.pmr.read_vec(0, 4), &[1, 2, 3, 0]);
    }

    #[test]
    fn pmr_writes_in_range_counts_only_intersecting_stores() {
        let log = blank_log(128);
        log.record(
            10,
            PersistEventKind::PmrWrite {
                off: 0,
                data: vec![1; 8],
                issued_at: 1,
            },
        );
        log.record(
            20,
            PersistEventKind::PmrWrite {
                off: 64,
                data: vec![2; 8],
                issued_at: 2,
            },
        );
        log.record(30, PersistEventKind::Flush);
        assert_eq!(log.pmr_writes_in_range(0, 128), 2);
        assert_eq!(log.pmr_writes_in_range(0, 64), 1);
        assert_eq!(log.pmr_writes_in_range(64, 128), 1);
        assert_eq!(log.pmr_writes_in_range(8, 64), 0);
    }

    #[test]
    fn cache_survival_policies_bracket_the_volatile_cache() {
        let log = blank_log(8);
        log.record(
            10,
            PersistEventKind::BlockWrite {
                lba: 7,
                data: vec![9].into(),
                durable: false,
            },
        );
        let dropped = state_at(&log, 1, mode(0, CacheSurvival::DropAll));
        assert!(dropped.blocks.is_empty());
        let kept = state_at(&log, 1, mode(0, CacheSurvival::KeepAll));
        assert_eq!(kept.blocks.get(&7).map(|b| b[0]), Some(9));
        // A flush makes the block durable regardless of policy.
        log.record(20, PersistEventKind::Flush);
        let flushed = state_at(&log, 2, mode(0, CacheSurvival::DropAll));
        assert_eq!(flushed.blocks.get(&7).map(|b| b[0]), Some(9));
    }

    #[test]
    fn cursor_walks_every_prefix_state_at_materializes() {
        let log = blank_log(8);
        log.record(
            30,
            PersistEventKind::BlockWrite {
                lba: 1,
                data: vec![3].into(),
                durable: true,
            },
        );
        log.record(
            10,
            PersistEventKind::PmrWrite {
                off: 0,
                data: vec![1],
                issued_at: 5,
            },
        );
        // Read between recordings, then record out of order again: the
        // log re-sorts on the next read.
        assert_eq!(log.event_times(), vec![10, 30]);
        log.record(
            20,
            PersistEventKind::BlockWrite {
                lba: 2,
                data: vec![2].into(),
                durable: false,
            },
        );
        assert_eq!(log.event_times(), vec![10, 20, 30]);
        let mut cursor = log.cursor();
        for p in 0..=log.len() {
            cursor.advance_to(p);
            assert_eq!(cursor.pos(), p);
            let walked = cursor.image(cursor.next_at(), mode(0, CacheSurvival::KeepAll));
            let direct = state_at(&log, p, mode(0, CacheSurvival::KeepAll));
            assert!(walked.pmr == direct.pmr, "prefix {p}");
            assert_eq!(walked.blocks, direct.blocks, "prefix {p}");
        }
        assert_eq!(cursor.next_at(), Ns::MAX);
    }

    #[test]
    fn subset_survival_is_a_seeded_choice_in_lba_order() {
        let log = blank_log(8);
        for lba in 0..64u64 {
            log.record(
                10 + lba,
                PersistEventKind::BlockWrite {
                    lba,
                    data: vec![lba as u8].into(),
                    durable: false,
                },
            );
        }
        let subset = |seed| {
            let policy = CacheSurvival::Subset {
                seed,
                keep_prob: 0.5,
            };
            let image = state_at(&log, 64, mode(0, policy));
            let mut kept: Vec<u64> = image.blocks.into_keys().collect();
            kept.sort_unstable();
            kept
        };
        assert_eq!(subset(7), subset(7), "same seed, same subset");
        assert_ne!(subset(7), subset(8), "the seed picks the subset");
        assert!(!subset(7).is_empty() && subset(7).len() < 64);
        // One coin per cached block, tossed in LBA order.
        let mut rng = DetRng::new(7);
        let want: Vec<u64> = (0..64).filter(|_| rng.chance(0.5)).collect();
        assert_eq!(subset(7), want);
    }

    /// One-queue geometry: doorbell at 0, ring of 4 × 64 B slots at 64.
    fn geo1() -> SanitizerGeometry {
        SanitizerGeometry {
            queues: vec![QueueWindow {
                qid: 1,
                db_off: 0,
                ring_off: 64,
                depth: 4,
                slot_size: 64,
            }],
        }
    }

    fn pmr_write(log: &PersistLog, at: Ns, off: u64, data: Vec<u8>) {
        log.record(
            at,
            PersistEventKind::PmrWrite {
                off,
                data,
                issued_at: at,
            },
        );
    }

    /// A 64-byte slot image whose Dword-12 tx-flags byte carries (or
    /// omits) `REQ_TX_COMMIT` — the bit the sanitizer's boundary
    /// judgment reads.
    fn sqe(fill: u8, commit: bool) -> Vec<u8> {
        let mut b = vec![fill; 64];
        b[50] = if commit { 0x2 } else { 0x0 };
        b
    }

    #[test]
    fn sanitizer_accepts_store_flush_ring() {
        let log = blank_log(512);
        pmr_write(&log, 10, 64, sqe(1, true)); // slot 0, commit boundary
        log.record_mmio_flush(20);
        pmr_write(&log, 30, 0, 1u32.to_le_bytes().to_vec()); // ring tail=1
        assert!(log.sanitize(&geo1()).is_empty());
        // Ignoring the flush, the same log must trip — the machine is
        // not vacuously satisfied.
        let v = log.sanitize_ignoring_flushes(&geo1());
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].qid, v[0].slot), (1, 0));
    }

    #[test]
    fn sanitizer_catches_doorbell_before_flush() {
        let log = blank_log(512);
        pmr_write(&log, 10, 64, sqe(1, true)); // slot 0, never flushed
        pmr_write(&log, 30, 0, 1u32.to_le_bytes().to_vec());
        log.record_mmio_flush(40); // Too late: after the ring.
        let v = log.sanitize(&geo1());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].slot, 0);
        assert!(v[0].write_seq < v[0].bell_seq);
        assert!(v[0].to_string().contains("no covering MMIO flush"));
    }

    #[test]
    fn sanitizer_flags_only_the_unflushed_slot_of_a_batch() {
        let log = blank_log(512);
        pmr_write(&log, 10, 64, sqe(1, true)); // slot 0
        log.record_mmio_flush(20);
        pmr_write(&log, 25, 128, sqe(2, true)); // slot 1, after the flush
        pmr_write(&log, 30, 0, 2u32.to_le_bytes().to_vec()); // tail=2
        let v = log.sanitize(&geo1());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].slot, 1);
    }

    #[test]
    fn sanitizer_tracks_ring_wraparound_and_restored_tail() {
        // A restored image whose doorbell already reads 3.
        let mut base = DurableImage::blank(512);
        base.pmr.write(0, &3u32.to_le_bytes());
        let log = PersistLog::new(base);
        // Slot 3 then wrap to slot 0, flushed, then ring tail=1.
        pmr_write(&log, 10, 64 + 3 * 64, sqe(1, true));
        pmr_write(&log, 11, 64, sqe(2, true));
        log.record_mmio_flush(20);
        pmr_write(&log, 30, 0, 1u32.to_le_bytes().to_vec());
        assert!(log.sanitize(&geo1()).is_empty());
        // The wrapped window [3, 1) covered both dirty slots.
        assert_eq!(log.sanitize_ignoring_flushes(&geo1()).len(), 2);
    }

    /// The tx-aware half of the contract: a sealed non-boundary SQE may
    /// ring unflushed (recovery discards it if torn), but a partial slot
    /// write that hides its tx-flags byte is judged strictly.
    #[test]
    fn sanitizer_exempts_sealed_non_boundary_slots() {
        let log = blank_log(512);
        // Transaction member: stored and rung with no flush. Legal.
        pmr_write(&log, 10, 64, sqe(1, false));
        pmr_write(&log, 20, 0, 1u32.to_le_bytes().to_vec());
        assert!(log.sanitize(&geo1()).is_empty(), "member ring is exempt");
        // A 16-byte partial store into slot 1 never shows byte 50:
        // unknown flags get the strict (boundary) treatment.
        pmr_write(&log, 30, 128, vec![7; 16]);
        pmr_write(&log, 40, 0, 2u32.to_le_bytes().to_vec());
        let v = log.sanitize(&geo1());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].slot, 1);
    }

    #[test]
    fn sanitizer_ignores_writes_outside_the_queue_windows() {
        let log = blank_log(512);
        pmr_write(&log, 10, 400, vec![9; 16]); // App region: no slot.
        pmr_write(&log, 20, 0, 1u32.to_le_bytes().to_vec());
        assert!(log.sanitize(&geo1()).is_empty());
    }

    #[test]
    fn a_log_replays_on_top_of_the_image_it_booted_from() {
        let mut blocks = IntMap::default();
        blocks.insert(3u64, vec![0xaa; BLOCK_SIZE as usize].into());
        let base = DurableImage {
            pmr: PmrImage::from(vec![5, 6, 7, 8]),
            blocks,
        };
        let log = PersistLog::new(base.clone());
        let img = state_at(&log, 0, mode(0, CacheSurvival::DropAll));
        assert_eq!(img.pmr.read_vec(0, 4), [5, 6, 7, 8]);
        assert_eq!(
            img.pmr.shared_pages(&base.pmr),
            1,
            "the base page, not a copy"
        );
        assert!(Arc::ptr_eq(
            img.blocks[&3].buffer(),
            base.blocks[&3].buffer()
        ));
    }
}
