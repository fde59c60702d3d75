//! Transaction-lifecycle tracing.
//!
//! Every layer of the stack records [`TraceEvent`]s into a shared
//! [`TraceRing`] as a transaction moves through it: the driver stamps
//! `tx_begin`/`sqe_store`/`mmio_flush`/`doorbell` on the submission
//! path, the device stamps `dma_fetch`/`media_write`/`cqe_post`/`irq`,
//! and the driver closes the loop with `completion`. Events carry the
//! simulated-time timestamp, the hardware queue and the transaction ID,
//! so a single `fatomic` decomposes into the paper's
//! atomicity-vs-durability phases (§4.3/§4.4): everything up to the
//! doorbell is what the caller waits for; everything after is the
//! background durability pipeline.
//!
//! The ring is fixed-capacity: one lock over a dense vector of events,
//! under which each record draws its sequence number, so the vector is
//! in record order from the oldest retained slot on. Old events are
//! overwritten once the ring wraps. The same lock holds the persistent
//! flight recorder's stage, so a recorded event takes one lock whether
//! or not it is also persisted.

use std::sync::Arc;
use std::sync::OnceLock;

use crate::blackbox::{persisted_kind, Blackbox, Burst};
use crate::ctx::TraceCtx;
use crate::metrics::Counter;
use crate::sync_shim::Mutex;
use crate::Ns;

/// Default ring capacity (events retained).
pub const DEFAULT_CAPACITY: usize = 8192;

/// The traced points of a transaction's life, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// The journal handed a transaction (one chunk of it) to the driver.
    /// `arg` says what it put on the wire besides the descriptor block:
    /// see [`TraceEvent::journal_commit_blocks`].
    JournalCommit,
    /// The driver accepted the first member of a transaction.
    TxBegin,
    /// One 64 B submission entry was stored into the P-SQ (or host SQ).
    SqeStore,
    /// The persistent-MMIO flush sequence (clflush + mfence + read).
    MmioFlush,
    /// The doorbell MMIO write that hands the transaction to the device.
    Doorbell,
    /// The device fetched a submission entry (DMA or PMR read).
    DmaFetch,
    /// The device applied a write to backing media.
    MediaWrite,
    /// The device posted a completion entry to the host.
    CqePost,
    /// An MSI-X interrupt was delivered to the host.
    Irq,
    /// The driver completed the request back to its submitter.
    Completion,
    /// The driver aborted the transaction (after logging it to the PMR
    /// abort log, so a durable witness of this event implies the abort
    /// log entries are durable too).
    TxAbort,
}

impl EventKind {
    /// Stable lowercase name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::JournalCommit => "journal_commit",
            EventKind::TxBegin => "tx_begin",
            EventKind::SqeStore => "sqe_store",
            EventKind::MmioFlush => "mmio_flush",
            EventKind::Doorbell => "doorbell",
            EventKind::DmaFetch => "dma_fetch",
            EventKind::MediaWrite => "media_write",
            EventKind::CqePost => "cqe_post",
            EventKind::Irq => "irq",
            EventKind::Completion => "completion",
            EventKind::TxAbort => "tx_abort",
        }
    }

    /// Stable non-zero wire code used by blackbox records (0 is the
    /// never-written slot).
    pub fn code(self) -> u8 {
        match self {
            EventKind::TxBegin => 1,
            EventKind::SqeStore => 2,
            EventKind::MmioFlush => 3,
            EventKind::Doorbell => 4,
            EventKind::DmaFetch => 5,
            EventKind::MediaWrite => 6,
            EventKind::CqePost => 7,
            EventKind::Irq => 8,
            EventKind::Completion => 9,
            EventKind::TxAbort => 10,
            EventKind::JournalCommit => 11,
        }
    }

    /// Inverse of [`EventKind::code`].
    pub fn from_code(code: u8) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::TxBegin,
            2 => EventKind::SqeStore,
            3 => EventKind::MmioFlush,
            4 => EventKind::Doorbell,
            5 => EventKind::DmaFetch,
            6 => EventKind::MediaWrite,
            7 => EventKind::CqePost,
            8 => EventKind::Irq,
            9 => EventKind::Completion,
            10 => EventKind::TxAbort,
            11 => EventKind::JournalCommit,
            _ => return None,
        })
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event, ns.
    pub at: Ns,
    /// What happened.
    pub kind: EventKind,
    /// Hardware queue the transaction rides.
    pub qid: u16,
    /// ccNVMe transaction ID (0 for non-transactional requests).
    pub tx_id: u64,
    /// Event-specific detail: command ID for queue events, bytes for
    /// data movement, the block counts of a `JournalCommit`, 0 otherwise.
    pub arg: u64,
    /// The originating request's trace context ([`TraceCtx::ZERO`] for
    /// untraced work).
    pub ctx: TraceCtx,
}

impl TraceEvent {
    /// The `arg` of a [`EventKind::JournalCommit`]: journaled blocks that
    /// rode as whole copies in the ring, and journaled blocks that rode
    /// as byte-range patches inside the descriptor.
    pub fn journal_commit_arg(copies: usize, patched: usize) -> u64 {
        (copies as u64) << 32 | patched as u64 & 0xffff_ffff
    }

    /// `(copies, patched)` of a `JournalCommit` event — "why did this
    /// fsync write three blocks" — `None` for every other kind.
    pub fn journal_commit_blocks(&self) -> Option<(u64, u64)> {
        (self.kind == EventKind::JournalCommit).then_some((self.arg >> 32, self.arg & 0xffff_ffff))
    }
}

/// The events of a [`TraceRing`]: event `seq` is at `seq % capacity`.
struct Events {
    /// Events recorded so far, overwritten ones included.
    recorded: u64,
    /// Up to the ring's capacity; full once it wrapped.
    evs: Vec<TraceEvent>,
    /// The flight recorder's staged records and next sequence number.
    stage: Burst,
}

/// Fixed-capacity, overwrite-on-wrap event recorder.
pub struct TraceRing {
    capacity: usize,
    events: Mutex<Events>,
    /// Events lost to ring laps: a recorded event overwrote another.
    /// Exported as `obs.trace_ring.lapped` so silent history loss in
    /// soak runs is visible. Set under the ring's lock, where the count
    /// is `recorded - capacity` once the ring is full.
    lapped: Arc<Counter>,
    /// Optional persistent mirror: milestone events (see
    /// [`crate::blackbox::persisted_kind`]) are also appended to the
    /// PMR flight recorder once one is attached.
    blackbox: OnceLock<Arc<Blackbox>>,
}

impl TraceRing {
    /// Creates a ring retaining the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs at least one slot");
        TraceRing {
            capacity,
            events: Mutex::new(Events {
                recorded: 0,
                evs: Vec::with_capacity(capacity),
                stage: Burst::EMPTY,
            }),
            lapped: Arc::new(Counter::new()),
            blackbox: OnceLock::new(),
        }
    }

    /// Attaches the persistent flight recorder. One recorder per ring
    /// lifetime; later calls are ignored (a re-probe builds a new
    /// stack, and with it a new ring).
    pub fn attach_blackbox(&self, bb: Arc<Blackbox>) {
        let _ = self.blackbox.set(bb);
    }

    /// The lap/overwrite counter (shared so [`crate::Obs::new`] can
    /// register it as `obs.trace_ring.lapped`).
    pub fn lapped_counter(&self) -> Arc<Counter> {
        Arc::clone(&self.lapped)
    }

    /// Number of events the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.events.lock().recorded
    }

    /// Records one event; `persist: false` keeps it out of the
    /// persistent flight recorder even when its kind is a milestone.
    /// The driver uses this to persist per-*transaction* witnesses
    /// (the commit-boundary bio) rather than per-bio ones: the volatile
    /// ring still holds every event, only the posted-write mirror is
    /// thinned, so the hot path pays for at most a handful of record
    /// posts per transaction.
    pub fn record(&self, ev: TraceEvent, persist: bool) {
        // Protocol milestones are mirrored into the persistent flight
        // recorder. The record is staged on the calling thread at or
        // after the protocol write the event witnesses, so PCIe FIFO
        // order makes a surviving record a durable witness of it. No
        // flush, no doorbell — purely observational.
        let recorder = self
            .blackbox
            .get()
            .filter(|_| persist && persisted_kind(ev.kind));
        let full = {
            let mut st = self.events.lock();
            let at = (st.recorded % self.capacity as u64) as usize;
            st.recorded += 1;
            if at < st.evs.len() {
                st.evs[at] = ev;
                // A wrapped ring loses one event per record.
                self.lapped.set(st.recorded - self.capacity as u64);
            } else {
                st.evs.push(ev);
            }
            recorder.and_then(|bb| bb.append(&mut st.stage, &ev))
        };
        // A full stage is posted after the lock drops.
        if let (Some(bb), Some(burst)) = (recorder, full) {
            bb.post(&burst);
        }
    }

    /// Posts the flight recorder's staged records now (one burst, two
    /// writes when it crosses the ring's end). Still purely
    /// observational — posted writes with no flush, read-back, or
    /// doorbell — so callers may drain the stage at quiet points
    /// without adding ordering edges. No-op without a recorder or when
    /// nothing is staged.
    pub fn publish(&self) {
        let Some(bb) = self.blackbox.get() else {
            return;
        };
        let staged = self.events.lock().stage.take();
        if let Some(burst) = staged {
            bb.post(&burst);
        }
    }

    /// Returns the retained events, oldest first (by record order).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let st = self.events.lock();
        // Once the ring wrapped, the oldest event is the next one to be
        // overwritten.
        let oldest = if st.evs.len() < self.capacity {
            0
        } else {
            (st.recorded % self.capacity as u64) as usize
        };
        let (newer, older) = st.evs.split_at(oldest);
        older.iter().chain(newer).copied().collect()
    }

    /// Retained events of one transaction, oldest first.
    pub fn events_for_tx(&self, tx_id: u64) -> Vec<TraceEvent> {
        self.snapshot()
            .into_iter()
            .filter(|e| e.tx_id == tx_id)
            .collect()
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// One named phase of a traced transaction: the span between two
/// consecutive lifecycle events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxPhase {
    /// `"<from> -> <to>"`, e.g. `"mmio_flush -> doorbell"`.
    pub name: String,
    /// Phase start, ns.
    pub from: Ns,
    /// Phase duration, ns.
    pub dur: Ns,
}

/// Decomposes one transaction's events (as returned by
/// [`TraceRing::events_for_tx`]) into consecutive phases. Events are
/// sorted by timestamp; by construction the phase durations sum exactly
/// to `last.at - first.at`, which the lifecycle integration test checks
/// against the end-to-end latency.
pub fn tx_phases(events: &[TraceEvent]) -> Vec<TxPhase> {
    let mut evs: Vec<&TraceEvent> = events.iter().collect();
    evs.sort_by_key(|e| e.at);
    evs.windows(2)
        .map(|w| TxPhase {
            name: format!("{} -> {}", w[0].kind.name(), w[1].kind.name()),
            from: w[0].at,
            dur: w[1].at - w[0].at,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn ev(at: Ns, kind: EventKind, tx: u64) -> TraceEvent {
        TraceEvent {
            at,
            kind,
            qid: 1,
            tx_id: tx,
            arg: 0,
            ctx: TraceCtx::ZERO,
        }
    }

    #[test]
    fn laps_are_counted_not_swallowed() {
        let r = TraceRing::new(4);
        for i in 0..4u64 {
            r.record(ev(i, EventKind::SqeStore, i), true);
        }
        assert_eq!(r.lapped_counter().get(), 0, "no loss before the wrap");
        for i in 4..10u64 {
            r.record(ev(i, EventKind::SqeStore, i), true);
        }
        // Every record into a full ring evicts exactly one event.
        assert_eq!(r.lapped_counter().get(), 6);
    }

    #[test]
    fn records_in_order_and_filters() {
        let r = TraceRing::new(16);
        r.record(ev(10, EventKind::TxBegin, 7), true);
        r.record(ev(20, EventKind::Doorbell, 7), true);
        r.record(ev(30, EventKind::TxBegin, 8), true);
        assert_eq!(r.recorded(), 3);
        let tx7 = r.events_for_tx(7);
        assert_eq!(tx7.len(), 2);
        assert_eq!(tx7[0].kind, EventKind::TxBegin);
        assert_eq!(tx7[1].kind, EventKind::Doorbell);
    }

    #[test]
    fn wraparound_keeps_newest() {
        let r = TraceRing::new(4);
        for i in 0..10u64 {
            r.record(ev(i, EventKind::SqeStore, i), true);
        }
        let evs = r.snapshot();
        assert_eq!(evs.len(), 4);
        let ats: Vec<Ns> = evs.iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![6, 7, 8, 9]);
        assert_eq!(r.recorded(), 10);
    }

    #[test]
    fn concurrent_recorders_wrap_without_loss_or_duplication() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        const CAP: usize = 64;
        let r = Arc::new(TraceRing::new(CAP));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        r.record(ev(i, EventKind::SqeStore, t * PER_THREAD + i), true);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.recorded(), THREADS * PER_THREAD);
        let evs = r.snapshot();
        // The ring is full and holds `CAP` distinct events.
        assert_eq!(evs.len(), CAP);
        let mut txs: Vec<u64> = evs.iter().map(|e| e.tx_id).collect();
        txs.sort_unstable();
        txs.dedup();
        assert_eq!(txs.len(), CAP, "overwritten slots must not duplicate");
    }

    #[test]
    fn phases_sum_to_span() {
        let events = vec![
            ev(100, EventKind::TxBegin, 1),
            ev(130, EventKind::SqeStore, 1),
            ev(200, EventKind::MmioFlush, 1),
            ev(260, EventKind::Doorbell, 1),
            ev(900, EventKind::Completion, 1),
        ];
        let phases = tx_phases(&events);
        assert_eq!(phases.len(), 4);
        assert_eq!(phases[0].name, "tx_begin -> sqe_store");
        let total: Ns = phases.iter().map(|p| p.dur).sum();
        assert_eq!(total, 800);
    }

    #[test]
    fn phases_of_short_traces_are_empty() {
        assert!(tx_phases(&[]).is_empty());
        assert!(tx_phases(&[ev(5, EventKind::Irq, 1)]).is_empty());
    }
}

/// Model-checked regressions for the ring's two documented races: the
/// wrap-while-snapshot window and writers lapping each other. Run
/// with `cargo test -p ccnvme-obs --features loom --lib loom_`; every
/// interleaving of the loom threads is explored (see DESIGN.md §10).
#[cfg(all(test, feature = "loom"))]
mod loom_tests {
    use std::sync::Arc;

    use loom::thread;

    use super::*;

    /// `at` and `tx_id` encode the record index so a torn or stale
    /// event is detectable from content alone.
    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            at: 10 * (i + 1),
            kind: EventKind::SqeStore,
            qid: 1,
            tx_id: i,
            arg: i,
            ctx: TraceCtx::ZERO,
        }
    }

    /// ISSUE 3 satellite: a writer wraps the ring while another thread
    /// snapshots for `tx_phases()`. Under every interleaving the
    /// snapshot must be *consistent*: only events that were actually
    /// recorded, none torn, no duplicates, and in record order — so
    /// `tx_phases` never sees time run backwards.
    #[test]
    fn loom_wrap_race_snapshot_is_consistent_prefix() {
        loom::model(|| {
            let r = Arc::new(TraceRing::new(2));
            // Fill the ring (seqs 0, 1) before the race begins.
            r.record(ev(0), true);
            r.record(ev(1), true);
            let w = {
                let r = Arc::clone(&r);
                // The racing writer laps the ring: seq 2 overwrites
                // slot 0, seq 3 overwrites slot 1.
                thread::spawn(move || {
                    r.record(ev(2), true);
                    r.record(ev(3), true);
                })
            };
            let snap = r.snapshot();
            w.join().unwrap();
            assert!(snap.len() <= 2, "more events than slots: {snap:?}");
            for e in &snap {
                // No torn event: every field coheres with the one
                // record call that produced it.
                assert_eq!(e.at, 10 * (e.tx_id + 1), "torn event: {e:?}");
                assert!(e.tx_id < 4, "event never recorded: {e:?}");
            }
            // Record order is preserved: `snapshot` returns it,
            // and our `at` increases with seq, so the returned events
            // must be strictly increasing — a consistent (possibly
            // gapped, never reordered) view of the record sequence.
            for pair in snap.windows(2) {
                assert!(
                    pair[0].at < pair[1].at,
                    "snapshot reordered events: {snap:?}"
                );
            }
            // tx_phases on a consistent snapshot never underflows.
            let phases = tx_phases(&snap);
            assert_eq!(phases.len(), snap.len().saturating_sub(1));
            // After the writer finished, the final content is exact:
            // the ring holds the last two records.
            let final_snap = r.snapshot();
            let txs: Vec<u64> = final_snap.iter().map(|e| e.tx_id).collect();
            assert_eq!(txs, vec![2, 3], "final ring content wrong");
        });
    }

    /// Three concurrent writers race for the single slot of a
    /// capacity-1 ring, taking the ring's lock in any order. Each draws
    /// its sequence number under that lock, so the last to take it
    /// holds the newest: the slot ends with one whole event, and the two
    /// it overwrote are counted as laps.
    #[test]
    fn loom_lapped_writer_never_clobbers_newer_event() {
        loom::model(|| {
            let r = Arc::new(TraceRing::new(1));
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let r = Arc::clone(&r);
                    thread::spawn(move || r.record(ev(i), true))
                })
                .collect();
            r.record(ev(2), true);
            for h in handles {
                h.join().unwrap();
            }
            let snap = r.snapshot();
            assert_eq!(snap.len(), 1, "one slot, one event: {snap:?}");
            let e = snap[0];
            assert_eq!(e.at, 10 * (e.tx_id + 1), "torn event: {e:?}");
            assert!(e.tx_id < 3, "event never recorded: {e:?}");
            assert_eq!((r.recorded(), r.lapped_counter().get()), (3, 2));
        });
    }
}
