//! Unified observability layer for the ccNVMe/MQFS stack.
//!
//! The paper's entire evaluation (§7, Figures 5/10/11, Table 1) is about
//! *where time and PCIe traffic go* — MMIO vs DMA vs IRQ, fatomic-return
//! vs fsync-durable. This crate is the single substrate every layer
//! reports into:
//!
//! * [`metrics`] — lock-free [`Counter`]s, [`Gauge`]s and log-scaled
//!   latency [`Histogram`]s (p50/p95/p99/max), registrable by name from
//!   any crate.
//! * [`registry`] — a [`Registry`] groups metrics per stack instance and
//!   produces one-pass consistent [`MetricsSnapshot`]s with JSON and
//!   Prometheus-text exporters. Snapshots are subtractable
//!   ([`MetricsSnapshot::since`]) so measurement windows never need the
//!   racy reset-and-read pattern.
//! * [`trace`] — a [`TraceRing`] records transaction-lifecycle events
//!   (`tx_begin / sqe_store / mmio_flush / doorbell / dma_fetch /
//!   media_write / cqe_post / irq / completion`) with sim-time
//!   timestamps, per queue and per transaction ID, so one `fatomic`
//!   decomposes into the paper's atomicity-vs-durability phases.
//! * [`json`] — a dependency-free JSON parser plus the
//!   `ccnvme-metrics/v1` schema validator used by `scripts/bench_smoke.sh`.
//! * [`ctx`] — the 16-byte [`TraceCtx`] that follows one request from a
//!   remote initiator through capsules, SQEs and bios down to
//!   `media_write`.
//! * [`blackbox`] — the crash-consistent flight recorder: a sealed
//!   persistent ring of milestone records in a PMR sub-region, written
//!   only on the posted path.
//! * [`forensics`] — post-crash timeline reconstruction and per-tx
//!   verdicts over a mounted blackbox ring.
//! * [`seal`] — the stack's one integrity checksum (CRC-32C) and its
//!   one 64 B PMR line seal, shared by the SQE ring, ploc, the blackbox,
//!   the journal, the fabric codec and the cluster records.
//! * [`hash`] — the placement hash (FNV-1a-64) and the integer-keyed
//!   [`hash::IntMap`] / [`hash::IntSet`] of the operation path.
//!
//! Time stamps are passed in by callers as plain nanosecond integers, so
//! every layer of the stack can report into the crate. Its one dependency
//! is `ccnvme-sim`, for the per-thread [`ctx`] words that follow a
//! simulated thread across hand-offs (`ccnvme_sim::ambient`).

#![warn(missing_docs)]

pub mod blackbox;
pub mod ctx;
pub mod forensics;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod seal;
mod sync_shim;
pub mod trace;

pub use blackbox::{Blackbox, BlackboxMount, BlackboxRecord, BlackboxSink};
pub use ctx::TraceCtx;
pub use forensics::{ForensicsReport, TxTimeline, TxVerdict};
pub use metrics::{Counter, Gauge, HistSnapshot, Histogram, Summary};
pub use registry::{MetricsSnapshot, Registry};
pub use trace::{tx_phases, EventKind, TraceEvent, TraceRing};

use std::sync::Arc;

/// Nanoseconds of (simulated) time; the same type as `ccnvme_sim::Ns`.
pub type Ns = u64;

/// One observability hub: a metrics registry plus a lifecycle trace ring.
///
/// Each simulated stack (one PCIe link and everything above it) owns one
/// `Obs`; every layer registers its metrics and records its trace events
/// against it, so a single [`Registry::snapshot`] covers the whole stack.
#[derive(Debug)]
pub struct Obs {
    /// Named metrics for this stack instance.
    pub metrics: Registry,
    /// Transaction-lifecycle event ring.
    pub trace: TraceRing,
}

impl Obs {
    /// Creates a hub with the default trace capacity.
    pub fn new() -> Arc<Obs> {
        let metrics = Registry::new();
        let trace = TraceRing::new(trace::DEFAULT_CAPACITY);
        // Silent event loss in the ring becomes a first-class metric.
        metrics.adopt_counter("obs.trace_ring.lapped", trace.lapped_counter());
        Arc::new(Obs { metrics, trace })
    }
}
