//! PCIe traffic accounting — the measurement substrate for Table 1.
//!
//! The paper classifies the per-transaction PCIe traffic into four kinds:
//! MMIO operations, DMAs of queue entries (DMA(Q)), 4 KB block I/Os and
//! interrupt requests. The counters here are incremented by the MMIO and
//! DMA paths and read by the Table 1 benchmark.
//!
//! Since the unified observability layer landed, every counter lives in
//! the link's [`ccnvme_obs::Registry`] under a `pcie.*` name (see
//! [`TrafficCounters::registered`]); this struct stays as the typed view
//! the hot paths and the Table 1 benches use, so a registry
//! [`snapshot`](ccnvme_obs::Registry::snapshot) and a
//! [`TrafficCounters::snapshot`] always agree — they read the same
//! atomics.

use std::sync::Arc;

use ccnvme_obs::{Counter, Registry};

/// Shared traffic counters for one PCIe function (device).
#[derive(Debug, Default)]
pub struct TrafficCounters {
    /// Doorbell MMIO writes (4 B register writes).
    pub mmio_doorbells: Arc<Counter>,
    /// MMIO store operations into device memory (e.g. P-SQ entry writes).
    pub mmio_stores: Arc<Counter>,
    /// Small (≤ 8 B) MMIO stores into persistent memory: the ccNVMe
    /// persistent doorbell (P-SQDB) and head (P-SQ-head) updates, which
    /// the paper's Table 1 counts as individual MMIOs.
    pub mmio_pointer_stores: Arc<Counter>,
    /// Bytes carried by MMIO stores.
    pub mmio_store_bytes: Arc<Counter>,
    /// Persistent-MMIO flush sequences (clflush + mfence + zero-byte read).
    pub mmio_flushes: Arc<Counter>,
    /// Non-posted MMIO reads (including the zero-byte ordering read).
    pub mmio_reads: Arc<Counter>,
    /// DMA transfers of queue entries (SQE fetch, CQE post).
    pub dma_queue: Arc<Counter>,
    /// Host→device block data transfers: the DMA of a write command's
    /// data pages. A read's device→host transfer is neither counted here
    /// nor charged link time.
    pub block_ios: Arc<Counter>,
    /// Bytes carried by host→device block data transfers (reads are not
    /// counted, as for `block_ios`).
    pub block_bytes: Arc<Counter>,
    /// Interrupt requests delivered to the host (MSI-X messages).
    pub irqs: Arc<Counter>,
}

impl TrafficCounters {
    /// Creates zeroed counters not attached to any registry (tests,
    /// standalone use).
    pub fn new() -> Self {
        TrafficCounters::default()
    }

    /// Creates counters registered in `reg` under `pcie.*` names, so the
    /// registry's one-pass snapshot/export covers them.
    pub fn registered(reg: &Registry) -> Self {
        TrafficCounters {
            mmio_doorbells: reg.counter("pcie.mmio_doorbells"),
            mmio_stores: reg.counter("pcie.mmio_stores"),
            mmio_pointer_stores: reg.counter("pcie.mmio_pointer_stores"),
            mmio_store_bytes: reg.counter("pcie.mmio_store_bytes"),
            mmio_flushes: reg.counter("pcie.mmio_flushes"),
            mmio_reads: reg.counter("pcie.mmio_reads"),
            dma_queue: reg.counter("pcie.dma_queue"),
            block_ios: reg.counter("pcie.block_ios"),
            block_bytes: reg.counter("pcie.block_bytes"),
            irqs: reg.counter("pcie.irqs"),
        }
    }

    /// Takes a point-in-time snapshot.
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            mmio_doorbells: self.mmio_doorbells.get(),
            mmio_stores: self.mmio_stores.get(),
            mmio_pointer_stores: self.mmio_pointer_stores.get(),
            mmio_store_bytes: self.mmio_store_bytes.get(),
            mmio_flushes: self.mmio_flushes.get(),
            mmio_reads: self.mmio_reads.get(),
            dma_queue: self.dma_queue.get(),
            block_ios: self.block_ios.get(),
            block_bytes: self.block_bytes.get(),
            irqs: self.irqs.get(),
        }
    }
}

/// An immutable snapshot of [`TrafficCounters`], subtractable to measure
/// the traffic of one operation window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// See [`TrafficCounters::mmio_doorbells`].
    pub mmio_doorbells: u64,
    /// See [`TrafficCounters::mmio_stores`].
    pub mmio_stores: u64,
    /// See [`TrafficCounters::mmio_pointer_stores`].
    pub mmio_pointer_stores: u64,
    /// See [`TrafficCounters::mmio_store_bytes`].
    pub mmio_store_bytes: u64,
    /// See [`TrafficCounters::mmio_flushes`].
    pub mmio_flushes: u64,
    /// See [`TrafficCounters::mmio_reads`].
    pub mmio_reads: u64,
    /// See [`TrafficCounters::dma_queue`].
    pub dma_queue: u64,
    /// See [`TrafficCounters::block_ios`].
    pub block_ios: u64,
    /// See [`TrafficCounters::block_bytes`].
    pub block_bytes: u64,
    /// See [`TrafficCounters::irqs`].
    pub irqs: u64,
}

impl TrafficSnapshot {
    /// Returns the traffic accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            mmio_doorbells: self.mmio_doorbells - earlier.mmio_doorbells,
            mmio_stores: self.mmio_stores - earlier.mmio_stores,
            mmio_pointer_stores: self.mmio_pointer_stores - earlier.mmio_pointer_stores,
            mmio_store_bytes: self.mmio_store_bytes - earlier.mmio_store_bytes,
            mmio_flushes: self.mmio_flushes - earlier.mmio_flushes,
            mmio_reads: self.mmio_reads - earlier.mmio_reads,
            dma_queue: self.dma_queue - earlier.dma_queue,
            block_ios: self.block_ios - earlier.block_ios,
            block_bytes: self.block_bytes - earlier.block_bytes,
            irqs: self.irqs - earlier.irqs,
        }
    }

    /// The paper's "MMIO" column: doorbell rings (volatile registers and
    /// persistent pointers) plus persistent-flush sequences (each is one
    /// burst over the link).
    pub fn table1_mmio(&self) -> u64 {
        self.mmio_doorbells + self.mmio_flushes + self.mmio_pointer_stores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let t = TrafficCounters::new();
        t.mmio_doorbells.add(2);
        let a = t.snapshot();
        t.mmio_doorbells.add(3);
        t.block_ios.add(1);
        let b = t.snapshot();
        let d = b.since(&a);
        assert_eq!(d.mmio_doorbells, 3);
        assert_eq!(d.block_ios, 1);
        assert_eq!(d.irqs, 0);
    }

    #[test]
    fn table1_mmio_combines_doorbells_and_flushes() {
        let t = TrafficCounters::new();
        t.mmio_doorbells.add(1);
        t.mmio_flushes.add(1);
        assert_eq!(t.snapshot().table1_mmio(), 2);
    }

    #[test]
    fn registered_counters_show_up_in_registry_snapshots() {
        let reg = Registry::new();
        let t = TrafficCounters::registered(&reg);
        t.mmio_doorbells.inc();
        t.block_bytes.add(4096);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pcie.mmio_doorbells"), 1);
        assert_eq!(snap.counter("pcie.block_bytes"), 4096);
        // The typed view and the registry read the same atomics.
        assert_eq!(t.snapshot().mmio_doorbells, 1);
    }
}
