//! The PCIe link: shared bandwidth for MMIO and DMA traffic plus the DMA
//! engine interface used by the simulated SSD.

use std::sync::Arc;

use ccnvme_obs::Obs;
use ccnvme_runtime::Ns;

use crate::{cost, gate::BandwidthGate, traffic::TrafficCounters};

/// What a DMA transfer carries, for traffic classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaKind {
    /// A submission- or completion-queue entry (the paper's "DMA(Q)").
    QueueEntry,
    /// Block data (the paper's "Block I/O").
    BlockData,
}

/// One PCIe link (one device attachment point).
///
/// The two directions are independent (PCIe is full duplex); MMIO posted
/// writes and host-to-device DMA share the downstream gate, completions
/// and device-to-host DMA share the upstream gate. This reproduces the
/// paper's observation that protocol traffic (journaling commit records,
/// per-request doorbells) eats into the bandwidth available for data.
pub struct PcieLink {
    /// Host → device direction.
    pub downstream: BandwidthGate,
    /// Device → host direction.
    pub upstream: BandwidthGate,
    /// Device-side PMR MMIO write engine (much slower than DMA).
    pub pmr_write_engine: BandwidthGate,
    /// Device-side PMR MMIO read engine.
    pub pmr_read_engine: BandwidthGate,
    /// Non-posted read round-trip time.
    pub rtt: Ns,
    /// Traffic accounting for everything crossing this link.
    pub traffic: Arc<TrafficCounters>,
    /// The observability hub for the whole stack attached to this link:
    /// every layer above (controller, driver, journal, file system)
    /// registers metrics and records trace events here, so one registry
    /// snapshot covers the stack.
    pub obs: Arc<Obs>,
}

impl PcieLink {
    /// Creates a link with symmetric `link_bw` bytes/second per direction.
    pub fn new(link_bw: u64) -> Self {
        let obs = Obs::new();
        let reg = &obs.metrics;
        PcieLink {
            downstream: BandwidthGate::metered(link_bw, reg.counter("pcie.downstream_bytes")),
            upstream: BandwidthGate::metered(link_bw, reg.counter("pcie.upstream_bytes")),
            pmr_write_engine: BandwidthGate::metered(
                cost::PMR_WRITE_BW,
                reg.counter("pcie.pmr_write_bytes"),
            ),
            pmr_read_engine: BandwidthGate::metered(
                cost::PMR_READ_BW,
                reg.counter("pcie.pmr_read_bytes"),
            ),
            rtt: cost::PCIE_RTT,
            traffic: Arc::new(TrafficCounters::registered(reg)),
            obs,
        }
    }

    /// Performs a DMA transfer of `bytes` from host memory to the device,
    /// blocking the calling (device-side) thread until it completes.
    pub fn dma_to_device(&self, bytes: u64, kind: DmaKind) {
        self.account(bytes, kind);
        let end = self.downstream.acquire(bytes + cost::TLP_HEADER);
        let now = ccnvme_runtime::now();
        ccnvme_runtime::delay(cost::DMA_SETUP + end.saturating_sub(now));
    }

    /// Reserves link time for a host→device DMA without blocking the
    /// caller; returns the completion instant. Used by the controller's
    /// pipelined data path: the DMA engine streams commands back to back
    /// while the fetch worker moves on.
    pub fn dma_to_device_async(&self, bytes: u64, kind: DmaKind) -> Ns {
        self.account(bytes, kind);
        cost::DMA_SETUP + self.downstream.acquire(bytes + cost::TLP_HEADER)
    }

    fn account(&self, bytes: u64, kind: DmaKind) {
        match kind {
            DmaKind::QueueEntry => self.traffic.dma_queue.inc(),
            DmaKind::BlockData => {
                self.traffic.block_ios.inc();
                self.traffic.block_bytes.add(bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use ccnvme_sim::{now, Sim};

    use super::*;

    #[test]
    fn dma_blocks_for_transfer_time() {
        let mut sim = Sim::new(1);
        sim.spawn("dev", 0, || {
            let link = PcieLink::new(1_000_000_000); // 1 ns per byte
            link.dma_to_device(4096, DmaKind::BlockData);
            assert!(now() >= 4096);
            assert_eq!(link.traffic.block_ios.get(), 1);
            assert_eq!(link.traffic.block_bytes.get(), 4096);
        });
        sim.run();
    }

    #[test]
    fn queue_entry_dma_is_classified_separately() {
        let mut sim = Sim::new(1);
        sim.spawn("dev", 0, || {
            let link = PcieLink::new(1_000_000_000);
            link.dma_to_device(64, DmaKind::QueueEntry);
            link.dma_to_device_async(64, DmaKind::QueueEntry);
            assert_eq!(link.traffic.dma_queue.get(), 2);
            assert_eq!(link.traffic.block_ios.get(), 0);
        });
        sim.run();
    }

    #[test]
    fn directions_do_not_contend() {
        let mut sim = Sim::new(1);
        sim.spawn("dev", 0, || {
            let link = PcieLink::new(1_000_000_000);
            // Full duplex: both finish in one transfer time, not two;
            // a second transfer in one direction queues behind the first.
            assert_eq!(link.downstream.acquire(100_000), 100_000);
            assert_eq!(link.upstream.acquire(100_000), 100_000);
            assert_eq!(link.upstream.acquire(100_000), 200_000);
        });
        sim.run();
    }

    #[test]
    fn link_traffic_lands_in_its_registry() {
        let link = PcieLink::new(1_000_000_000);
        link.traffic.irqs.inc();
        link.upstream.acquire_after(0, 16);
        let m = link.obs.metrics.snapshot();
        assert_eq!(m.counter("pcie.irqs"), 1);
        assert_eq!(m.counter("pcie.upstream_bytes"), 16);
    }
}
