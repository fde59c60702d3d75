//! Timing constants of the PCIe/MMIO model.
//!
//! These are calibrated so that the microbenchmarks reproduce the *shape*
//! of the paper's measurements, in particular Figure 5 (PMR performance):
//! a persistent 64 B MMIO write is ~2.5× slower than a plain one, and the
//! two converge once the MMIO size exceeds ~512 B because link drain time
//! dominates both.

use ccnvme_runtime::Ns;

/// CPU cost to set up one MMIO operation (address computation, fences
/// around uncacheable access, write-combining buffer eviction).
pub const MMIO_OP_BASE: Ns = 250;

/// CPU cost to issue one 64 B write-combining store line.
pub const STORE_PER_LINE: Ns = 15;

/// Size of one write-combining line / smallest posted-write unit.
pub const WC_LINE: u64 = 64;

/// CPU cost of `clflush` + `mfence` on the written region (per flush op).
pub const CLFLUSH_COST: Ns = 100;

/// Round-trip time of a non-posted PCIe read (also the cost of the
/// zero-byte read used to force posted writes to reach the PMR).
pub const PCIE_RTT: Ns = 300;

/// Maximum read-request chunk for MMIO reads.
pub const MMIO_READ_CHUNK: u64 = 256;

/// Posted writes may be buffered in the WC/root-complex pipeline up to
/// this backlog before the CPU stalls issuing more stores.
pub const POSTED_BACKLOG_BYTES: u64 = 1024;

/// Device-side PMR write engine bandwidth (MMIO path), bytes/second.
/// PMR MMIO throughput is far below DMA throughput on real devices.
pub const PMR_WRITE_BW: u64 = 1_000_000_000;

/// Device-side PMR read bandwidth over MMIO, bytes/second.
pub const PMR_READ_BW: u64 = 700_000_000;

/// Per-TLP header overhead added to each posted write burst, bytes.
pub const TLP_HEADER: u64 = 24;

/// DMA engine setup cost per transfer descriptor.
pub const DMA_SETUP: Ns = 150;

/// MSI-X interrupt delivery latency (device raises IRQ → handler entry).
pub const IRQ_DELIVERY: Ns = 900;

/// CPU cost of running an interrupt handler + softirq completion work.
pub const IRQ_HANDLER_CPU: Ns = 900;

/// CPU cost of a context switch (blocking wait → wakeup path).
pub const CONTEXT_SWITCH: Ns = 1_100;

/// Converts a byte count and a bytes/second bandwidth into nanoseconds.
pub fn transfer_ns(bytes: u64, bytes_per_sec: u64) -> Ns {
    // ns = bytes * 1e9 / bw, rounded up, avoiding u64 overflow via u128.
    let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128);
    ns as Ns
}

/// Number of write-combining lines covering `bytes`.
pub fn wc_lines(bytes: u64) -> u64 {
    bytes.div_ceil(WC_LINE).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly() {
        assert_eq!(transfer_ns(1_000_000_000, 1_000_000_000), 1_000_000_000);
        assert_eq!(transfer_ns(4096, 4_096_000_000), 1_000);
    }

    #[test]
    fn transfer_rounds_up() {
        assert_eq!(transfer_ns(1, 1_000_000_000), 1);
        assert_eq!(transfer_ns(3, 2_000_000_000), 2);
    }

    #[test]
    fn wc_lines_counts() {
        assert_eq!(wc_lines(0), 1);
        assert_eq!(wc_lines(1), 1);
        assert_eq!(wc_lines(64), 1);
        assert_eq!(wc_lines(65), 2);
        assert_eq!(wc_lines(4096), 64);
    }
}
