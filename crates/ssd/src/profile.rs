//! Device performance profiles reproducing Table 3 of the paper.

use ccnvme_runtime::{Ns, US};

/// Performance envelope and behaviour of one SSD model.
#[derive(Debug, Clone)]
pub struct SsdProfile {
    /// Marketing name, as in Table 3.
    pub name: &'static str,
    /// Sequential read bandwidth, bytes/second.
    pub seq_read_bw: u64,
    /// Sequential write bandwidth, bytes/second.
    pub seq_write_bw: u64,
    /// Random 4 KB read IOPS.
    pub rand_read_iops: u64,
    /// Random 4 KB write IOPS.
    pub rand_write_iops: u64,
    /// 4 KB read latency through the device.
    pub read_lat: Ns,
    /// 4 KB write latency to stable media (or to the protected cache).
    pub write_lat: Ns,
    /// Completion latency of a write absorbed by the volatile cache.
    pub cached_write_lat: Ns,
    /// Whether the device has a volatile write cache that requires
    /// FLUSH/FUA for durability (flash drives without power-loss
    /// protection). Optane drives are power-protected: writes are durable
    /// on completion and FLUSH is a no-op (§7.5.2 of the paper).
    pub volatile_cache: bool,
    /// Base cost of a FLUSH command.
    pub flush_base: Ns,
    /// Additional FLUSH cost per dirty cached block.
    pub flush_per_block: Ns,
    /// PCIe link bandwidth per direction, bytes/second.
    pub link_bw: u64,
    /// Size of the Persistent Memory Region exposed by the device.
    pub pmr_size: u64,
}

/// 2 MB PMR, as on the paper's testbed (§2, §7.1).
pub const DEFAULT_PMR_SIZE: u64 = 2 << 20;

fn channels(iops: u64, latency: Ns) -> usize {
    (((iops as u128 * latency as u128 + 500_000_000) / 1_000_000_000) as usize).max(1)
}

impl SsdProfile {
    /// Intel 750 (2015): flash, volatile write cache.
    ///
    /// Table 3: 2.2/0.95 GB/s sequential, 430K/230K random IOPS,
    /// 20 µs read/write latency.
    pub fn intel_750() -> Self {
        SsdProfile {
            name: "Intel 750 (flash, 2015)",
            seq_read_bw: 2_200_000_000,
            seq_write_bw: 950_000_000,
            rand_read_iops: 430_000,
            rand_write_iops: 230_000,
            read_lat: 20 * US,
            write_lat: 20 * US,
            cached_write_lat: 8 * US,
            volatile_cache: true,
            flush_base: 30 * US,
            flush_per_block: 400,
            link_bw: 3_300_000_000,
            pmr_size: DEFAULT_PMR_SIZE,
        }
    }

    /// Intel Optane 905P (2018): 3D XPoint, power-loss protected.
    ///
    /// Table 3: 2.6/2.2 GB/s sequential, 575K/550K random IOPS,
    /// 10 µs read/write latency.
    pub fn optane_905p() -> Self {
        SsdProfile {
            name: "Intel Optane 905P (2018)",
            seq_read_bw: 2_600_000_000,
            seq_write_bw: 2_200_000_000,
            rand_read_iops: 575_000,
            rand_write_iops: 550_000,
            read_lat: 10 * US,
            write_lat: 10 * US,
            cached_write_lat: 10 * US,
            volatile_cache: false,
            flush_base: US,
            flush_per_block: 0,
            link_bw: 3_300_000_000,
            pmr_size: DEFAULT_PMR_SIZE,
        }
    }

    /// Intel Optane DC P5800X (2020) on a PCIe 3.0 host.
    ///
    /// Table 3 footnote: on the paper's PCIe 3.0 server the drive reaches
    /// 3.3/3.3 GB/s sequential, 850K/820K random IOPS, 8/9 µs latency
    /// through the kernel NVMe stack (device-internal ~5 µs).
    pub fn optane_p5800x() -> Self {
        SsdProfile {
            name: "Intel Optane DC P5800X (2020, PCIe 3.0 host)",
            seq_read_bw: 3_300_000_000,
            seq_write_bw: 3_300_000_000,
            rand_read_iops: 850_000,
            rand_write_iops: 820_000,
            read_lat: 5 * US,
            write_lat: 5 * US,
            cached_write_lat: 5 * US,
            volatile_cache: false,
            flush_base: US,
            flush_per_block: 0,
            link_bw: 3_300_000_000,
            pmr_size: DEFAULT_PMR_SIZE,
        }
    }

    /// All three paper profiles, oldest first (Figure 2 order).
    pub fn all() -> Vec<SsdProfile> {
        vec![
            Self::intel_750(),
            Self::optane_905p(),
            Self::optane_p5800x(),
        ]
    }

    /// Internal write channels: chosen so that sustained random-write
    /// throughput (`channels / write_lat`) matches the IOPS spec while a
    /// small burst still completes in ~one media latency.
    pub fn write_channels(&self) -> usize {
        channels(self.rand_write_iops, self.write_lat)
    }

    /// Internal read channels (see [`SsdProfile::write_channels`]).
    pub fn read_channels(&self) -> usize {
        channels(self.rand_read_iops, self.read_lat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_table3() {
        let p750 = SsdProfile::intel_750();
        assert_eq!(p750.seq_write_bw, 950_000_000);
        assert!(p750.volatile_cache);
        let p905 = SsdProfile::optane_905p();
        assert_eq!(p905.rand_write_iops, 550_000);
        assert!(!p905.volatile_cache);
        let p58 = SsdProfile::optane_p5800x();
        assert_eq!(p58.read_lat, 5 * US);
    }

    #[test]
    fn channel_counts_reproduce_iops() {
        let p = SsdProfile::optane_905p();
        // channels/write_lat must approximate the IOPS spec within ~15%.
        let sustained = p.write_channels() as f64 / (p.write_lat as f64 / 1e9);
        let err = (sustained - p.rand_write_iops as f64).abs() / p.rand_write_iops as f64;
        assert!(
            err < 0.15,
            "sustained={sustained} spec={}",
            p.rand_write_iops
        );
    }

    #[test]
    fn drives_get_faster_over_time() {
        let all = SsdProfile::all();
        for w in all.windows(2) {
            assert!(w[1].seq_write_bw > w[0].seq_write_bw);
            assert!(w[1].write_lat <= w[0].write_lat);
        }
    }
}
