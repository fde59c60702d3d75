//! Layout of the ccNVMe structures inside the Persistent Memory Region.
//!
//! The PMR hosts, per hardware queue: the persistent submission queue
//! ring (P-SQ), the persistent tail doorbell (P-SQDB) and the persistent
//! head pointer (P-SQ-head) that the driver advances as transactions
//! complete. A small header identifies a formatted PMR across power
//! cycles. Doorbells and head pointers live on separate 64-byte lines so
//! write-combining of ring entries never merges with doorbell updates.

use ccnvme_pcie::MmioRegion;

/// Magic value identifying a ccNVMe-formatted PMR.
pub const PMR_MAGIC: u64 = 0x6363_4e56_4d65_3031; // "ccNVMe01"

/// Size of one submission queue entry.
pub const SQE_SIZE: u64 = 64;

const HEADER_SIZE: u64 = 64;
const META_LINE: u64 = 64;

/// Computes the byte offsets of every ccNVMe structure in the PMR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmrLayout {
    /// Number of hardware queues.
    pub nqueues: u16,
    /// Slots per queue.
    pub depth: u32,
}

impl PmrLayout {
    /// Creates a layout for `nqueues` queues of `depth` slots each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(nqueues: u16, depth: u32) -> Self {
        assert!(nqueues > 0 && depth > 0, "layout must be non-empty");
        PmrLayout { nqueues, depth }
    }

    /// Offset of the P-SQ-head line of queue `q` (0-based).
    pub fn head_off(&self, q: u16) -> u64 {
        assert!(q < self.nqueues);
        HEADER_SIZE + q as u64 * META_LINE
    }

    /// Offset of the P-SQDB line of queue `q`.
    pub fn db_off(&self, q: u16) -> u64 {
        assert!(q < self.nqueues);
        HEADER_SIZE + (self.nqueues as u64 + q as u64) * META_LINE
    }

    /// Offset of slot 0 of queue `q`'s P-SQ ring.
    pub fn ring_off(&self, q: u16) -> u64 {
        assert!(q < self.nqueues);
        HEADER_SIZE + 2 * self.nqueues as u64 * META_LINE + q as u64 * self.depth as u64 * SQE_SIZE
    }

    /// Offset of slot `slot` of queue `q`.
    pub fn slot_off(&self, q: u16, slot: u32) -> u64 {
        assert!(slot < self.depth);
        self.ring_off(q) + slot as u64 * SQE_SIZE
    }

    /// End of the P-SQ ring region (start of the abort logs).
    fn rings_end(&self) -> u64 {
        self.ring_off(self.nqueues - 1) + self.depth as u64 * SQE_SIZE
    }

    /// Offset of the abort-log entry count of queue `q`.
    fn abort_count_off(&self, q: u16) -> u64 {
        assert!(q < self.nqueues);
        self.rings_end() + q as u64 * (META_LINE + self.depth as u64 * 8)
    }

    /// Offset of abort-log entry `i` of queue `q`.
    fn abort_entry_off(&self, q: u16, i: u32) -> u64 {
        assert!(i < self.abort_capacity());
        self.abort_count_off(q) + META_LINE + i as u64 * 8
    }

    /// Entries each queue's abort log can hold. One ring's worth of
    /// slots is a safe upper bound: the file system degrades to
    /// read-only at the first unrecoverable failure, so only
    /// transactions already in flight at that point can ever fail.
    pub fn abort_capacity(&self) -> u32 {
        self.depth
    }

    /// Total bytes the layout occupies.
    pub fn total_size(&self) -> u64 {
        self.abort_count_off(self.nqueues - 1) + META_LINE + self.depth as u64 * 8
    }

    /// Offset of the flight-recorder (blackbox) sub-region: a sealed
    /// persistent ring of compact trace records written on the posted
    /// path, page-aligned past the ccNVMe structures. The recorder is
    /// strictly observational — it shares the PMR substrate but never
    /// adds ordering edges (no flush, no doorbell) of its own.
    pub fn blackbox_off(&self) -> u64 {
        (self.total_size() + 4095) & !4095
    }

    /// First byte available to application sub-regions of the PMR,
    /// rounded up to a 4 KiB boundary past the ccNVMe structures and
    /// the blackbox ring. The paper treats the PMR as a substrate
    /// (§4.4); a higher layer carves its own region starting here so
    /// driver and application persistence never alias. The app region
    /// has one tenant per device: either `ccnvme-ploc`'s log region or
    /// a cluster node's decision log, never both.
    pub fn app_region_off(&self) -> u64 {
        self.blackbox_off() + ccnvme_obs::blackbox::BLACKBOX_BYTES
    }

    /// Reads queue `q`'s abort log through `read(offset, len)`.
    ///
    /// The abort log records the transaction IDs of failed or timed-out
    /// transactions *before* the P-SQ-head advances past them. Recovery
    /// adds these IDs to the discard set: a failed transaction may have
    /// left intact, checksummed journal content (e.g. only an
    /// ordered-data member failed) that must nonetheless never be
    /// replayed.
    ///
    /// Format — this `impl` is its only reader and writer: a 4-byte
    /// entry count on a line of its own, then 8-byte little-endian
    /// transaction IDs. The count is clamped to the capacity, so a
    /// garbage count word reads as a full log, never past it; an entry
    /// whose count did not land (a torn append) is not there.
    pub(crate) fn read_abort_log(&self, q: u16, read: &dyn Fn(u64, u64) -> Vec<u8>) -> Vec<u64> {
        let count = read(self.abort_count_off(q), 4);
        let count = u32::from_le_bytes(count.try_into().expect("4 bytes"));
        (0..count.min(self.abort_capacity()))
            .map(|i| {
                let id = read(self.abort_entry_off(q, i), 8);
                u64::from_le_bytes(id.try_into().expect("8 bytes"))
            })
            .collect()
    }

    /// Stores `tx_id` as entry `i` of queue `q`'s abort log. Invisible
    /// to readers until [`PmrLayout::publish_abort_count`] covers it.
    pub(crate) fn write_abort_entry(&self, pmr: &MmioRegion, q: u16, i: u32, tx_id: u64) {
        pmr.write(self.abort_entry_off(q, i), &tx_id.to_le_bytes());
    }

    /// Publishes `count` entries of queue `q`'s abort log (0 clears it).
    /// Entries go before the count that covers them — posted writes
    /// stay ordered, so a cut between the two loses the new entries,
    /// never exposes garbage.
    pub(crate) fn publish_abort_count(&self, pmr: &MmioRegion, q: u16, count: u32) {
        pmr.write(self.abort_count_off(q), &count.to_le_bytes());
    }

    /// Appends `tx_id` to queue `q`'s abort log after its `logged`
    /// published entries; `false` when the log is full. That cannot
    /// happen in practice: the file system degrades to read-only at the
    /// first unrecoverable failure, bounding failed transactions by the
    /// in-flight count (< one ring of slots).
    pub(crate) fn append_abort_entry(
        &self,
        pmr: &MmioRegion,
        q: u16,
        logged: u32,
        tx_id: u64,
    ) -> bool {
        if logged >= self.abort_capacity() {
            return false;
        }
        self.write_abort_entry(pmr, q, logged, tx_id);
        self.publish_abort_count(pmr, q, logged + 1);
        true
    }

    /// The geometry the runtime persist-order sanitizer replays against:
    /// one [`ccnvme_ssd::QueueWindow`] per hardware queue mapping its
    /// P-SQDB doorbell and P-SQ ring window. The layout is the single
    /// source of truth for these offsets, so the sanitizer can never
    /// drift from what the driver actually writes.
    pub fn sanitizer_geometry(&self) -> ccnvme_ssd::SanitizerGeometry {
        ccnvme_ssd::SanitizerGeometry {
            queues: (0..self.nqueues)
                .map(|q| ccnvme_ssd::QueueWindow {
                    qid: q,
                    db_off: self.db_off(q),
                    ring_off: self.ring_off(q),
                    depth: self.depth,
                    slot_size: SQE_SIZE,
                })
                .collect(),
        }
    }

    /// Serializes the header (magic + geometry) with generation 0.
    pub fn encode_header(&self) -> [u8; 64] {
        self.encode_header_with_generation(0)
    }

    /// Serializes the header with an explicit recovery generation
    /// (bytes 16..20). The generation is bumped on every re-format so
    /// stale slot seals from an earlier life of the ring fail epoch
    /// validation instead of being replayed.
    pub fn encode_header_with_generation(&self, generation: u32) -> [u8; 64] {
        let mut h = [0u8; 64];
        h[0..8].copy_from_slice(&PMR_MAGIC.to_le_bytes());
        h[8..10].copy_from_slice(&self.nqueues.to_le_bytes());
        h[12..16].copy_from_slice(&self.depth.to_le_bytes());
        h[16..20].copy_from_slice(&generation.to_le_bytes());
        h
    }

    /// Reads the recovery generation out of a header (0 for headers
    /// written before the field existed — byte 16..20 was zero-fill).
    pub fn decode_generation(h: &[u8]) -> u32 {
        if h.len() < 20 {
            return 0;
        }
        u32::from_le_bytes(h[16..20].try_into().expect("4 bytes"))
    }

    /// Parses a header; `None` if the magic does not match (unformatted
    /// or foreign PMR).
    pub fn decode_header(h: &[u8]) -> Option<PmrLayout> {
        if h.len() < 16 {
            return None;
        }
        let magic = u64::from_le_bytes(h[0..8].try_into().expect("8 bytes"));
        if magic != PMR_MAGIC {
            return None;
        }
        let nqueues = u16::from_le_bytes([h[8], h[9]]);
        let depth = u32::from_le_bytes(h[12..16].try_into().expect("4 bytes"));
        if nqueues == 0 || depth == 0 {
            return None;
        }
        Some(PmrLayout { nqueues, depth })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_do_not_overlap() {
        let l = PmrLayout::new(24, 256);
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for q in 0..24 {
            regions.push((l.head_off(q), 8));
            regions.push((l.db_off(q), 4));
            regions.push((l.ring_off(q), 256 * SQE_SIZE));
            regions.push((l.abort_count_off(q), 4));
            regions.push((l.abort_entry_off(q, 0), 8 * l.abort_capacity() as u64));
        }
        regions.sort_unstable();
        for w in regions.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {w:?}");
        }
    }

    #[test]
    fn abort_log_round_trips_and_survives_garbage_and_torn_appends() {
        use ccnvme_pcie::{mmio::RegionKind, PcieLink};
        ccnvme_sim::Sim::run_main(1, || {
            let l = PmrLayout::new(2, 4);
            let link = std::sync::Arc::new(PcieLink::new(3_300_000_000));
            let pmr = MmioRegion::new("pmr", RegionKind::Pmr, 2 << 20, link);
            let log = |q| l.read_abort_log(q, &|off, len| pmr.read(off, len));
            // Append, read back, per queue.
            assert!(l.append_abort_entry(&pmr, 0, 0, 11));
            assert!(l.append_abort_entry(&pmr, 0, 1, 12));
            assert!(l.append_abort_entry(&pmr, 1, 0, 21));
            pmr.flush();
            assert_eq!((log(0), log(1)), (vec![11, 12], vec![21]));
            // A torn append — the entry landed, its count did not — is
            // not there; the next append takes its place.
            l.write_abort_entry(&pmr, 0, 2, 13);
            pmr.flush();
            assert_eq!(log(0), vec![11, 12]);
            assert!(l.append_abort_entry(&pmr, 0, 2, 14));
            // Full: refused, nothing written.
            assert!(l.append_abort_entry(&pmr, 0, 3, 15));
            assert!(!l.append_abort_entry(&pmr, 0, 4, 16));
            pmr.flush();
            assert_eq!(log(0), vec![11, 12, 14, 15]);
            // A garbage count word reads as a full log, never past it.
            l.publish_abort_count(&pmr, 1, 0xdead_beef);
            pmr.flush();
            assert_eq!(log(1).len(), l.abort_capacity() as usize);
            assert_eq!(log(1)[0], 21);
            // Clear.
            l.publish_abort_count(&pmr, 0, 0);
            pmr.flush();
            assert!(log(0).is_empty());
        });
    }

    #[test]
    fn fits_in_2mb_pmr() {
        let l = PmrLayout::new(24, 256);
        assert!(l.total_size() <= 2 << 20, "size={}", l.total_size());
    }

    #[test]
    fn app_region_clears_the_ccnvme_structures_and_blackbox() {
        for (q, d) in [(1u16, 1u32), (4, 64), (24, 256)] {
            let l = PmrLayout::new(q, d);
            assert!(l.blackbox_off() >= l.total_size());
            assert_eq!(
                l.blackbox_off() % 4096,
                0,
                "blackbox region must be page-aligned"
            );
            assert!(
                l.blackbox_off() - l.total_size() < 4096,
                "no more than one page of slack before the blackbox"
            );
            assert_eq!(
                l.app_region_off(),
                l.blackbox_off() + ccnvme_obs::blackbox::BLACKBOX_BYTES,
                "app region starts right past the blackbox ring"
            );
            assert_eq!(
                l.app_region_off() % 4096,
                0,
                "app region must be page-aligned"
            );
        }
    }

    #[test]
    fn sanitizer_geometry_mirrors_the_layout() {
        let l = PmrLayout::new(3, 16);
        let geo = l.sanitizer_geometry();
        assert_eq!(geo.queues.len(), 3);
        for (q, w) in geo.queues.iter().enumerate() {
            let q = q as u16;
            assert_eq!(w.qid, q);
            assert_eq!(w.db_off, l.db_off(q));
            assert_eq!(w.ring_off, l.ring_off(q));
            assert_eq!(w.depth, 16);
            assert_eq!(w.slot_size, SQE_SIZE);
        }
    }

    #[test]
    fn header_roundtrip() {
        let l = PmrLayout::new(8, 128);
        let h = l.encode_header();
        assert_eq!(PmrLayout::decode_header(&h), Some(l));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut h = PmrLayout::new(1, 1).encode_header();
        h[0] ^= 0xff;
        assert!(PmrLayout::decode_header(&h).is_none());
    }

    #[test]
    fn doorbells_on_distinct_lines() {
        let l = PmrLayout::new(4, 64);
        for q in 0..4 {
            for p in 0..4 {
                if q != p {
                    assert_ne!(l.db_off(q) / 64, l.db_off(p) / 64);
                    assert_ne!(l.head_off(q) / 64, l.head_off(p) / 64);
                }
            }
            assert_ne!(l.db_off(q) / 64, l.head_off(q) / 64);
        }
    }

    #[test]
    fn slot_offsets_are_contiguous() {
        let l = PmrLayout::new(2, 16);
        assert_eq!(l.slot_off(0, 1) - l.slot_off(0, 0), SQE_SIZE);
        assert_eq!(l.slot_off(1, 0), l.ring_off(0) + 16 * SQE_SIZE);
    }

    #[test]
    fn generation_roundtrips_and_old_headers_read_as_zero() {
        let l = PmrLayout::new(4, 32);
        let h = l.encode_header_with_generation(7);
        assert_eq!(PmrLayout::decode_header(&h), Some(l));
        assert_eq!(PmrLayout::decode_generation(&h), 7);
        // Plain headers carry generation 0 (back-compat).
        assert_eq!(PmrLayout::decode_generation(&l.encode_header()), 0);
    }
}
