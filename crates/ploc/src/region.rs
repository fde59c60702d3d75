//! The ploc PMR sub-region: layout, write-through shadow and the
//! persistent help watermark.
//!
//! ploc carves a private window out of the controller's PMR starting at
//! `ccnvme::PmrLayout::app_region_off`, so
//! application persistence never aliases the ccNVMe rings. The region
//! holds, in order:
//!
//! ```text
//! +0                 header        one sealed 64 B record (geometry + generation)
//! +64                client area   3 × 64 B records per client: INTENT, RESULT, HELP
//! +64+192·clients    cells         16 B dcas cells: stack head, queue head, queue
//!                                  tail, then one per hash bucket
//! +align64(…)        node pool     32 B nodes: value, claim, next, next_owner
//!                                  (claim at +8 keeps the next/next_owner
//!                                  pair 16-byte aligned as a dcas cell)
//! ```
//!
//! Every store goes through [`PlocRegion`]: it updates an in-memory
//! shadow (the *volatile* view structures race on) and issues the same
//! bytes as a single posted MMIO write (the *durable* view a crash
//! leaves behind). Because PCIe posted writes arrive in issue order
//! (§2.2), issuing shadow-then-MMIO under the owning stripe lock makes
//! the durable order a prefix of the volatile order — which is the whole
//! correctness argument: any crash cut is a state the volatile execution
//! passed through.
//!
//! The only flushes ploc ever needs are at format, at the end of mount,
//! and before acking a client's result (see `service.rs`); intent-before-
//! effect, content-before-link and help-before-overwrite all hold by
//! posted-write FIFO alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ccnvme_obs::seal::{seal_line, sealed_epoch};
use ccnvme_obs::{Counter, Obs};
use ccnvme_pcie::MmioRegion;
use ccnvme_runtime::{RtMutex, RtMutexGuard};

/// Magic identifying a ploc-formatted sub-region ("plocPMR1").
pub const PLOC_MAGIC: u64 = 0x706c_6f63_504d_5231;

/// Bytes per checkpoint record (same footprint as an SQE, reusing the
/// slot-seal layout: epoch at 52..56, CRC-32C over 0..56 at 56..60).
pub const RECORD: u64 = 64;
/// Bytes per dcas cell: value word + owner word.
pub const CELL: u64 = 16;
/// Bytes per pool node: value, next, next_owner, claim.
pub const NODE: u64 = 32;

/// Per-client record slots.
pub const SLOT_INTENT: u64 = 0;
pub const SLOT_RESULT: u64 = 1;
pub const SLOT_HELP: u64 = 2;

/// Null tagged pointer.
pub const NULL: u64 = 0;

/// Number of cell-lock stripes. Stripes serialize the read-modify-write
/// of one dcas cell; 64 keeps contention negligible at any client count
/// this repo simulates.
const STRIPES: usize = 64;

/// Geometry of a ploc sub-region (mirrors the sealed header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlocGeometry {
    /// Detectable clients (each owns an INTENT/RESULT/HELP record trio).
    pub clients: u16,
    /// Pool nodes shared by stack, queue and hash map.
    pub pool: u32,
    /// Fixed hash buckets.
    pub buckets: u32,
}

impl PlocGeometry {
    /// Offset of client `c`'s record `slot` (one of the `SLOT_*`).
    pub fn record_off(&self, c: u16, slot: u64) -> u64 {
        assert!(c < self.clients && slot < 3);
        RECORD + c as u64 * 3 * RECORD + slot * RECORD
    }

    /// Start of the dcas cell area.
    pub fn cells_off(&self) -> u64 {
        RECORD + self.clients as u64 * 3 * RECORD
    }

    /// The Treiber stack's head cell.
    pub fn stack_cell(&self) -> u64 {
        self.cells_off()
    }

    /// The MS queue's head (dummy pointer) cell.
    pub fn qhead_cell(&self) -> u64 {
        self.cells_off() + CELL
    }

    /// The MS queue's (best-effort) tail cell.
    pub fn qtail_cell(&self) -> u64 {
        self.cells_off() + 2 * CELL
    }

    /// Hash bucket `b`'s chain-head cell.
    pub fn bucket_cell(&self, b: u32) -> u64 {
        assert!(b < self.buckets);
        self.cells_off() + 3 * CELL + b as u64 * CELL
    }

    /// Start of the node pool (64-byte aligned).
    pub fn pool_off(&self) -> u64 {
        let end = self.cells_off() + 3 * CELL + self.buckets as u64 * CELL;
        (end + 63) & !63
    }

    /// Offset of pool node `n`.
    pub fn node_off(&self, n: u32) -> u64 {
        assert!(n < self.pool);
        self.pool_off() + n as u64 * NODE
    }

    /// Bytes the whole sub-region occupies.
    pub fn total_size(&self) -> u64 {
        self.pool_off() + self.pool as u64 * NODE
    }

    /// Serializes the header record (sealed by the caller's generation).
    pub fn encode_header(&self, generation: u32) -> [u8; 64] {
        let mut h = [0u8; 64];
        h[0..8].copy_from_slice(&PLOC_MAGIC.to_le_bytes());
        h[8..10].copy_from_slice(&self.clients.to_le_bytes());
        h[12..16].copy_from_slice(&self.pool.to_le_bytes());
        h[16..20].copy_from_slice(&self.buckets.to_le_bytes());
        seal_line(&mut h, generation);
        h
    }

    /// Parses a header read back from the PMR. The generation is the
    /// seal's epoch — an unformatted or torn header fails.
    pub fn decode_header(h: &[u8; 64]) -> Option<(PlocGeometry, u32)> {
        let generation = sealed_epoch(h)?;
        if u64::from_le_bytes(h[0..8].try_into().expect("8 bytes")) != PLOC_MAGIC {
            return None;
        }
        let geo = PlocGeometry {
            clients: u16::from_le_bytes([h[8], h[9]]),
            pool: u32::from_le_bytes(h[12..16].try_into().expect("4 bytes")),
            buckets: u32::from_le_bytes(h[16..20].try_into().expect("4 bytes")),
        };
        (geo.clients > 0 && geo.pool > 1 && geo.buckets > 0).then_some((geo, generation))
    }
}

/// Write-through view of the ploc sub-region.
///
/// The shadow is the volatile truth structures operate on; every store
/// is mirrored to the PMR as one posted write of the same bytes, so a
/// multi-word cell store is crash-atomic at whole-write granularity
/// (exactly the granularity a persist-log cursor materializes).
pub struct PlocRegion {
    pmr: Arc<MmioRegion>,
    base: u64,
    geo: PlocGeometry,
    generation: u32,
    shadow: Vec<AtomicU64>,
    cell_locks: Vec<RtMutex<()>>,
    help_locks: Vec<RtMutex<()>>,
    helps: Arc<Counter>,
}

impl PlocRegion {
    /// Builds a region view over `pmr[base ..]` with an all-zero shadow
    /// (format path — the caller zeroes the device bytes).
    pub fn fresh(
        pmr: Arc<MmioRegion>,
        base: u64,
        geo: PlocGeometry,
        generation: u32,
        obs: &Obs,
    ) -> PlocRegion {
        let words = (geo.total_size() / 8) as usize;
        assert!(
            base + geo.total_size() <= pmr.size(),
            "ploc region [{base}, {}) exceeds the PMR ({} bytes)",
            base + geo.total_size(),
            pmr.size()
        );
        PlocRegion {
            pmr,
            base,
            geo,
            generation,
            shadow: (0..words).map(|_| AtomicU64::new(0)).collect(),
            cell_locks: (0..STRIPES).map(|_| RtMutex::new(())).collect(),
            help_locks: (0..geo.clients).map(|_| RtMutex::new(())).collect(),
            helps: obs.metrics.counter("ploc.helps"),
        }
    }

    /// Builds a region view by reading the device bytes back (mount
    /// path). The non-posted read also drains any posted writes still
    /// in flight on the link, so the shadow equals the durable image.
    pub fn from_device(
        pmr: Arc<MmioRegion>,
        base: u64,
        geo: PlocGeometry,
        generation: u32,
        obs: &Obs,
    ) -> PlocRegion {
        let r = PlocRegion::fresh(pmr, base, geo, generation, obs);
        let bytes = r.pmr.read(base, geo.total_size());
        for (i, w) in bytes.chunks_exact(8).enumerate() {
            // ord: single-threaded mount; Release pairs with op-path Acquire loads.
            r.shadow[i].store(
                u64::from_le_bytes(w.try_into().expect("8 bytes")),
                Ordering::Release,
            );
        }
        r
    }

    pub fn geo(&self) -> &PlocGeometry {
        &self.geo
    }

    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Region bounds inside the PMR, for persist-event coverage checks.
    pub fn bounds(&self) -> (u64, u64) {
        (self.base, self.base + self.geo.total_size())
    }

    /// Volatile load of the word at region offset `off`.
    pub fn load(&self, off: u64) -> u64 {
        debug_assert_eq!(off % 8, 0);
        // ord: Acquire pairs with the Release in store_* so a reader that
        // observes a link also observes the linked node's content.
        self.shadow[(off / 8) as usize].load(Ordering::Acquire)
    }

    /// Serializes the read-modify-write of the cell (or claim word) that
    /// `off` falls in. Strict lock order: cell stripe, then help lock —
    /// help locks are leaves and never taken first.
    pub fn lock_cell(&self, off: u64) -> RtMutexGuard<'_, ()> {
        self.cell_locks[((off >> 4) as usize) % STRIPES].lock()
    }

    /// Stores one word through to the PMR (shadow first, then the posted
    /// write of the same bytes). Callers that need read-modify-write
    /// atomicity hold the stripe lock across load + store_through.
    pub fn store_through(&self, off: u64, v: u64) {
        debug_assert_eq!(off % 8, 0);
        // ord: Release publishes the word before the pointer that will
        // make it reachable is stored (program order on this thread).
        self.shadow[(off / 8) as usize].store(v, Ordering::Release);
        self.pmr.write(self.base + off, &v.to_le_bytes());
    }

    /// Stores a dcas cell (value + owner) as one 16-byte posted write,
    /// so value and owner evidence are crash-atomic together. Must be
    /// called under the cell's stripe lock.
    pub fn store_cell_through(&self, cell: u64, value: u64, owner: u64) {
        debug_assert_eq!(cell % 16, 0);
        let i = (cell / 8) as usize;
        // ord: Release on both words; readers Acquire-load value first.
        self.shadow[i].store(value, Ordering::Release);
        self.shadow[i + 1].store(owner, Ordering::Release); // ord: as above
        let mut raw = [0u8; 16];
        raw[0..8].copy_from_slice(&value.to_le_bytes());
        raw[8..16].copy_from_slice(&owner.to_le_bytes());
        self.pmr.write(self.base + cell, &raw);
    }

    /// Stores a whole pool node (value, claim, next, next_owner) as one
    /// 32-byte posted write — allocation initializes content and clears
    /// stale evidence crash-atomically.
    pub fn store_node_through(&self, node: u64, words: [u64; 4]) {
        debug_assert_eq!((node - self.geo.pool_off()) % NODE, 0);
        let i = (node / 8) as usize;
        let mut raw = [0u8; 32];
        for (k, w) in words.iter().enumerate() {
            // ord: Release; a node is published only by a later link store.
            self.shadow[i + k].store(*w, Ordering::Release);
            raw[k * 8..k * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        self.pmr.write(self.base + node, &raw);
    }

    /// Single-word CAS through the region (used for pop/dequeue claim
    /// stamps). Returns the observed value on failure.
    pub fn cas_word(&self, off: u64, expected: u64, new: u64) -> Result<(), u64> {
        let _g = self.lock_cell(off);
        let cur = self.load(off);
        if cur != expected {
            return Err(cur);
        }
        self.store_through(off, new);
        Ok(())
    }

    /// Writes a sealed 64-byte checkpoint record for client `c`.
    pub fn write_record(&self, c: u16, slot: u64, raw: &[u8; 64]) {
        let off = self.geo.record_off(c, slot);
        let i = (off / 8) as usize;
        for (k, w) in raw.chunks_exact(8).enumerate() {
            // ord: Release; record readers are the mount path and replay.
            self.shadow[i + k].store(
                u64::from_le_bytes(w.try_into().expect("8 bytes")),
                Ordering::Release,
            );
        }
        self.pmr.write(self.base + off, raw);
    }

    /// Writes the sealed 64-byte region header (offset 0).
    pub fn write_header(&self, raw: &[u8; 64]) {
        for (k, w) in raw.chunks_exact(8).enumerate() {
            // ord: Release; the header is read back only by mount.
            self.shadow[k].store(
                u64::from_le_bytes(w.try_into().expect("8 bytes")),
                Ordering::Release,
            );
        }
        self.pmr.write(self.base, raw);
    }

    /// Reads client `c`'s record `slot` out of the shadow.
    pub fn read_record(&self, c: u16, slot: u64) -> [u8; 64] {
        let off = self.geo.record_off(c, slot);
        let i = (off / 8) as usize;
        let mut raw = [0u8; 64];
        for k in 0..8 {
            // ord: Acquire pairs with write_record's Release.
            let w = self.shadow[i + k].load(Ordering::Acquire);
            raw[k * 8..k * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        raw
    }

    /// Persistent help watermark for client `c` (highest sequence some
    /// other thread has promised is linearized). First word of the HELP
    /// record; 0 = never helped.
    pub fn help_floor(&self, c: u16) -> u64 {
        self.load(self.geo.record_off(c, SLOT_HELP))
    }

    /// Raises client `c`'s help watermark to at least `seq` before the
    /// caller overwrites that client's CAS evidence. Monotone under the
    /// per-client help lock; no flush — the bump is posted *before* the
    /// overwriting cell store, so FIFO guarantees a crash that durably
    /// destroyed the evidence durably kept the watermark.
    pub fn help_bump(&self, c: u16, seq: u64) {
        let off = self.geo.record_off(c, SLOT_HELP);
        let _g = self.help_locks[c as usize].lock();
        if self.load(off) < seq {
            self.store_through(off, seq);
            self.helps.inc();
        }
    }

    /// Drains the posted-write FIFO and the device cache: after this
    /// returns, every earlier store is durable.
    pub fn flush(&self) {
        self.pmr.flush();
    }

    /// Zeroes the whole sub-region on the device (format path; posted,
    /// chunked). The fresh shadow is already zero.
    pub fn zero_device(&self) {
        let total = self.geo.total_size();
        let chunk = vec![0u8; 4096];
        let mut off = 0;
        while off < total {
            let n = chunk.len().min((total - off) as usize);
            self.pmr.write(self.base + off, &chunk[..n]);
            off += n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> PlocGeometry {
        PlocGeometry {
            clients: 4,
            pool: 16,
            buckets: 8,
        }
    }

    #[test]
    fn layout_does_not_overlap_and_is_word_aligned() {
        let g = geo();
        let mut spans: Vec<(u64, u64)> = vec![(0, RECORD)];
        for c in 0..g.clients {
            for s in 0..3 {
                spans.push((g.record_off(c, s), RECORD));
            }
        }
        spans.push((g.stack_cell(), CELL));
        spans.push((g.qhead_cell(), CELL));
        spans.push((g.qtail_cell(), CELL));
        for b in 0..g.buckets {
            spans.push((g.bucket_cell(b), CELL));
        }
        for n in 0..g.pool {
            spans.push((g.node_off(n), NODE));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {w:?}");
        }
        assert_eq!(g.total_size() % 8, 0);
        assert_eq!(g.pool_off() % 64, 0);
        assert_eq!(
            spans.last().unwrap().0 + spans.last().unwrap().1,
            g.total_size()
        );
    }

    #[test]
    fn header_roundtrip_and_tear_detection() {
        let g = geo();
        let h = g.encode_header(7);
        assert_eq!(PlocGeometry::decode_header(&h), Some((g, 7)));
        let mut torn = h;
        torn[3] ^= 0x40;
        assert_eq!(PlocGeometry::decode_header(&torn), None);
        // An all-zero (unformatted) header never decodes.
        assert_eq!(PlocGeometry::decode_header(&[0u8; 64]), None);
    }
}
