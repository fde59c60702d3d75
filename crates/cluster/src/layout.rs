//! On-media layout of a cluster shard's block window.
//!
//! ```text
//! base ─┬──────────────────────┬──────────────────────┬───────────────┐
//!       │ data region          │ intent slots         │ decision slots│
//!       │ [0, data_blocks)     │ hdr + SLOT_WRITE_CAP │ 1 block each  │
//!       │                      │ data blocks each     │ (coordinator) │
//!       └──────────────────────┴──────────────────────┴───────────────┘
//! ```
//!
//! Every record is one self-validating block sealed by
//! [`ccnvme_obs::seal::seal_block`]: magic, payload, CRC-32C checksum. A
//! freed slot is a zeroed header block — it fails the magic check, which
//! is the only "free" marker recovery needs. Records are only ever
//! written as the commit member of a local ccNVMe transaction, so a
//! crash either leaves the old block (checksum holds, old state) or the
//! journal replays the new one (checksum holds, new state); a torn record
//! is impossible by the §4 contract — but the decoder still refuses one
//! defensively.

use ccnvme_obs::seal::{seal_block, sealed_payload};

/// Magic of a live intent-slot header block.
pub const INTENT_MAGIC: u64 = 0x4343_5458_5052_4550; // "CCTXPREP"

/// Magic of a decision record block.
pub const DECISION_MAGIC: u64 = 0x4343_5458_4443_4944; // "CCTXDCID"

/// Magic of the gtx high-water-mark record block.
pub const GTX_HWM_MAGIC: u64 = 0x4343_5458_4857_4d4b; // "CCTXHWMK"

/// Data blocks per intent slot — the most member writes one prepared
/// transaction may stage on one shard.
pub const SLOT_WRITE_CAP: usize = 8;

/// Decision word for COMMIT.
pub const DECISION_COMMIT: u64 = 1;

/// Decision word for ABORT.
pub const DECISION_ABORT: u64 = 2;

/// Geometry of one shard's window on its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    /// First LBA of the window on the device.
    pub base: u64,
    /// Client-visible data blocks `[0, data_blocks)`.
    pub data_blocks: u64,
    /// Intent slots after the data region.
    pub intent_slots: u64,
    /// Decision record blocks after the intent region (used by the
    /// coordinator role; participants keep the region for symmetry).
    pub decision_slots: u64,
}

impl ShardLayout {
    /// A small layout for tests and crash enumeration.
    pub fn small(base: u64) -> ShardLayout {
        ShardLayout {
            base,
            data_blocks: 256,
            intent_slots: 8,
            decision_slots: 64,
        }
    }

    /// A layout sized for bench runs.
    pub fn standard(base: u64) -> ShardLayout {
        ShardLayout {
            base,
            data_blocks: 8_192,
            intent_slots: 32,
            decision_slots: 8_192,
        }
    }

    /// Blocks per intent slot (header + staged data).
    pub const fn slot_blocks() -> u64 {
        1 + SLOT_WRITE_CAP as u64
    }

    /// Device LBA of intent slot `slot`'s header block.
    pub fn slot_header(&self, slot: u64) -> u64 {
        debug_assert!(slot < self.intent_slots);
        self.base + self.data_blocks + slot * Self::slot_blocks()
    }

    /// Device LBA of staged data block `j` of intent slot `slot`.
    pub fn slot_data(&self, slot: u64, j: u64) -> u64 {
        debug_assert!(j < SLOT_WRITE_CAP as u64);
        self.slot_header(slot) + 1 + j
    }

    /// Device LBA of decision record `i`.
    pub fn decision_lba(&self, i: u64) -> u64 {
        debug_assert!(i < self.decision_slots);
        self.base + self.data_blocks + self.intent_slots * Self::slot_blocks() + i
    }

    /// Device LBA of the gtx high-water-mark record (coordinator role):
    /// the durable ceiling of the ids ever handed out by `alloc_gtx`.
    pub fn gtx_hwm_lba(&self) -> u64 {
        self.base + self.data_blocks + self.intent_slots * Self::slot_blocks() + self.decision_slots
    }

    /// Total window length in blocks.
    pub fn total_blocks(&self) -> u64 {
        self.data_blocks + self.intent_slots * Self::slot_blocks() + self.decision_slots + 1
    }
}

fn le_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

/// Encodes an intent header block: the gtx plus the window-relative
/// target LBA of each staged write (staged data block `j` applies to
/// `lbas[j]`).
pub fn encode_intent(gtx: u64, lbas: &[u64]) -> Vec<u8> {
    assert!(lbas.len() <= SLOT_WRITE_CAP);
    let mut p = Vec::with_capacity(10 + 8 * lbas.len());
    p.extend_from_slice(&gtx.to_le_bytes());
    p.extend_from_slice(&(lbas.len() as u16).to_le_bytes());
    for &lba in lbas {
        p.extend_from_slice(&lba.to_le_bytes());
    }
    seal_block(INTENT_MAGIC, &p)
}

/// Decodes an intent header block; `None` for a free (zeroed) or
/// damaged slot.
pub fn decode_intent(block: &[u8]) -> Option<(u64, Vec<u64>)> {
    // Read before the seal is checked, the count only sizes the payload;
    // the seal then vouches for it.
    let count = u16::from_le_bytes(block.get(16..18)?.try_into().expect("2 bytes")) as usize;
    if count > SLOT_WRITE_CAP {
        return None;
    }
    let p = sealed_payload(block, INTENT_MAGIC, 10 + 8 * count)?;
    let lbas = (0..count).map(|j| le_u64(p, 10 + 8 * j)).collect();
    Some((le_u64(p, 0), lbas))
}

/// Encodes a gtx high-water-mark record block.
pub fn encode_gtx_hwm(hwm: u64) -> Vec<u8> {
    seal_block(GTX_HWM_MAGIC, &hwm.to_le_bytes())
}

/// Decodes the gtx high-water-mark record; `None` for a free (never
/// reserved) or damaged block.
pub fn decode_gtx_hwm(block: &[u8]) -> Option<u64> {
    sealed_payload(block, GTX_HWM_MAGIC, 8).map(|p| le_u64(p, 0))
}

/// Encodes a decision record block.
pub fn encode_decision(gtx: u64, commit: bool) -> Vec<u8> {
    let mut p = [0u8; 9];
    p[..8].copy_from_slice(&gtx.to_le_bytes());
    p[8] = if commit {
        DECISION_COMMIT as u8
    } else {
        DECISION_ABORT as u8
    };
    seal_block(DECISION_MAGIC, &p)
}

/// Decodes a decision record block; `None` for a free or damaged slot.
pub fn decode_decision(block: &[u8]) -> Option<(u64, bool)> {
    let p = sealed_payload(block, DECISION_MAGIC, 9)?;
    match p[8] as u64 {
        DECISION_COMMIT => Some((le_u64(p, 0), true)),
        DECISION_ABORT => Some((le_u64(p, 0), false)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use ccnvme_block::BLOCK_SIZE;

    use super::*;

    #[test]
    fn intent_round_trips() {
        let block = encode_intent(42, &[7, 9, 200]);
        assert_eq!(block.len(), BLOCK_SIZE as usize);
        assert_eq!(decode_intent(&block), Some((42, vec![7, 9, 200])));
    }

    #[test]
    fn free_and_damaged_slots_decode_to_none() {
        assert_eq!(decode_intent(&vec![0u8; BLOCK_SIZE as usize]), None);
        let mut block = encode_intent(1, &[0]);
        block[9] ^= 0xff; // Damage the gtx under the checksum.
        assert_eq!(decode_intent(&block), None);
        assert_eq!(decode_decision(&vec![0u8; BLOCK_SIZE as usize]), None);
        let mut d = encode_decision(3, true);
        d[16] = 9; // Not a valid decision word.
        assert_eq!(decode_decision(&d), None);
    }

    #[test]
    fn decision_round_trips_both_ways() {
        assert_eq!(decode_decision(&encode_decision(5, true)), Some((5, true)));
        assert_eq!(
            decode_decision(&encode_decision(6, false)),
            Some((6, false))
        );
    }

    #[test]
    fn layout_regions_do_not_overlap() {
        let l = ShardLayout::small(1_000);
        let hdr0 = l.slot_header(0);
        assert_eq!(hdr0, 1_000 + 256);
        assert!(l.slot_data(0, SLOT_WRITE_CAP as u64 - 1) < l.slot_header(1));
        let last_slot_end = l.slot_data(l.intent_slots - 1, SLOT_WRITE_CAP as u64 - 1);
        assert!(last_slot_end < l.decision_lba(0));
        assert!(l.decision_lba(l.decision_slots - 1) < l.gtx_hwm_lba());
        assert_eq!(l.gtx_hwm_lba(), l.base + l.total_blocks() - 1);
    }

    #[test]
    fn gtx_hwm_round_trips() {
        assert_eq!(decode_gtx_hwm(&encode_gtx_hwm(4096)), Some(4096));
        assert_eq!(decode_gtx_hwm(&vec![0u8; BLOCK_SIZE as usize]), None);
        let mut b = encode_gtx_hwm(7);
        b[9] ^= 0xff; // Damage the mark under the checksum.
        assert_eq!(decode_gtx_hwm(&b), None);
    }

    /// The wire cap on a `TX_PREPARE` capsule and the storage cap of an
    /// intent slot are the same limit; a client that passes the codec
    /// must never be bounced by the slot geometry.
    #[test]
    fn wire_prepare_cap_matches_intent_slot_cap() {
        assert_eq!(
            ccnvme_fabric::capsule::MAX_PREPARE_WRITES as usize,
            SLOT_WRITE_CAP
        );
    }
}
