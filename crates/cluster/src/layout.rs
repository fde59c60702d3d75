//! On-media layout of a cluster shard: its block window, and the
//! coordinator's decision log in the PMR.
//!
//! ```text
//! base ─┬──────────────────────┬──────────────────────┬──────────┐
//!       │ data region          │ intent slots         │ gtx mark │
//!       │ [0, data_blocks)     │ hdr + SLOT_WRITE_CAP │ 1 block  │
//!       │                      │ data blocks each     │ (coord.) │
//!       └──────────────────────┴──────────────────────┴──────────┘
//!
//! PMR app region ─┬────────┬────────┬─────┬──────────────────────┐
//!                 │ line 0 │ line 1 │ ... │ line decision_slots-1│
//!                 └────────┴────────┴─────┴──────────────────────┘
//! ```
//!
//! Every block record is one self-validating block sealed by
//! [`ccnvme_obs::seal::seal_block`]: magic, payload, CRC-32C checksum. A
//! freed slot is a zeroed header block — it fails the magic check, which
//! is the only "free" marker recovery needs. Block records are only ever
//! written as the commit member of a local ccNVMe transaction, so a
//! crash either leaves the old block (checksum holds, old state) or the
//! journal replays the new one (checksum holds, new state); a torn record
//! is impossible by the §4 contract — but the decoder still refuses one
//! defensively.
//!
//! The coordinator's decisions are 64 B lines of the PMR application
//! sub-region (`ccnvme::PmrLayout::app_region_off`), one per decision,
//! sealed by [`ccnvme_obs::seal::seal_line`]: a decision is one posted
//! write plus one flush, with no block I/O (§4.4). A line is written once
//! and never overwritten; one that is torn, never written or foreign
//! decodes as no decision — a hole the mount steps over.

use ccnvme_obs::seal::{seal_block, seal_line, sealed_payload, verify_line};

/// Magic of a live intent-slot header block.
pub const INTENT_MAGIC: u64 = 0x4343_5458_5052_4550; // "CCTXPREP"

/// Magic of a decision line.
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

/// Bytes per decision line: one PMR write-combining line.
pub const DECISION_LINE: u64 = 64;

/// Seal epoch of every decision line. The log outlives every
/// re-format of the ccNVMe rings, so it takes no ring generation.
const DECISION_EPOCH: u32 = 0;

/// Geometry of one shard's window on its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    /// First LBA of the window on the device.
    pub base: u64,
    /// Client-visible data blocks `[0, data_blocks)`.
    pub data_blocks: u64,
    /// Intent slots after the data region.
    pub intent_slots: u64,
    /// Lines of the decision log in the PMR application region (used
    /// by the coordinator role; a participant's log stays empty).
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

    /// Device LBA of the gtx high-water-mark record (coordinator role):
    /// the durable ceiling of the ids ever handed out by `alloc_gtx`.
    pub fn gtx_hwm_lba(&self) -> u64 {
        self.base + self.data_blocks + self.intent_slots * Self::slot_blocks()
    }

    /// Total window length in blocks.
    pub fn total_blocks(&self) -> u64 {
        self.data_blocks + self.intent_slots * Self::slot_blocks() + 1
    }

    /// Bytes of the decision log, exact whatever `decision_slots` is.
    pub fn decision_log_bytes(&self) -> u128 {
        u128::from(self.decision_slots) * u128::from(DECISION_LINE)
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

/// Encodes a decision line: magic, gtx, decision word, sealed.
pub fn encode_decision(gtx: u64, commit: bool) -> [u8; 64] {
    let word = if commit {
        DECISION_COMMIT
    } else {
        DECISION_ABORT
    };
    let mut line = [0u8; 64];
    line[..8].copy_from_slice(&DECISION_MAGIC.to_le_bytes());
    line[8..16].copy_from_slice(&gtx.to_le_bytes());
    line[16..24].copy_from_slice(&word.to_le_bytes());
    seal_line(&mut line, DECISION_EPOCH);
    line
}

/// Decodes a decision line; `None` for an empty, torn or foreign line.
pub fn decode_decision(line: &[u8; 64]) -> Option<(u64, bool)> {
    if !verify_line(line, DECISION_EPOCH) || le_u64(line, 0) != DECISION_MAGIC {
        return None;
    }
    match le_u64(line, 16) {
        DECISION_COMMIT => Some((le_u64(line, 8), true)),
        DECISION_ABORT => Some((le_u64(line, 8), false)),
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
    }

    #[test]
    fn decision_round_trips_both_ways() {
        assert_eq!(decode_decision(&encode_decision(5, true)), Some((5, true)));
        assert_eq!(
            decode_decision(&encode_decision(6, false)),
            Some((6, false))
        );
    }

    /// A line that is empty, torn, foreign or carries no decision word
    /// is no decision: the mount sees a hole there.
    #[test]
    fn torn_or_foreign_decision_lines_decode_to_none() {
        assert_eq!(decode_decision(&[0u8; 64]), None);
        let line = encode_decision(3, true);
        // Torn: only the first half of the line landed, or only the
        // second.
        let mut front = [0u8; 64];
        front[..32].copy_from_slice(&line[..32]);
        assert_eq!(decode_decision(&front), None);
        let mut back = line;
        back[..32].fill(0);
        assert_eq!(decode_decision(&back), None);
        // One bit of the gtx flipped under the seal.
        let mut flipped = line;
        flipped[9] ^= 1;
        assert_eq!(decode_decision(&flipped), None);
        // Sealed, but under another record's magic.
        let mut foreign = line;
        foreign[..8].copy_from_slice(&GTX_HWM_MAGIC.to_le_bytes());
        seal_line(&mut foreign, DECISION_EPOCH);
        assert_eq!(decode_decision(&foreign), None);
        // Sealed with the right magic but no decision word.
        let mut wordless = line;
        wordless[16..24].copy_from_slice(&9u64.to_le_bytes());
        seal_line(&mut wordless, DECISION_EPOCH);
        assert_eq!(decode_decision(&wordless), None);
    }

    #[test]
    fn layout_regions_do_not_overlap() {
        let l = ShardLayout::small(1_000);
        let hdr0 = l.slot_header(0);
        assert_eq!(hdr0, 1_000 + 256);
        assert!(l.slot_data(0, SLOT_WRITE_CAP as u64 - 1) < l.slot_header(1));
        let last_slot_end = l.slot_data(l.intent_slots - 1, SLOT_WRITE_CAP as u64 - 1);
        assert_eq!(last_slot_end + 1, l.gtx_hwm_lba());
        assert_eq!(l.gtx_hwm_lba(), l.base + l.total_blocks() - 1);
        assert_eq!(l.decision_log_bytes(), 64 * 64);
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
