//! The stack's one checksum, its one 64 B line seal and its one sealed
//! 4 KB block record.
//!
//! Every integrity check on PMR, media and wire is FNV-1a: the 32-bit
//! hash seals 64 B PMR lines (ccNVMe SQE slots, ploc records, blackbox
//! records); the 64-bit one guards 4 KB blocks (journal records, cluster
//! records) and fabric capsules. Neither is cryptographic: they catch
//! torn writes and software bugs, the role of NVMe-oF's header digest.
//!
//! A sealed line carries its epoch (the PMR recovery generation) in
//! bytes 52..56 and [`fnv1a32`] of bytes 0..56 in 56..60. For an SQE
//! those are reserved Dwords 13 and 14, which the device-side decoder
//! ignores, so a sealed SQE is still a valid stock-NVMe command (Table 2
//! compatibility).
//!
//! A sealed block is `magic | payload | fnv1a64(magic‖payload)`,
//! zero-padded to 4 KB: the journal's commit record and horizon, and the
//! cluster's intent, decision and gtx high-water-mark records.

/// Byte offset of the seal epoch within a line.
const EPOCH_OFF: usize = 52;
/// Byte offset of the seal checksum within a line.
const CSUM_OFF: usize = 56;

/// 32-bit FNV-1a over `bytes`.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seals a 64 B line: `epoch` into bytes 52..56, then the checksum of
/// bytes 0..56 into 56..60.
pub fn seal_line(raw: &mut [u8; 64], epoch: u32) {
    raw[EPOCH_OFF..CSUM_OFF].copy_from_slice(&epoch.to_le_bytes());
    let sum = fnv1a32(&raw[..CSUM_OFF]);
    raw[CSUM_OFF..CSUM_OFF + 4].copy_from_slice(&sum.to_le_bytes());
}

/// The epoch a line was sealed under; `None` when its checksum does not
/// hold (torn mid-write, or never sealed).
pub fn sealed_epoch(raw: &[u8; 64]) -> Option<u32> {
    let sum = u32::from_le_bytes(raw[CSUM_OFF..CSUM_OFF + 4].try_into().expect("4 bytes"));
    let epoch = u32::from_le_bytes(raw[EPOCH_OFF..CSUM_OFF].try_into().expect("4 bytes"));
    (fnv1a32(&raw[..CSUM_OFF]) == sum).then_some(epoch)
}

/// Whether a line is whole and sealed under `epoch` — this life of its
/// ring, not a stale image from before a re-format.
pub fn verify_line(raw: &[u8; 64], epoch: u32) -> bool {
    sealed_epoch(raw) == Some(epoch)
}

/// Bytes of a sealed block record: one 4 KB block of the device.
const BLOCK_BYTES: usize = 4096;

/// Seals a one-block record: `magic` (little-endian), `payload`, then
/// [`fnv1a64`] of both, zero-padded to 4 KB.
pub fn seal_block(magic: u64, payload: &[u8]) -> Vec<u8> {
    let body = 8 + payload.len();
    let mut b = vec![0u8; BLOCK_BYTES];
    b[..8].copy_from_slice(&magic.to_le_bytes());
    b[8..body].copy_from_slice(payload);
    let sum = fnv1a64(&b[..body]);
    b[body..body + 8].copy_from_slice(&sum.to_le_bytes());
    b
}

/// The `len`-byte payload of a block [`seal_block`] sealed under `magic`;
/// `None` for a block of another size or magic, or whose checksum does
/// not hold (torn, or never written).
pub fn sealed_payload(block: &[u8], magic: u64, len: usize) -> Option<&[u8]> {
    let body = 8 + len;
    if block.len() != BLOCK_BYTES || body + 8 > BLOCK_BYTES || block[..8] != magic.to_le_bytes() {
        return None;
    }
    let sum = u64::from_le_bytes(block[body..body + 8].try_into().expect("8 bytes"));
    (fnv1a64(&block[..body]) == sum).then(|| &block[8..body])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_match_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn sealed_line_verifies_and_tears_are_detected() {
        let mut raw = [0u8; 64];
        raw[0] = 0x01;
        raw[8] = 42;
        seal_line(&mut raw, 3);
        assert!(verify_line(&raw, 3));
        assert_eq!(sealed_epoch(&raw), Some(3));
        // Wrong epoch: a line from a previous life of the ring.
        assert!(!verify_line(&raw, 4));
        // A torn byte anywhere under the checksum is caught.
        for i in 0..56 {
            let mut torn = raw;
            torn[i] ^= 0x80;
            assert!(!verify_line(&torn, 3), "tear at byte {i} not detected");
            assert_eq!(sealed_epoch(&torn), None);
        }
        // An unsealed (all-reserved-zero) line never verifies.
        let mut unsealed = [0u8; 64];
        unsealed[0] = 0x01;
        assert!(!verify_line(&unsealed, 0));
    }

    #[test]
    fn sealed_block_opens_only_whole_and_under_its_magic() {
        let b = seal_block(0x5ea1, b"payload");
        assert_eq!(b.len(), BLOCK_BYTES);
        assert_eq!(&b[..8], &0x5ea1_u64.to_le_bytes());
        assert_eq!(&b[8..15], b"payload");
        assert_eq!(&b[15..23], &fnv1a64(&b[..15]).to_le_bytes());
        assert!(b[23..].iter().all(|&x| x == 0), "zero-padded");
        assert_eq!(sealed_payload(&b, 0x5ea1, 7), Some(&b"payload"[..]));
        assert_eq!(sealed_payload(&b, 0x5eab, 7), None, "another magic");
        assert_eq!(sealed_payload(&b, 0x5ea1, 6), None, "another length");
        assert_eq!(sealed_payload(&b[..64], 0x5ea1, 7), None, "not a block");
        assert_eq!(sealed_payload(&b, 0x5ea1, BLOCK_BYTES), None);
        for i in 0..23 {
            let mut torn = b.clone();
            torn[i] ^= 0x80;
            assert_eq!(sealed_payload(&torn, 0x5ea1, 7), None, "tear at byte {i}");
        }
        assert_eq!(
            sealed_payload(&[0u8; BLOCK_BYTES], 0, 8),
            None,
            "blank block"
        );
    }
}
