//! The stack's one checksum, its one 64 B line seal and its one sealed
//! 4 KB block record.
//!
//! Every integrity check on PMR, media and wire is [`crc32c`], CRC-32C
//! (Castagnoli), the checksum of ext4/JBD2 metadata and of NVMe-oF header
//! and data digests: it seals 64 B PMR lines (ccNVMe SQE slots, ploc
//! records, blackbox records), 4 KB block records (journal records,
//! cluster records), the journal's JD trailer and per-block entries, and
//! fabric capsules. A 64-bit checksum field carries it zero-extended. It
//! is not cryptographic: it catches torn writes and software bugs. x86-64
//! computes it with the SSE4.2 `crc32` instruction, 8 bytes at a time;
//! elsewhere (and under Miri) a 256-entry table does it a byte at a time,
//! with the same result.
//!
//! A sealed line carries its epoch (the PMR recovery generation) in
//! bytes 52..56 and [`crc32c`] of bytes 0..56 in 56..60. For an SQE
//! those are reserved Dwords 13 and 14, which the device-side decoder
//! ignores, so a sealed SQE is still a valid stock-NVMe command (Table 2
//! compatibility).
//!
//! A sealed block is `magic | payload | crc32c(magic‖payload)` (the CRC
//! in a 64-bit field), zero-padded to 4 KB: the journal's commit record
//! and horizon, and the cluster's intent, decision and gtx
//! high-water-mark records.

/// Byte offset of the seal epoch within a line.
const EPOCH_OFF: usize = 52;
/// Byte offset of the seal checksum within a line.
const CSUM_OFF: usize = 56;

/// CRC-32C (Castagnoli, reflected polynomial `0x82F63B78`, initial and
/// final value `!0`) of `bytes`: the stack's one integrity checksum.
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` needs SSE4.2, which the CPU was just
        // found to have.
        return unsafe { crc32c_sse42(bytes) };
    }
    crc32c_portable(bytes)
}

/// [`crc32c`] on the SSE4.2 `crc32` instruction: one per 8-byte word,
/// then one per tail byte.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = bytes.chunks_exact(8);
    let mut crc = u64::from(!0u32);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    // The instruction leaves the upper half zero.
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// The byte-at-a-time table for [`crc32c_portable`].
const CRC32C_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                (c >> 1) ^ 0x82F6_3B78
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// [`crc32c`] without the instruction.
fn crc32c_portable(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &b| {
        CRC32C_TABLE[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8)
    })
}

/// Seals a 64 B line: `epoch` into bytes 52..56, then the checksum of
/// bytes 0..56 into 56..60.
pub fn seal_line(raw: &mut [u8; 64], epoch: u32) {
    raw[EPOCH_OFF..CSUM_OFF].copy_from_slice(&epoch.to_le_bytes());
    let sum = crc32c(&raw[..CSUM_OFF]);
    raw[CSUM_OFF..CSUM_OFF + 4].copy_from_slice(&sum.to_le_bytes());
}

/// The epoch a line was sealed under; `None` when its checksum does not
/// hold (torn mid-write, or never sealed).
pub fn sealed_epoch(raw: &[u8; 64]) -> Option<u32> {
    let sum = u32::from_le_bytes(raw[CSUM_OFF..CSUM_OFF + 4].try_into().expect("4 bytes"));
    let epoch = u32::from_le_bytes(raw[EPOCH_OFF..CSUM_OFF].try_into().expect("4 bytes"));
    (crc32c(&raw[..CSUM_OFF]) == sum).then_some(epoch)
}

/// Whether a line is whole and sealed under `epoch` — this life of its
/// ring, not a stale image from before a re-format.
pub fn verify_line(raw: &[u8; 64], epoch: u32) -> bool {
    sealed_epoch(raw) == Some(epoch)
}

/// Bytes of a sealed block record: one 4 KB block of the device.
const BLOCK_BYTES: usize = 4096;

/// Seals a one-block record: `magic` (little-endian), `payload`, then
/// [`crc32c`] of both in 8 bytes, zero-padded to 4 KB.
pub fn seal_block(magic: u64, payload: &[u8]) -> Vec<u8> {
    let body = 8 + payload.len();
    let mut b = vec![0u8; BLOCK_BYTES];
    b[..8].copy_from_slice(&magic.to_le_bytes());
    b[8..body].copy_from_slice(payload);
    let sum = u64::from(crc32c(&b[..body]));
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
    (u64::from(crc32c(&block[..body])) == sum).then(|| &block[8..body])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 3720 §B.4's CRC-32C examples, plus the customary check value.
    const KNOWN: [(&[u8], u32); 4] = [
        (&[0x00; 32], 0x8A91_36AA),
        (&[0xFF; 32], 0x62A8_AB43),
        (
            &[
                0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D,
                0x0E, 0x0F, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x1B,
                0x1C, 0x1D, 0x1E, 0x1F,
            ],
            0x46DD_794E,
        ),
        (b"123456789", 0xE306_9283),
    ];

    #[test]
    fn crc32c_matches_the_published_vectors_on_both_paths() {
        for (bytes, want) in KNOWN {
            assert_eq!(
                crc32c_portable(bytes),
                want,
                "portable, {} bytes",
                bytes.len()
            );
            assert_eq!(crc32c(bytes), want, "dispatched, {} bytes", bytes.len());
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            if std::arch::is_x86_feature_detected!("sse4.2") {
                // SAFETY: SSE4.2 was just detected.
                let hw = unsafe { crc32c_sse42(bytes) };
                assert_eq!(hw, want, "sse4.2, {} bytes", bytes.len());
            }
        }
        assert_eq!(crc32c(b""), 0);
    }

    /// Every length and every start alignment: the instruction path's
    /// word loop and byte tail agree with the table byte for byte.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn crc32c_paths_agree_at_every_length_and_offset() {
        if !std::arch::is_x86_feature_detected!("sse4.2") {
            return;
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=4096 {
                let bytes = &buf[start..start + len];
                // SAFETY: SSE4.2 was checked on entry.
                let hw = unsafe { crc32c_sse42(bytes) };
                assert_eq!(hw, crc32c_portable(bytes), "start {start}, length {len}");
            }
        }
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
        assert_eq!(&b[15..23], &u64::from(crc32c(&b[..15])).to_le_bytes());
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
