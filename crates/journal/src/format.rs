//! On-disk formats of the journal blocks.
//!
//! A *journal description block* (JD) carries the transaction ID, the
//! home-location mapping of every journaled block, per-block checksums
//! and the revocation list. In MQFS the JD is written last and doubles as
//! the commit point (`REQ_TX_COMMIT`) — ringing the doorbell plays the
//! role of the commit record (§5.1). The classic engines write the JD
//! first and seal the transaction with a separate *commit record*.

use ccnvme_block::BLOCK_SIZE;
use ccnvme_obs::seal::{crc32c, seal_block, sealed_payload};

/// Magic of a journal description block.
pub const JD_MAGIC: u64 = 0x4a44_5f4d_5146_5331;

/// Magic of a classic commit record.
pub const COMMIT_MAGIC: u64 = 0x434f_4d4d_4954_5f31;

/// Magic of a journal horizon block.
pub const HORIZON_MAGIC: u64 = 0x484f_525a_4d51_4653;

/// Bytes of the fixed JD header (magic, ID, three counts, padding).
const JD_HEADER: usize = 32;

/// Bytes one JD has for its records: entries, revokes and patches share
/// this budget, whatever the mix. The header sits before it, the
/// checksum in the last eight bytes of the block.
pub const JD_BUDGET: usize = BLOCK_SIZE as usize - JD_HEADER - 8;

/// Bytes one mapping entry takes in the JD.
pub const ENTRY_BYTES: usize = 24;

/// Bytes one revoke record takes in the JD.
pub const REVOKE_BYTES: usize = 8;

/// Bytes a patch record takes in the JD on top of its payload.
pub const PATCH_HEADER_BYTES: usize = 12;

/// Journaled blocks one chunk of a chained transaction carries at most.
/// Transactions larger than this are split into chained chunks sharing
/// one ID — the same strategy JBD2 uses for compounds larger than one
/// descriptor, and also what keeps a transaction smaller than the
/// hardware queue (a ccNVMe transaction cannot exceed the ring: its
/// members may only complete after the commit request).
pub(crate) const CHUNK_BLOCKS: usize = 64;

/// Revokes one chunk carries at most: what its JD holds beside a full
/// chunk of entries. A transaction with more spills them into further
/// chunks, exactly as it does its blocks.
pub(crate) const CHUNK_REVOKES: usize = (JD_BUDGET - CHUNK_BLOCKS * ENTRY_BYTES) / REVOKE_BYTES;

/// One mapping entry of a JD: a whole-block copy in the journal area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JdEntry {
    /// Home location in the file-system area.
    pub final_lba: u64,
    /// Where the journaled copy lives in the journal area.
    pub journal_lba: u64,
    /// Checksum of the journaled copy.
    pub checksum: u64,
}

/// One patch record of a JD: a byte-range overwrite of a home block,
/// carried inside the descriptor itself. The one sub-block record kind
/// there is — replaying it is idempotent whatever the bytes mean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JdPatch {
    /// Home location in the file-system area.
    pub final_lba: u64,
    /// First byte of the block the patch overwrites.
    pub offset: u16,
    /// The bytes written there (`offset + len` stays inside the block).
    pub bytes: Vec<u8>,
}

/// A decoded journal description block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JdBlock {
    /// Transaction ID.
    pub tx_id: u64,
    /// Journaled-block mappings.
    pub entries: Vec<JdEntry>,
    /// Revoked home locations (suppress older journal records).
    pub revokes: Vec<u64>,
    /// Byte-range overwrites of home blocks.
    pub patches: Vec<JdPatch>,
}

fn le_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

impl JdBlock {
    /// Bytes the records take out of [`JD_BUDGET`].
    pub fn record_bytes(&self) -> usize {
        self.entries.len() * ENTRY_BYTES
            + self.revokes.len() * REVOKE_BYTES
            + self
                .patches
                .iter()
                .map(JdPatch::record_bytes)
                .sum::<usize>()
    }

    /// Serializes into one 4 KB block.
    ///
    /// # Panics
    ///
    /// Panics if the records exceed [`JD_BUDGET`] or a patch reaches
    /// past the end of its block — the engines split a transaction into
    /// chained chunks before either can happen.
    pub fn encode(&self) -> Vec<u8> {
        encode_jd(
            self.tx_id,
            self.entries.iter().copied(),
            &self.revokes,
            self.patches
                .iter()
                .map(|p| (p.final_lba, p.offset, p.bytes.as_slice())),
        )
    }

    /// Parses a block; `None` if it is not a valid, untorn JD. Every
    /// count and length comes from the device: each is bounded before
    /// anything is sliced or allocated by it.
    pub fn decode(b: &[u8]) -> Option<JdBlock> {
        if b.len() != BLOCK_SIZE as usize || le_u64(b, 0) != JD_MAGIC {
            return None;
        }
        let count = |off: usize| u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"));
        let (n_entries, n_revokes, n_patches) =
            (count(16) as usize, count(20) as usize, count(24) as usize);
        // Each count alone first (their products cannot overflow after
        // that), then the fixed-size records together.
        if n_entries.max(n_revokes).max(n_patches) > JD_BUDGET {
            return None;
        }
        let fixed = n_entries * ENTRY_BYTES + n_revokes * REVOKE_BYTES;
        if fixed + n_patches * PATCH_HEADER_BYTES > JD_BUDGET {
            return None;
        }
        // Walk the patches; their lengths say where the records end.
        let records_end = JD_HEADER + JD_BUDGET;
        let mut patches = Vec::with_capacity(n_patches);
        let mut off = JD_HEADER + fixed;
        for _ in 0..n_patches {
            let body = off + PATCH_HEADER_BYTES;
            if body > records_end {
                return None;
            }
            let offset = u16::from_le_bytes([b[off + 8], b[off + 9]]);
            let len = u16::from_le_bytes([b[off + 10], b[off + 11]]) as usize;
            if offset as usize + len > BLOCK_SIZE as usize || body + len > records_end {
                return None;
            }
            patches.push(JdPatch {
                final_lba: le_u64(b, off),
                offset,
                bytes: b[body..body + len].to_vec(),
            });
            off = body + len;
        }
        if u64::from(crc32c(&b[0..off])) != le_u64(b, BLOCK_SIZE as usize - 8) {
            return None;
        }
        let entries = (0..n_entries)
            .map(|i| JD_HEADER + i * ENTRY_BYTES)
            .map(|at| JdEntry {
                final_lba: le_u64(b, at),
                journal_lba: le_u64(b, at + 8),
                checksum: le_u64(b, at + 16),
            })
            .collect();
        let revokes_at = JD_HEADER + n_entries * ENTRY_BYTES;
        let revokes = (0..n_revokes)
            .map(|i| le_u64(b, revokes_at + i * REVOKE_BYTES))
            .collect();
        Some(JdBlock {
            tx_id: le_u64(b, 8),
            entries,
            revokes,
            patches,
        })
    }
}

/// Serializes a JD from its records as they come: `entries`, then the
/// `revokes`, then each patch `(home LBA, offset, bytes)` with its bytes
/// borrowed from wherever they are (an engine passes slices of the very
/// images it journals). [`JdBlock::decode`] reads it back.
///
/// # Panics
///
/// Panics if the records exceed [`JD_BUDGET`] or a patch reaches past
/// the end of its block.
pub fn encode_jd<'a>(
    tx_id: u64,
    entries: impl IntoIterator<Item = JdEntry>,
    revokes: &[u64],
    patches: impl IntoIterator<Item = (u64, u16, &'a [u8])>,
) -> Vec<u8> {
    const END: usize = JD_HEADER + JD_BUDGET;
    let mut b = vec![0u8; BLOCK_SIZE as usize];
    let mut off = JD_HEADER;
    let room = |off: usize, len: usize| {
        assert!(off + len <= END, "JD records over budget");
    };
    let mut n_entries = 0u32;
    for e in entries {
        room(off, ENTRY_BYTES);
        b[off..off + 8].copy_from_slice(&e.final_lba.to_le_bytes());
        b[off + 8..off + 16].copy_from_slice(&e.journal_lba.to_le_bytes());
        b[off + 16..off + 24].copy_from_slice(&e.checksum.to_le_bytes());
        off += ENTRY_BYTES;
        n_entries += 1;
    }
    for r in revokes {
        room(off, REVOKE_BYTES);
        b[off..off + 8].copy_from_slice(&r.to_le_bytes());
        off += REVOKE_BYTES;
    }
    let mut n_patches = 0u32;
    for (final_lba, offset, bytes) in patches {
        assert!(
            offset as usize + bytes.len() <= BLOCK_SIZE as usize,
            "patch reaches past its block"
        );
        room(off, PATCH_HEADER_BYTES + bytes.len());
        b[off..off + 8].copy_from_slice(&final_lba.to_le_bytes());
        b[off + 8..off + 10].copy_from_slice(&offset.to_le_bytes());
        b[off + 10..off + 12].copy_from_slice(&(bytes.len() as u16).to_le_bytes());
        off += PATCH_HEADER_BYTES;
        b[off..off + bytes.len()].copy_from_slice(bytes);
        off += bytes.len();
        n_patches += 1;
    }
    b[0..8].copy_from_slice(&JD_MAGIC.to_le_bytes());
    b[8..16].copy_from_slice(&tx_id.to_le_bytes());
    b[16..20].copy_from_slice(&n_entries.to_le_bytes());
    b[20..24].copy_from_slice(&(revokes.len() as u32).to_le_bytes());
    b[24..28].copy_from_slice(&n_patches.to_le_bytes());
    // The checksum protects the JD itself against torn writes — and is
    // all the validity evidence a transaction made of patches alone
    // has, so it covers every patch body.
    let hsum = u64::from(crc32c(&b[0..off]));
    let end = BLOCK_SIZE as usize;
    b[end - 8..end].copy_from_slice(&hsum.to_le_bytes());
    b
}

impl JdPatch {
    /// Bytes this record takes out of [`JD_BUDGET`].
    pub fn record_bytes(&self) -> usize {
        PATCH_HEADER_BYTES + self.bytes.len()
    }
}

/// Serializes a classic commit record for `tx_id`.
pub fn encode_commit_record(tx_id: u64) -> Vec<u8> {
    seal_block(COMMIT_MAGIC, &tx_id.to_le_bytes())
}

/// Parses a commit record; returns the committed `tx_id` if valid.
pub fn decode_commit_record(b: &[u8]) -> Option<u64> {
    sealed_payload(b, COMMIT_MAGIC, 8).map(|p| le_u64(p, 0))
}

/// Serializes the journal horizon (replay floor): transactions with an
/// ID below the horizon are fully checkpointed and must not be replayed.
/// Persisted (FUA) *before* journal ring space is reused, so recovery
/// never replays a transaction whose newer superseding copies may have
/// been overwritten.
pub fn encode_horizon(h: u64) -> Vec<u8> {
    seal_block(HORIZON_MAGIC, &h.to_le_bytes())
}

/// Parses a horizon block; zero (replay everything) if invalid/blank.
pub fn decode_horizon(b: &[u8]) -> u64 {
    sealed_payload(b, HORIZON_MAGIC, 8).map_or(0, |p| le_u64(p, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(final_lba: u64, journal_lba: u64, checksum: u64) -> JdEntry {
        JdEntry {
            final_lba,
            journal_lba,
            checksum,
        }
    }

    #[test]
    fn jd_roundtrip() {
        let jd = JdBlock {
            tx_id: 42,
            entries: vec![entry(100, 9000, 7), entry(200, 9001, 8)],
            revokes: vec![55, 66],
            patches: vec![
                JdPatch {
                    final_lba: 300,
                    offset: 256,
                    bytes: vec![0xab; 256],
                },
                JdPatch {
                    final_lba: 301,
                    offset: 4095,
                    bytes: vec![1],
                },
            ],
        };
        let b = jd.encode();
        assert_eq!(JdBlock::decode(&b), Some(jd));
    }

    #[test]
    fn torn_jd_rejected() {
        let jd = JdBlock {
            tx_id: 1,
            ..JdBlock::default()
        };
        let mut b = jd.encode();
        b[9] ^= 0x10; // Corrupt the tx_id.
        assert!(JdBlock::decode(&b).is_none());
        // A record area ending mid-word (32 + 24 + 8 + 12 + 5 bytes): a
        // tear in any byte of it, the last one included, is caught.
        let jd = JdBlock {
            tx_id: 2,
            entries: vec![entry(100, 9000, 7)],
            revokes: vec![55],
            patches: vec![JdPatch {
                final_lba: 300,
                offset: 16,
                bytes: vec![0xab; 5],
            }],
        };
        let good = jd.encode();
        for i in 0..JD_HEADER + ENTRY_BYTES + REVOKE_BYTES + PATCH_HEADER_BYTES + 5 {
            let mut b = good.clone();
            b[i] ^= 0x01;
            assert!(
                JdBlock::decode(&b).is_none(),
                "tear at byte {i} not detected"
            );
        }
        assert_eq!(JdBlock::decode(&good), Some(jd));
    }

    #[test]
    fn garbage_block_rejected() {
        let b = vec![0xa5u8; BLOCK_SIZE as usize];
        assert!(JdBlock::decode(&b).is_none());
        assert!(decode_commit_record(&b).is_none());
    }

    /// A full budget of each record kind alone fits and round-trips.
    #[test]
    fn each_record_kind_can_fill_the_budget() {
        let full = [
            JdBlock {
                entries: vec![entry(1, 2, 3); JD_BUDGET / ENTRY_BYTES],
                ..JdBlock::default()
            },
            JdBlock {
                revokes: vec![9; JD_BUDGET / REVOKE_BYTES],
                ..JdBlock::default()
            },
            JdBlock {
                patches: vec![JdPatch {
                    final_lba: 5,
                    offset: 40,
                    bytes: vec![0x5a; JD_BUDGET - PATCH_HEADER_BYTES],
                }],
                ..JdBlock::default()
            },
        ];
        for jd in full {
            assert_eq!(JdBlock::decode(&jd.encode()), Some(jd));
        }
    }

    #[test]
    #[should_panic(expected = "over budget")]
    fn one_record_too_many_is_refused_at_encode() {
        JdBlock {
            revokes: vec![9; JD_BUDGET / REVOKE_BYTES + 1],
            ..JdBlock::default()
        }
        .encode();
    }

    /// Lengths read from the device are bounded before use: a patch that
    /// claims to reach past its home block, or past the JD's record
    /// area, is no JD — even under a matching checksum.
    #[test]
    fn out_of_range_patch_lengths_are_rejected() {
        let jd = JdBlock {
            tx_id: 3,
            patches: vec![JdPatch {
                final_lba: 7,
                offset: 4000,
                bytes: vec![1; 96],
            }],
            ..JdBlock::default()
        };
        let reseal = |b: &mut [u8], body: usize| {
            let sum = u64::from(crc32c(&b[..body]));
            b[4088..].copy_from_slice(&sum.to_le_bytes());
        };
        let good = jd.encode();
        let body = JD_HEADER + PATCH_HEADER_BYTES + 96;
        // offset + len one byte past the end of the home block.
        let mut b = good.clone();
        b[JD_HEADER + 8..JD_HEADER + 10].copy_from_slice(&4001u16.to_le_bytes());
        reseal(&mut b, body);
        assert!(JdBlock::decode(&b).is_none());
        // A length that runs past the record area into the checksum.
        let mut b = good.clone();
        b[JD_HEADER + 8..JD_HEADER + 10].copy_from_slice(&0u16.to_le_bytes());
        b[JD_HEADER + 10..JD_HEADER + 12].copy_from_slice(&4090u16.to_le_bytes());
        reseal(&mut b, 4088);
        assert!(JdBlock::decode(&b).is_none());
        // Counts whose records cannot fit, alone or multiplied out.
        for (at, n) in [(16, u32::MAX), (20, 508), (24, 339)] {
            let mut b = good.clone();
            b[at..at + 4].copy_from_slice(&n.to_le_bytes());
            assert!(JdBlock::decode(&b).is_none(), "count {n} at byte {at}");
        }
        assert_eq!(JdBlock::decode(&good), Some(jd));
    }

    #[test]
    fn horizon_roundtrip() {
        let b = encode_horizon(12345);
        assert_eq!(decode_horizon(&b), 12345);
        assert_eq!(decode_horizon(&vec![0u8; BLOCK_SIZE as usize]), 0);
    }

    #[test]
    fn commit_record_roundtrip() {
        let b = encode_commit_record(77);
        assert_eq!(decode_commit_record(&b), Some(77));
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let data = vec![3u8; 4096];
        let base = crc32c(&data);
        let mut tweaked = data.clone();
        tweaked[1000] ^= 1;
        assert_ne!(base, crc32c(&tweaked));
    }

    #[test]
    fn zero_block_is_not_a_jd() {
        let b = vec![0u8; BLOCK_SIZE as usize];
        assert!(JdBlock::decode(&b).is_none());
    }

    mod prop {
        use proptest::prelude::*;

        use super::*;

        /// Patches of random placement and length, cut off where the
        /// budget (after `fixed` bytes of entries and revokes) ends.
        fn patches_within(fixed: usize, raw: Vec<(u64, u16, Vec<u8>)>) -> Vec<JdPatch> {
            let mut left = JD_BUDGET - fixed;
            let mut out = Vec::new();
            for (final_lba, offset, mut bytes) in raw {
                let offset = offset % BLOCK_SIZE as u16;
                bytes.truncate(BLOCK_SIZE as usize - offset as usize);
                if left < PATCH_HEADER_BYTES {
                    break;
                }
                bytes.truncate(left - PATCH_HEADER_BYTES);
                left -= PATCH_HEADER_BYTES + bytes.len();
                out.push(JdPatch {
                    final_lba,
                    offset,
                    bytes,
                });
            }
            out
        }

        fn raw_patches() -> impl Strategy<Value = Vec<(u64, u16, Vec<u8>)>> {
            let body = proptest::collection::vec(any::<u8>(), 0..600);
            proptest::collection::vec((any::<u64>(), any::<u16>(), body), 0..24)
        }

        proptest! {
            #[test]
            fn roundtrip_random_jd(
                tx_id in any::<u64>(),
                lbas in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..64),
                revokes in proptest::collection::vec(any::<u64>(), 0..100),
                raw in raw_patches(),
            ) {
                let fixed = lbas.len() * ENTRY_BYTES + revokes.len() * REVOKE_BYTES;
                let jd = JdBlock {
                    tx_id,
                    entries: lbas.into_iter().map(|(f, j, c)| entry(f, j, c)).collect(),
                    revokes,
                    patches: patches_within(fixed, raw),
                };
                prop_assert!(jd.record_bytes() <= JD_BUDGET);
                prop_assert_eq!(JdBlock::decode(&jd.encode()), Some(jd));
            }

            /// Whatever 4 KB the device hands back, `decode` answers;
            /// half the cases wear a valid magic so the bounds checks,
            /// not the magic, are what is exercised.
            #[test]
            fn decode_of_arbitrary_bytes_never_panics(
                mut b in proptest::collection::vec(any::<u8>(), BLOCK_SIZE as usize),
                with_magic in any::<bool>(),
                small_counts in any::<bool>(),
            ) {
                if with_magic {
                    b[0..8].copy_from_slice(&JD_MAGIC.to_le_bytes());
                }
                if small_counts {
                    // Plausible counts reach the patch walk.
                    for at in [17, 18, 19, 21, 22, 23, 25, 26, 27] {
                        b[at] = 0;
                    }
                }
                let _ = JdBlock::decode(&b);
            }

            /// An inline-only transaction has no journal copy whose
            /// checksum could vouch for it: the JD's own checksum must
            /// catch a one-bit flip anywhere in a patch body.
            #[test]
            fn one_bit_flip_in_a_patch_body_is_rejected(
                raw in raw_patches(),
                pick in any::<usize>(),
                bit in 0u8..8,
            ) {
                let jd = JdBlock { tx_id: 9, patches: patches_within(0, raw), ..JdBlock::default() };
                let body_bytes: usize = jd.patches.iter().map(|p| p.bytes.len()).sum();
                if body_bytes == 0 {
                    return Ok(());
                }
                // The `pick`-th body byte, counted over all patches.
                let mut nth = pick % body_bytes;
                let mut at = JD_HEADER;
                for p in &jd.patches {
                    at += PATCH_HEADER_BYTES;
                    if nth < p.bytes.len() {
                        at += nth;
                        break;
                    }
                    nth -= p.bytes.len();
                    at += p.bytes.len();
                }
                let mut b = jd.encode();
                b[at] ^= 1 << bit;
                prop_assert!(JdBlock::decode(&b).is_none());
            }
        }
    }
}
