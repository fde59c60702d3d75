//! The stack's placement hash and its integer-keyed hash maps.
//!
//! [`fnv1a64`] decides where data goes: the MQFS name hash, the cluster
//! `HashRing` and the fabric initiator's trace ids. Its values place
//! blocks and requests, so they are part of the model and never change.
//! It is not an integrity check; [`crate::seal::crc32c`] is.
//!
//! [`IntMap`] / [`IntSet`] are the maps keyed by an LBA, token, inode,
//! transaction or group id on the operation path. Their hasher is one
//! rotate, xor and multiply per word (the Fx hash), where `std`'s
//! default SipHash costs a few dozen instructions. Nothing may depend on
//! their iteration order, no more than on `RandomState`'s. The hash has
//! no defence against keys crafted to collide: it is for ids the stack
//! hands out itself and for LBAs, which the device's capacity bounds,
//! not for arbitrary values a remote peer chooses.

use std::{
    collections::{HashMap, HashSet},
    hash::{BuildHasherDefault, Hasher},
};

/// 64-bit FNV-1a over `bytes`: the placement hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A hash map keyed by integers (or small tuples of them).
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A hash set of integers (or small tuples of them).
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// The hasher behind [`IntMap`] and [`IntSet`]: per word, rotate, xor
/// it in, multiply by an odd constant.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl IntHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The multiply leaves its best-mixed bits on top, and the table
    /// indexes buckets by the low ones: rotate them down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_match_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// The table picks a bucket by the hash's low bits: keys on an
    /// aligned stride (LBAs, tokens) must still spread over them. Without
    /// the rotate in `finish`, keys 4096 apart would share one bucket.
    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        let hash = |k: u64| {
            let mut h = IntHasher::default();
            h.write_u64(k);
            h.finish()
        };
        for stride in [1u64, 8, 4096, 1 << 32] {
            let buckets: IntSet<u64> = (0..1024).map(|i| hash(i * stride) & 1023).collect();
            assert!(
                buckets.len() >= 256,
                "stride {stride}: {} of 1024 buckets",
                buckets.len()
            );
        }
        let m: IntMap<(bool, u64), u8> = [((false, 7), 1), ((true, 7), 2)].into_iter().collect();
        assert_eq!((m[&(false, 7)], m[&(true, 7)]), (1, 2));
    }
}
