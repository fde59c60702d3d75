//! Consistent-hash routing: keys to shards via a virtual-node ring.
//!
//! The classic construction: every shard contributes `vnodes` points on
//! a 64-bit ring; a key routes to the owner of the first point at or
//! after its hash (wrapping). Adding a shard moves only the keys that
//! fall into the new shard's arcs — roughly `1/(n+1)` of them — which
//! is what lets a cluster grow without rehashing the world.

use ccnvme_obs::hash::fnv1a64;

/// A consistent-hash ring over `shards` shards.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)` pairs sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds a ring with `vnodes` virtual nodes per shard. The point
    /// set is a pure function of `(shard, vnode)`, so every client that
    /// agrees on the shard count agrees on the routing.
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for s in 0..shards {
            for v in 0..vnodes {
                let mut key = [0u8; 16];
                key[..8].copy_from_slice(&(s as u64).to_le_bytes());
                key[8..].copy_from_slice(&(v as u64).to_le_bytes());
                points.push((fnv1a64(&key), s));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Routes `key` to its owning shard.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        let h = fnv1a64(key);
        let i = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[i % self.points.len()];
        shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic() {
        let a = HashRing::new(4, 16);
        let b = HashRing::new(4, 16);
        for k in 0u64..256 {
            let key = k.to_le_bytes();
            assert_eq!(a.shard_of(&key), b.shard_of(&key));
        }
    }

    #[test]
    fn every_shard_owns_keys() {
        let ring = HashRing::new(4, 32);
        let mut counts = [0usize; 4];
        for k in 0u64..1_024 {
            counts[ring.shard_of(&k.to_le_bytes())] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 0, "shard {s} owns no keys");
        }
    }

    #[test]
    fn growing_the_ring_moves_a_minority_of_keys() {
        let before = HashRing::new(4, 32);
        let after = HashRing::new(5, 32);
        let moved = (0u64..2_048)
            .filter(|k| {
                let key = k.to_le_bytes();
                before.shard_of(&key) != after.shard_of(&key)
            })
            .count();
        // Consistent hashing moves ~1/5 of the keys; anything under half
        // proves we are not rehashing the world.
        assert!(moved < 1_024, "consistent hashing moved {moved}/2048 keys");
    }
}
