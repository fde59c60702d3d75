//! The persistent block store behind the simulated SSD.
//!
//! Blocks are 4 KB. The store separates *durable* media from the
//! *volatile write cache*: on a drive with a volatile cache (flash
//! without power-loss protection), a completed write sits in the cache
//! until a FLUSH command (or its FUA bit) pushes it to media. A power
//! failure destroys an arbitrary subset of the cache — the device may
//! have destaged any of it in the background — which is exactly the
//! hazard that journaling's FLUSH ordering points guard against.

use std::collections::HashMap;

use ccnvme_runtime::DetRng;
use parking_lot::Mutex;

/// Logical block size in bytes.
pub const BLOCK_SIZE: u64 = 4096;

struct StoreState {
    durable: HashMap<u64, Vec<u8>>,
    volatile: HashMap<u64, Vec<u8>>,
    total_writes: u64,
    total_flushes: u64,
}

/// Sparse 4 KB-block storage with durable/volatile separation.
pub struct BlockStore {
    st: Mutex<StoreState>,
    /// Power-protected devices treat every completed write as durable.
    power_protected: bool,
}

impl BlockStore {
    /// Creates an empty store. `power_protected` disables the volatile
    /// cache (Optane-style drives).
    pub fn new(power_protected: bool) -> Self {
        BlockStore {
            st: Mutex::new(StoreState {
                durable: HashMap::new(),
                volatile: HashMap::new(),
                total_writes: 0,
                total_flushes: 0,
            }),
            power_protected,
        }
    }

    /// Creates a store whose durable media is pre-loaded with `image`
    /// (the reboot path after [`BlockStore::crash`]).
    pub fn from_image(power_protected: bool, image: HashMap<u64, Vec<u8>>) -> Self {
        let s = BlockStore::new(power_protected);
        s.st.lock().durable = image;
        s
    }

    /// Writes one block, keeping `data` itself. `durable` forces media
    /// (FUA or no-cache device).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block.
    pub fn write_block(&self, lba: u64, data: Vec<u8>, durable: bool) {
        assert_eq!(
            data.len() as u64,
            BLOCK_SIZE,
            "write must be one 4 KB block"
        );
        let mut st = self.st.lock();
        st.total_writes += 1;
        if durable || self.power_protected {
            st.volatile.remove(&lba);
            st.durable.insert(lba, data);
        } else {
            st.volatile.insert(lba, data);
        }
    }

    /// Reads one block; absent blocks read as zeros. The cache is
    /// consulted first (it holds the newest version).
    pub fn read_block(&self, lba: u64) -> Vec<u8> {
        let mut out = vec![0; BLOCK_SIZE as usize];
        self.read_into(lba, &mut out);
        out
    }

    /// Copies the first `out.len()` bytes of block `lba` into `out`,
    /// with the same rules as [`BlockStore::read_block`]: an absent block
    /// reads as zeros and a cached block wins over a durable one.
    ///
    /// # Panics
    ///
    /// Panics if `out` is longer than one block.
    pub fn read_into(&self, lba: u64, out: &mut [u8]) {
        assert!(
            out.len() as u64 <= BLOCK_SIZE,
            "read must fit one 4 KB block"
        );
        let st = self.st.lock();
        match st.volatile.get(&lba).or_else(|| st.durable.get(&lba)) {
            Some(data) => out.copy_from_slice(&data[..out.len()]),
            None => out.fill(0),
        }
    }

    /// Makes every cached write durable; returns how many were destaged.
    pub fn flush(&self) -> usize {
        let mut st = self.st.lock();
        st.total_flushes += 1;
        let drained: Vec<(u64, Vec<u8>)> = st.volatile.drain().collect();
        let n = drained.len();
        for (lba, data) in drained {
            st.durable.insert(lba, data);
        }
        n
    }

    /// Number of blocks sitting in the volatile cache.
    pub fn dirty_count(&self) -> usize {
        self.st.lock().volatile.len()
    }

    /// Total write commands absorbed (statistics).
    pub fn total_writes(&self) -> u64 {
        self.st.lock().total_writes
    }

    /// Total FLUSH commands executed (statistics).
    pub fn total_flushes(&self) -> u64 {
        self.st.lock().total_flushes
    }

    /// Simulates power loss: the [`BlockStore::crash_snapshot`] becomes
    /// the durable media and the cache is lost. Returns the durable
    /// image for the reboot.
    pub fn crash(&self, seed: u64, keep_prob: f64) -> HashMap<u64, Vec<u8>> {
        let mut st = self.st.lock();
        st.durable = st.snapshot(seed, keep_prob);
        st.volatile.clear();
        st.durable.clone()
    }

    /// Snapshot of the durable media (graceful shutdown path).
    pub fn durable_image(&self) -> HashMap<u64, Vec<u8>> {
        self.st.lock().durable.clone()
    }

    /// Non-destructive crash snapshot: what the durable media would hold
    /// if power failed right now. The store keeps running.
    pub fn crash_snapshot(&self, seed: u64, keep_prob: f64) -> HashMap<u64, Vec<u8>> {
        self.st.lock().snapshot(seed, keep_prob)
    }
}

impl StoreState {
    /// The durable blocks plus the cached writes that survive a power
    /// cut, each independently with probability `keep_prob`. Drawn in
    /// LBA order, so the subset depends only on `seed`, not on HashMap
    /// iteration order.
    fn snapshot(&self, seed: u64, keep_prob: f64) -> HashMap<u64, Vec<u8>> {
        let mut rng = DetRng::new(seed);
        let mut image = self.durable.clone();
        let mut entries: Vec<(&u64, &Vec<u8>)> = self.volatile.iter().collect();
        entries.sort_by_key(|(lba, _)| **lba);
        for (lba, data) in entries {
            if rng.chance(keep_prob) {
                image.insert(*lba, data.clone());
            }
        }
        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE as usize]
    }

    #[test]
    fn read_your_write() {
        let s = BlockStore::new(false);
        s.write_block(5, blk(7), false);
        assert_eq!(s.read_block(5), blk(7));
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let s = BlockStore::new(false);
        assert_eq!(s.read_block(99), blk(0));
        let mut prefix = [0xff; 100];
        s.read_into(99, &mut prefix);
        assert_eq!(prefix, [0; 100]);
    }

    #[test]
    fn cached_writes_lost_on_crash_without_flush() {
        let s = BlockStore::new(false);
        s.write_block(1, blk(1), false);
        let image = s.crash(42, 0.0);
        assert!(image.is_empty());
    }

    #[test]
    fn flushed_writes_survive_crash() {
        let s = BlockStore::new(false);
        s.write_block(1, blk(1), false);
        s.flush();
        let image = s.crash(42, 0.0);
        assert_eq!(image.get(&1), Some(&blk(1)));
    }

    #[test]
    fn fua_writes_survive_crash() {
        let s = BlockStore::new(false);
        s.write_block(2, blk(9), true);
        let image = s.crash(1, 0.0);
        assert_eq!(image.get(&2), Some(&blk(9)));
    }

    #[test]
    fn power_protected_ignores_cache_semantics() {
        let s = BlockStore::new(true);
        s.write_block(3, blk(4), false);
        assert_eq!(s.dirty_count(), 0);
        let image = s.crash(1, 0.0);
        assert_eq!(image.get(&3), Some(&blk(4)));
    }

    #[test]
    fn newest_version_wins_across_cache_and_media() {
        let s = BlockStore::new(false);
        s.write_block(4, blk(1), true);
        s.write_block(4, blk(2), false);
        assert_eq!(s.read_block(4), blk(2));
        let mut prefix = [0xff; 100];
        s.read_into(4, &mut prefix);
        assert_eq!(prefix, [2; 100]);
        s.flush();
        assert_eq!(s.read_block(4), blk(2));
    }

    #[test]
    fn crash_subset_is_deterministic() {
        fn run() -> Vec<u64> {
            let s = BlockStore::new(false);
            for lba in 0..32 {
                s.write_block(lba, blk(lba as u8), false);
            }
            let mut survivors: Vec<u64> = s.crash(7, 0.5).into_keys().collect();
            survivors.sort_unstable();
            survivors
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_installs_the_snapshot_it_would_have_taken() {
        let s = BlockStore::new(false);
        for lba in 0..32 {
            s.write_block(lba, blk(lba as u8), lba % 3 == 0);
        }
        s.write_block(7, blk(0xee), false);
        let snapshot = s.crash_snapshot(11, 0.5);
        let image = s.crash(11, 0.5);
        assert_eq!(snapshot, image);
        assert_eq!(s.durable_image(), image);
        assert_eq!(s.dirty_count(), 0);
        // Some cached writes survived and some did not.
        assert!(image.len() > 11 && image.len() < 32, "{}", image.len());
    }

    #[test]
    fn from_image_restores_media() {
        let s = BlockStore::new(false);
        s.write_block(10, blk(5), true);
        let img = s.durable_image();
        let s2 = BlockStore::from_image(false, img);
        assert_eq!(s2.read_block(10), blk(5));
    }

    #[test]
    fn flush_reports_destaged_count() {
        let s = BlockStore::new(false);
        for lba in 0..5 {
            s.write_block(lba, blk(0), false);
        }
        assert_eq!(s.flush(), 5);
        assert_eq!(s.flush(), 0);
    }
}
