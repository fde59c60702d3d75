//! The persistent block store behind the simulated SSD.
//!
//! Blocks are 4 KB. `Media` separates *durable* media from the
//! *volatile write cache*: on a drive with a volatile cache (flash
//! without power-loss protection), a completed write sits in the cache
//! until a FLUSH command (or its FUA bit) pushes it to media. A power
//! failure destroys an arbitrary subset of the cache — the device may
//! have destaged any of it in the background — which is exactly the
//! hazard that journaling's FLUSH ordering points guard against.
//!
//! `Media` is the one model of that rule: the live [`BlockStore`]
//! keeps one under its lock, and a
//! [`PersistCursor`](crate::PersistCursor) replays the persistence log
//! into another, so a live snapshot and a log cut leave the same image.
//!
//! A block's content is a [`MediaBlock`]: one block of a host write's
//! buffer, kept by reference. The device copies nothing at its media
//! program; the write's source is immutable, so the store and the log
//! may share it with the host, and a crash image holds the same blocks
//! the store does.

use std::{ops::Deref, sync::Arc};

use ccnvme_obs::hash::IntMap;
use ccnvme_runtime::DetRng;
use parking_lot::Mutex;

/// Logical block size in bytes.
pub const BLOCK_SIZE: u64 = 4096;

/// What happens to blocks still sitting in the volatile cache at a
/// power cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheSurvival {
    /// Adversarial: the whole residual cache is lost.
    DropAll,
    /// Benign: every residual cached block happened to be destaged.
    KeepAll,
    /// Each residual cached block, taken in LBA order, was destaged
    /// with probability `keep_prob` under a generator seeded with
    /// `seed`.
    Subset {
        /// Seed of the subset decision.
        seed: u64,
        /// Probability that a cached block had reached the media.
        keep_prob: f64,
    },
}

/// One block of media content: block `index` of a shared, immutable
/// host buffer (the last block of a buffer may be short; a block built
/// from a `Vec` is the whole of it).
#[derive(Clone)]
pub struct MediaBlock {
    buf: Arc<Vec<u8>>,
    index: usize,
}

impl MediaBlock {
    /// Block `index` of `buf`, kept by reference.
    ///
    /// # Panics
    ///
    /// Panics if `buf` ends before block `index` starts.
    pub fn new(buf: Arc<Vec<u8>>, index: usize) -> MediaBlock {
        assert!(
            index * (BLOCK_SIZE as usize) < buf.len(),
            "block {index} lies past the buffer's end"
        );
        MediaBlock { buf, index }
    }

    /// The block's bytes.
    pub fn bytes(&self) -> &[u8] {
        let start = self.index * BLOCK_SIZE as usize;
        &self.buf[start..self.buf.len().min(start + BLOCK_SIZE as usize)]
    }

    /// The buffer the block lies in.
    pub fn buffer(&self) -> &Arc<Vec<u8>> {
        &self.buf
    }
}

impl Deref for MediaBlock {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

/// Equal bytes; the same block of the same buffer compares without
/// being read.
impl PartialEq for MediaBlock {
    fn eq(&self, other: &MediaBlock) -> bool {
        (Arc::ptr_eq(&self.buf, &other.buf) && self.index == other.index)
            || self.bytes() == other.bytes()
    }
}

impl From<Vec<u8>> for MediaBlock {
    fn from(data: Vec<u8>) -> MediaBlock {
        MediaBlock::new(Arc::new(data), 0)
    }
}

impl std::fmt::Debug for MediaBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MediaBlock({} B)", self.bytes().len())
    }
}

/// Durable blocks plus the volatile write cache over them.
pub(crate) struct Media {
    durable: IntMap<u64, MediaBlock>,
    cached: IntMap<u64, MediaBlock>,
}

impl Media {
    /// Media holding `durable`, with an empty cache.
    pub fn new(durable: IntMap<u64, MediaBlock>) -> Self {
        Media {
            durable,
            cached: IntMap::default(),
        }
    }

    /// Lands one block on media when `durable`, else in the cache,
    /// where it shadows the media's older version.
    pub fn write(&mut self, lba: u64, data: MediaBlock, durable: bool) {
        if durable {
            self.cached.remove(&lba);
            self.durable.insert(lba, data);
        } else {
            self.cached.insert(lba, data);
        }
    }

    /// Makes every cached block durable.
    pub fn flush(&mut self) {
        self.durable.extend(self.cached.drain());
    }

    /// The newest version of block `lba`: cached before durable.
    pub fn read(&self, lba: u64) -> Option<&MediaBlock> {
        self.cached.get(&lba).or_else(|| self.durable.get(&lba))
    }

    /// The blocks a power cut leaves: the durable ones plus the cached
    /// ones `cache` lets survive. A [`CacheSurvival::Subset`] is drawn
    /// in LBA order, so it depends on the seed alone, not on HashMap
    /// iteration order. The image holds the media's own blocks.
    pub fn image(&self, cache: &CacheSurvival) -> IntMap<u64, MediaBlock> {
        let mut image = self.durable.clone();
        // Keeping everything is the subset drawn with certainty.
        let (seed, keep_prob) = match *cache {
            CacheSurvival::DropAll => return image,
            CacheSurvival::KeepAll => (0, 1.0),
            CacheSurvival::Subset { seed, keep_prob } => (seed, keep_prob),
        };
        let mut cached: Vec<(&u64, &MediaBlock)> = self.cached.iter().collect();
        cached.sort_unstable_by_key(|(lba, _)| **lba);
        let mut rng = DetRng::new(seed);
        let kept = cached.into_iter().filter(|_| rng.chance(keep_prob));
        image.extend(kept.map(|(lba, data)| (*lba, data.clone())));
        image
    }
}

/// Sparse 4 KB-block storage: the live device's `Media`.
pub struct BlockStore {
    media: Mutex<Media>,
    /// Power-protected devices treat every completed write as durable.
    power_protected: bool,
}

impl BlockStore {
    /// Creates a store whose durable media holds the blocks of `image`,
    /// not copies of them (empty for a fresh device). `power_protected`
    /// disables the volatile cache (Optane-style drives).
    pub fn from_image(power_protected: bool, image: IntMap<u64, MediaBlock>) -> Self {
        BlockStore {
            media: Mutex::new(Media::new(image)),
            power_protected,
        }
    }

    /// Writes one block, keeping `data` itself (a reference into the
    /// host's buffer, not a copy), and returns whether it went to media:
    /// when `durable` (FUA or a commit barrier) or on a power-protected
    /// device. The one place a block is routed.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block.
    pub fn write_block(&self, lba: u64, data: MediaBlock, durable: bool) -> bool {
        assert_eq!(
            data.bytes().len() as u64,
            BLOCK_SIZE,
            "write must be one 4 KB block"
        );
        let durable = durable || self.power_protected;
        self.media.lock().write(lba, data, durable);
        durable
    }

    /// Copies the first `out.len()` bytes of block `lba` into `out`: an
    /// absent block reads as zeros, and a cached block wins over a
    /// durable one (it is the newest version).
    ///
    /// # Panics
    ///
    /// Panics if `out` is longer than one block.
    pub fn read_into(&self, lba: u64, out: &mut [u8]) {
        assert!(
            out.len() as u64 <= BLOCK_SIZE,
            "read must fit one 4 KB block"
        );
        match self.media.lock().read(lba) {
            Some(data) => out.copy_from_slice(&data.bytes()[..out.len()]),
            None => out.fill(0),
        }
    }

    /// The newest version of block `lba` as the store keeps it.
    pub fn block(&self, lba: u64) -> Option<MediaBlock> {
        self.media.lock().read(lba).cloned()
    }

    /// Makes every cached write durable.
    pub fn flush(&self) {
        self.media.lock().flush();
    }

    /// Number of blocks sitting in the volatile cache.
    pub fn dirty_count(&self) -> usize {
        self.media.lock().cached.len()
    }

    /// The blocks a power cut at this instant would leave, with `cache`
    /// deciding the fate of the cached ones. The store keeps running.
    pub fn image(&self, cache: &CacheSurvival) -> IntMap<u64, MediaBlock> {
        self.media.lock().image(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty store.
    fn empty(power_protected: bool) -> BlockStore {
        BlockStore::from_image(power_protected, IntMap::default())
    }

    /// Block `lba` as a read returns it.
    fn read(s: &BlockStore, lba: u64) -> Vec<u8> {
        let mut out = bytes(0);
        s.read_into(lba, &mut out);
        out
    }

    fn blk(byte: u8) -> MediaBlock {
        vec![byte; BLOCK_SIZE as usize].into()
    }

    fn bytes(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE as usize]
    }

    #[test]
    fn read_your_write() {
        let s = empty(false);
        s.write_block(5, blk(7), false);
        assert_eq!(read(&s, 5), bytes(7));
    }

    #[test]
    fn a_written_block_is_the_host_buffer_itself() {
        let s = empty(false);
        let buf = Arc::new([bytes(1), bytes(2), bytes(3)].concat());
        for i in 0..3 {
            s.write_block(20 + i as u64, MediaBlock::new(Arc::clone(&buf), i), false);
        }
        for i in 0..3u8 {
            let kept = s.block(20 + i as u64).expect("written");
            assert!(Arc::ptr_eq(kept.buffer(), &buf), "block {i} copied");
            assert_eq!(kept.bytes(), &bytes(i + 1)[..]);
        }
        assert_eq!(
            Arc::strong_count(&buf),
            4,
            "the test's handle and the three blocks"
        );
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let s = empty(false);
        assert_eq!(read(&s, 99), bytes(0));
        let mut prefix = [0xff; 100];
        s.read_into(99, &mut prefix);
        assert_eq!(prefix, [0; 100]);
    }

    #[test]
    fn cached_writes_lost_on_crash_without_flush() {
        let s = empty(false);
        assert!(!s.write_block(1, blk(1), false));
        assert!(s.image(&CacheSurvival::DropAll).is_empty());
        assert_eq!(s.image(&CacheSurvival::KeepAll).get(&1), Some(&blk(1)));
    }

    #[test]
    fn flushed_writes_survive_crash() {
        let s = empty(false);
        s.write_block(1, blk(1), false);
        s.flush();
        assert_eq!(s.dirty_count(), 0);
        let image = s.image(&CacheSurvival::DropAll);
        assert_eq!(image.get(&1), Some(&blk(1)));
    }

    #[test]
    fn fua_writes_survive_crash() {
        let s = empty(false);
        assert!(s.write_block(2, blk(9), true));
        let image = s.image(&CacheSurvival::DropAll);
        assert_eq!(image.get(&2), Some(&blk(9)));
    }

    #[test]
    fn power_protected_ignores_cache_semantics() {
        let s = empty(true);
        assert!(s.write_block(3, blk(4), false), "routed to media");
        assert_eq!(s.dirty_count(), 0);
        let image = s.image(&CacheSurvival::DropAll);
        assert_eq!(image.get(&3), Some(&blk(4)));
    }

    #[test]
    fn newest_version_wins_across_cache_and_media() {
        let s = empty(false);
        s.write_block(4, blk(1), true);
        s.write_block(4, blk(2), false);
        assert_eq!(read(&s, 4), bytes(2));
        let mut prefix = [0xff; 100];
        s.read_into(4, &mut prefix);
        assert_eq!(prefix, [2; 100]);
        // A power cut that drops the cache falls back to the media's.
        assert_eq!(s.image(&CacheSurvival::DropAll).get(&4), Some(&blk(1)));
        s.flush();
        assert_eq!(read(&s, 4), bytes(2));
    }

    #[test]
    fn crash_subset_is_deterministic() {
        let run = |seed| {
            let s = empty(false);
            for lba in 0..32 {
                s.write_block(lba, blk(lba as u8), lba % 3 == 0);
            }
            let cache = CacheSurvival::Subset {
                seed,
                keep_prob: 0.5,
            };
            let mut survivors: Vec<u64> = s.image(&cache).into_keys().collect();
            survivors.sort_unstable();
            survivors
        };
        assert_eq!(run(11), run(11));
        // Some cached writes survived and some did not.
        let n = run(11).len();
        assert!(n > 11 && n < 32, "{n}");
    }

    #[test]
    fn from_image_restores_media_without_a_copy() {
        let s = empty(false);
        s.write_block(10, blk(5), true);
        let image = s.image(&CacheSurvival::DropAll);
        let s2 = BlockStore::from_image(false, image.clone());
        assert_eq!(read(&s2, 10), bytes(5));
        let kept = s2.block(10).expect("restored");
        assert!(Arc::ptr_eq(kept.buffer(), image[&10].buffer()));
    }
}
