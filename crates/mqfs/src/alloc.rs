//! Block and inode allocators, backed by journaled bitmap blocks.
//!
//! The in-memory bitmaps are authoritative at runtime; every change also
//! updates the corresponding bitmap block in the buffer cache through
//! the caller's [`WriteSet`], so the transaction that depends on the
//! allocation journals it. After a crash, recovery replays the journaled
//! bitmap blocks and the allocators reload from disk.

use std::sync::Arc;

use ccnvme_runtime::RtMutex;

use crate::{
    buffer::{BufferCache, WriteSet, WHOLE},
    error::{FsError, FsResult},
    layout::{Layout, BITS_PER_BLOCK, INODES_PER_BLOCK},
};

struct Bitmap {
    words: Vec<u64>,
    free: u64,
    hint: u64,
    limit: u64,
}

impl Bitmap {
    fn new(limit: u64) -> Self {
        let words = vec![0u64; (limit as usize).div_ceil(64)];
        Bitmap {
            words,
            free: limit,
            hint: 0,
            limit,
        }
    }

    fn test(&self, idx: u64) -> bool {
        self.words[(idx / 64) as usize] >> (idx % 64) & 1 == 1
    }

    fn set(&mut self, idx: u64) {
        assert!(!self.test(idx), "double allocation of {idx}");
        self.words[(idx / 64) as usize] |= 1 << (idx % 64);
        self.free -= 1;
    }

    fn clear(&mut self, idx: u64) {
        assert!(self.test(idx), "double free of {idx}");
        self.words[(idx / 64) as usize] &= !(1 << (idx % 64));
        self.free += 1;
    }

    /// Finds a free bit starting the circular search at `start` (goal
    /// allocation: callers spread load across block groups, as ext4's
    /// allocator does).
    fn find_free_from(&mut self, start: u64) -> Option<u64> {
        if self.free == 0 {
            return None;
        }
        let n = self.limit;
        let start = start % n;
        for probe in 0..n {
            let idx = (start + probe) % n;
            if !self.test(idx) {
                self.hint = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }
}

struct AllocSt {
    blocks: Bitmap,
    inodes: Bitmap,
}

/// The volume's block and inode allocator.
pub struct Allocator {
    layout: Layout,
    cache: Arc<BufferCache>,
    st: RtMutex<AllocSt>,
}

impl Allocator {
    /// Creates an allocator for a freshly formatted volume: all metadata
    /// regions and the root inode are pre-reserved, and the bitmap blocks
    /// in the cache reflect that (recorded in `ws` for mkfs to write out).
    pub fn format(layout: Layout, cache: Arc<BufferCache>, ws: &mut WriteSet) -> Self {
        let alloc = Allocator {
            layout,
            cache: Arc::clone(&cache),
            st: RtMutex::new(AllocSt {
                blocks: Bitmap::new(layout.capacity),
                inodes: Bitmap::new(layout.ninodes),
            }),
        };
        {
            let mut st = alloc.st.lock();
            for lba in 0..layout.data_start() {
                st.blocks.set(lba);
            }
            // Inode numbers are 1-based; bit 0 = ino 1 (root).
            st.inodes.set(0);
            // Materialize the initial bitmap blocks as dirty cache entries.
            for b in 0..layout.block_bitmap_len() {
                let blk = cache.get_zeroed(layout.block_bitmap_start() + b);
                ws.update(&blk, WHOLE, |d| write_bitmap_window(&st.blocks, b, d));
            }
            for b in 0..layout.inode_bitmap_len() {
                let blk = cache.get_zeroed(layout.inode_bitmap_start() + b);
                ws.update(&blk, WHOLE, |d| write_bitmap_window(&st.inodes, b, d));
            }
        }
        alloc
    }

    /// Loads the allocator from the on-disk bitmaps (mount path; call
    /// after journal replay).
    pub fn load(layout: Layout, cache: Arc<BufferCache>) -> Self {
        let mut blocks = Bitmap::new(layout.capacity);
        let mut inodes = Bitmap::new(layout.ninodes);
        for b in 0..layout.block_bitmap_len() {
            let blk = cache.get(layout.block_bitmap_start() + b);
            blk.read(|d| read_bitmap_window(&mut blocks, b, d));
        }
        for b in 0..layout.inode_bitmap_len() {
            let blk = cache.get(layout.inode_bitmap_start() + b);
            blk.read(|d| read_bitmap_window(&mut inodes, b, d));
        }
        blocks.hint = layout.data_start();
        Allocator {
            layout,
            cache,
            st: RtMutex::new(AllocSt { blocks, inodes }),
        }
    }

    /// Allocates a block searching from `goal` (ext4-style goal
    /// allocation: a file's blocks stay near its block group, and
    /// unrelated files dirty *different* bitmap blocks).
    pub fn alloc_block_near(&self, goal: u64, ws: &mut WriteSet) -> FsResult<u64> {
        ccnvme_runtime::cpu(500);
        let goal = goal.clamp(self.layout.data_start(), self.layout.capacity - 1);
        let lba = {
            let mut st = self.st.lock();
            let lba = st.blocks.find_free_from(goal).ok_or(FsError::NoSpace)?;
            st.blocks.set(lba);
            lba
        };
        self.mark_bit(self.layout.block_bitmap_start(), lba, true, ws);
        Ok(lba)
    }

    /// Frees a block.
    pub fn free_block(&self, lba: u64, ws: &mut WriteSet) {
        self.st.lock().blocks.clear(lba);
        self.mark_bit(self.layout.block_bitmap_start(), lba, false, ws);
    }

    /// Allocates the first free inode at or after index `goal`, wrapping
    /// around. Callers pass a hash of the name, so unrelated files land
    /// in distinct inode-table blocks: their `fsync`s share no page, and
    /// the new inode is usually the only allocated one of its block (see
    /// [`Allocator::inode_alone_in_block`]).
    pub fn alloc_inode_near(&self, goal: u64, ws: &mut WriteSet) -> FsResult<u64> {
        let idx = {
            let mut st = self.st.lock();
            let idx = st.inodes.find_free_from(goal).ok_or(FsError::NoSpace)?;
            st.inodes.set(idx);
            idx
        };
        self.mark_bit(self.layout.inode_bitmap_start(), idx, true, ws);
        Ok(idx + 1)
    }

    /// Frees an inode.
    pub fn free_inode(&self, ino: u64, ws: &mut WriteSet) {
        let idx = ino - 1;
        self.st.lock().inodes.clear(idx);
        self.mark_bit(self.layout.inode_bitmap_start(), idx, false, ws);
    }

    /// Whether no inode other than `ino` is allocated in `ino`'s
    /// inode-table block: the block's slots are `INODES_PER_BLOCK`
    /// aligned bits of one bitmap word.
    pub fn inode_alone_in_block(&self, ino: u64) -> bool {
        let idx = ino - 1;
        let shift = idx % 64 / INODES_PER_BLOCK * INODES_PER_BLOCK;
        let word = self.st.lock().inodes.words[(idx / 64) as usize];
        word >> shift & ((1 << INODES_PER_BLOCK) - 1) == 1 << (idx % INODES_PER_BLOCK)
    }

    /// Free data blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.st.lock().blocks.free
    }

    /// Returns whether `lba` is currently allocated (fsck support).
    pub fn block_allocated(&self, lba: u64) -> bool {
        self.st.lock().blocks.test(lba)
    }

    /// Returns whether `ino` is currently allocated (fsck support).
    pub fn inode_allocated(&self, ino: u64) -> bool {
        self.st.lock().inodes.test(ino - 1)
    }

    /// Flips bit `idx` of the on-disk bitmap starting at block `start`:
    /// a one-byte write, as far as the journal is concerned.
    fn mark_bit(&self, start: u64, idx: u64, set: bool, ws: &mut WriteSet) {
        let blk = self.cache.get(start + idx / BITS_PER_BLOCK);
        let bit = idx % BITS_PER_BLOCK;
        let byte = (bit / 8) as usize;
        ws.update(&blk, byte..byte + 1, |d| {
            let mask = 1u8 << (bit % 8);
            if set {
                d[0] |= mask;
            } else {
                d[0] &= !mask;
            }
        });
    }
}

/// The bits of word `w` below `limit`: bit `i` of a bitmap is bit
/// `i % 64` of word `i / 64`, and a bitmap block is those words in
/// order, little-endian.
fn word_mask(limit: u64, w: usize) -> u64 {
    match limit.saturating_sub(w as u64 * 64) {
        64.. => !0,
        n => (1 << n) - 1,
    }
}

/// Copies the `window`-th bitmap-block worth of bits into `out`, a word
/// at a time; bits at or past the limit read as zero.
fn write_bitmap_window(bm: &Bitmap, window: u64, out: &mut [u8]) {
    let first = (window * BITS_PER_BLOCK / 64) as usize;
    for (w, bytes) in (first..).zip(out.chunks_exact_mut(8)) {
        let word = bm.words.get(w).map_or(0, |v| v & word_mask(bm.limit, w));
        bytes.copy_from_slice(&word.to_le_bytes());
    }
}

/// Loads the `window`-th bitmap-block worth of bits from `data`, OR-ing
/// in whole words; bits at or past the limit are ignored.
fn read_bitmap_window(bm: &mut Bitmap, window: u64, data: &[u8]) {
    let first = (window * BITS_PER_BLOCK / 64) as usize;
    let mut taken = 0;
    for (slot, bytes) in bm.words.iter_mut().skip(first).zip(data.chunks_exact(8)) {
        let word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        taken += (word & !*slot).count_ones();
        *slot |= word;
    }
    // Only the last word reaches past the limit, and no bit past it was
    // set before: each such bit was counted above, and is taken back.
    let last = bm.words.len() - 1;
    if (first..first + data.len() / 8).contains(&last) {
        let past = bm.words[last] & !word_mask(bm.limit, last);
        taken -= past.count_ones();
        bm.words[last] ^= past;
    }
    bm.free -= u64::from(taken);
}

#[cfg(test)]
pub(crate) mod tests {
    use ccnvme_sim::Sim;
    use parking_lot::Mutex;

    use super::*;

    /// Memory-backed device reused from the buffer-cache tests.
    struct MemDev {
        blocks: Mutex<std::collections::HashMap<u64, Vec<u8>>>,
    }

    impl ccnvme_block::BlockDevice for MemDev {
        fn submit_bio(&self, mut bio: ccnvme_block::Bio) {
            match bio.op {
                ccnvme_block::BioOp::Read => {
                    let blocks = self.blocks.lock();
                    let data = blocks
                        .get(&bio.lba)
                        .cloned()
                        .unwrap_or_else(|| vec![0; 4096]);
                    if let ccnvme_block::BioData::Dst(buf) = &bio.data {
                        buf.lock().copy_from_slice(&data);
                    }
                }
                ccnvme_block::BioOp::Write => {
                    if let ccnvme_block::BioData::Src(buf) = &bio.data {
                        self.blocks.lock().insert(bio.lba, buf.to_vec());
                    }
                }
                ccnvme_block::BioOp::Flush => {}
            }
            bio.complete(ccnvme_block::BioStatus::Ok);
        }

        fn num_queues(&self) -> usize {
            1
        }

        fn has_volatile_cache(&self) -> bool {
            false
        }

        fn capacity_blocks(&self) -> u64 {
            1 << 20
        }
    }

    /// A fresh in-memory device handle for allocator tests.
    pub(crate) fn memdev() -> mqfs_journal::Dev {
        Arc::new(MemDev {
            blocks: Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// A formatted allocator over a fresh device, and the set its
    /// callers record into.
    fn setup() -> (Layout, Arc<BufferCache>, Allocator, WriteSet) {
        let layout = Layout::new(1 << 16, 1_024);
        let cache = Arc::new(BufferCache::new(memdev()));
        let mut ws = WriteSet::default();
        let alloc = Allocator::format(layout, Arc::clone(&cache), &mut ws);
        (layout, cache, alloc, ws)
    }

    #[test]
    fn format_reserves_metadata_regions() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (layout, _, alloc, mut ws) = setup();
            let lba = alloc.alloc_block_near(0, &mut ws).expect("space");
            assert!(
                lba >= layout.data_start(),
                "first allocation in the data area"
            );
            assert!(alloc.inode_allocated(1), "root inode reserved");
        });
        sim.run();
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (_, _, alloc, mut ws) = setup();
            let before = alloc.free_blocks();
            let lba = alloc.alloc_block_near(0, &mut ws).expect("space");
            assert_eq!(alloc.free_blocks(), before - 1);
            alloc.free_block(lba, &mut ws);
            assert_eq!(alloc.free_blocks(), before);
        });
        sim.run();
    }

    #[test]
    fn inode_numbers_start_at_two_after_root() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (_, _, alloc, mut ws) = setup();
            assert_eq!(alloc.alloc_inode_near(0, &mut ws), Ok(2));
        });
        sim.run();
    }

    #[test]
    fn load_reconstructs_state_from_bitmap_blocks() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (layout, cache, alloc, mut ws) = setup();
            let lba = alloc.alloc_block_near(0, &mut ws).expect("space");
            let ino = alloc.alloc_inode_near(0, &mut ws).expect("space");
            // Reload from the same cache content (bitmap blocks updated).
            let alloc2 = Allocator::load(layout, cache);
            assert!(alloc2.block_allocated(lba));
            assert!(alloc2.inode_allocated(ino));
            assert_eq!(alloc2.free_blocks(), alloc.free_blocks());
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (_, _, alloc, mut ws) = setup();
            let lba = alloc.alloc_block_near(0, &mut ws).expect("space");
            alloc.free_block(lba, &mut ws);
            alloc.free_block(lba, &mut ws);
        });
        sim.run();
    }

    #[test]
    fn exhaustion_returns_no_space() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let (layout, _, alloc, mut ws) = setup();
            let mut n = 0u64;
            while alloc.alloc_block_near(0, &mut ws).is_ok() {
                n += 1;
            }
            assert_eq!(n, layout.capacity - layout.data_start());
            assert_eq!(alloc.alloc_block_near(0, &mut ws), Err(FsError::NoSpace));
        });
        sim.run();
    }
}

#[cfg(test)]
mod window_tests {
    use proptest::prelude::*;

    use super::*;

    /// Reference: the same window, one bit at a time.
    fn write_bits(bm: &Bitmap, window: u64, out: &mut [u8]) {
        let start_bit = window * BITS_PER_BLOCK;
        for byte in 0..out.len() as u64 {
            let mut v = 0u8;
            for bit in 0..8 {
                let idx = start_bit + byte * 8 + bit;
                if idx < bm.limit && bm.test(idx) {
                    v |= 1 << bit;
                }
            }
            out[byte as usize] = v;
        }
    }

    fn read_bits(bm: &mut Bitmap, window: u64, data: &[u8]) {
        let start_bit = window * BITS_PER_BLOCK;
        for byte in 0..data.len() as u64 {
            let v = data[byte as usize];
            for bit in 0..8 {
                let idx = start_bit + byte * 8 + bit;
                if idx < bm.limit && v >> bit & 1 == 1 {
                    bm.set(idx);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Against the bit loop, for limits on and off byte and word
        /// boundaries: the same bytes out of every window, and the same
        /// words and free count back in, garbage past the limit included.
        #[test]
        fn word_copy_matches_the_bit_loop(
            limit in prop_oneof![1u64..200, 1u64..3 * BITS_PER_BLOCK],
            bits in proptest::collection::vec(any::<u64>(), 0..300),
            garbage in any::<u8>(),
        ) {
            let mut bm = Bitmap::new(limit);
            for b in bits {
                if !bm.test(b % limit) {
                    bm.set(b % limit);
                }
            }
            for window in 0..limit.div_ceil(BITS_PER_BLOCK) {
                let (mut words, mut reference) = (vec![garbage; 4096], vec![!garbage; 4096]);
                write_bitmap_window(&bm, window, &mut words);
                write_bits(&bm, window, &mut reference);
                prop_assert_eq!(&words, &reference);
                // What mkfs wrote, with the tail past the limit dirtied.
                let tail = (limit - window * BITS_PER_BLOCK).min(BITS_PER_BLOCK) as usize;
                for bit in tail..BITS_PER_BLOCK as usize {
                    words[bit / 8] |= garbage & 1 << (bit % 8);
                }
                let (mut a, mut b) = (Bitmap::new(limit), Bitmap::new(limit));
                read_bitmap_window(&mut a, window, &words);
                read_bits(&mut b, window, &words);
                prop_assert_eq!((&a.words, a.free), (&b.words, b.free));
            }
        }
    }
}

#[cfg(test)]
mod goal_tests {
    use ccnvme_sim::Sim;

    use super::tests::memdev;
    use super::*;

    #[test]
    fn goal_allocation_spreads_across_bitmap_blocks() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let layout = Layout::new(1 << 18, 1_024); // 8 bitmap blocks.
            let dev = memdev();
            let cache = Arc::new(crate::buffer::BufferCache::new(dev));
            let alloc = Allocator::format(layout, cache, &mut WriteSet::default());
            // Allocations with different group goals dirty different
            // bitmap blocks.
            let (mut bm_a, mut bm_b) = (WriteSet::default(), WriteSet::default());
            alloc
                .alloc_block_near(layout.data_start(), &mut bm_a)
                .expect("space");
            let far_goal = layout.data_start() + 2 * BITS_PER_BLOCK;
            let lba_b = alloc.alloc_block_near(far_goal, &mut bm_b).expect("space");
            assert_ne!(
                bm_a.lbas().collect::<Vec<_>>(),
                bm_b.lbas().collect::<Vec<_>>(),
                "goals landed in the same bitmap block"
            );
            assert!(lba_b >= far_goal);
        });
        sim.run();
    }

    #[test]
    fn goal_wraps_when_group_is_full() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let layout = Layout::new(1 << 16, 512);
            let dev = memdev();
            let cache = Arc::new(crate::buffer::BufferCache::new(dev));
            let mut ws = WriteSet::default();
            let alloc = Allocator::format(layout, cache, &mut ws);
            // A goal near the very end of the volume must wrap around.
            let lba = alloc
                .alloc_block_near(layout.capacity - 1, &mut ws)
                .expect("space");
            assert!(lba == layout.capacity - 1 || lba >= layout.data_start());
        });
        sim.run();
    }

    #[test]
    fn inode_goal_spreads_table_blocks() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let layout = Layout::new(1 << 18, 1_024);
            let dev = memdev();
            let cache = Arc::new(crate::buffer::BufferCache::new(dev));
            let mut ws = WriteSet::default();
            let alloc = Allocator::format(layout, cache, &mut ws);
            let a = alloc.alloc_inode_near(0, &mut ws).expect("space");
            let b = alloc.alloc_inode_near(200, &mut ws).expect("space");
            let (blk_a, _) = layout.inode_pos(a);
            let (blk_b, _) = layout.inode_pos(b);
            assert_ne!(blk_a, blk_b, "inode goals share a table block");
        });
        sim.run();
    }

    #[test]
    fn an_inode_is_alone_until_a_table_block_neighbour_is_allocated() {
        Sim::run_main(1, || {
            let layout = Layout::new(1 << 18, 1_024);
            let cache = Arc::new(crate::buffer::BufferCache::new(memdev()));
            let mut ws = WriteSet::default();
            let alloc = Allocator::format(layout, cache, &mut ws);
            // Root is ino 1, in the first table block.
            let second = alloc.alloc_inode_near(1, &mut ws).expect("space");
            assert!(!alloc.inode_alone_in_block(second), "root shares it");
            // Slots 48..64 of the first bitmap word: the fourth block.
            let a = alloc.alloc_inode_near(50, &mut ws).expect("space");
            assert!(alloc.inode_alone_in_block(a));
            let b = alloc.alloc_inode_near(63, &mut ws).expect("space");
            assert!(!alloc.inode_alone_in_block(a) && !alloc.inode_alone_in_block(b));
            // The next block starts a new word's slots: nobody there.
            let c = alloc.alloc_inode_near(64, &mut ws).expect("space");
            assert!(alloc.inode_alone_in_block(c));
            alloc.free_inode(b, &mut ws);
            assert!(alloc.inode_alone_in_block(a));
        });
    }
}
