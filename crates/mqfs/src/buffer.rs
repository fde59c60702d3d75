//! Buffer cache for metadata blocks (inode table, bitmaps, directory
//! and extent-leaf blocks).
//!
//! Each cached block carries a *page lock*: the serialization point the
//! paper's §5.3 identifies — threads updating disjoint inodes in the same
//! table block still contend on it. In the classic variants the lock is
//! held for the whole journal commit; MQFS's metadata shadow paging holds
//! it only long enough to copy the block.
//!
//! Content changes only through [`WriteSet::update`], which takes the
//! byte range the caller may touch, hands it that sub-slice and nothing
//! else, and notes block and range: the journal set of an operation
//! (§5.2) is the bytes it wrote, by construction rather than by
//! bookkeeping.

use std::{collections::BTreeMap, ops::Range, sync::Arc};

use ccnvme_block::{read_block, BlockBuf, BLOCK_SIZE};
use ccnvme_obs::{hash::IntMap, Counter};
use ccnvme_runtime::{RtCondvar, RtMutex};
use mqfs_journal::{ByteRanges, Dev};
use parking_lot::Mutex;

/// Content and state of one cached metadata block.
struct MetaData {
    /// Block content (always `BLOCK_SIZE` bytes once loaded).
    data: Vec<u8>,
    /// Dirty since the last journal commit that included it.
    dirty: bool,
    loaded: bool,
    /// Created zero-filled and not captured for a transaction since:
    /// what the device holds at this LBA is somebody else's old block,
    /// no base to patch, so every write until then counts as a write
    /// of the whole block.
    unbased: bool,
}

/// Page-lock state: one modifier at a time, any number of freezers.
#[derive(Default)]
struct Gate {
    /// A thread is mutating the page (brief, never across yields).
    modifying: bool,
    /// Journal commits holding the page frozen (JBD2 shadow buffers):
    /// modifications wait until every freeze thaws, but freezes stack —
    /// many fsyncs can journal the same page in one compound.
    frozen: u32,
}

/// One cached metadata block with an explicit page lock.
pub struct MetaBlock {
    lba: u64,
    gate: RtMutex<Gate>,
    gate_cv: RtCondvar,
    data: Mutex<MetaData>,
}

impl MetaBlock {
    /// A zero-filled block: to be read from the device on first use
    /// unless `loaded`, and with no base on the device to patch if
    /// `unbased`.
    fn new(lba: u64, loaded: bool, unbased: bool) -> Self {
        MetaBlock {
            lba,
            gate: RtMutex::new(Gate::default()),
            gate_cv: RtCondvar::new(),
            data: Mutex::new(MetaData {
                data: vec![0; BLOCK_SIZE as usize],
                dirty: false,
                loaded,
                unbased,
            }),
        }
    }

    /// The block's device address.
    pub fn lba(&self) -> u64 {
        self.lba
    }

    /// Takes the page lock for modification (blocking in virtual time
    /// while another modifier holds it or journal commits have it
    /// frozen — the serialization shadow paging removes, §5.3).
    fn acquire(&self) {
        let mut gate = self.gate.lock();
        while gate.modifying || gate.frozen > 0 {
            gate = self.gate_cv.wait(gate);
        }
        gate.modifying = true;
    }

    /// Releases the modification lock.
    fn release(&self) {
        let mut gate = self.gate.lock();
        assert!(gate.modifying, "releasing an unheld page lock");
        gate.modifying = false;
        drop(gate);
        self.gate_cv.notify_all();
    }

    /// Freezes the page for a journal commit: modifications block until
    /// the matching [`MetaBlock::thaw`], but other freezes stack.
    pub fn freeze(&self) {
        let mut gate = self.gate.lock();
        while gate.modifying {
            gate = self.gate_cv.wait(gate);
        }
        gate.frozen += 1;
    }

    /// Thaws one freeze.
    pub fn thaw(&self) {
        let mut gate = self.gate.lock();
        assert!(gate.frozen > 0, "thawing an unfrozen page");
        gate.frozen -= 1;
        let free = gate.frozen == 0;
        drop(gate);
        if free {
            self.gate_cv.notify_all();
        }
    }

    /// Runs `f` on the block content.
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.data.lock().data)
    }

    /// The metadata write path: page lock, mutate `range`, mark dirty,
    /// unlock. Returns the range a journal must carry for the write.
    /// Private — callers go through [`WriteSet::update`].
    fn update(&self, range: Range<usize>, f: impl FnOnce(&mut [u8])) -> Range<usize> {
        self.acquire();
        let journal = {
            let mut d = self.data.lock();
            f(&mut d.data[range.clone()]);
            d.dirty = true;
            if d.unbased {
                0..d.data.len()
            } else {
                range
            }
        };
        self.release();
        journal
    }

    /// Copies the content into a fresh, immutable block buffer (the
    /// shadow copy of §5.3) and clears the dirty flag. The copy is what
    /// a transaction journals or mkfs writes out — the device keeps it
    /// as is — so from here on the block has a base that sub-block
    /// writes can patch.
    pub fn shadow_copy(&self) -> BlockBuf {
        let mut d = self.data.lock();
        d.dirty = false;
        d.unbased = false;
        BlockBuf::new(d.data.clone())
    }
}

/// The range of a write that replaces a whole block.
pub const WHOLE: Range<usize> = 0..BLOCK_SIZE as usize;

/// The bytes of metadata blocks an operation wrote — its journal set,
/// as byte ranges per block. Recording is not optional, and cannot be
/// wrong: [`WriteSet::update`] is the only way to change a cached block
/// and its closure sees only the range that gets recorded. Ranges are
/// what the writer *declared*, not what a comparison found changed.
#[derive(Debug, Default, Clone)]
pub struct WriteSet(BTreeMap<u64, ByteRanges>);

impl WriteSet {
    /// Hands `f` the bytes `range` of `blk` to change, under the page
    /// lock, and records block and range (the whole block while it has
    /// no base on the device to patch — see [`BufferCache::get_zeroed`]).
    pub fn update(&mut self, blk: &MetaBlock, range: Range<usize>, f: impl FnOnce(&mut [u8])) {
        let journal = blk.update(range, f);
        self.0.entry(blk.lba).or_default().insert(journal);
    }

    /// Adds everything `other` recorded.
    pub fn merge(&mut self, other: &WriteSet) {
        for (lba, ranges) in &other.0 {
            self.0.entry(*lba).or_default().extend(ranges);
        }
    }

    /// The recorded blocks, ascending, each with its written ranges.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &ByteRanges)> {
        self.0.iter().map(|(lba, ranges)| (*lba, ranges))
    }

    /// The recorded LBAs, ascending.
    pub fn lbas(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.keys().copied()
    }

    /// The ranges recorded for `lba`, if any were.
    pub fn ranges(&self, lba: u64) -> Option<&ByteRanges> {
        self.0.get(&lba)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The metadata buffer cache.
pub struct BufferCache {
    dev: Dev,
    map: RtMutex<IntMap<u64, Arc<MetaBlock>>>,
    /// Misses that read the device (`mqfs.meta_reads`).
    reads: Arc<Counter>,
}

impl BufferCache {
    /// Creates an empty cache over `dev`, counting its device reads in
    /// the device's metrics registry.
    pub fn new(dev: Dev) -> Self {
        let reads = ccnvme_block::obs_of(dev.as_ref())
            .metrics
            .counter("mqfs.meta_reads");
        BufferCache {
            dev,
            map: RtMutex::new(IntMap::default()),
            reads,
        }
    }

    /// The cached block, or a new `MetaBlock::new(lba, loaded, unbased)`
    /// installed in its place.
    fn entry(&self, lba: u64, loaded: bool, unbased: bool) -> Arc<MetaBlock> {
        let mut map = self.map.lock();
        Arc::clone(
            map.entry(lba)
                .or_insert_with(|| Arc::new(MetaBlock::new(lba, loaded, unbased))),
        )
    }

    /// Returns the cached block, reading it from the device on a miss.
    pub fn get(&self, lba: u64) -> Arc<MetaBlock> {
        let blk = self.entry(lba, false, false);
        // Load outside the map lock; the page lock serializes loaders.
        let needs_load = !blk.data.lock().loaded;
        if needs_load {
            blk.acquire();
            let still_needs = !blk.data.lock().loaded;
            if still_needs {
                // A metadata read error is modeled as a kernel panic
                // (ext4 errors=panic): serving zeroed metadata would be
                // corruption, and threading fallibility through every
                // bitmap/pointer access is not worth it for the model.
                // Data-block read errors DO propagate as EIO (fs.rs).
                self.reads.inc();
                let data = read_block(&*self.dev, lba)
                    .unwrap_or_else(|st| panic!("metadata read failed at lba {lba}: {st:?}"));
                let mut d = blk.data.lock();
                d.data = data;
                d.loaded = true;
            }
            blk.release();
        }
        blk
    }

    /// Returns a zero-filled cached block without touching the device
    /// (for freshly allocated metadata such as extent-leaf blocks). Its
    /// first journaling is a full copy however few bytes were written:
    /// the device holds nothing at this LBA that a patch could patch.
    pub fn get_zeroed(&self, lba: u64) -> Arc<MetaBlock> {
        self.entry(lba, true, true)
    }

    /// Returns the cached block or, on a miss, a zero-filled one without
    /// touching the device — for a block whose device copy holds nothing
    /// live, such as an inode-table block none of whose other inodes is
    /// allocated (ext4's `__ext4_get_inode_loc` rule). Unlike
    /// [`BufferCache::get_zeroed`]'s, the block keeps the device copy as
    /// its base: the LBA always held this kind of block, so a write of a
    /// few bytes is journaled as those bytes.
    pub fn get_vacant(&self, lba: u64) -> Arc<MetaBlock> {
        self.entry(lba, true, false)
    }

    /// The cached block, if there is one. A block that is not cached
    /// has no unjournaled change.
    pub fn peek(&self, lba: u64) -> Option<Arc<MetaBlock>> {
        self.map.lock().get(&lba).cloned()
    }

    /// Drops a block from the cache (the block was freed).
    pub fn evict(&self, lba: u64) {
        self.map.lock().remove(&lba);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use ccnvme_block::{Bio, BioStatus};
    use ccnvme_sim::Sim;

    use super::*;

    /// A trivial in-memory device for cache tests.
    struct MemDev {
        blocks: Mutex<HashMap<u64, Vec<u8>>>,
    }

    impl ccnvme_block::BlockDevice for MemDev {
        fn submit_bio(&self, mut bio: Bio) {
            match bio.op {
                ccnvme_block::BioOp::Read => {
                    let blocks = self.blocks.lock();
                    let data = blocks
                        .get(&bio.lba)
                        .cloned()
                        .unwrap_or_else(|| vec![0; BLOCK_SIZE as usize]);
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
            bio.complete(BioStatus::Ok);
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

    fn memdev_with(lba: u64, byte: u8) -> Dev {
        let mut blocks = HashMap::new();
        blocks.insert(lba, vec![byte; BLOCK_SIZE as usize]);
        Arc::new(MemDev {
            blocks: Mutex::new(blocks),
        })
    }

    #[test]
    fn miss_loads_from_device() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let cache = BufferCache::new(memdev_with(7, 0xee));
            let blk = cache.get(7);
            assert_eq!(blk.read(|d| d[0]), 0xee);
        });
        sim.run();
    }

    #[test]
    fn hit_returns_same_block() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let cache = BufferCache::new(memdev_with(7, 1));
            let a = cache.get(7);
            let b = cache.get(7);
            assert!(Arc::ptr_eq(&a, &b));
        });
        sim.run();
    }

    #[test]
    fn page_lock_serializes_holders() {
        let mut sim = Sim::new(2);
        sim.spawn("main", 0, || {
            let cache = Arc::new(BufferCache::new(memdev_with(3, 0)));
            let blk = cache.get(3);
            blk.acquire();
            let blk2 = Arc::clone(&blk);
            let h = ccnvme_sim::spawn("w", 1, move || {
                blk2.acquire();
                let t = ccnvme_sim::now();
                blk2.release();
                t
            });
            ccnvme_sim::delay(1_000);
            blk.release();
            assert!(h.join() >= 1_000);
        });
        sim.run();
    }

    #[test]
    fn shadow_copy_snapshots_and_cleans() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let cache = BufferCache::new(memdev_with(9, 0xaa));
            let blk = cache.get(9);
            let mut ws = WriteSet::default();
            ws.update(&blk, 0..1, |d| d[0] = 0xbb);
            let recorded = ws.ranges(9).expect("the write recorded its block");
            assert_eq!(recorded.iter().collect::<Vec<_>>(), vec![0..1]);
            let copy = blk.shadow_copy();
            assert_eq!(copy[0], 0xbb);
            assert!(!blk.data.lock().dirty, "the shadow copy cleaned it");
            // Later mutation does not affect the shadow.
            ws.update(&blk, 0..1, |d| d[0] = 0xcc);
            assert_eq!(copy[0], 0xbb);
        });
        sim.run();
    }

    #[test]
    fn get_zeroed_skips_device_read() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let cache = BufferCache::new(memdev_with(5, 0xff));
            let blk = cache.get_zeroed(5);
            assert_eq!(blk.read(|d| d[0]), 0, "fresh block, not device content");
        });
        sim.run();
    }

    #[test]
    fn evict_forgets_block() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let cache = BufferCache::new(memdev_with(4, 1));
            let a = cache.get(4);
            cache.evict(4);
            let b = cache.get(4);
            assert!(!Arc::ptr_eq(&a, &b));
        });
        sim.run();
    }
}
