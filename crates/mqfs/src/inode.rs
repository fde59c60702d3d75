//! On-disk inode representation and block mapping.
//!
//! 256 bytes per inode. A file's blocks are mapped by *extents* — runs
//! of consecutive file blocks stored at consecutive LBAs — kept sorted
//! by file block:
//!
//! ```text
//! inode (256 B)   0 kind u16 | 2 nlink u16 | 8 size u64 | 16 mtime u64
//!                 24  13 extent slots x 16 B (the lowest 13 extents)
//!                 232 first extent-leaf LBA (0 = none) | 240 reserved
//! leaf  (4 KB)    0 next leaf LBA (0 = end of chain) | 8 reserved
//!                 16  255 extent slots x 16 B
//! slot  (16 B)    first_file_block u32 | len u32 | lba u64   (len 0 = unused)
//! ```
//!
//! Extents beyond the inline 13 spill, in order, into a chain of leaf
//! blocks (journaled metadata like directory blocks). A file that grows
//! contiguously is one extent however long it gets, so appending to it
//! changes the inode and nothing else; only a file fragmented into more
//! than 13 runs owns a leaf. The chain has no length limit, so the file
//! size is bounded by the 32-bit file-block index alone.

use std::ops::Range;

use ccnvme_block::BLOCK_SIZE;

use crate::layout::INODE_SIZE;

/// Extent slots inside the inode.
pub const INLINE_EXTENTS: usize = 13;

/// Extent slots per leaf block.
pub const EXTENTS_PER_LEAF: usize = (BLOCK_SIZE as usize - LEAF_HEADER) / SLOT_SIZE;

/// Maximum file size in blocks (file-block indices are 32-bit on disk).
pub const MAX_BLOCKS: u64 = u32::MAX as u64;

const SLOT_SIZE: usize = 16;
const INLINE_OFF: usize = 24;
const OVERFLOW_OFF: usize = INLINE_OFF + INLINE_EXTENTS * SLOT_SIZE;
const LEAF_HEADER: usize = 16;

/// Inode kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodeKind {
    /// Unallocated slot.
    Free,
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

impl InodeKind {
    fn to_u16(self) -> u16 {
        match self {
            InodeKind::Free => 0,
            InodeKind::File => 1,
            InodeKind::Dir => 2,
        }
    }

    fn from_u16(v: u16) -> InodeKind {
        match v {
            1 => InodeKind::File,
            2 => InodeKind::Dir,
            _ => InodeKind::Free,
        }
    }
}

/// `len` consecutive file blocks starting at `first_file_block`, stored
/// at `len` consecutive LBAs starting at `lba`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First file block covered.
    pub first_file_block: u32,
    /// Blocks covered (never 0 in a map).
    pub len: u32,
    /// LBA of the first block.
    pub lba: u64,
}

impl Extent {
    /// One past the last file block covered.
    pub fn end_file_block(&self) -> u64 {
        self.first_file_block as u64 + self.len as u64
    }

    /// The LBAs covered.
    pub fn lbas(&self) -> Range<u64> {
        self.lba..self.lba + self.len as u64
    }
}

/// Writes `extents` into consecutive 16-byte slots of `out`, zeroing
/// the slots left over.
fn encode_slots<'a>(extents: impl Iterator<Item = &'a Extent>, out: &mut [u8]) {
    out.fill(0);
    for (e, slot) in extents.zip(out.chunks_exact_mut(SLOT_SIZE)) {
        slot[0..4].copy_from_slice(&e.first_file_block.to_le_bytes());
        slot[4..8].copy_from_slice(&e.len.to_le_bytes());
        slot[8..16].copy_from_slice(&e.lba.to_le_bytes());
    }
}

/// Reads slots up to the first unused one.
fn decode_slots(b: &[u8]) -> impl Iterator<Item = Extent> + '_ {
    b.chunks_exact(SLOT_SIZE)
        .map(|s| Extent {
            first_file_block: u32::from_le_bytes(s[0..4].try_into().expect("4 bytes")),
            len: u32::from_le_bytes(s[4..8].try_into().expect("4 bytes")),
            lba: u64::from_le_bytes(s[8..16].try_into().expect("8 bytes")),
        })
        .take_while(|e| e.len != 0)
}

/// A file's block mapping: every extent (inline and spilled) sorted by
/// file block, never overlapping, with neighbours that continue each
/// other in both file and device space always merged — plus the LBAs of
/// the leaf blocks that hold the spilled ones.
///
/// The map decides *which* leaf stores which extent; allocating, freeing
/// and writing the leaf blocks is the file system's job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtentMap {
    extents: Vec<Extent>,
    leaves: Vec<u64>,
}

impl ExtentMap {
    /// Every extent, in file-block order.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// The leaf chain, in chain order.
    pub fn leaves(&self) -> &[u64] {
        &self.leaves
    }

    /// Maps a file block to its LBA (`None` = hole).
    pub fn lookup(&self, file_block: u64) -> Option<u64> {
        let i = self
            .extents
            .partition_point(|e| e.first_file_block as u64 <= file_block);
        let e = self.extents[..i].last()?;
        (file_block < e.end_file_block()).then(|| e.lba + (file_block - e.first_file_block as u64))
    }

    /// Maps the unmapped `file_block` to `lba`, extending a neighbouring
    /// extent in place when both the file block and the LBA continue it
    /// and opening a new extent otherwise. Returns the indices of the
    /// extent slots whose stored form changed: one for an in-place
    /// extension, everything from the change to the end when the list
    /// grew, and one past the new end as well when filling a hole joined
    /// two extents (the last slot fell out of use).
    pub fn insert(&mut self, file_block: u64, lba: u64) -> Range<usize> {
        assert!(file_block < MAX_BLOCKS, "file block {file_block} too big");
        let i = self
            .extents
            .partition_point(|e| e.first_file_block as u64 <= file_block);
        let joins_prev = i > 0 && {
            let p = &self.extents[i - 1];
            assert!(p.end_file_block() <= file_block, "block already mapped");
            p.end_file_block() == file_block && p.lbas().end == lba
        };
        let joins_next = self
            .extents
            .get(i)
            .is_some_and(|n| n.first_file_block as u64 == file_block + 1 && n.lba == lba + 1);
        match (joins_prev, joins_next) {
            (true, true) => {
                let next = self.extents.remove(i);
                self.extents[i - 1].len += 1 + next.len;
                i - 1..self.extents.len() + 1
            }
            (true, false) => {
                self.extents[i - 1].len += 1;
                i - 1..i
            }
            (false, true) => {
                let n = &mut self.extents[i];
                n.first_file_block -= 1;
                n.len += 1;
                n.lba -= 1;
                i..i + 1
            }
            (false, false) => {
                let e = Extent {
                    first_file_block: file_block as u32,
                    len: 1,
                    lba,
                };
                self.extents.insert(i, e);
                i..self.extents.len()
            }
        }
    }

    /// Takes extent `idx` back out (undoes an [`ExtentMap::insert`] that
    /// opened it).
    pub fn remove(&mut self, idx: usize) -> Extent {
        self.extents.remove(idx)
    }

    /// Leaf blocks the current extent count needs. The chain may be
    /// longer: it only ever grows (a leaf emptied by a merge stays, so
    /// nothing is freed outside an unlink's transaction).
    pub fn leaves_needed(&self) -> usize {
        self.extents
            .len()
            .saturating_sub(INLINE_EXTENTS)
            .div_ceil(EXTENTS_PER_LEAF)
    }

    /// The leaves that store any of the extent slots `changed`.
    pub fn leaf_span(changed: Range<usize>) -> Range<usize> {
        changed.start.saturating_sub(INLINE_EXTENTS) / EXTENTS_PER_LEAF
            ..changed
                .end
                .saturating_sub(INLINE_EXTENTS)
                .div_ceil(EXTENTS_PER_LEAF)
    }

    /// Appends a block to the leaf chain.
    pub fn push_leaf(&mut self, lba: u64) {
        self.leaves.push(lba);
    }

    /// Serializes leaf `k` of the chain.
    pub fn encode_leaf(&self, k: usize) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE as usize];
        let next = self.leaves.get(k + 1).copied().unwrap_or(0);
        b[0..8].copy_from_slice(&next.to_le_bytes());
        let stored = self
            .extents
            .iter()
            .skip(INLINE_EXTENTS + k * EXTENTS_PER_LEAF)
            .take(EXTENTS_PER_LEAF);
        encode_slots(stored, &mut b[LEAF_HEADER..]);
        b
    }

    /// Appends the content of the leaf block at `lba` (mount path: the
    /// chain is walked from the inode's overflow pointer); returns the
    /// next leaf in the chain, 0 at its end.
    pub fn load_leaf(&mut self, lba: u64, b: &[u8]) -> u64 {
        self.leaves.push(lba);
        self.extents.extend(decode_slots(&b[LEAF_HEADER..]));
        u64::from_le_bytes(b[0..8].try_into().expect("8 bytes"))
    }
}

/// An in-memory inode: the 256-byte on-disk form plus, in `map`, the
/// extents its leaf chain holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// Kind (file/dir/free).
    pub kind: InodeKind,
    /// Hard-link count.
    pub nlink: u16,
    /// File size in bytes.
    pub size: u64,
    /// Modification timestamp (virtual nanoseconds).
    pub mtime: u64,
    /// Block mapping (blocks no extent covers are holes).
    pub map: ExtentMap,
}

impl Inode {
    /// A fresh empty inode of the given kind.
    pub fn new(kind: InodeKind) -> Self {
        Inode {
            kind,
            nlink: if kind == InodeKind::Dir { 2 } else { 1 },
            size: 0,
            mtime: 0,
            map: ExtentMap::default(),
        }
    }

    /// File length in blocks.
    pub fn nblocks(&self) -> u64 {
        self.size.div_ceil(BLOCK_SIZE)
    }

    /// Serializes into the 256-byte on-disk form.
    pub fn encode(&self) -> [u8; INODE_SIZE as usize] {
        let mut b = [0u8; INODE_SIZE as usize];
        b[0..2].copy_from_slice(&self.kind.to_u16().to_le_bytes());
        b[2..4].copy_from_slice(&self.nlink.to_le_bytes());
        b[8..16].copy_from_slice(&self.size.to_le_bytes());
        b[16..24].copy_from_slice(&self.mtime.to_le_bytes());
        encode_slots(self.map.extents.iter(), &mut b[INLINE_OFF..OVERFLOW_OFF]);
        let overflow = self.map.leaves.first().copied().unwrap_or(0);
        b[OVERFLOW_OFF..OVERFLOW_OFF + 8].copy_from_slice(&overflow.to_le_bytes());
        b
    }

    /// Parses the on-disk form: the inode with its inline extents, and
    /// the overflow pointer — when non-zero the caller completes `map`
    /// by walking the leaf chain with [`ExtentMap::load_leaf`].
    pub fn decode(b: &[u8]) -> (Inode, u64) {
        assert!(b.len() >= INODE_SIZE as usize, "short inode buffer");
        let inode = Inode {
            kind: InodeKind::from_u16(u16::from_le_bytes([b[0], b[1]])),
            nlink: u16::from_le_bytes([b[2], b[3]]),
            size: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
            mtime: u64::from_le_bytes(b[16..24].try_into().expect("8 bytes")),
            map: ExtentMap {
                extents: decode_slots(&b[INLINE_OFF..OVERFLOW_OFF]).collect(),
                leaves: Vec::new(),
            },
        };
        let overflow = u64::from_le_bytes(
            b[OVERFLOW_OFF..OVERFLOW_OFF + 8]
                .try_into()
                .expect("8 bytes"),
        );
        (inode, overflow)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// `n` extents no two of which can merge (every LBA run is followed
    /// by a gap).
    fn fragmented(n: u64) -> ExtentMap {
        let mut map = ExtentMap::default();
        for i in 0..n {
            map.insert(i, 10_000 + 2 * i);
        }
        assert_eq!(map.extents().len() as u64, n);
        map
    }

    /// Encodes `ino` and every leaf, then decodes the lot again the way
    /// a mount does.
    fn roundtrip(ino: &Inode) -> Inode {
        let (mut back, mut next) = Inode::decode(&ino.encode());
        let mut k = 0;
        while next != 0 {
            assert_eq!(next, ino.map.leaves()[k], "chain order");
            next = back.map.load_leaf(next, &ino.map.encode_leaf(k));
            k += 1;
        }
        assert_eq!(k, ino.map.leaves().len(), "whole chain walked");
        back
    }

    #[test]
    fn encode_decode_roundtrip_inline() {
        for n in [0u64, 1, INLINE_EXTENTS as u64] {
            let mut ino = Inode::new(InodeKind::File);
            ino.size = 123_456;
            ino.mtime = 42;
            ino.map = fragmented(n);
            assert_eq!(ino.map.leaves_needed(), 0, "{n} extents fit inline");
            let (back, overflow) = Inode::decode(&ino.encode());
            assert_eq!(overflow, 0);
            assert_eq!(back, ino, "{n} extents");
        }
    }

    #[test]
    fn encode_decode_roundtrip_with_leaf_chain() {
        // One past the inline capacity, a full first leaf, and one past
        // that (two leaves).
        for n in [
            INLINE_EXTENTS + 1,
            INLINE_EXTENTS + EXTENTS_PER_LEAF,
            INLINE_EXTENTS + EXTENTS_PER_LEAF + 1,
        ] {
            let mut ino = Inode::new(InodeKind::File);
            ino.map = fragmented(n as u64);
            for k in 0..ino.map.leaves_needed() {
                ino.map.push_leaf(777 + k as u64);
            }
            let (_, overflow) = Inode::decode(&ino.encode());
            assert_eq!(overflow, 777, "overflow pointer names the first leaf");
            assert_eq!(roundtrip(&ino), ino, "{n} extents");
        }
    }

    #[test]
    fn leaf_emptied_by_a_merge_stays_in_the_chain() {
        let mut ino = Inode::new(InodeKind::File);
        // Every other block, LBAs in step: 14 extents, one in the leaf.
        for fb in (0..28).step_by(2) {
            ino.map.insert(fb, 100 + fb);
        }
        ino.map.push_leaf(777);
        assert_eq!(ino.map.leaves_needed(), 1);
        // Filling the first hole joins two extents: 13 are left, and the
        // reported range still reaches the slot that fell out of use.
        let changed = ino.map.insert(1, 101);
        assert_eq!(changed, 0..14);
        assert_eq!(ExtentMap::leaf_span(changed), 0..1);
        assert_eq!(ino.map.leaves_needed(), 0);
        assert_eq!(ino.map.leaves(), &[777]);
        assert_eq!(roundtrip(&ino), ino);
    }

    #[test]
    fn leaf_capacity_fills_the_block() {
        assert_eq!(EXTENTS_PER_LEAF, 255);
        assert_eq!(OVERFLOW_OFF + 8, 240);
        assert_eq!(ExtentMap::leaf_span(0..INLINE_EXTENTS), 0..0);
        assert_eq!(
            ExtentMap::leaf_span(INLINE_EXTENTS..INLINE_EXTENTS + 1),
            0..1
        );
        assert_eq!(ExtentMap::leaf_span(3..INLINE_EXTENTS + 256), 0..2);
        assert_eq!(
            ExtentMap::leaf_span(INLINE_EXTENTS + 255..INLINE_EXTENTS + 256),
            1..2
        );
    }

    #[test]
    fn contiguous_append_stays_one_extent() {
        let mut map = ExtentMap::default();
        for fb in 0..1_000u64 {
            map.insert(fb, 5_000 + fb);
        }
        assert_eq!(
            map.extents(),
            &[Extent {
                first_file_block: 0,
                len: 1_000,
                lba: 5_000
            }]
        );
        assert_eq!(map.lookup(999), Some(5_999));
        assert_eq!(map.lookup(1_000), None);
    }

    #[test]
    fn filling_a_hole_joins_both_neighbours() {
        let mut map = ExtentMap::default();
        map.insert(0, 100);
        map.insert(2, 102);
        assert_eq!(map.extents().len(), 2);
        assert_eq!(map.lookup(1), None, "hole");
        assert_eq!(map.insert(1, 101), 0..2, "slot 1 fell out of use");
        assert_eq!(map.extents().len(), 1);
        assert_eq!(map.lookup(2), Some(102));
    }

    #[test]
    fn fresh_dir_has_two_links() {
        assert_eq!(Inode::new(InodeKind::Dir).nlink, 2);
        assert_eq!(Inode::new(InodeKind::File).nlink, 1);
    }

    #[test]
    fn nblocks_rounds_up() {
        let mut ino = Inode::new(InodeKind::File);
        ino.size = 1;
        assert_eq!(ino.nblocks(), 1);
        ino.size = 4096;
        assert_eq!(ino.nblocks(), 1);
        ino.size = 4097;
        assert_eq!(ino.nblocks(), 2);
    }

    #[test]
    fn zeroed_bytes_decode_as_free() {
        let (d, overflow) = Inode::decode(&[0u8; 256]);
        assert_eq!(d.kind, InodeKind::Free);
        assert!(d.map.extents().is_empty() && overflow == 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random writes — holes, overwrites, allocations that do and do
        /// not continue the previous one — against a per-block model.
        #[test]
        fn extent_map_matches_block_model(
            // (file block, allocator mood): mood 0 continues the block
            // before (the goal policy's answer), mood 1 lands right in
            // front of the block after, anything else jumps.
            writes in proptest::collection::vec((0u64..96, 0u8..4), 1..200),
        ) {
            let mut map = ExtentMap::default();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut used: std::collections::HashSet<u64> = Default::default();
            let mut fresh = 1_000u64;
            for (fb, mood) in writes {
                if model.contains_key(&fb) {
                    // Overwrite: no mapping change.
                    prop_assert_eq!(map.lookup(fb), model.get(&fb).copied());
                    continue;
                }
                let wanted = match mood {
                    0 => fb.checked_sub(1).and_then(|p| model.get(&p)).map(|l| l + 1),
                    1 => model.get(&(fb + 1)).map(|l| l - 1),
                    _ => None,
                };
                let lba = match wanted {
                    Some(w) if !used.contains(&w) => w,
                    _ => {
                        fresh += 7;
                        fresh
                    }
                };
                used.insert(lba);
                let before = map.extents().to_vec();
                let changed = map.insert(fb, lba);
                model.insert(fb, lba);
                // Everything outside the reported range is untouched.
                prop_assert_eq!(&map.extents()[..changed.start], &before[..changed.start]);
                if map.extents().len() == before.len() {
                    prop_assert_eq!(&map.extents()[changed.end..], &before[changed.end..]);
                } else {
                    // Grown or shrunk: every slot in use before or after.
                    prop_assert_eq!(changed.end, map.extents().len().max(before.len()));
                }
            }
            // Lookup equality over the whole range, holes included.
            for fb in 0..100u64 {
                prop_assert_eq!((fb, map.lookup(fb)), (fb, model.get(&fb).copied()));
            }
            for w in map.extents().windows(2) {
                // Sorted and disjoint...
                prop_assert!(w[0].end_file_block() <= w[1].first_file_block as u64);
                // ...and nothing mergeable left unmerged.
                prop_assert!(
                    !(w[0].end_file_block() == w[1].first_file_block as u64
                        && w[0].lbas().end == w[1].lba),
                    "unmerged neighbours {:?} {:?}", w[0], w[1]
                );
            }
            prop_assert!(map.extents().iter().all(|e| e.len > 0));
            let blocks: u64 = map.extents().iter().map(|e| e.len as u64).sum();
            prop_assert_eq!(blocks, model.len() as u64);
        }
    }
}
