//! On-disk layout of an MQFS volume.
//!
//! ```text
//! block 0                superblock
//! block 1                journal horizon (replay floor)
//! [inode bitmap]         1 block per 32768 inodes
//! [block bitmap]         1 block per 32768 blocks
//! [inode table]          16 inodes (256 B each) per block
//! [journal region]       split into per-queue areas by the engine
//! [data area]            everything else
//! ```
//!
//! The file-system area layout is shared by every variant (the paper
//! keeps "the file system area ... intact as in Ext4", §5.1); only the
//! interpretation of the journal region differs between the engines.

use ccnvme_block::BLOCK_SIZE;

/// Superblock magic ("MQFSv3\0\0"). The version byte names the on-disk
/// format: v1 mapped files with a pointer tree, v2 with extents
/// (`inode.rs`) and packed sorted directory entries, v3 keeps the
/// extents and links directory records (`dir.rs`); none mounts another.
pub const SB_MAGIC: u64 = 0x4d51_4653_7633_0000;

/// Bytes per on-disk inode.
pub const INODE_SIZE: u64 = 256;

/// Inodes per inode-table block.
pub const INODES_PER_BLOCK: u64 = BLOCK_SIZE / INODE_SIZE;

/// Bits per bitmap block.
pub const BITS_PER_BLOCK: u64 = BLOCK_SIZE * 8;

/// The root directory inode number.
pub const ROOT_INO: u64 = 1;

/// Geometry of a volume, derived from capacity and configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Total volume capacity in blocks.
    pub capacity: u64,
    /// Number of inodes.
    pub ninodes: u64,
    /// Journal region length in blocks.
    pub journal_len: u64,
}

impl Layout {
    /// Derives a layout: inodes scale with capacity (one per 16 blocks,
    /// capped), journal length from the configuration.
    pub fn new(capacity: u64, journal_len: u64) -> Self {
        let ninodes = (capacity / 16).clamp(1_024, 262_144);
        let l = Layout {
            capacity,
            ninodes,
            journal_len,
        };
        assert!(
            l.data_start() + 64 <= capacity,
            "volume too small for the requested layout"
        );
        l
    }

    /// Superblock location.
    pub fn superblock(&self) -> u64 {
        0
    }

    /// Journal horizon (replay floor) block.
    pub fn horizon(&self) -> u64 {
        1
    }

    /// First inode-bitmap block.
    pub fn inode_bitmap_start(&self) -> u64 {
        2
    }

    /// Number of inode-bitmap blocks.
    pub fn inode_bitmap_len(&self) -> u64 {
        self.ninodes.div_ceil(BITS_PER_BLOCK)
    }

    /// First block-bitmap block.
    pub fn block_bitmap_start(&self) -> u64 {
        self.inode_bitmap_start() + self.inode_bitmap_len()
    }

    /// Number of block-bitmap blocks.
    pub fn block_bitmap_len(&self) -> u64 {
        self.capacity.div_ceil(BITS_PER_BLOCK)
    }

    /// First inode-table block.
    pub fn inode_table_start(&self) -> u64 {
        self.block_bitmap_start() + self.block_bitmap_len()
    }

    /// Number of inode-table blocks.
    pub fn inode_table_len(&self) -> u64 {
        self.ninodes.div_ceil(INODES_PER_BLOCK)
    }

    /// First journal block.
    pub fn journal_start(&self) -> u64 {
        self.inode_table_start() + self.inode_table_len()
    }

    /// First data block.
    pub fn data_start(&self) -> u64 {
        self.journal_start() + self.journal_len
    }

    /// Inode-table block and byte offset of inode `ino`.
    pub fn inode_pos(&self, ino: u64) -> (u64, usize) {
        assert!(ino >= 1 && ino <= self.ninodes, "inode {ino} out of range");
        let idx = ino - 1;
        (
            self.inode_table_start() + idx / INODES_PER_BLOCK,
            ((idx % INODES_PER_BLOCK) * INODE_SIZE) as usize,
        )
    }

    /// Serializes the superblock.
    pub fn encode_superblock(&self) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE as usize];
        b[0..8].copy_from_slice(&SB_MAGIC.to_le_bytes());
        b[8..16].copy_from_slice(&self.capacity.to_le_bytes());
        b[16..24].copy_from_slice(&self.ninodes.to_le_bytes());
        b[24..32].copy_from_slice(&self.journal_len.to_le_bytes());
        b
    }

    /// Parses a superblock; `None` when the magic is wrong.
    pub fn decode_superblock(b: &[u8]) -> Option<Layout> {
        if b.len() < 32 {
            return None;
        }
        if u64::from_le_bytes(b[0..8].try_into().ok()?) != SB_MAGIC {
            return None;
        }
        Some(Layout {
            capacity: u64::from_le_bytes(b[8..16].try_into().ok()?),
            ninodes: u64::from_le_bytes(b[16..24].try_into().ok()?),
            journal_len: u64::from_le_bytes(b[24..32].try_into().ok()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let l = Layout::new(1 << 20, 4_096);
        assert!(l.superblock() < l.horizon());
        assert!(l.horizon() < l.inode_bitmap_start());
        assert!(l.inode_bitmap_start() + l.inode_bitmap_len() <= l.block_bitmap_start());
        assert!(l.block_bitmap_start() + l.block_bitmap_len() <= l.inode_table_start());
        assert!(l.inode_table_start() + l.inode_table_len() <= l.journal_start());
        assert!(l.journal_start() + l.journal_len <= l.data_start());
        assert!(l.data_start() < l.capacity);
    }

    #[test]
    fn superblock_roundtrip() {
        let l = Layout::new(1 << 20, 2_048);
        let b = l.encode_superblock();
        assert_eq!(Layout::decode_superblock(&b), Some(l));
    }

    #[test]
    fn inode_positions_do_not_collide() {
        let l = Layout::new(1 << 18, 1_024);
        let (b1, o1) = l.inode_pos(1);
        let (b2, o2) = l.inode_pos(2);
        assert!(b1 == b2 && o1 != o2);
        let (b17, _) = l.inode_pos(17);
        assert_eq!(b17, b1 + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inode_zero_rejected() {
        let l = Layout::new(1 << 18, 1_024);
        l.inode_pos(0);
    }

    #[test]
    fn bad_superblock_rejected() {
        assert!(Layout::decode_superblock(&[0u8; 4096]).is_none());
    }
}
