//! Directory-content encoding.
//!
//! Directory data blocks hold packed entries: `[ino u64][len u8][name]`
//! behind a 4-byte header (`count u16`, `used u16`), sorted by name. A
//! directory's in-memory state ([`DirState`]) indexes entries by name and
//! keeps each block's own entries in that order, so a single
//! create/unlink re-encodes exactly one block from exactly its entries —
//! the cost of an operation does not grow with the directory.

use std::collections::{BTreeMap, HashMap};

use ccnvme_block::BLOCK_SIZE;

use crate::error::{FsError, FsResult};

/// Maximum file-name length.
pub const MAX_NAME: usize = 255;

const HEADER: usize = 4;

/// Bytes one entry occupies in a directory block.
pub fn entry_size(name: &str) -> usize {
    8 + 1 + name.len()
}

/// Validates a directory-entry name.
pub fn check_name(name: &str) -> FsResult<()> {
    if name.is_empty() || name.len() > MAX_NAME || name.contains('/') || name == "." || name == ".."
    {
        return Err(FsError::InvalidName);
    }
    Ok(())
}

/// Serializes entries, in the order given, into one directory block.
fn encode_entries<'a>(entries: impl ExactSizeIterator<Item = (&'a String, &'a u64)>) -> Vec<u8> {
    let mut b = vec![0u8; BLOCK_SIZE as usize];
    b[0..2].copy_from_slice(&(entries.len() as u16).to_le_bytes());
    let mut off = HEADER;
    for (name, ino) in entries {
        b[off..off + 8].copy_from_slice(&ino.to_le_bytes());
        b[off + 8] = name.len() as u8;
        b[off + 9..off + 9 + name.len()].copy_from_slice(name.as_bytes());
        off += entry_size(name);
    }
    b[2..4].copy_from_slice(&(off as u16).to_le_bytes());
    b
}

/// Serializes the given entries into one directory block.
pub fn encode_block(entries: &[(String, u64)]) -> Vec<u8> {
    encode_entries(entries.iter().map(|(name, ino)| (name, ino)))
}

/// Parses one directory block (best-effort: a corrupt block yields the
/// entries that decode cleanly).
pub fn decode_block(b: &[u8]) -> Vec<(String, u64)> {
    if b.len() < HEADER {
        return Vec::new();
    }
    let count = u16::from_le_bytes([b[0], b[1]]) as usize;
    let mut entries = Vec::with_capacity(count);
    let mut off = HEADER;
    for _ in 0..count {
        if off + 9 > b.len() {
            break;
        }
        let ino = u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"));
        let len = b[off + 8] as usize;
        if off + 9 + len > b.len() {
            break;
        }
        match std::str::from_utf8(&b[off + 9..off + 9 + len]) {
            Ok(name) if ino != 0 => entries.push((name.to_string(), ino)),
            _ => break,
        }
        off += 9 + len;
    }
    entries
}

/// In-memory index of a directory: every entry by name, and every
/// block's entries in the order they are encoded (sorted by name), so a
/// lookup is one hash probe and re-encoding a block reads that block's
/// entries and nothing else. The three fields are private because they
/// move together: `insert`, `remove` and `from_blocks` are the only code
/// that touches them.
#[derive(Default)]
pub struct DirState {
    /// name → (child ino, block index within the directory file).
    map: HashMap<String, (u64, u32)>,
    /// Per directory block: name → child ino.
    blocks: Vec<BTreeMap<String, u64>>,
    /// Bytes used per directory block.
    used: Vec<usize>,
}

impl DirState {
    /// Rebuilds the index from decoded blocks.
    pub fn from_blocks(blocks: &[Vec<(String, u64)>]) -> DirState {
        let mut st = DirState::default();
        for (blk, entries) in blocks.iter().enumerate() {
            st.grow_to(blk as u32);
            for (name, ino) in entries {
                st.insert(name, *ino, blk as u32);
            }
        }
        st
    }

    /// Picks a block with room for `name`, or `None` (caller appends a
    /// new block).
    pub fn block_with_space(&self, name: &str) -> Option<u32> {
        let need = entry_size(name);
        self.used
            .iter()
            .position(|&u| u + need <= BLOCK_SIZE as usize)
            .map(|i| i as u32)
    }

    /// The bytes of directory block `blk`: what [`encode_block`] makes of
    /// its entries sorted by name.
    pub fn encode_block(&self, blk: u32) -> Vec<u8> {
        encode_entries(self.blocks[blk as usize].iter())
    }

    fn grow_to(&mut self, blk: u32) {
        while self.used.len() <= blk as usize {
            self.used.push(HEADER);
            self.blocks.push(BTreeMap::new());
        }
    }

    /// Inserts an entry into `blk`, updating usage. A name that is
    /// already present is replaced: its old entry leaves the block it was
    /// in.
    pub fn insert(&mut self, name: &str, ino: u64, blk: u32) {
        self.remove(name);
        self.grow_to(blk);
        self.used[blk as usize] += entry_size(name);
        self.blocks[blk as usize].insert(name.to_string(), ino);
        self.map.insert(name.to_string(), (ino, blk));
    }

    /// Removes an entry; returns its `(ino, blk)`.
    pub fn remove(&mut self, name: &str) -> Option<(u64, u32)> {
        let (ino, blk) = self.map.remove(name)?;
        self.used[blk as usize] -= entry_size(name);
        self.blocks[blk as usize].remove(name);
        Some((ino, blk))
    }

    /// The entry called `name`: its `(ino, blk)`.
    pub fn get(&self, name: &str) -> Option<(u64, u32)> {
        self.map.get(name).copied()
    }

    /// Returns whether an entry is called `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Every entry as `(name, ino)`, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map
            .iter()
            .map(|(name, (ino, _))| (name.as_str(), *ino))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns whether the directory has no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let entries = vec![
            ("hello".to_string(), 42),
            ("a-much-longer-file-name.txt".to_string(), 7),
        ];
        let b = encode_block(&entries);
        assert_eq!(decode_block(&b), entries);
    }

    #[test]
    fn empty_block_decodes_empty() {
        assert!(decode_block(&vec![0u8; 4096]).is_empty());
    }

    #[test]
    fn name_validation() {
        assert!(check_name("ok.txt").is_ok());
        assert!(check_name("").is_err());
        assert!(check_name("a/b").is_err());
        assert!(check_name(".").is_err());
        assert!(check_name("..").is_err());
        assert!(check_name(&"x".repeat(256)).is_err());
    }

    #[test]
    fn dir_state_insert_remove() {
        let mut st = DirState::default();
        st.insert("a", 2, 0);
        st.insert("b", 3, 0);
        assert_eq!(st.len(), 2);
        assert_eq!(st.remove("a"), Some((2, 0)));
        assert_eq!(st.remove("a"), None);
        assert_eq!(st.encode_block(0), encode_block(&[("b".to_string(), 3)]));
    }

    #[test]
    fn insert_of_a_present_name_replaces_it() {
        let mut st = DirState::default();
        st.insert("a", 2, 0);
        st.insert("b", 3, 0);
        st.insert("a", 9, 1);
        assert_eq!((st.len(), st.get("a")), (2, Some((9, 1))));
        assert_eq!(
            st.used,
            [HEADER + entry_size("b"), HEADER + entry_size("a")]
        );
        assert_eq!(st.encode_block(0), encode_block(&[("b".to_string(), 3)]));
        assert_eq!(st.encode_block(1), encode_block(&[("a".to_string(), 9)]));
    }

    #[test]
    fn create_and_unlink_in_the_last_block_change_only_its_bytes() {
        let mut st = DirState::default();
        for i in 0..1_000u64 {
            let name = format!("f{i:04}xyz");
            let blk = st.block_with_space(&name).unwrap_or(st.used.len() as u32);
            st.insert(&name, 100 + i, blk);
        }
        let last = st.used.len() as u32 - 1;
        assert_eq!(last, 4, "240 entries of 17 bytes fill a block");
        let encode_all = |st: &DirState| -> Vec<Vec<u8>> {
            (0..=last).map(|blk| st.encode_block(blk)).collect()
        };
        let before = encode_all(&st);
        st.insert(
            "a-new-file",
            7,
            st.block_with_space("a-new-file").expect("room"),
        );
        let created = encode_all(&st);
        assert_eq!(st.remove("f0999xyz"), Some((1_099, last)));
        let unlinked = encode_all(&st);
        for blk in 0..last as usize {
            assert_eq!(before[blk], created[blk]);
            assert_eq!(before[blk], unlinked[blk]);
        }
        let mut model = decode_block(&before[last as usize]);
        model.insert(0, ("a-new-file".to_string(), 7));
        assert_eq!(created[last as usize], encode_block(&model));
        assert_eq!(model.pop(), Some(("f0999xyz".to_string(), 1_099)));
        assert_eq!(unlinked[last as usize], encode_block(&model));
    }

    #[test]
    fn block_with_space_considers_usage() {
        let mut st = DirState::default();
        // Fill block 0 almost completely.
        let big = "n".repeat(200);
        let mut i = 0;
        while st.used.first().copied().unwrap_or(0) + entry_size(&big) <= 4096 {
            st.insert(&format!("{big}{i}"), 10 + i as u64, 0);
            i += 1;
        }
        assert_eq!(st.block_with_space(&big), None);
        st.insert("tiny", 1, 1);
        assert_eq!(st.block_with_space(&big), Some(1));
    }

    #[test]
    fn from_blocks_reconstructs() {
        let blocks = vec![
            vec![("x".to_string(), 5)],
            vec![("y".to_string(), 6), ("z".to_string(), 7)],
        ];
        let st = DirState::from_blocks(&blocks);
        assert_eq!(st.get("x"), Some((5, 0)));
        assert_eq!(st.get("z"), Some((7, 1)));
        assert_eq!(st.used, [HEADER + 10, HEADER + 20]);
        assert_eq!(st.encode_block(1), encode_block(&blocks[1]));
    }
}

#[cfg(test)]
mod prop_tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// DirState under random insert/remove sequences always agrees
        /// with a plain map, after every step: the name index, each
        /// block's bytes (those of the model's entries for that block,
        /// sorted), and what decoding those bytes rebuilds.
        #[test]
        fn dir_state_matches_model(
            ops in proptest::collection::vec((any::<bool>(), 0u8..24, 1u64..1000), 1..120),
        ) {
            let mut st = DirState::default();
            // name → (ino, blk), the block being the one picked at insert.
            let mut model: HashMap<String, (u64, u32)> = HashMap::new();
            for (insert, name_id, ino) in ops {
                // Long enough that 24 names need more than one block.
                let name = format!("file-{name_id}-{}", "n".repeat(200));
                if insert {
                    if let std::collections::hash_map::Entry::Vacant(slot) =
                        model.entry(name.clone())
                    {
                        let blk = st.block_with_space(&name).unwrap_or(st.used.len() as u32);
                        st.insert(&name, ino, blk);
                        slot.insert((ino, blk));
                    }
                } else {
                    prop_assert_eq!(st.remove(&name), model.remove(&name));
                }
                prop_assert_eq!(st.len(), model.len());
                for (name, entry) in &model {
                    prop_assert_eq!(st.get(name), Some(*entry));
                }
                let mut decoded = Vec::new();
                for blk in 0..st.used.len() as u32 {
                    let mut entries: Vec<(String, u64)> = model
                        .iter()
                        .filter(|(_, (_, b))| *b == blk)
                        .map(|(n, (i, _))| (n.clone(), *i))
                        .collect();
                    entries.sort();
                    let bytes = st.encode_block(blk);
                    prop_assert_eq!(&bytes, &encode_block(&entries));
                    prop_assert!(st.used[blk as usize] <= 4096);
                    prop_assert_eq!(decode_block(&bytes), entries);
                    decoded.push(decode_block(&bytes));
                }
                let back = DirState::from_blocks(&decoded);
                prop_assert_eq!(&back.map, &st.map);
                prop_assert_eq!(&back.blocks, &st.blocks);
                prop_assert_eq!(&back.used, &st.used);
            }
        }
    }
}
