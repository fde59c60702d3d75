//! Directory-content encoding: ext4's linked records.
//!
//! A directory block is a chain of records `[ino u64][rec_len u16]
//! [name_len u8][name]` whose `rec_len`s add up to exactly the block; a
//! record's bytes past its name are *slack*. An empty block is one
//! `ino 0` record spanning it, and `ino 0` appears nowhere but at a
//! block's start. A create takes the first record, in the first block
//! with room, whose slack fits: it fills an `ino 0` record, or splits a
//! live one (the live record's `rec_len` shrinks to its name, the new
//! record gets the rest). An unlink folds the record into its
//! predecessor's `rec_len`, or zeroes the `ino` of a block's first
//! record. Nothing else moves, so an operation writes a few bytes in
//! place and [`DirState`] hands back exactly those bytes as [`Edit`]s —
//! the ranges the journal carries.

use std::{
    collections::{BTreeMap, HashMap},
    ops::Range,
};

use ccnvme_block::BLOCK_SIZE;

use crate::error::{FsError, FsResult};

/// Maximum file-name length.
pub const MAX_NAME: usize = 255;

/// Bytes of a record before its name.
const HEADER: usize = 11;

const BLOCK: usize = BLOCK_SIZE as usize;

/// Validates a directory-entry name.
pub fn check_name(name: &str) -> FsResult<()> {
    if name.is_empty() || name.len() > MAX_NAME || name.contains('/') || name == "." || name == ".."
    {
        return Err(FsError::InvalidName);
    }
    Ok(())
}

/// One record of a directory block as the block holds it (`name` is
/// empty for an `ino 0` record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dirent {
    /// Byte offset in the block.
    pub off: usize,
    /// Child inode, 0 for a free record.
    pub ino: u64,
    /// Bytes up to the next record.
    pub rec_len: usize,
    /// Entry name.
    pub name: String,
}

/// Bytes to write at `off` of a directory block: one range a directory
/// operation declares written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// Byte offset in the block.
    pub off: usize,
    /// The new bytes there.
    pub bytes: Vec<u8>,
}

impl Edit {
    /// The bytes of the block this edit writes.
    pub fn range(&self) -> Range<usize> {
        self.off..self.off + self.bytes.len()
    }

    fn rec_len(off: usize, rec_len: usize) -> Edit {
        Edit {
            off: off + 8,
            bytes: (rec_len as u16).to_le_bytes().to_vec(),
        }
    }

    fn record(off: usize, ino: u64, rec_len: usize, name: &str) -> Edit {
        let mut bytes = Vec::with_capacity(HEADER + name.len());
        bytes.extend_from_slice(&ino.to_le_bytes());
        bytes.extend_from_slice(&(rec_len as u16).to_le_bytes());
        bytes.push(name.len() as u8);
        bytes.extend_from_slice(name.as_bytes());
        Edit { off, bytes }
    }
}

/// Writes an empty directory block: one `ino 0` record spanning it.
pub fn init_block(d: &mut [u8]) {
    d.fill(0);
    d[8..10].copy_from_slice(&(BLOCK as u16).to_le_bytes());
}

/// Parses a directory block's chain, `ino 0` records included. A chain
/// that breaks the format — a record shorter than its name, one that
/// crosses the block end, an `ino 0` past the first record, an invalid
/// name — is an error naming the record, not a shorter list.
pub fn decode_block(b: &[u8]) -> Result<Vec<Dirent>, String> {
    let mut recs = Vec::new();
    let mut off = 0;
    while off < b.len() {
        if off + HEADER > b.len() {
            return Err(format!("record at {off} crosses the block end"));
        }
        let ino = u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"));
        let rec_len = u16::from_le_bytes([b[off + 8], b[off + 9]]) as usize;
        let name_len = b[off + 10] as usize;
        if rec_len < HEADER + name_len || off + rec_len > b.len() {
            return Err(format!(
                "record at {off}: rec_len {rec_len} with a {name_len}-byte name"
            ));
        }
        let name = match ino {
            0 if off > 0 => return Err(format!("record at {off}: ino 0 past the first")),
            0 => "",
            _ => std::str::from_utf8(&b[off + HEADER..off + HEADER + name_len])
                .ok()
                .filter(|name| check_name(name).is_ok())
                .ok_or_else(|| format!("record at {off}: invalid name"))?,
        };
        recs.push(Dirent {
            off,
            ino,
            rec_len,
            name: name.to_string(),
        });
        off += rec_len;
    }
    Ok(recs)
}

/// A record as [`DirState`] tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rec {
    ino: u64,
    rec_len: usize,
    /// Header and name bytes (0 for an `ino 0` record).
    used: usize,
}

impl Rec {
    /// A record of `ino` (0: a free one) with a `name_len`-byte name.
    fn new(ino: u64, rec_len: usize, name_len: usize) -> Rec {
        let used = if ino == 0 { 0 } else { HEADER + name_len };
        Rec { ino, rec_len, used }
    }

    /// What a new record may take: all of a free record, the slack of a
    /// live one.
    fn room(&self) -> usize {
        self.rec_len - self.used
    }
}

/// One directory block's chain, by offset.
#[derive(Debug, Default, PartialEq, Eq)]
struct Block {
    recs: BTreeMap<usize, Rec>,
    /// The largest [`Rec::room`] in the block.
    room: usize,
}

impl Block {
    fn update_room(&mut self) {
        self.room = self.recs.values().map(Rec::room).max().unwrap_or(0);
    }
}

/// In-memory index of a directory: every entry by name, and every
/// block's records by offset with the block's largest room, so a lookup
/// is one hash probe and a create or unlink touches one block's records
/// and returns the bytes it changed. The fields are private because they
/// move together: `insert`, `remove`, `push_block` and `from_blocks` are
/// the only code that touches them.
#[derive(Default)]
pub struct DirState {
    /// name → (child ino, block index, offset of its record).
    map: HashMap<String, (u64, u32, usize)>,
    blocks: Vec<Block>,
}

impl DirState {
    /// Rebuilds the index from decoded blocks.
    pub fn from_blocks(blocks: &[Vec<Dirent>]) -> DirState {
        let mut st = DirState::default();
        for (blk, dirents) in blocks.iter().enumerate() {
            let mut block = Block::default();
            for d in dirents {
                block
                    .recs
                    .insert(d.off, Rec::new(d.ino, d.rec_len, d.name.len()));
                if d.ino != 0 {
                    st.map.insert(d.name.clone(), (d.ino, blk as u32, d.off));
                }
            }
            block.update_room();
            st.blocks.push(block);
        }
        st
    }

    /// The first block with room for `name`, or `None` (the caller
    /// appends one with [`DirState::push_block`]).
    pub fn block_with_space(&self, name: &str) -> Option<u32> {
        let need = HEADER + name.len();
        self.blocks
            .iter()
            .position(|b| b.room >= need)
            .map(|i| i as u32)
    }

    /// Appends an empty block — one the caller initialised with
    /// [`init_block`] — and returns its index.
    pub fn push_block(&mut self) -> u32 {
        let recs = BTreeMap::from([(0, Rec::new(0, BLOCK, 0))]);
        self.blocks.push(Block { recs, room: BLOCK });
        self.blocks.len() as u32 - 1
    }

    /// Adds `name` → `ino` to block `blk`, which must have room and the
    /// directory must not hold `name`; returns the bytes written: the
    /// new record, behind the `rec_len` of the record it split.
    pub fn insert(&mut self, name: &str, ino: u64, blk: u32) -> Vec<Edit> {
        let need = HEADER + name.len();
        let block = &mut self.blocks[blk as usize];
        let (&off, rec) = block
            .recs
            .iter_mut()
            .find(|(_, r)| r.room() >= need)
            .expect("block has room");
        let mut edits = Vec::with_capacity(2);
        let (at, rec_len) = if rec.ino == 0 {
            (off, rec.rec_len)
        } else {
            let split = (off + rec.used, rec.room());
            rec.rec_len = rec.used;
            edits.push(Edit::rec_len(off, rec.rec_len));
            split
        };
        block.recs.insert(at, Rec::new(ino, rec_len, name.len()));
        block.update_room();
        edits.push(Edit::record(at, ino, rec_len, name));
        let old = self.map.insert(name.to_string(), (ino, blk, at));
        assert!(old.is_none(), "directory already holds {name}");
        edits
    }

    /// Removes an entry; returns its `(ino, blk)` and the bytes written
    /// in that block.
    pub fn remove(&mut self, name: &str) -> Option<(u64, u32, Vec<Edit>)> {
        let (ino, blk, off) = self.map.remove(name)?;
        let block = &mut self.blocks[blk as usize];
        let rec = block.recs.remove(&off).expect("slot names a record");
        let edit = match block.recs.range_mut(..off).next_back() {
            Some((&prev, p)) => {
                p.rec_len += rec.rec_len;
                Edit::rec_len(prev, p.rec_len)
            }
            None => {
                block.recs.insert(off, Rec::new(0, rec.rec_len, 0));
                Edit {
                    off,
                    bytes: vec![0; 8],
                }
            }
        };
        block.update_room();
        Some((ino, blk, vec![edit]))
    }

    /// The inode the entry called `name` names.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.map.get(name).map(|&(ino, _, _)| ino)
    }

    /// Returns whether an entry is called `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Every entry as `(name, ino)`, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(name, s)| (name.as_str(), s.0))
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

    fn empty() -> Vec<u8> {
        let mut b = vec![0xa5; BLOCK];
        init_block(&mut b);
        b
    }

    fn apply(b: &mut [u8], edits: &[Edit]) {
        for e in edits {
            b[e.range()].copy_from_slice(&e.bytes);
        }
    }

    fn live(b: &[u8]) -> Vec<(String, u64)> {
        let recs = decode_block(b).expect("a well-formed chain");
        recs.into_iter()
            .filter(|d| d.ino != 0)
            .map(|d| (d.name, d.ino))
            .collect()
    }

    #[test]
    fn an_empty_block_is_one_free_record() {
        let recs = decode_block(&empty()).expect("chain");
        assert_eq!(
            recs,
            [Dirent {
                off: 0,
                ino: 0,
                rec_len: BLOCK,
                name: String::new()
            }]
        );
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

    /// The four shapes, byte by byte: fill the free head, split a live
    /// record, fold into the predecessor, free the head.
    #[test]
    fn creates_fill_or_split_and_unlinks_fold_or_free_the_head() {
        let mut st = DirState::default();
        let mut b = empty();
        assert_eq!(st.push_block(), 0);
        // Fill: the free head becomes "a", one record of the whole block.
        let edits = st.insert("a", 2, 0);
        assert_eq!(edits, [Edit::record(0, 2, BLOCK, "a")]);
        apply(&mut b, &edits);
        // Split: "a" shrinks to its 12 bytes, "bb" takes the rest.
        let edits = st.insert("bb", 3, 0);
        assert_eq!(
            edits,
            [Edit::rec_len(0, 12), Edit::record(12, 3, BLOCK - 12, "bb")]
        );
        apply(&mut b, &edits);
        apply(&mut b, &st.insert("c", 4, 0));
        assert_eq!(
            live(&b),
            [("a".into(), 2), ("bb".into(), 3), ("c".into(), 4)]
        );
        // Fold: "bb" goes into "a"'s rec_len — two bytes.
        let (ino, blk, edits) = st.remove("bb").expect("present");
        assert_eq!((ino, blk), (3, 0));
        assert_eq!(edits, [Edit::rec_len(0, 12 + 13)]);
        apply(&mut b, &edits);
        assert_eq!(live(&b), [("a".into(), 2), ("c".into(), 4)]);
        // Free the head: "a"'s ino zeroed — eight bytes — and its record,
        // slack included, is the room the next create fills.
        let (_, _, edits) = st.remove("a").expect("present");
        assert_eq!(
            edits,
            [Edit {
                off: 0,
                bytes: vec![0; 8]
            }]
        );
        apply(&mut b, &edits);
        assert_eq!(live(&b), [("c".into(), 4)]);
        let edits = st.insert("dd", 5, 0);
        assert_eq!(edits, [Edit::record(0, 5, 25, "dd")]);
        apply(&mut b, &edits);
        assert_eq!(live(&b), [("dd".into(), 5), ("c".into(), 4)]);
    }

    #[test]
    fn a_full_block_sends_the_next_create_to_another() {
        let mut st = DirState::default();
        st.push_block();
        // 19-byte records: 215 fit (4 085 bytes), the last keeps 11.
        for i in 0..215u64 {
            st.insert(&format!("f{i:04}xyz"), 100 + i, 0);
        }
        assert_eq!(st.block_with_space("f9999xyz"), None);
        assert_eq!(st.block_with_space(""), Some(0), "11 bytes of slack left");
        assert_eq!(st.push_block(), 1);
        assert_eq!(st.block_with_space("f9999xyz"), Some(1));
        st.remove("f0100xyz");
        assert_eq!(st.block_with_space("f9999xyz"), Some(0), "its 19 bytes");
    }

    #[test]
    fn decode_reports_a_broken_chain() {
        let mut b = empty();
        let mut st = DirState::default();
        st.push_block();
        apply(&mut b, &st.insert("a", 2, 0));
        apply(&mut b, &st.insert("b", 3, 0));
        let bad = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut c = b.clone();
            edit(&mut c);
            decode_block(&c).expect_err("a broken chain")
        };
        // rec_len shorter than the record's own name.
        assert_eq!(
            bad(&|c| c[8..10].copy_from_slice(&5u16.to_le_bytes())),
            "record at 0: rec_len 5 with a 1-byte name"
        );
        // Past the block end, and a chain that stops short of it.
        assert!(bad(&|c| c[20..22].copy_from_slice(&4090u16.to_le_bytes())).contains("rec_len"));
        assert!(bad(&|c| c[20..22].copy_from_slice(&4080u16.to_le_bytes())).contains("crosses"));
        // A free record that is not the head; a name that is no name.
        assert!(bad(&|c| c[12..20].fill(0)).contains("ino 0 past the first"));
        assert!(bad(&|c| c[23] = b'/').contains("invalid name"));
    }
}

#[cfg(test)]
mod prop_tests {
    use std::collections::{BTreeMap, HashMap};

    use proptest::prelude::*;

    use super::*;

    /// `prev` with every record of `st`'s block `blk` written over it:
    /// the header of each, and the name of each live one.
    fn overlay(st: &DirState, blk: u32, prev: &[u8]) -> Vec<u8> {
        let mut b = prev.to_vec();
        let names: HashMap<usize, &str> = st
            .map
            .iter()
            .filter(|(_, s)| s.1 == blk)
            .map(|(n, s)| (s.2, n.as_str()))
            .collect();
        for (&off, rec) in &st.blocks[blk as usize].recs {
            let e = match names.get(&off) {
                Some(name) => Edit::record(off, rec.ino, rec.rec_len, name),
                None => Edit::rec_len(off, rec.rec_len),
            };
            b[e.range()].copy_from_slice(&e.bytes);
            b[off..off + 8].copy_from_slice(&rec.ino.to_le_bytes());
        }
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// DirState under random creates and unlinks, against a plain map
        /// after every step: each block's bytes — the previous bytes with
        /// only the returned edits applied — decode to the model's entries
        /// for that block, rebuild the same index, and equal the previous
        /// bytes with every record the index holds written over them, so
        /// the edits cover every byte the operation changed.
        #[test]
        fn dir_state_matches_model(
            ops in proptest::collection::vec((any::<bool>(), 0u8..40, 0usize..200, 1u64..1000), 1..160),
        ) {
            let mut st = DirState::default();
            let mut disk: Vec<Vec<u8>> = Vec::new();
            // name → ino.
            let mut model: BTreeMap<String, u64> = BTreeMap::new();
            for (insert, id, len, ino) in ops {
                // Names of up to 203 bytes spread 40 of them over several
                // blocks; an unlink picks a present one.
                let name = match model.keys().nth(id as usize % model.len().max(1)) {
                    Some(present) if !insert => present.clone(),
                    _ => format!("{id}-{}", "n".repeat(len)),
                };
                let (blk, edits) = if insert {
                    if model.contains_key(&name) {
                        continue;
                    }
                    let blk = st.block_with_space(&name).unwrap_or_else(|| {
                        let mut b = vec![0x5a; BLOCK];
                        init_block(&mut b);
                        disk.push(b);
                        st.push_block()
                    });
                    model.insert(name.clone(), ino);
                    (blk, st.insert(&name, ino, blk))
                } else {
                    let Some((got, blk, edits)) = st.remove(&name) else {
                        prop_assert!(!model.contains_key(&name));
                        continue;
                    };
                    prop_assert_eq!(Some(got), model.remove(&name));
                    (blk, edits)
                };
                let prev = disk[blk as usize].clone();
                for e in &edits {
                    disk[blk as usize][e.range()].copy_from_slice(&e.bytes);
                }
                prop_assert_eq!(&disk[blk as usize], &overlay(&st, blk, &prev));
                prop_assert_eq!(st.len(), model.len());
                let mut decoded = Vec::new();
                let mut seen = BTreeMap::new();
                for (b, bytes) in disk.iter().enumerate() {
                    let recs = decode_block(bytes).map_err(TestCaseError::fail)?;
                    for d in recs.iter().filter(|d| d.ino != 0) {
                        prop_assert_eq!(st.map.get(&d.name), Some(&(d.ino, b as u32, d.off)));
                        seen.insert(d.name.clone(), d.ino);
                    }
                    decoded.push(recs);
                }
                prop_assert_eq!(&seen, &model);
                let back = DirState::from_blocks(&decoded);
                prop_assert_eq!(&back.map, &st.map);
                prop_assert_eq!(&back.blocks, &st.blocks);
            }
        }
    }
}
