//! The crash-consistency workloads: the four of Table 4, the surfaces
//! the enumerator pins, and [`FaultScript`], which every fault schedule
//! runs.
//!
//! Each script interleaves *issue marks* (recorded before an operation
//! mutates the namespace) with *persistence marks* (recorded after the
//! covering `fsync` returned). The verifier reasons with both:
//!
//! * a fact whose persistence mark completed **must** hold after the
//!   crash;
//! * a fact invalidated by an operation whose issue mark has *not* been
//!   recorded **must still** hold;
//! * anything in between may go either way (the crash caught the
//!   operation mid-flight), but the file system must stay consistent.

use std::{
    collections::{BTreeSet, HashSet},
    sync::{Arc, OnceLock},
};

use ccnvme_fault::FaultCounters;
use ccnvme_sim::Ns;
use mqfs::{FileSystem, FsError};

use crate::{fault_tallies, CrashWorkload, OpLog};

fn exists(fs: &Arc<FileSystem>, path: &str) -> Option<u64> {
    fs.resolve(path).ok()
}

fn content_is(fs: &Arc<FileSystem>, ino: u64, byte: u8, len: usize) -> bool {
    match fs.read(ino, 0, len) {
        Ok(data) => data.len() == len && data.iter().all(|b| *b == byte),
        Err(_) => false,
    }
}

// ---------------------------------------------------------------------------
// create_delete
// ---------------------------------------------------------------------------

/// `create()` and `remove()` on files (Table 4 row 1).
pub struct CreateDelete {
    /// Rounds of create/delete.
    pub rounds: u64,
}

// Mark ids per round r: CREATE_P = 4r, DELETE_I = 4r+2, DELETE_P = 4r+3.
impl CrashWorkload for CreateDelete {
    fn name(&self) -> &'static str {
        "create_delete"
    }

    fn run(&self, fs: &Arc<FileSystem>, log: &OpLog) -> Vec<String> {
        fs.mkdir_path("/cd").expect("mkdir");
        let dir = fs.resolve("/cd").expect("resolve");
        fs.fsync(dir).expect("persist dir");
        for r in 0..self.rounds {
            let ino = fs.create_path(&format!("/cd/f{r}")).expect("create");
            fs.write(ino, 0, &vec![r as u8 + 1; 4096]).expect("write");
            fs.fsync(ino).expect("fsync");
            log.mark(4 * r);
            if r >= 1 {
                log.mark(4 * (r - 1) + 2); // Delete issued for f{r-1}.
                fs.unlink_path(&format!("/cd/f{}", r - 1)).expect("unlink");
                fs.fsync(dir).expect("fsync dir");
                log.mark(4 * (r - 1) + 3);
            }
        }
        Vec::new()
    }

    fn verify(&self, fs: &Arc<FileSystem>, persisted: &HashSet<u64>) -> Vec<String> {
        let mut problems = Vec::new();
        for r in 0..self.rounds {
            let path = format!("/cd/f{r}");
            let created = persisted.contains(&(4 * r));
            let delete_issued = persisted.contains(&(4 * r + 2));
            let deleted = persisted.contains(&(4 * r + 3));
            let ino = exists(fs, &path);
            if deleted {
                if ino.is_some() {
                    problems.push(format!("{path}: persisted delete, file resurrected"));
                }
            } else if created && !delete_issued {
                match ino {
                    None => problems.push(format!("{path}: fsynced create lost")),
                    Some(ino) => {
                        if !content_is(fs, ino, r as u8 + 1, 4096) {
                            problems.push(format!("{path}: fsynced content damaged"));
                        }
                    }
                }
            } else if let Some(ino) = ino {
                // Optional existence: content must still be untorn.
                let (size, _, _) = fs.stat(ino);
                if size != 0 && !content_is(fs, ino, r as u8 + 1, 4096) {
                    problems.push(format!("{path}: torn content"));
                }
            }
        }
        problems
    }
}

// ---------------------------------------------------------------------------
// generic_035: rename overwrite
// ---------------------------------------------------------------------------

/// `rename()` overwrite on existing files and directories (xfstest 035).
pub struct Generic035 {
    /// Rename rounds.
    pub rounds: u64,
}

// Marks per round r (1-based): STAGE_P = 4r, REN_I = 4r+1, REN_P = 4r+2.
// Round 0: TARGET_P = 0 (initial target).
impl CrashWorkload for Generic035 {
    fn name(&self) -> &'static str {
        "generic_035"
    }

    fn run(&self, fs: &Arc<FileSystem>, log: &OpLog) -> Vec<String> {
        fs.mkdir_path("/g35").expect("mkdir");
        let dir = fs.resolve("/g35").expect("resolve");
        let t = fs.create_path("/g35/target").expect("create");
        fs.write(t, 0, &vec![1u8; 4096]).expect("write");
        fs.fsync(t).expect("fsync");
        log.mark(0);
        for r in 1..=self.rounds {
            let s = fs.create_path("/g35/staging").expect("create staging");
            fs.write(s, 0, &vec![r as u8 + 1; 4096]).expect("write");
            fs.fsync(s).expect("fsync staging");
            log.mark(4 * r);
            log.mark(4 * r + 1); // Rename issued.
            fs.rename(dir, "staging", dir, "target").expect("rename");
            fs.fsync(dir).expect("fsync dir");
            log.mark(4 * r + 2);
        }
        // Directory overwrite leg: rename an empty dir over another.
        fs.mkdir_path("/g35/dsrc").expect("mkdir");
        fs.mkdir_path("/g35/dtgt").expect("mkdir");
        fs.fsync(dir).expect("fsync");
        log.mark(1_000);
        log.mark(1_001); // Dir rename issued.
        fs.rename(dir, "dsrc", dir, "dtgt").expect("dir rename");
        fs.fsync(dir).expect("fsync");
        log.mark(1_002);
        Vec::new()
    }

    fn verify(&self, fs: &Arc<FileSystem>, persisted: &HashSet<u64>) -> Vec<String> {
        let mut problems = Vec::new();
        // The newest persisted rename fixes the floor version of target.
        let mut floor: u64 = if persisted.contains(&0) { 1 } else { 0 };
        for r in 1..=self.rounds {
            if persisted.contains(&(4 * r + 2)) {
                floor = r + 1;
            }
        }
        match exists(fs, "/g35/target") {
            None => {
                if floor > 0 {
                    problems.push("target: persisted version lost".into());
                }
            }
            Some(ino) => {
                // Content must be a whole version >= floor, never torn.
                let data = fs.read(ino, 0, 4096).unwrap_or_default();
                if data.len() == 4096 {
                    let v = data[0] as u64;
                    if !data.iter().all(|b| *b as u64 == v) {
                        problems.push("target: torn rename content".into());
                    } else if v < floor {
                        problems.push(format!("target: version regressed to {v}, floor {floor}"));
                    }
                } else if floor > 0 {
                    problems.push("target: persisted content missing".into());
                }
            }
        }
        // Directory overwrite leg.
        if persisted.contains(&1_002) {
            if exists(fs, "/g35/dsrc").is_some() {
                problems.push("dsrc: persisted dir rename left source".into());
            }
            if exists(fs, "/g35/dtgt").is_none() {
                problems.push("dtgt: persisted dir rename lost target".into());
            }
        } else if persisted.contains(&1_000)
            && !persisted.contains(&1_001)
            && (exists(fs, "/g35/dsrc").is_none() || exists(fs, "/g35/dtgt").is_none())
        {
            problems.push("dir pair: fsynced mkdir lost".into());
        }
        problems
    }
}

// ---------------------------------------------------------------------------
// generic_106: link / unlink
// ---------------------------------------------------------------------------

/// `link()` and `unlink()` on files, `remove()` of a directory
/// (xfstest 106).
pub struct Generic106;

// Marks: 0 = orig created; 1 = link1 added; 2 = unlink(orig) issued;
// 3 = unlink(orig) persisted; 4 = subdir created; 5 = rmdir issued;
// 6 = rmdir persisted.
impl CrashWorkload for Generic106 {
    fn name(&self) -> &'static str {
        "generic_106"
    }

    fn run(&self, fs: &Arc<FileSystem>, log: &OpLog) -> Vec<String> {
        fs.mkdir_path("/g106").expect("mkdir");
        let dir = fs.resolve("/g106").expect("resolve");
        let orig = fs.create_path("/g106/orig").expect("create");
        fs.write(orig, 0, &vec![0x66u8; 4096]).expect("write");
        fs.fsync(orig).expect("fsync");
        log.mark(0);
        fs.link(orig, dir, "link1").expect("link");
        fs.fsync(dir).expect("fsync");
        log.mark(1);
        log.mark(2);
        fs.unlink_path("/g106/orig").expect("unlink");
        fs.fsync(dir).expect("fsync");
        log.mark(3);
        fs.mkdir_path("/g106/sub").expect("mkdir");
        fs.fsync(dir).expect("fsync");
        log.mark(4);
        log.mark(5);
        fs.rmdir(dir, "sub").expect("rmdir");
        fs.fsync(dir).expect("fsync");
        log.mark(6);
        Vec::new()
    }

    fn verify(&self, fs: &Arc<FileSystem>, persisted: &HashSet<u64>) -> Vec<String> {
        let mut problems = Vec::new();
        let orig = exists(fs, "/g106/orig");
        let link1 = exists(fs, "/g106/link1");
        if persisted.contains(&3) {
            if orig.is_some() {
                problems.push("orig: persisted unlink resurrected".into());
            }
            match link1 {
                None => problems.push("link1: lost although unlink(orig) persisted".into()),
                Some(ino) => {
                    let (_, _, nlink) = fs.stat(ino);
                    if nlink != 1 {
                        problems.push(format!("link1: nlink {nlink}, expected 1"));
                    }
                    if !content_is(fs, ino, 0x66, 4096) {
                        problems.push("link1: content damaged".into());
                    }
                }
            }
        } else if persisted.contains(&1) {
            // Both names must exist and share the inode.
            match (orig, link1) {
                (Some(a), Some(b)) if a == b => {
                    let (_, _, nlink) = fs.stat(a);
                    if nlink != 2 && !persisted.contains(&2) {
                        problems.push(format!("hardlink pair: nlink {nlink}, expected 2"));
                    }
                }
                (Some(_), Some(_)) => {
                    problems.push("orig and link1 stopped sharing an inode".into())
                }
                _ if !persisted.contains(&2) => {
                    problems.push("hardlink pair: persisted names lost".into())
                }
                _ => {}
            }
        } else if persisted.contains(&0) && orig.is_none() {
            problems.push("orig: fsynced create lost".into());
        }
        let sub = exists(fs, "/g106/sub");
        if persisted.contains(&6) {
            if sub.is_some() {
                problems.push("sub: persisted rmdir resurrected".into());
            }
        } else if persisted.contains(&4) && !persisted.contains(&5) && sub.is_none() {
            problems.push("sub: fsynced mkdir lost".into());
        }
        problems
    }
}

// ---------------------------------------------------------------------------
// generic_321: directory fsync
// ---------------------------------------------------------------------------

/// Various directory `fsync()` tests (xfstest 321).
pub struct Generic321;

// Marks: 0 = a/foo visible via fsync(a); 1 = b visible via fsync(root);
// 2 = cross-dir rename issued; 3 = rename persisted via fsync(b)+fsync(a);
// 4 = a/baz visible via fsync(a).
impl CrashWorkload for Generic321 {
    fn name(&self) -> &'static str {
        "generic_321"
    }

    fn run(&self, fs: &Arc<FileSystem>, log: &OpLog) -> Vec<String> {
        fs.mkdir_path("/g321").expect("mkdir");
        let root = fs.resolve("/g321").expect("resolve");
        fs.fsync(root).expect("fsync");
        fs.mkdir_path("/g321/a").expect("mkdir");
        let a = fs.resolve("/g321/a").expect("resolve");
        fs.create_path("/g321/a/foo").expect("create");
        // fsync of the DIRECTORY must persist the entry (and, through
        // the dependency set, the child inode).
        fs.fsync(a).expect("fsync dir a");
        log.mark(0);
        fs.mkdir_path("/g321/b").expect("mkdir");
        fs.fsync(root).expect("fsync root");
        log.mark(1);
        let b = fs.resolve("/g321/b").expect("resolve");
        log.mark(2);
        fs.rename(a, "foo", b, "bar").expect("rename");
        fs.fsync(b).expect("fsync b");
        fs.fsync(a).expect("fsync a");
        log.mark(3);
        fs.create_path("/g321/a/baz").expect("create");
        fs.fsync(a).expect("fsync a");
        log.mark(4);
        Vec::new()
    }

    fn verify(&self, fs: &Arc<FileSystem>, persisted: &HashSet<u64>) -> Vec<String> {
        let mut problems = Vec::new();
        let src_foo = exists(fs, "/g321/a/foo");
        let bar = exists(fs, "/g321/b/bar");
        if persisted.contains(&3) {
            if src_foo.is_some() {
                problems.push("a/foo: persisted rename left source entry".into());
            }
            if bar.is_none() {
                problems.push("b/bar: persisted rename lost target".into());
            }
        } else if persisted.contains(&0) && !persisted.contains(&2) && src_foo.is_none() {
            problems.push("a/foo: entry persisted by fsync(a) lost".into());
        }
        if persisted.contains(&1) && exists(fs, "/g321/b").is_none() {
            problems.push("b: persisted mkdir lost".into());
        }
        if persisted.contains(&3) || persisted.contains(&0) {
            // The file inode must exist under exactly one name.
            if src_foo.is_some() && bar.is_some() {
                problems.push("foo and bar both present".into());
            }
        }
        if persisted.contains(&4) && exists(fs, "/g321/a/baz").is_none() {
            problems.push("a/baz: persisted create lost".into());
        }
        problems
    }
}

// ---------------------------------------------------------------------------
// extent_spill: the extent mapping's whole life cycle
// ---------------------------------------------------------------------------

/// One file taken through every shape its extent map can have: appends
/// that grow one extent in place, a back-to-front fill that opens more
/// extents than the inode holds (so they spill into a leaf block), an
/// unlink that frees data and leaf blocks, and a re-created file whose
/// data lands on all of them — the old leaf included, whose journal
/// copy must be revoked, not replayed (not a Table 4 row).
pub struct ExtentSpill;

/// Blocks of the first file; block [`ExtentSpill::HOLE`] is never
/// written.
const SPILL_OLD_BLOCKS: u64 = 18;
/// Blocks of the file re-created over the freed ones.
const SPILL_NEW_BLOCKS: u64 = 20;

impl ExtentSpill {
    const PATH: &'static str = "/ext/a";
    const HOLE: u64 = 3;

    fn old_byte(block: u64) -> u8 {
        if block == Self::HOLE {
            0
        } else {
            0x10 + block as u8
        }
    }

    fn new_byte(block: u64) -> u8 {
        0x80 + block as u8
    }

    /// Whether the file is exactly `blocks` long with every block
    /// holding `byte(block)` throughout.
    fn holds(fs: &Arc<FileSystem>, ino: u64, blocks: u64, byte: fn(u64) -> u8) -> bool {
        fs.stat(ino).0 == blocks * 4096
            && (0..blocks).all(|b| {
                fs.read(ino, b * 4096, 4096)
                    .is_ok_and(|d| d.len() == 4096 && d.iter().all(|x| *x == byte(b)))
            })
    }
}

// Marks: 0 = three merged appends persisted; 1 = fragmented tail (and
// its leaf) persisted; 2 = unlink issued; 3 = unlink persisted;
// 4 = re-created file persisted.
impl CrashWorkload for ExtentSpill {
    fn name(&self) -> &'static str {
        "extent_spill"
    }

    fn run(&self, fs: &Arc<FileSystem>, log: &OpLog) -> Vec<String> {
        fs.mkdir_path("/ext").expect("mkdir");
        let dir = fs.resolve("/ext").expect("resolve");
        fs.fsync(dir).expect("persist dir");
        let a = fs.create_path(Self::PATH).expect("create");
        let block = |byte: u8| vec![byte; 4096];
        // Each append continues the previous block on disk: one extent.
        for b in 0..Self::HOLE {
            fs.write(a, b * 4096, &block(Self::old_byte(b)))
                .expect("write");
            fs.fsync(a).expect("fsync");
        }
        log.mark(0);
        // Back to front, every block is allocated while the one before
        // it is still a hole: 14 one-block extents on top of the first,
        // two more than the inode holds.
        for b in (Self::HOLE + 1..SPILL_OLD_BLOCKS).rev() {
            fs.write(a, b * 4096, &block(Self::old_byte(b)))
                .expect("write");
        }
        fs.fsync(a).expect("fsync");
        log.mark(1);
        log.mark(2);
        fs.unlink_path(Self::PATH).expect("unlink");
        fs.fsync(dir).expect("fsync dir");
        log.mark(3);
        // The same name gets the same inode number, hence the same block
        // group: a sequential file takes the freed blocks in LBA order.
        let a = fs.create_path(Self::PATH).expect("re-create");
        for b in 0..SPILL_NEW_BLOCKS {
            fs.write(a, b * 4096, &block(Self::new_byte(b)))
                .expect("write");
        }
        fs.fsync(a).expect("fsync");
        log.mark(4);
        Vec::new()
    }

    fn verify(&self, fs: &Arc<FileSystem>, persisted: &HashSet<u64>) -> Vec<String> {
        let ino = exists(fs, Self::PATH);
        let old_with =
            |blocks: u64| ino.is_some_and(|i| Self::holds(fs, i, blocks, Self::old_byte));
        let new_whole = ino.is_some_and(|i| Self::holds(fs, i, SPILL_NEW_BLOCKS, Self::new_byte));
        let ok = if persisted.contains(&4) {
            new_whole
        } else if persisted.contains(&3) {
            // Create and content ride one transaction.
            ino.is_none() || new_whole
        } else if persisted.contains(&2) {
            ino.is_none() || old_with(SPILL_OLD_BLOCKS)
        } else if persisted.contains(&1) {
            old_with(SPILL_OLD_BLOCKS)
        } else {
            // Appends in flight: any whole number of them, at least the
            // persisted ones.
            let floor = if persisted.contains(&0) {
                Self::HOLE
            } else {
                0
            };
            (floor == 0 && ino.is_none())
                || (floor..=Self::HOLE).any(old_with)
                || old_with(SPILL_OLD_BLOCKS)
        };
        if ok {
            Vec::new()
        } else {
            let size = ino.map(|i| fs.stat(i).0);
            vec![format!(
                "{}: size {size:?} or content contradicts persisted marks {persisted:?}",
                Self::PATH
            )]
        }
    }
}

// ---------------------------------------------------------------------------
// patch_chain: sub-block journal records across two areas
// ---------------------------------------------------------------------------

/// The crash surface of the journal's *patch* record (not a Table 4
/// row). One scripted thread hops between two cores — two journal
/// areas — appending to and fsyncing three files: `a` and `b`, whose
/// inodes share one inode-table block, and `c`, whose inode lives
/// elsewhere. Every append journals the file's 256-byte inode slot and
/// one bitmap byte as patches inside the JD. Run on a journal of four
/// blocks per area ([`PatchChain::JOURNAL_BLOCKS`]) the script builds,
/// twice and mirrored, the one shape in which "a newer version exists
/// elsewhere" must not release an older record:
///
/// 1. one area logs a patch of `a`'s slot, the other a *newer* patch of
///    `b`'s slot in the same table block — and goes idle, its patch
///    live and not yet home;
/// 2. the first area wraps its ring on appends to `c`, which touch
///    neither. Its old patch may leave the ring only once its bytes are
///    home: the newer patch elsewhere does not contain them.
///
/// `a`'s own slot and bitmap byte also collect patches of the *same*
/// range from both areas. (Two files cannot share both a table block
/// and a bitmap byte: data goes to the block group of its inode, and
/// inodes one table block apart are in different groups.)
pub struct PatchChain;

impl PatchChain {
    /// Journal region to run on: two areas of four blocks. The first
    /// create's transaction takes two (the root directory's new block,
    /// written whole, + JD); every other transaction here is one JD,
    /// its directory record and inode slots inside it as patches.
    pub const JOURNAL_BLOCKS: u64 = 8;

    /// `a` and `b`: names whose hashed inode goals fall into one
    /// inode-table block; `c`: one that falls elsewhere.
    const FILES: [&'static str; 3] = ["/p29", "/q12", "/c"];

    /// `(core, file)` of every append + `fsync` after the three creates
    /// (core 0; they fill area 0 exactly, so the first step wraps it).
    const STEPS: [(usize, usize); 13] = [
        (0, 0), // Area 0, wrapped: a patch of a's slot.
        (1, 1), // Area 1: a newer patch of b's slot; area 1 idles.
        (0, 2),
        (0, 2),
        (0, 2), // Area 0 is full...
        (0, 2), // ...and wraps past the patch of a's slot.
        (0, 0), // Area 0: a newer patch of a's slot; area 0 idles.
        (1, 2),
        (1, 2),
        (1, 2), // Area 1 is full...
        (1, 2), // ...and wraps past the patch of b's slot.
        (1, 1),
        (0, 0),
    ];

    /// Mark: file `f` created with its first block.
    const CREATED: u64 = 1_000;

    fn byte(file: usize, block: u64) -> u8 {
        (0x10 + 0x40 * file as u8) + block as u8
    }
}

// Marks: CREATED + f = file f and its first block persisted; s = append
// step s persisted.
impl CrashWorkload for PatchChain {
    fn name(&self) -> &'static str {
        "patch_chain"
    }

    fn run(&self, fs: &Arc<FileSystem>, log: &OpLog) -> Vec<String> {
        let append = |core: usize, file: usize, ino: u64, block: u64| {
            let fs = Arc::clone(fs);
            ccnvme_sim::spawn("hop", core, move || {
                fs.write(ino, block * 4096, &vec![Self::byte(file, block); 4096])
                    .expect("write");
                fs.fsync(ino).expect("fsync");
            })
            .join();
        };
        let mut inos = [0u64; 3];
        let mut blocks = [0u64; 3];
        for (f, path) in Self::FILES.iter().enumerate() {
            inos[f] = fs.create_path(path).expect("create");
            append(0, f, inos[f], 0);
            blocks[f] = 1;
            log.mark(Self::CREATED + f as u64);
        }
        let table_block = |ino: u64| fs.layout().inode_pos(ino).0;
        assert!(
            table_block(inos[0]) == table_block(inos[1])
                && table_block(inos[0]) != table_block(inos[2]),
            "a and b must share an inode-table block and c sit elsewhere \
             (did the name hash or the layout change?)"
        );
        for (s, &(core, f)) in Self::STEPS.iter().enumerate() {
            append(core, f, inos[f], blocks[f]);
            blocks[f] += 1;
            log.mark(s as u64);
        }
        Vec::new()
    }

    fn verify(&self, fs: &Arc<FileSystem>, persisted: &HashSet<u64>) -> Vec<String> {
        let mut problems = Vec::new();
        for (f, path) in Self::FILES.iter().enumerate() {
            let appended = |upto: &dyn Fn(usize) -> bool| {
                let steps = Self::STEPS.iter().enumerate();
                steps
                    .filter(|(s, (_, file))| *file == f && upto(*s))
                    .count() as u64
            };
            let created = persisted.contains(&(Self::CREATED + f as u64));
            // Blocks that must be there, and blocks there can be at most.
            let floor = created as u64 + appended(&|s| persisted.contains(&(s as u64)));
            let ceiling = 1 + appended(&|_| true);
            let Some(ino) = exists(fs, path) else {
                if floor > 0 {
                    problems.push(format!("{path}: fsynced file lost"));
                }
                continue;
            };
            let size = fs.stat(ino).0;
            let whole = size.is_multiple_of(4096) && (floor..=ceiling).contains(&(size / 4096));
            // A create that beat its first fsync is an empty file.
            if !(whole || (floor == 0 && size == 0)) {
                problems.push(format!(
                    "{path}: size {size}, expected {floor}..={ceiling} whole blocks"
                ));
                continue;
            }
            for b in 0..size / 4096 {
                if !fs
                    .read(ino, b * 4096, 4096)
                    .is_ok_and(|d| d.len() == 4096 && d.iter().all(|x| *x == Self::byte(f, b)))
                {
                    problems.push(format!("{path}: block {b} damaged"));
                }
            }
        }
        problems
    }
}

// ---------------------------------------------------------------------------
// dir_records: a two-block directory's record chain, shape by shape
// ---------------------------------------------------------------------------

/// The crash surface of the directory record format (not a Table 4
/// row): a directory of two blocks taken, one `fsync`ed step at a time,
/// through every way a create or an unlink edits a record chain — each
/// a few bytes patched in place (`mqfs::dir`). The 200-byte names make
/// 211-byte records, 19 to a block: the set-up fills block 0 with
/// `00…`–`18…`, and `19…`, `20…` open block 1.
///
/// 1. create `s`: block 0's last record has 87 bytes of slack — split,
///    its `rec_len` shrinks and `s` takes the rest;
/// 2. unlink `20…`: folded into its predecessor's `rec_len`;
/// 3. unlink `19…`, block 1's first record: its `ino` zeroed;
/// 4. create `21…`: too long for block 0's slack, it fills block 1's
///    free first record;
/// 5. rename `05…` over `21…`: the removals leave block 0 the first
///    with room, so the new entry lands there while the replaced one
///    lives in block 1 — which must lose it on media in the same
///    transaction, or a remount finds the name twice.
pub struct DirRecords;

impl DirRecords {
    const DIR: &'static str = "/dr";

    /// The `k`-th long name.
    fn long(k: u32) -> String {
        format!("{k:02}{}", "l".repeat(198))
    }

    /// The directory's names once step `step` is done (0 = set-up).
    fn names_after(step: u64) -> BTreeSet<String> {
        let mut names: BTreeSet<String> = (0..=20).map(Self::long).collect();
        let edits: [(bool, String); 5] = [
            (true, "s".into()),
            (false, Self::long(20)),
            (false, Self::long(19)),
            (true, Self::long(21)),
            (false, Self::long(5)),
        ];
        for (add, name) in edits.into_iter().take(step as usize) {
            if add {
                names.insert(name);
            } else {
                names.remove(&name);
            }
        }
        names
    }
}

// Marks: 0 = set-up persisted; s = step s persisted.
impl CrashWorkload for DirRecords {
    fn name(&self) -> &'static str {
        "dir_records"
    }

    fn run(&self, fs: &Arc<FileSystem>, log: &OpLog) -> Vec<String> {
        let dir = fs.mkdir_path(Self::DIR).expect("mkdir");
        for k in 0..=20 {
            fs.create(dir, &Self::long(k)).expect("create");
        }
        fs.fsync(dir).expect("fsync set-up");
        log.mark(0);
        let s = fs.create(dir, "s").expect("create s");
        fs.fsync(s).expect("fsync s");
        log.mark(1);
        fs.unlink(dir, &Self::long(20)).expect("unlink");
        fs.fsync(dir).expect("fsync dir");
        log.mark(2);
        fs.unlink(dir, &Self::long(19)).expect("unlink");
        fs.fsync(dir).expect("fsync dir");
        log.mark(3);
        let f = fs.create(dir, &Self::long(21)).expect("create");
        fs.fsync(f).expect("fsync");
        log.mark(4);
        fs.rename(dir, &Self::long(5), dir, &Self::long(21))
            .expect("rename");
        fs.fsync(dir).expect("fsync dir");
        log.mark(5);
        Vec::new()
    }

    fn verify(&self, fs: &Arc<FileSystem>, persisted: &HashSet<u64>) -> Vec<String> {
        // Each step is one transaction, issued once the one before is
        // persisted: the namespace is the last persisted step's or the
        // next one's.
        let done = (0..=5u64).rev().find(|s| persisted.contains(s));
        let after = |step: Option<u64>| step.map(Self::names_after);
        let got = exists(fs, Self::DIR).map(|d| {
            fs.readdir(d)
                .expect("readdir")
                .into_iter()
                .map(|(n, _)| n)
                .collect()
        });
        let next = done.map_or(0, |s| (s + 1).min(5));
        if got == after(done) || got == after(Some(next)) {
            return Vec::new();
        }
        let want = after(done).unwrap_or_default();
        let got = got.unwrap_or_default();
        let short = |names: Vec<&String>| -> Vec<String> {
            names
                .into_iter()
                .map(|n| n.chars().take(3).collect())
                .collect()
        };
        vec![format!(
            "{}: lacks {:?} and holds {:?} against {}, and is not step {next}",
            Self::DIR,
            short(want.difference(&got).collect()),
            short(got.difference(&want).collect()),
            done.map_or("nothing".into(), |s| format!("step {s}")),
        )]
    }
}

// ---------------------------------------------------------------------------
// carried_groups: what a directory fsync still owes after its children's
// ---------------------------------------------------------------------------

/// The crash surface of operation-group retirement (not a Table 4 row):
/// a directory `fsync` journals only the operation groups no durable
/// commit has carried yet. `fsync(a)` retires `a`'s create; `fatomic(b)`
/// carries `b`'s create with atomic durability only, so the directory
/// `fsync` after it must journal that create again, and not `a`'s; the
/// second directory `fsync` journals the unlink of `a` alone.
pub struct CarriedGroups;

impl CarriedGroups {
    const DIR: &'static str = "/cg";
}

// Marks: 0 = a persisted by fsync(a); 1 = b persisted by fsync(dir);
// 2 = unlink(a) issued; 3 = unlink(a) persisted.
impl CrashWorkload for CarriedGroups {
    fn name(&self) -> &'static str {
        "carried_groups"
    }

    fn run(&self, fs: &Arc<FileSystem>, log: &OpLog) -> Vec<String> {
        let dir = fs.mkdir_path(Self::DIR).expect("mkdir");
        let a = fs.create(dir, "a").expect("create a");
        fs.fsync(a).expect("fsync a");
        log.mark(0);
        let b = fs.create(dir, "b").expect("create b");
        fs.fatomic(b).expect("fatomic b");
        fs.fsync(dir).expect("fsync dir");
        log.mark(1);
        log.mark(2);
        fs.unlink(dir, "a").expect("unlink a");
        fs.fsync(dir).expect("fsync dir");
        log.mark(3);
        Vec::new()
    }

    fn verify(&self, fs: &Arc<FileSystem>, persisted: &HashSet<u64>) -> Vec<String> {
        let mut problems = Vec::new();
        let a = exists(fs, "/cg/a").is_some();
        if persisted.contains(&3) && a {
            problems.push("/cg/a: persisted unlink, file resurrected".into());
        }
        if persisted.contains(&0) && !persisted.contains(&2) && !a {
            problems.push("/cg/a: fsynced create lost".into());
        }
        if persisted.contains(&1) && exists(fs, "/cg/b").is_none() {
            problems.push("/cg/b: create lost although the directory fsync returned".into());
        }
        problems
    }
}

// ---------------------------------------------------------------------------
// fault_campaign: the error contract of one device-fault schedule
// ---------------------------------------------------------------------------

/// The script every fault schedule runs (not a Table 4 row): `mkdir
/// /d`, then [`FaultScript::FILES`] files of [`FaultScript::LEN`]
/// bytes, each created, written and fsynced as one transaction, then a
/// read-back of every fsynced file and a probe rewrite of `/d/f0`.
///
/// The stack's fault plan arms the recorded run, and the run is held
/// to the live error contract, judged on what the plan fired and on the
/// run's [`fault_tallies`]:
///
/// * **transient** faults (busy completions, dropped doorbells) are
///   absorbed by the host's retry/kick ladder — every operation
///   succeeds and nothing degrades;
/// * **unrecoverable** faults (media errors, torn DMA, stalls) fail the
///   *whole* enclosing transaction and degrade the file system to
///   read-only: fsck reports it, reads keep working, the probe is
///   rejected.
///
/// At every cut, recovery must never replay a torn or failed
/// transaction: the fsynced files are exactly the committed ones,
/// byte for byte, and any other is absent, empty or whole.
#[derive(Default)]
pub struct FaultScript {
    /// Virtual times bracketing the files' transactions in the first run.
    window: OnceLock<(Ns, Ns)>,
}

// Marks: k = `/d/f{k}`'s fsync returned; its content is `0xa0 + k`.
impl FaultScript {
    /// Files created and fsynced, one transaction each.
    pub const FILES: usize = 3;
    /// Bytes written per file, in one call: four blocks.
    pub const LEN: usize = 4 * 4096;

    /// When the files' transaction traffic began and ended in the
    /// script's first run (on healthy hardware, where a campaign places
    /// its fault windows); `None` before any run.
    pub fn window(&self) -> Option<(Ns, Ns)> {
        self.window.get().copied()
    }
}

impl CrashWorkload for FaultScript {
    fn name(&self) -> &'static str {
        "fault_campaign"
    }

    fn run(&self, fs: &Arc<FileSystem>, log: &OpLog) -> Vec<String> {
        // Set-up before any fault window: must always succeed.
        fs.mkdir_path("/d").expect("mkdir");
        let dir = fs.resolve("/d").expect("resolve");
        fs.fsync(dir).expect("fsync dir");
        let begin = ccnvme_sim::now();
        let mut fsync_ok = [false; Self::FILES];
        for (k, ok) in fsync_ok.iter_mut().enumerate() {
            *ok = (|| {
                let ino = fs.create_path(&format!("/d/f{k}"))?;
                fs.write(ino, 0, &vec![0xa0 + k as u8; Self::LEN])?;
                fs.fsync(ino)
            })()
            .is_ok();
            if *ok {
                log.mark(k as u64);
            }
        }
        // The first run's window stands: later runs may be faulted.
        let _ = self.window.set((begin, ccnvme_sim::now()));
        // Reads must keep working, degraded or not.
        let readback_ok = fsync_ok.iter().enumerate().all(|(k, ok)| {
            !ok || exists(fs, &format!("/d/f{k}"))
                .is_some_and(|ino| content_is(fs, ino, 0xa0 + k as u8, Self::LEN))
        });
        // Probe mutation: succeeds on a healthy stack, is rejected on a
        // degraded one.
        let probe = fs.resolve("/d/f0").and_then(|ino| {
            fs.write(ino, 0, &[0xa0; 4096])?;
            fs.fsync(ino)
        });
        // The live contract, on what the plan fired and the run's tallies.
        let m = fs
            .device()
            .obs()
            .expect("a stack's device shares the stack's registry")
            .metrics
            .snapshot();
        let tallies = fault_tallies(&m, fs);
        let (busy, drops) = (m.counter("fault.busy"), m.counter("fault.doorbell_drops"));
        let unrecoverable = FaultCounters::media_injections(&m) > busy + drops;
        let degraded = tallies["degraded"] > 0;
        let all_ok = fsync_ok.iter().all(|ok| *ok);
        let mut checks = if unrecoverable {
            // Unrecoverable: whole-tx failure + read-only degradation.
            let fsck = fs.check().join("; ");
            let healed = fsync_ok.iter().skip_while(|ok| **ok).any(|ok| *ok);
            vec![
                (
                    degraded,
                    "unrecoverable fault did not degrade the file system",
                ),
                (
                    fsck.contains("degraded to read-only"),
                    "fsck does not report the degraded state",
                ),
                (
                    probe.is_err(),
                    "probe mutation accepted on a degraded file system",
                ),
                (!healed, "mutation succeeded after read-only degradation"),
                // Every script fsync preceded the window: the fault must
                // then have hit the probe's own transaction.
                (
                    !all_ok || probe.is_err(),
                    "unrecoverable fault fired but nothing failed",
                ),
            ]
        } else {
            // No injection, or one the host must absorb: fully transparent.
            vec![
                (all_ok, "operation failed without an unrecoverable fault"),
                (!degraded, "degraded without an unrecoverable fault"),
                (probe.is_ok(), "probe mutation rejected on a healthy stack"),
                (
                    busy == 0 || tallies["retries"] > 0,
                    "busy completion was not retried",
                ),
                (
                    drops == 0 || tallies["timeouts"] == 0,
                    "dropped doorbell escalated to a timeout",
                ),
            ]
        };
        checks.push((readback_ok, "read of committed data failed"));
        let mut findings: Vec<String> = checks
            .into_iter()
            .filter(|(holds, _)| !holds)
            .map(|(_, broken)| broken.to_string())
            .collect();
        match probe {
            Err(e) if unrecoverable && !matches!(e, FsError::ReadOnly | FsError::Io) => {
                findings.push(format!("probe failed with unexpected error: {e}"))
            }
            _ => {}
        }
        findings
    }

    fn verify(&self, fs: &Arc<FileSystem>, persisted: &HashSet<u64>) -> Vec<String> {
        let mut problems = Vec::new();
        for k in 0..Self::FILES {
            let (path, byte) = (format!("/d/f{k}"), 0xa0 + k as u8);
            let ino = exists(fs, &path);
            if persisted.contains(&(k as u64)) {
                if !ino.is_some_and(|ino| content_is(fs, ino, byte, Self::LEN)) {
                    problems.push(format!("{path}: fsynced content lost or damaged"));
                }
            } else if let Some(ino) = ino {
                // All-or-none: the file is written in one call before its
                // own fsync, so a transaction that did not return leaves
                // it empty or whole — any other size is torn.
                let (size, _, _) = fs.stat(ino);
                let whole = size == Self::LEN as u64 && content_is(fs, ino, byte, Self::LEN);
                if size != 0 && !whole {
                    problems.push(format!(
                        "{path}: unacknowledged transaction replayed torn (size {size})"
                    ));
                }
            }
        }
        problems
    }
}

/// The four Table 4 workloads with the paper's row order.
pub fn table4_workloads() -> Vec<Arc<dyn CrashWorkload>> {
    vec![
        Arc::new(CreateDelete { rounds: 6 }),
        Arc::new(Generic035 { rounds: 4 }),
        Arc::new(Generic106),
        Arc::new(Generic321),
    ]
}
