//! The file-system crash scripts: the four of Table 4, the surfaces the
//! enumerator pins, and [`fault_campaign`], which every fault schedule
//! runs. Each is data, an [`FsScript`] judged by the one step rule of
//! [`crate::script`]; only their live contracts differ.

use ccnvme_fault::FaultCounters;
use mqfs::{FileSystem, FsError};

use crate::fault_tallies;
use crate::script::{every_op_ok, Entry, FsScript, Model, Namespace, Op, Step, StepRun};

fn mkdir(path: &str) -> Op {
    Op::Mkdir(path.into())
}

fn create(path: &str) -> Op {
    Op::Create(path.into())
}

fn write(path: &str, block: u64, blocks: u64, byte: u8) -> Op {
    Op::Write {
        path: path.into(),
        block,
        blocks,
        byte,
    }
}

fn unlink(path: &str) -> Op {
    Op::Unlink(path.into())
}

fn rename(from: &str, to: &str) -> Op {
    Op::Rename {
        from: from.into(),
        to: to.into(),
    }
}

fn fsync(path: &str) -> Op {
    Op::Fsync(path.into())
}

/// `create()` and `remove()` on files (Table 4 row 1): round `r`
/// creates `/cd/f{r}` with one block and `fsync`s it, then unlinks the
/// previous round's file and `fsync`s the directory.
pub fn create_delete(rounds: u64) -> FsScript {
    let f = |r: u64| format!("/cd/f{r}");
    let mut steps = vec![vec![mkdir("/cd"), fsync("/cd")]];
    for r in 0..rounds {
        steps.push(vec![
            create(&f(r)),
            write(&f(r), 0, 1, r as u8 + 1),
            fsync(&f(r)),
        ]);
        if r >= 1 {
            steps.push(vec![unlink(&f(r - 1)), fsync("/cd")]);
        }
    }
    FsScript::new("create_delete", steps)
}

/// `rename()` overwrite on existing files and directories (xfstest
/// 035): `rounds` staged versions renamed over `target`, then an empty
/// directory renamed over another.
pub fn generic_035(rounds: u64) -> FsScript {
    let (dir, target, staging) = ("/g35", "/g35/target", "/g35/staging");
    let mut steps = vec![vec![
        mkdir(dir),
        create(target),
        write(target, 0, 1, 1),
        fsync(target),
    ]];
    for r in 1..=rounds {
        steps.push(vec![
            create(staging),
            write(staging, 0, 1, r as u8 + 1),
            fsync(staging),
        ]);
        steps.push(vec![rename(staging, target), fsync(dir)]);
    }
    steps.push(vec![mkdir("/g35/dsrc"), mkdir("/g35/dtgt"), fsync(dir)]);
    steps.push(vec![rename("/g35/dsrc", "/g35/dtgt"), fsync(dir)]);
    FsScript::new("generic_035", steps)
}

/// `link()` and `unlink()` on files, `remove()` of a directory
/// (xfstest 106).
pub fn generic_106() -> FsScript {
    let (dir, orig, sub) = ("/g106", "/g106/orig", "/g106/sub");
    let link = Op::Link {
        from: orig.into(),
        to: "/g106/link1".into(),
    };
    FsScript::new(
        "generic_106",
        [
            vec![
                mkdir(dir),
                create(orig),
                write(orig, 0, 1, 0x66),
                fsync(orig),
            ],
            vec![link, fsync(dir)],
            vec![unlink(orig), fsync(dir)],
            vec![mkdir(sub), fsync(dir)],
            vec![Op::Rmdir(sub.into()), fsync(dir)],
        ],
    )
}

/// Various directory `fsync()` tests (xfstest 321): a directory `fsync`
/// persists its new entry and the child's inode, and a cross-directory
/// rename is persisted by the two directories' `fsync`s.
pub fn generic_321() -> FsScript {
    let (a, b) = ("/g321/a", "/g321/b");
    FsScript::new(
        "generic_321",
        [
            vec![mkdir("/g321"), fsync("/g321")],
            vec![mkdir(a), create("/g321/a/foo"), fsync(a)],
            vec![mkdir(b), fsync("/g321")],
            vec![rename("/g321/a/foo", "/g321/b/bar"), fsync(b), fsync(a)],
            vec![create("/g321/a/baz"), fsync(a)],
        ],
    )
}

/// One file taken through every shape its extent map can have (not a
/// Table 4 row): appends that grow one extent in place, a back-to-front
/// fill that opens more extents than the inode holds (so they spill
/// into a leaf block), an unlink that frees data and leaf blocks, and a
/// re-created file whose data lands on all of them — the old leaf
/// included, whose journal copy must be revoked, not replayed.
pub fn extent_spill() -> FsScript {
    /// The first file's blocks; block `HOLE` is never written.
    const OLD_BLOCKS: u64 = 18;
    const HOLE: u64 = 3;
    /// Blocks of the file re-created over the freed ones.
    const NEW_BLOCKS: u64 = 20;
    let a = "/ext/a";
    let old = |b: u64| write(a, b, 1, 0x10 + b as u8);
    let mut steps = vec![
        vec![mkdir("/ext"), fsync("/ext")],
        vec![create(a), old(0), fsync(a)],
    ];
    // Each append continues the previous block on disk: one extent.
    steps.extend((1..HOLE).map(|b| vec![old(b), fsync(a)]));
    // Back to front, every block is allocated while the one before it
    // is still a hole: 14 one-block extents on top of the first, two
    // more than the inode holds.
    steps.push(
        (HOLE + 1..OLD_BLOCKS)
            .rev()
            .map(old)
            .chain([fsync(a)])
            .collect(),
    );
    steps.push(vec![unlink(a), fsync("/ext")]);
    // The same name gets the same inode number, hence the same block
    // group: a sequential file takes the freed blocks in LBA order.
    let new = (0..NEW_BLOCKS).map(|b| write(a, b, 1, 0x80 + b as u8));
    steps.push(
        [create(a)]
            .into_iter()
            .chain(new)
            .chain([fsync(a)])
            .collect(),
    );
    FsScript::new("extent_spill", steps)
}

/// Journal region [`patch_chain`] runs on: two areas of four blocks.
/// The first create's transaction takes two (the root directory's new
/// block, written whole, + JD); every other transaction there is one
/// JD, its directory record and inode slots inside it as patches.
pub const PATCH_CHAIN_JOURNAL_BLOCKS: u64 = 8;

/// `a` and `b` of [`patch_chain`]: names whose hashed inode goals fall
/// into one inode-table block; `c`: one that falls elsewhere.
const PATCH_FILES: [&str; 3] = ["/p29", "/q12", "/c"];

/// The crash surface of the journal's *patch* record (not a Table 4
/// row). One scripted thread hops between two cores — two journal
/// areas — appending to and fsyncing three files: `a` and `b`, whose
/// inodes share one inode-table block, and `c`, whose inode lives
/// elsewhere. Every append journals the file's 256-byte inode slot and
/// one bitmap byte as patches inside the JD. Run on a journal of
/// [`PATCH_CHAIN_JOURNAL_BLOCKS`] the script builds, twice and
/// mirrored, the one shape in which "a newer version exists elsewhere"
/// must not release an older record:
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
pub fn patch_chain() -> FsScript {
    // `(core, file)` of every append after the three creates (core 0;
    // they fill area 0 exactly, so the first append wraps it).
    const APPENDS: [(usize, usize); 13] = [
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
    let mut blocks = [0u64; 3];
    let mut append = |core: usize, f: usize| {
        let (path, block) = (PATCH_FILES[f], blocks[f]);
        blocks[f] += 1;
        let ops = vec![
            write(path, block, 1, 0x10 + 0x40 * f as u8 + block as u8),
            fsync(path),
        ];
        Step { core, ops }
    };
    let mut steps: Vec<Step> = (0..3)
        .map(|f| {
            let mut step = append(0, f);
            step.ops.insert(0, create(PATCH_FILES[f]));
            step
        })
        .collect();
    steps.extend(APPENDS.map(|(core, f)| append(core, f)));
    FsScript {
        name: "patch_chain",
        steps,
        live: shares_a_table_block,
    }
}

/// [`patch_chain`]'s precondition, checked after the run on top of
/// [`every_op_ok`].
fn shares_a_table_block(script: &FsScript, fs: &FileSystem, runs: &[StepRun]) -> Vec<String> {
    let mut findings = every_op_ok(script, fs, runs);
    let table_block = |path: &str| fs.resolve(path).ok().map(|i| fs.layout().inode_pos(i).0);
    let [a, b, c] = PATCH_FILES.map(table_block);
    if a.is_none() || a != b || a == c {
        findings.push(
            "a and b must share an inode-table block and c sit elsewhere \
             (did the name hash or the layout change?)"
                .into(),
        );
    }
    findings
}

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
pub fn dir_records() -> FsScript {
    let long = |k: u32| format!("/dr/{k:02}{}", "l".repeat(198));
    let fill = (0..=20).map(|k| create(&long(k)));
    FsScript::new(
        "dir_records",
        [
            [mkdir("/dr")]
                .into_iter()
                .chain(fill)
                .chain([fsync("/dr")])
                .collect(),
            vec![create("/dr/s"), fsync("/dr/s")],
            vec![unlink(&long(20)), fsync("/dr")],
            vec![unlink(&long(19)), fsync("/dr")],
            vec![create(&long(21)), fsync(&long(21))],
            vec![rename(&long(5), &long(21)), fsync("/dr")],
        ],
    )
}

/// The crash surface of operation-group retirement (not a Table 4 row):
/// a directory `fsync` journals only the operation groups no durable
/// commit has carried yet. `fsync(a)` retires `a`'s create; `fatomic(b)`
/// carries `b`'s create with atomic durability only, so the directory
/// `fsync` after it must journal that create again, and not `a`'s; the
/// second directory `fsync` journals the unlink of `a` alone.
pub fn carried_groups() -> FsScript {
    FsScript::new(
        "carried_groups",
        [
            vec![mkdir("/cg"), create("/cg/a"), fsync("/cg/a")],
            vec![create("/cg/b"), Op::Fatomic("/cg/b".into()), fsync("/cg")],
            vec![unlink("/cg/a"), fsync("/cg")],
        ],
    )
}

/// Journal region [`background_checkpoint`] runs on: two areas of 80
/// blocks, more than the 65 (one chunk's ring blocks) at or below which
/// an area has no mark.
pub const BACKGROUND_JOURNAL_BLOCKS: u64 = 160;

/// Directories [`background_checkpoint`]'s first commit creates.
const BACKGROUND_DIRS: usize = 30;

/// The crash surface of a background checkpoint (not a Table 4 row):
/// on core 0, one `fsync` commits a directory and
/// [`BACKGROUND_DIRS`] subdirectories — each new directory block a
/// whole copy in the ring, which leaves no more than three times the
/// transaction's blocks free in an area of [`BACKGROUND_JOURNAL_BLOCKS`]
/// — then a file is appended to block by block, each append `fsync`ed.
/// The first commit passes the mark; the pass it starts — home writes,
/// flush, horizon with FUA, release — runs on the journald core while
/// the appends commit, and no commit checkpoints (the live contract
/// checks both).
pub fn background_checkpoint() -> FsScript {
    let dirs = (0..BACKGROUND_DIRS).map(|i| mkdir(&format!("/bg/d{i}")));
    let first = [mkdir("/bg")]
        .into_iter()
        .chain(dirs)
        .chain([fsync("/bg")])
        .collect();
    let f = "/bg/f";
    let appends = (0..6).map(|b| {
        let mut step = if b == 0 { vec![create(f)] } else { vec![] };
        step.extend([write(f, b, 1, b as u8 + 1), fsync(f)]);
        step
    });
    FsScript {
        live: checkpointed_in_the_background,
        ..FsScript::new("background_checkpoint", [first].into_iter().chain(appends))
    }
}

/// [`background_checkpoint`]'s precondition, checked after the run on
/// top of [`every_op_ok`]: a checkpoint pass ran, and no commit waited
/// for ring space — so none ran a pass itself.
fn checkpointed_in_the_background(
    script: &FsScript,
    fs: &FileSystem,
    runs: &[StepRun],
) -> Vec<String> {
    let mut findings = every_op_ok(script, fs, runs);
    let m = ccnvme_block::obs_of(&**fs.device()).metrics.snapshot();
    let passes = m.counter("journal.mq.checkpoints");
    let waits = m
        .histogram("journal.mq.reserve_wait_ns")
        .map_or(0, |h| h.summary.count);
    if passes == 0 || waits != 0 {
        findings.push(format!(
            "want a background checkpoint and no commit waiting for ring space: \
             {passes} checkpoints, {waits} waits (did the journal size or the mark change?)"
        ));
    }
    findings
}

/// Files [`fault_campaign`] creates and fsyncs, one step each (steps
/// `1..=FAULT_FILES`).
pub const FAULT_FILES: usize = 3;

/// The script every fault schedule runs (not a Table 4 row): `mkdir
/// /d`, then [`FAULT_FILES`] files of four blocks, each created,
/// written in one call and fsynced as one transaction, then a probe
/// rewrite of `/d/f0`'s first block.
///
/// The stack's fault plan arms the recorded run, and the run is held
/// to the live error contract, judged on its steps' outcomes and its
/// [`fault_tallies`]:
///
/// * **transient** faults (busy completions, dropped doorbells) are
///   absorbed by the host's retry/kick ladder — every operation
///   succeeds and nothing degrades;
/// * **unrecoverable** faults (media errors, torn DMA, stalls) fail the
///   *whole* enclosing transaction and degrade the file system to
///   read-only: fsck reports it, reads of the persisted files keep
///   working, the probe is rejected.
pub fn fault_campaign() -> FsScript {
    let f = |k: usize| format!("/d/f{k}");
    let files = (0..FAULT_FILES).map(|k| {
        vec![
            create(&f(k)),
            write(&f(k), 0, 4, 0xa0 + k as u8),
            fsync(&f(k)),
        ]
    });
    let probe = vec![write(&f(0), 0, 1, 0xa0), fsync(&f(0))];
    let steps = [vec![mkdir("/d"), fsync("/d")]]
        .into_iter()
        .chain(files)
        .chain([probe]);
    FsScript {
        live: error_contract,
        ..FsScript::new("fault_campaign", steps)
    }
}

/// [`fault_campaign`]'s live contract.
fn error_contract(script: &FsScript, fs: &FileSystem, runs: &[StepRun]) -> Vec<String> {
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
    let ok: Vec<bool> = runs.iter().map(|r| r.outcome.is_ok()).collect();
    let all_ok = ok[..=FAULT_FILES].iter().all(|ok| *ok);
    let probe = &runs.last().expect("the probe ran").outcome;
    // Reads must keep working, degraded or not: every file of a step
    // that went through reads back as the model has it.
    let mut model = Model::default();
    for (step, _) in script
        .steps
        .iter()
        .zip(runs)
        .filter(|(_, r)| r.outcome.is_ok())
    {
        step.ops.iter().for_each(|op| model.apply(op));
    }
    let found = Namespace::observe(fs);
    let readback_ok = model.namespace().0.iter().all(|(path, entry)| {
        matches!(entry, Entry::Dir { .. }) || found.0.get(path) == Some(entry)
    });
    let mut checks = if unrecoverable {
        // Unrecoverable: whole-tx failure + read-only degradation.
        let fsck = fs.check().join("; ");
        let healed = ok.iter().skip_while(|ok| **ok).any(|ok| *ok);
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
            // Every file step preceded the window: the fault must then
            // have hit the probe's own transaction.
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
        Err((_, e)) if unrecoverable && !matches!(e, FsError::ReadOnly | FsError::Io) => {
            findings.push(format!("probe failed with unexpected error: {e}"))
        }
        _ => {}
    }
    findings
}

/// The four Table 4 workloads in the paper's row order.
pub fn table4_workloads() -> Vec<FsScript> {
    vec![
        create_delete(6),
        generic_035(4),
        generic_106(),
        generic_321(),
    ]
}
