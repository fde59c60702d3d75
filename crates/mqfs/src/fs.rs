//! The file system proper: namespace operations, the write/read paths
//! and the `fsync`/`fatomic` family (§5.1).
//!
//! All metadata — bitmap blocks, inode-table blocks, directory blocks and
//! extent-leaf blocks — lives in the [`BufferCache`] keyed by device LBA
//! and changes only through [`WriteSet::update`], which records the block
//! and the byte range it wrote. The journal set of an operation is
//! therefore the bytes it wrote: the operation's closing `finish` makes
//! it an *operation group* and names the group in the *dependency set*
//! of every inode whose later `fsync` must persist the operation ("MQFS
//! always packs the target files of a file operation into a single
//! transaction", §7.6). A group a durable commit carried is retired, so
//! a later `fsync` journals only what is not yet durable.
//!
//! `fsync` assembles one transaction: the file's dirty data pages
//! (ordered-mode data), a snapshot of each dependent metadata block
//! with the ranges written in it (the multi-queue engine journals a
//! block written in few places as those bytes alone) and — through the
//! journal engine — a journal description block. The variants differ in
//! how the shared metadata blocks are captured:
//!
//! * **Metadata shadow paging** (MQFS, §5.3): lock, copy, unlock — the
//!   page lock is held only for the copy, so concurrent `fsync`s that
//!   share an inode-table block proceed in parallel.
//! * **Lock-based** (Ext4/HoraeFS and the ablation variants): the page
//!   locks are held for the whole commit, serializing such `fsync`s.

use std::{
    collections::{BTreeMap, BTreeSet, HashSet},
    sync::{
        atomic::{AtomicBool, Ordering},
        Arc,
    },
};

use ccnvme_block::{
    flush_cache, read_block, submit_and_wait, write_blocks, Bio, BlockBuf, BLOCK_SIZE,
};
use ccnvme_obs::{
    hash::{IntMap, IntSet},
    Histogram,
};
use ccnvme_runtime::{Ns, RtMutex, RtRwLock};
use mqfs_journal::{
    AreaSpec, ClassicJournal, CommitStyle, Dev, Durability, Journal, MqJournal, NoJournal,
    ReuseAction, TxBlock, TxDescriptor,
};
use parking_lot::Mutex;

use crate::{
    alloc::Allocator,
    buffer::{BufferCache, WriteSet, WHOLE},
    dir::{self, DirState},
    error::{FsError, FsResult},
    inode::{ExtentMap, Inode, InodeKind, MAX_BLOCKS},
    layout::{Layout, ROOT_INO},
};

// CPU cost model of the syscall paths (calibrated against Figure 14).
const FSYNC_ENTRY_CPU: Ns = 900;
const PAGE_COLLECT_CPU: Ns = 400;
const INODE_SER_CPU: Ns = 800;
const META_COPY_CPU: Ns = 600;
const DIRENT_CPU: Ns = 600;
const NAMEI_CPU: Ns = 350;
const WRITE_BASE_CPU: Ns = 700;
const WRITE_PAGE_CPU: Ns = 450;
const READ_BASE_CPU: Ns = 500;
const READ_PAGE_CPU: Ns = 350;
const CREATE_CPU: Ns = 1_200;

/// Which system the file system emulates (Table: see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsVariant {
    /// Full MQFS: multi-queue journaling + metadata shadow paging.
    Mqfs,
    /// MQFS without shadow paging (Figure 13 ablation step 3 minus 4).
    MqfsNoShadow,
    /// Ext4 structure with ccNVMe transaction commits (Figure 13
    /// "+ccNVMe").
    Ext4CcNvme,
    /// HoraeFS: classic structure, ordering points removed.
    HoraeFs,
    /// Ext4 with JBD2-style journaling.
    Ext4,
    /// Ext4 with journaling disabled (the paper's upper bound).
    Ext4NoJournal,
}

impl FsVariant {
    /// Whether fsync uses metadata shadow paging (§5.3).
    pub fn shadow_paging(&self) -> bool {
        matches!(self, FsVariant::Mqfs)
    }

    /// Whether the variant uses the per-core multi-queue journal.
    pub fn mq_journal(&self) -> bool {
        matches!(self, FsVariant::Mqfs | FsVariant::MqfsNoShadow)
    }

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            FsVariant::Mqfs => "MQFS",
            FsVariant::MqfsNoShadow => "MQFS-noshadow",
            FsVariant::Ext4CcNvme => "Ext4+ccNVMe",
            FsVariant::HoraeFs => "HoraeFS",
            FsVariant::Ext4 => "Ext4",
            FsVariant::Ext4NoJournal => "Ext4-NJ",
        }
    }
}

/// Mount/format configuration.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Which system to emulate.
    pub variant: FsVariant,
    /// Journal region length in blocks (the paper uses 1 GB total; scale
    /// down for fast experiments).
    pub journal_blocks: u64,
    /// Number of per-core journal areas for the multi-queue engine.
    pub queues: usize,
    /// Core for the dedicated commit thread of the classic engines.
    pub journald_core: usize,
}

impl FsConfig {
    /// A sensible default configuration for `variant`.
    pub fn new(variant: FsVariant) -> Self {
        FsConfig {
            variant,
            journal_blocks: 4_096,
            queues: 1,
            journald_core: 0,
        }
    }
}

/// Per-syscall latency histograms, registered in the device's metrics
/// registry under `mqfs.<op>_ns` names, and the sync path's Figure 14
/// breakdown under `mqfs.sync_<phase>_ns`. Only successful calls record
/// (error paths return before the stop watch).
struct SyscallHists {
    create: Arc<Histogram>,
    mkdir: Arc<Histogram>,
    write: Arc<Histogram>,
    fsync: Arc<Histogram>,
    fatomic: Arc<Histogram>,
    rename: Arc<Histogram>,
    unlink: Arc<Histogram>,
    /// S-iD: collect the dirty data pages.
    sync_data: Arc<Histogram>,
    /// S-iM: serialize the inode and close over open operations.
    sync_inode: Arc<Histogram>,
    /// S-pM: capture the dependent (parent) metadata blocks.
    sync_parent: Arc<Histogram>,
    /// S-JH + W-*: the journal commit, submit and wait.
    sync_commit: Arc<Histogram>,
}

impl SyscallHists {
    fn registered(reg: &ccnvme_obs::Registry) -> Self {
        SyscallHists {
            create: reg.histogram("mqfs.create_ns"),
            mkdir: reg.histogram("mqfs.mkdir_ns"),
            write: reg.histogram("mqfs.write_ns"),
            fsync: reg.histogram("mqfs.fsync_ns"),
            fatomic: reg.histogram("mqfs.fatomic_ns"),
            rename: reg.histogram("mqfs.rename_ns"),
            unlink: reg.histogram("mqfs.unlink_ns"),
            sync_data: reg.histogram("mqfs.sync_data_ns"),
            sync_inode: reg.histogram("mqfs.sync_inode_ns"),
            sync_parent: reg.histogram("mqfs.sync_parent_ns"),
            sync_commit: reg.histogram("mqfs.sync_commit_ns"),
        }
    }
}

/// How dirty the inode metadata is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetaDirty {
    Clean,
    /// Only timestamps changed (fdatasync may skip the inode).
    Timestamps,
    /// Size or mapping changed.
    Full,
}

struct InodeSt {
    inode: Inode,
    /// File-data page cache (file block index → content). An `fsync`
    /// hands a dirty page to its transaction as it is, so a page may be
    /// shared with I/O in flight: a write copies such a page first.
    pages: IntMap<u64, BlockBuf>,
    dirty_pages: BTreeSet<u64>,
    meta_dirty: MetaDirty,
    /// What this file's plain `write`s allocated: the next fsync
    /// journals it.
    dep_meta: WriteSet,
    /// The operation groups (see [`OpIndex`]) the next fsync must
    /// persist, by id; a retired group's id names nothing.
    dep_groups: Vec<u64>,
    /// Directory index (directories only).
    dir: Option<DirState>,
}

struct InodeHandle {
    st: RtMutex<InodeSt>,
}

/// One namespace operation's writes (see [`OpIndex`]).
struct Group {
    ws: WriteSet,
    /// Dependency sets that name the group.
    holders: usize,
    /// A commit took the group: closure no longer absorbs it.
    carried: bool,
}

/// Index of *operation groups*: each namespace operation (create,
/// unlink, rename, link, mkdir, rmdir) dirties several metadata blocks
/// that must reach disk **together** — committing a shared inode-table
/// block without the matching directory block would tear the operation
/// across transactions. `fsync` seeds its transaction with the groups
/// the file's dependency set names and expands it to the closure over
/// open groups ("MQFS always packs the target files of a file operation
/// into a single transaction", §7.6). A group is
///
/// * *open* until a commit takes it: closure absorbs it;
/// * *carried* once one did, until a durable commit that carried it
///   returns: closure passes it by, but an `fsync` that names it still
///   journals its bytes — the commit that took it may not be durable
///   yet, or never will be (`fatomic`);
/// * *retired* — gone from the index — from then on: it is on media, and
///   contributes nothing to a later seed.
///
/// A carried group that no dependency set names any more is dropped
/// too: no `fsync` can ask for it.
#[derive(Default)]
struct OpIndex {
    groups: IntMap<u64, Group>,
    /// The open groups by the blocks they wrote.
    by_lba: IntMap<u64, Vec<u64>>,
    next: u64,
}

impl OpIndex {
    /// Opens a group for `ws` and names it in every dependency set of
    /// `deps`.
    fn register<'a>(&mut self, ws: WriteSet, deps: impl IntoIterator<Item = &'a mut Vec<u64>>) {
        let gid = self.next;
        self.next += 1;
        for lba in ws.lbas() {
            self.by_lba.entry(lba).or_default().push(gid);
        }
        let mut holders = 0;
        for dep in deps {
            // A directory nobody fsyncs keeps naming groups its
            // children's commits retired: forget those as it grows.
            if dep.len() >= 64 && dep.len().is_power_of_two() {
                dep.retain(|g| self.groups.contains_key(g));
            }
            dep.push(gid);
            holders += 1;
        }
        let group = Group {
            ws,
            holders,
            carried: false,
        };
        self.groups.insert(gid, group);
    }

    /// Adds the bytes of the groups `gids` names that are not retired,
    /// open or carried, to `seed`; returns their ids.
    fn seed(&self, gids: &[u64], seed: &mut WriteSet) -> Vec<u64> {
        let mut named = Vec::new();
        for gid in gids {
            if let Some(group) = self.groups.get(gid) {
                seed.merge(&group.ws);
                named.push(*gid);
            }
        }
        named
    }

    /// Expands `seed` to the closure over open groups; returns the
    /// closed set and the group ids it absorbed. Closure is per block,
    /// not per byte — eight data blocks share a bitmap byte, sixteen
    /// inodes a table block: an open group that wrote anywhere in a
    /// block of the set is absorbed whole, ranges and all.
    fn closure(&self, seed: &WriteSet) -> (WriteSet, Vec<u64>) {
        let mut out = seed.clone();
        let mut gids = Vec::new();
        let mut frontier: Vec<u64> = seed.lbas().collect();
        let mut seen_gids: IntSet<u64> = IntSet::default();
        while let Some(lba) = frontier.pop() {
            for gid in self.by_lba.get(&lba).into_iter().flatten() {
                if seen_gids.insert(*gid) {
                    gids.push(*gid);
                    let group = &self.groups[gid].ws;
                    frontier.extend(group.lbas().filter(|l| out.ranges(*l).is_none()));
                    out.merge(group);
                }
            }
        }
        (out, gids)
    }

    /// A commit took `gids`: closure stops absorbing them.
    fn carry(&mut self, gids: &[u64]) {
        for gid in gids {
            let Some(group) = self.groups.get_mut(gid) else {
                continue; // Retired meanwhile by another durable commit.
            };
            if std::mem::replace(&mut group.carried, true) {
                continue;
            }
            for lba in group.ws.lbas() {
                if let Some(v) = self.by_lba.get_mut(&lba) {
                    v.retain(|g| g != gid);
                    if v.is_empty() {
                        self.by_lba.remove(&lba);
                    }
                }
            }
            if group.holders == 0 {
                self.groups.remove(gid);
            }
        }
    }

    /// A durable commit that carried `gids` returned.
    fn retire(&mut self, gids: &[u64]) {
        for gid in gids {
            self.groups.remove(gid);
        }
    }

    /// A dependency set stops naming `gids`: its holder's commit was
    /// not durable, or the holder was freed.
    fn release(&mut self, gids: &[u64]) {
        for gid in gids {
            if let Some(group) = self.groups.get_mut(gid) {
                group.holders -= 1;
                if group.carried && group.holders == 0 {
                    self.groups.remove(gid);
                }
            }
        }
    }
}

/// The mounted file system.
pub struct FileSystem {
    dev: Dev,
    cfg: FsConfig,
    layout: Layout,
    cache: Arc<BufferCache>,
    alloc: Allocator,
    journal: Arc<dyn Journal>,
    icache: RtMutex<IntMap<u64, Arc<InodeHandle>>>,
    /// Open namespace-operation groups (see [`OpIndex`]).
    ops: RtMutex<OpIndex>,
    /// Capture barrier: namespace operations hold it shared for their
    /// multi-block mutation span; `fsync`'s capture phase takes it
    /// exclusively so it never snapshots a half-applied operation (the
    /// running-transaction `t_updates` discipline of JBD2). Lock order:
    /// barrier before inode handles.
    op_barrier: RtRwLock<()>,
    /// Syscall-level latency histograms (`mqfs.<op>_ns`) and the sync
    /// path's phases (`mqfs.sync_<phase>_ns`).
    sys: SyscallHists,
    /// Set when the file system degraded to read-only after an
    /// unrecoverable error: writes fail with [`FsError::ReadOnly`],
    /// reads are still served.
    degraded: AtomicBool,
    /// Human-readable reason for the degradation (fsck-visible).
    degrade_reason: Mutex<Option<String>>,
}

impl FileSystem {
    /// Formats `dev` and mounts the fresh volume.
    pub fn format(dev: Dev, cfg: FsConfig) -> Arc<FileSystem> {
        let layout = Layout::new(dev.capacity_blocks(), cfg.journal_blocks);
        // Write the superblock and a blank horizon directly.
        let sb = layout.encode_superblock();
        let _ = submit_and_wait(
            &*dev,
            Bio::write(layout.superblock(), sb, ccnvme_block::BioFlags::NONE),
        );
        let hz = vec![0u8; BLOCK_SIZE as usize];
        let _ = submit_and_wait(
            &*dev,
            Bio::write(layout.horizon(), hz, ccnvme_block::BioFlags::NONE),
        );
        // mkfs sends the blocks it wrote — the bitmaps and the root
        // inode's table block — straight to the device (formatting is not
        // crash-protected), ending with a durability barrier.
        let mut ws = WriteSet::default();
        let cache = Arc::new(BufferCache::new(Arc::clone(&dev)));
        let alloc = Allocator::format(layout, Arc::clone(&cache), &mut ws);
        let journal = build_journal(&cfg, &dev, &layout);
        let fs = Self::assemble(dev, cfg, layout, cache, alloc, journal);
        // Root inode: an empty directory in a table block nobody has
        // written yet, so there is nothing to read.
        fs.cache.get_zeroed(layout.inode_pos(ROOT_INO).0);
        fs.write_inode(&mut ws, ROOT_INO, &Inode::new(InodeKind::Dir));
        let blocks = ws.lbas().map(|lba| (lba, fs.cache.get(lba).shadow_copy()));
        let _ = write_blocks(&*fs.dev, blocks);
        let _ = flush_cache(&*fs.dev);
        fs
    }

    /// Mounts an existing volume, replaying the journal first. `discard`
    /// carries the unfinished-transaction IDs from the ccNVMe recovery
    /// window (empty for the baseline variants).
    pub fn mount(dev: Dev, cfg: FsConfig, discard: &HashSet<u64>) -> FsResult<Arc<FileSystem>> {
        // Read the superblock directly.
        let sb = read_block(&*dev, 0).map_err(|_| FsError::Io)?;
        let layout = Layout::decode_superblock(&sb).ok_or(FsError::Io)?;
        let journal = build_journal(&cfg, &dev, &layout);
        // Journal recovery: replay valid transactions in ID order.
        let updates = journal.recover(discard);
        let max_tx = updates.iter().map(|u| u.tx_id).max().unwrap_or(0);
        let max_discard = discard.iter().copied().max().unwrap_or(0);
        let replayed = mqfs_journal::recover::replay_updates(&dev, &updates);
        journal.set_tx_floor(max_tx.max(max_discard));
        let mut floored = Ok(());
        if replayed.is_ok() {
            // Every replayed and discarded transaction is settled: push
            // the durable replay floor past all of them so a crash during
            // normal operation never revisits this window. Skipped when
            // replay failed — the floor must not pass writes that never
            // landed.
            let floor = max_tx.max(max_discard);
            if floor > 0 {
                floored = journal.persist_replay_floor(floor + 1);
            }
        }
        let cache = Arc::new(BufferCache::new(Arc::clone(&dev)));
        let alloc = Allocator::load(layout, Arc::clone(&cache));
        let fs = Self::assemble(dev, cfg, layout, cache, alloc, journal);
        if let Err(status) = replayed {
            // Replay exhausted its retry budget on a media error: mount
            // read-only rather than present a half-replayed file system
            // as healthy. The journal content stays intact for a later
            // repair mount.
            fs.degrade(&format!("journal replay failed: {status:?}"));
        }
        if floored.is_err() {
            // The discarded transactions' journal copies are intact and
            // still above the floor on media: whoever holds the list of
            // them (the PMR abort logs) must keep it for the next mount.
            fs.degrade("replay floor not durable");
        }
        Ok(fs)
    }

    fn assemble(
        dev: Dev,
        cfg: FsConfig,
        layout: Layout,
        cache: Arc<BufferCache>,
        alloc: Allocator,
        journal: Arc<dyn Journal>,
    ) -> Arc<FileSystem> {
        let sys = SyscallHists::registered(&ccnvme_block::obs_of(dev.as_ref()).metrics);
        Arc::new(FileSystem {
            dev,
            cfg,
            layout,
            cache,
            alloc,
            journal,
            icache: RtMutex::new(IntMap::default()),
            ops: RtMutex::new(OpIndex::default()),
            op_barrier: RtRwLock::new(()),
            sys,
            degraded: AtomicBool::new(false),
            degrade_reason: Mutex::new(None),
        })
    }

    /// The block device this file system is mounted on.
    pub fn device(&self) -> &Dev {
        &self.dev
    }

    /// Gracefully unmounts: flushes every dirty inode, checkpoints the
    /// journal and stops its threads (§5.5 graceful shutdown).
    pub fn unmount(&self) {
        let inos: Vec<u64> = {
            let ic = self.icache.lock();
            ic.keys().copied().collect()
        };
        for ino in inos {
            let _ = self.fsync(ino);
        }
        self.journal.checkpoint_all();
        self.journal.shutdown();
        // Final durability barrier.
        let _ = flush_cache(&*self.dev);
    }

    /// The configured variant.
    pub fn variant(&self) -> FsVariant {
        self.cfg.variant
    }

    /// The volume layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Unallocated blocks left on the volume.
    pub fn free_blocks(&self) -> u64 {
        self.alloc.free_blocks()
    }

    /// Root directory inode number.
    pub fn root(&self) -> u64 {
        ROOT_INO
    }

    // ------------------------------------------------------------------
    // Inode handles
    // ------------------------------------------------------------------

    fn handle(&self, ino: u64) -> Arc<InodeHandle> {
        {
            let ic = self.icache.lock();
            if let Some(h) = ic.get(&ino) {
                return Arc::clone(h);
            }
        }
        // Load outside the icache lock, then race to insert.
        let (iblk_lba, off) = self.layout.inode_pos(ino);
        let blk = self.cache.get(iblk_lba);
        let (mut inode, mut leaf) = blk.read(|d| Inode::decode(&d[off..off + 256]));
        while leaf != 0 {
            let blk = self.cache.get(leaf);
            leaf = blk.read(|d| inode.map.load_leaf(leaf, d));
        }
        let handle = Arc::new(InodeHandle {
            st: RtMutex::new(InodeSt {
                inode,
                pages: IntMap::default(),
                dirty_pages: BTreeSet::new(),
                meta_dirty: MetaDirty::Clean,
                dep_meta: WriteSet::default(),
                dep_groups: Vec::new(),
                dir: None,
            }),
        });
        let mut ic = self.icache.lock();
        Arc::clone(ic.entry(ino).or_insert(handle))
    }

    /// Ensures the directory index is loaded for a dir inode.
    fn load_dir(&self, st: &mut InodeSt) {
        if st.dir.is_some() {
            return;
        }
        assert_eq!(st.inode.kind, InodeKind::Dir, "load_dir on a non-directory");
        let nblocks = st.inode.nblocks();
        let mut blocks = Vec::with_capacity(nblocks as usize);
        for b in 0..nblocks {
            let lba = self.bmap(st, b).expect("directory block mapped");
            let blk = self.cache.get(lba);
            // Like a failed metadata read: a kernel panic, not a guess.
            let recs = blk.read(dir::decode_block);
            blocks.push(recs.unwrap_or_else(|e| panic!("directory block at lba {lba}: {e}")));
        }
        st.dir = Some(DirState::from_blocks(&blocks));
    }

    // ------------------------------------------------------------------
    // Block mapping
    // ------------------------------------------------------------------

    /// Maps a file block to its LBA (`None` = hole).
    fn bmap(&self, st: &InodeSt, file_block: u64) -> Option<u64> {
        st.inode.map.lookup(file_block)
    }

    /// Maps a file block, allocating its data block if it is a hole.
    /// When the allocator hands back the LBA after the previous file
    /// block's — what the goal asks for — the last extent grows in place
    /// and the inode is the only mapping metadata that changes.
    fn bmap_alloc(
        &self,
        ws: &mut WriteSet,
        st: &mut InodeSt,
        ino: u64,
        file_block: u64,
    ) -> FsResult<u64> {
        if let Some(lba) = self.bmap(st, file_block) {
            return Ok(lba);
        }
        if file_block >= MAX_BLOCKS {
            return Err(FsError::FileTooBig);
        }
        // Goal allocation: continue after the file's previous block, or
        // start in the inode's block group for its first one.
        let goal = file_block
            .checked_sub(1)
            .and_then(|prev| self.bmap(st, prev))
            .map_or_else(|| self.group_goal(ino), |l| l + 1);
        let lba = self.alloc.alloc_block_near(goal, ws)?;
        st.meta_dirty = MetaDirty::Full;
        let changed = st.inode.map.insert(file_block, lba);
        if let Err(e) = self.sync_leaves(ws, st, ino, changed.clone()) {
            // Only a newly opened extent can need one more leaf than the
            // volume has room for: take it back out.
            st.inode.map.remove(changed.start);
            self.alloc.free_block(lba, ws);
            return Err(e);
        }
        Ok(lba)
    }

    /// Brings the leaf chain in line with the extent list after the
    /// extent slots `changed` moved: grows the chain if the list no
    /// longer fits (failing, before touching anything, when the volume
    /// is full) and rewrites the leaves that store a changed slot.
    /// Leaves live in the inode's block group and are journaled
    /// metadata; a stale journal copy from a block's previous life is
    /// superseded by transaction-ID order at replay.
    fn sync_leaves(
        &self,
        ws: &mut WriteSet,
        st: &mut InodeSt,
        ino: u64,
        changed: std::ops::Range<usize>,
    ) -> FsResult<()> {
        let had = st.inode.map.leaves().len();
        let need = st.inode.map.leaves_needed();
        for _ in had..need {
            let leaf = self.alloc.alloc_block_near(self.group_goal(ino), ws)?;
            self.cache.get_zeroed(leaf);
            st.inode.map.push_leaf(leaf);
        }
        let mut span = ExtentMap::leaf_span(changed);
        if need > had {
            // The leaf before the new ones stores a changed `next`.
            span.start = span.start.min(had.saturating_sub(1));
        }
        for k in span.start..span.end {
            let lba = st.inode.map.leaves()[k];
            let encoded = st.inode.map.encode_leaf(k);
            ws.update(&self.cache.get(lba), WHOLE, |d| d.copy_from_slice(&encoded));
        }
        Ok(())
    }

    /// First block of the allocation group a seed value maps to.
    fn group_goal(&self, seed: u64) -> u64 {
        let data = self.layout.data_start();
        let span = self.layout.capacity - data;
        let groups = span / crate::layout::BITS_PER_BLOCK + 1;
        data + (seed % groups) * crate::layout::BITS_PER_BLOCK
    }

    fn note_reuse_into(&self, tx: &mut TxDescriptor, lba: u64) -> ReuseAction {
        let action = self.journal.note_block_reuse(lba);
        if action == ReuseAction::Revoked {
            tx.revokes.push(lba);
        }
        action
    }

    // ------------------------------------------------------------------
    // Error state / graceful degradation
    // ------------------------------------------------------------------

    /// Degrades the file system to read-only (like Linux's
    /// `errors=remount-ro`): every subsequent mutation fails with
    /// [`FsError::ReadOnly`]; reads keep working off the cache and
    /// device.
    fn degrade(&self, reason: &str) {
        // ord: SeqCst — read-only latch; must publish before the
        // caller returns an error so no later mutation slips through.
        if !self.degraded.swap(true, Ordering::SeqCst) {
            *self.degrade_reason.lock() = Some(reason.to_string());
        }
    }

    /// Fails mutations once degraded — either explicitly or because the
    /// journal aborted behind our back (e.g. a checkpoint detected a
    /// failed transaction).
    fn ensure_writable(&self) -> FsResult<()> {
        // ord: SeqCst — pairs with the degrade() latch.
        if self.degraded.load(Ordering::SeqCst) {
            return Err(FsError::ReadOnly);
        }
        if self.journal.is_aborted() {
            self.degrade("journal aborted after unrecoverable I/O error");
            return Err(FsError::ReadOnly);
        }
        Ok(())
    }

    /// The degradation reason, if the file system went read-only
    /// (`None` = healthy). Also surfaced by [`FileSystem::check`].
    pub fn error_state(&self) -> Option<String> {
        // ord: SeqCst — pairs with the degrade() latch.
        if self.degraded.load(Ordering::SeqCst) || self.journal.is_aborted() {
            Some(
                self.degrade_reason
                    .lock()
                    .clone()
                    .unwrap_or_else(|| "journal aborted after unrecoverable I/O error".to_string()),
            )
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // File I/O
    // ------------------------------------------------------------------

    /// Writes `data` at byte `offset`, growing the file as needed. Data
    /// stays in the page cache until `fsync`/`fatomic`.
    pub fn write(&self, ino: u64, offset: u64, data: &[u8]) -> FsResult<()> {
        let t0 = ccnvme_runtime::now();
        self.write_impl(ino, offset, data)?;
        self.sys.write.record(ccnvme_runtime::now() - t0);
        Ok(())
    }

    fn write_impl(&self, ino: u64, offset: u64, data: &[u8]) -> FsResult<()> {
        self.ensure_writable()?;
        ccnvme_runtime::cpu(WRITE_BASE_CPU);
        let h = self.handle(ino);
        let mut st = h.st.lock();
        if st.inode.kind == InodeKind::Dir {
            return Err(FsError::IsADirectory);
        }
        let end = offset + data.len() as u64;
        let mut pos = offset;
        let mut src = 0usize;
        let mut result = Ok(());
        while pos < end {
            ccnvme_runtime::cpu(WRITE_PAGE_CPU);
            let fb = pos / BLOCK_SIZE;
            let in_page = (pos % BLOCK_SIZE) as usize;
            let n = ((BLOCK_SIZE as usize - in_page) as u64).min(end - pos) as usize;
            // Decided before allocating: a hole filled just below holds
            // whatever its block's previous owner left on the media.
            let was_mapped = self.bmap(&st, fb).is_some();
            // A plain write is no namespace operation: what the
            // allocation wrote only joins this file's dependency set.
            let mut ws = WriteSet::default();
            let mapped = self.bmap_alloc(&mut ws, &mut st, ino, fb);
            st.dep_meta.merge(&ws);
            if let Err(e) = mapped {
                // Short write: the size below still has to cover the
                // blocks mapped so far (fsck: no extent beyond EOF).
                result = Err(e);
                break;
            }
            let bytes = &data[src..src + n];
            match st.pages.get_mut(&fb).and_then(BlockBuf::get_mut) {
                Some(page) => page[in_page..in_page + n].copy_from_slice(bytes),
                // Not cached, or shared — with a transaction in flight,
                // or with the device, which keeps a written page as its
                // media block: a new page, from the caller's bytes alone
                // if they cover it, else from the old content
                // (read-modify-write for a partial page that exists on
                // disk).
                None => {
                    let page = if n == BLOCK_SIZE as usize {
                        bytes.to_vec()
                    } else {
                        let mut page = match st.pages.get(&fb) {
                            Some(shared) => shared.to_vec(),
                            None if was_mapped => self.read_page_from_disk(&st, fb)?,
                            None => vec![0u8; BLOCK_SIZE as usize],
                        };
                        page[in_page..in_page + n].copy_from_slice(bytes);
                        page
                    };
                    st.pages.insert(fb, BlockBuf::new(page));
                }
            }
            st.dirty_pages.insert(fb);
            pos += n as u64;
            src += n;
        }
        if pos > st.inode.size {
            st.inode.size = pos;
            st.meta_dirty = MetaDirty::Full;
        } else if st.meta_dirty == MetaDirty::Clean {
            st.meta_dirty = MetaDirty::Timestamps;
        }
        st.inode.mtime = ccnvme_runtime::now();
        result
    }

    fn read_page_from_disk(&self, st: &InodeSt, fb: u64) -> FsResult<Vec<u8>> {
        match self.bmap(st, fb) {
            Some(lba) => read_block(&*self.dev, lba).map_err(|_| FsError::Io),
            None => Ok(vec![0u8; BLOCK_SIZE as usize]),
        }
    }

    /// Reads up to `len` bytes at `offset`; short reads happen at EOF.
    pub fn read(&self, ino: u64, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        ccnvme_runtime::cpu(READ_BASE_CPU);
        let h = self.handle(ino);
        let mut st = h.st.lock();
        if st.inode.kind == InodeKind::Dir {
            return Err(FsError::IsADirectory);
        }
        if offset >= st.inode.size {
            return Ok(Vec::new());
        }
        let end = (offset + len as u64).min(st.inode.size);
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut pos = offset;
        while pos < end {
            ccnvme_runtime::cpu(READ_PAGE_CPU);
            let fb = pos / BLOCK_SIZE;
            let in_page = (pos % BLOCK_SIZE) as usize;
            let n = ((BLOCK_SIZE as usize - in_page) as u64).min(end - pos) as usize;
            if !st.pages.contains_key(&fb) {
                let page = self.read_page_from_disk(&st, fb)?;
                st.pages.insert(fb, BlockBuf::new(page));
            }
            out.extend_from_slice(&st.pages[&fb][in_page..in_page + n]);
            pos += n as u64;
        }
        Ok(out)
    }

    /// File size and kind.
    pub fn stat(&self, ino: u64) -> (u64, InodeKind, u16) {
        let h = self.handle(ino);
        let st = h.st.lock();
        (st.inode.size, st.inode.kind, st.inode.nlink)
    }

    // ------------------------------------------------------------------
    // fsync family
    // ------------------------------------------------------------------

    /// `fsync`: atomic and durable persistence of the file and the
    /// operations that created it.
    pub fn fsync(&self, ino: u64) -> FsResult<()> {
        self.sync_inner(ino, Durability::Durable, false)
    }

    /// `fdatasync`: durable, but skips the inode when only timestamps
    /// changed.
    pub fn fdatasync(&self, ino: u64) -> FsResult<()> {
        self.sync_inner(ino, Durability::Durable, true)
    }

    /// `fatomic` (§5.1): atomic but not durable — returns once the
    /// transaction is crash-consistent (for ccNVMe, after two MMIOs).
    pub fn fatomic(&self, ino: u64) -> FsResult<()> {
        self.sync_inner(ino, Durability::Atomic, false)
    }

    /// `fdataatomic`: like `fatomic`, minus timestamp-only metadata.
    pub fn fdataatomic(&self, ino: u64) -> FsResult<()> {
        self.sync_inner(ino, Durability::Atomic, true)
    }

    fn sync_inner(&self, ino: u64, durability: Durability, data_only: bool) -> FsResult<()> {
        self.ensure_writable()?;
        ccnvme_runtime::cpu(FSYNC_ENTRY_CPU);
        let t0 = ccnvme_runtime::now();
        // Exclusive capture barrier: no namespace operation is mid-
        // flight while this transaction snapshots metadata (lock order:
        // barrier, then inode).
        let barrier = self.op_barrier.write();
        let h = self.handle(ino);
        let mut st = h.st.lock();
        let mut tx = TxDescriptor::new(self.journal.alloc_tx_id());
        // --- S-iD: collect dirty data pages (ordered-mode data). ---
        for &fb in &st.dirty_pages {
            ccnvme_runtime::cpu(PAGE_COLLECT_CPU);
            let lba = self.bmap(&st, fb).expect("dirty page must be mapped");
            // Shared, not copied: a later write copies it instead.
            let buf = st.pages[&fb].clone();
            if st.inode.kind == InodeKind::Dir {
                // Directory content is metadata: journal it.
                tx.meta.push(TxBlock {
                    final_lba: lba,
                    buf,
                });
            } else {
                match self.note_reuse_into(&mut tx, lba) {
                    ReuseAction::MustJournal => {
                        // §5.4 case 1: regress to data journaling.
                        tx.meta.push(TxBlock {
                            final_lba: lba,
                            buf,
                        });
                    }
                    _ => tx.data.push(TxBlock {
                        final_lba: lba,
                        buf,
                    }),
                }
            }
        }
        st.dirty_pages.clear();
        let t_data = ccnvme_runtime::now();
        // --- S-iM: serialize the inode into its table block. ---
        let mut seed = std::mem::take(&mut st.dep_meta);
        let named = std::mem::take(&mut st.dep_groups);
        let mut carried = if named.is_empty() {
            Vec::new()
        } else {
            self.ops.lock().seed(&named, &mut seed)
        };
        let skip_inode = data_only && st.meta_dirty != MetaDirty::Full && seed.is_empty();
        if !skip_inode {
            ccnvme_runtime::cpu(INODE_SER_CPU);
            self.write_inode(&mut seed, ino, &st.inode);
        }
        st.meta_dirty = MetaDirty::Clean;
        // Operation-atomicity closure: every open namespace operation
        // that touched one of these blocks (including this inode's
        // table block) contributes all of its blocks.
        let meta = {
            let ops = self.ops.lock();
            let (meta, absorbed) = ops.closure(&seed);
            carried.extend(absorbed);
            meta
        };
        let t_inode = ccnvme_runtime::now();
        // --- S-pM + S-JH: capture the dependent metadata blocks: the
        // whole block as it stands (a checkpoint writes that home) and,
        // beside it, the ranges this transaction's operations wrote. ---
        for (lba, ranges) in meta.iter() {
            // A block freed since it was written left the cache: there is
            // nothing of it to journal, and its LBA may be file data now.
            let Some(blk) = self.cache.peek(lba) else {
                continue;
            };
            ccnvme_runtime::cpu(META_COPY_CPU);
            blk.freeze();
            let buf = blk.shadow_copy();
            if self.cfg.variant.shadow_paging() {
                // Shadow paging: freeze, copy, thaw (§5.3). Writers can
                // touch the page again immediately.
                blk.thaw();
            } else {
                // Lock-based (JBD2 shadow-buffer discipline): the page
                // stays frozen until its journal copy is on media; the
                // engine thaws it via the unpin hook. Freezes stack, so
                // concurrent fsyncs still join one compound commit.
                let blk2 = Arc::clone(&blk);
                tx.unpin.push(Box::new(move || blk2.thaw()));
            }
            tx.meta.push(TxBlock {
                final_lba: lba,
                buf,
            });
            tx.written.insert(lba, ranges.clone());
        }
        let t_parent = ccnvme_runtime::now();
        // Snapshots taken; operations may proceed during the commit.
        drop(barrier);
        // The seeded and absorbed groups ride this transaction.
        if !carried.is_empty() {
            self.ops.lock().carry(&carried);
        }
        // --- Commit. An empty transaction goes to the journal too: it
        // costs nothing there, and the engine learns that nothing will
        // ever be logged under the ID it handed out. ---
        let committed = self.journal.commit_tx(tx, durability);
        drop(st);
        // Only now are the groups on media — not when the commit took
        // them: a concurrent fsync that names one journals it until then.
        if committed.is_ok() && durability == Durability::Durable {
            if !carried.is_empty() {
                self.ops.lock().retire(&carried);
            }
        } else if !named.is_empty() {
            self.ops.lock().release(&named);
        }
        if let Err(e) = committed {
            // The whole transaction failed atomically (nothing of it will
            // be replayed after a crash); degrade to read-only.
            self.degrade(&format!("transaction commit failed: {e:?}"));
            return Err(FsError::Io);
        }
        let now = ccnvme_runtime::now();
        match durability {
            Durability::Durable => self.sys.fsync.record(now - t0),
            Durability::Atomic => self.sys.fatomic.record(now - t0),
        }
        // Figure 14's segments: they partition `now - t0` exactly.
        self.sys.sync_data.record(t_data - t0);
        self.sys.sync_inode.record(t_inode - t_data);
        self.sys.sync_parent.record(t_parent - t_inode);
        self.sys.sync_commit.record(now - t_parent);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Namespace operations
    // ------------------------------------------------------------------

    /// Creates a regular file in `parent`; returns the new inode number.
    pub fn create(&self, parent: u64, name: &str) -> FsResult<u64> {
        let t0 = ccnvme_runtime::now();
        let ino = self.make_node(parent, name, InodeKind::File)?;
        self.sys.create.record(ccnvme_runtime::now() - t0);
        Ok(ino)
    }

    /// Creates a directory in `parent`.
    pub fn mkdir(&self, parent: u64, name: &str) -> FsResult<u64> {
        let t0 = ccnvme_runtime::now();
        let ino = self.make_node(parent, name, InodeKind::Dir)?;
        self.sys.mkdir.record(ccnvme_runtime::now() - t0);
        Ok(ino)
    }

    fn make_node(&self, parent: u64, name: &str, kind: InodeKind) -> FsResult<u64> {
        self.ensure_writable()?;
        dir::check_name(name)?;
        ccnvme_runtime::cpu(CREATE_CPU);
        let _op = self.op_barrier.read();
        let ph = self.handle(parent);
        let mut pst = ph.st.lock();
        if pst.inode.kind != InodeKind::Dir {
            return Err(FsError::NotADirectory);
        }
        self.load_dir(&mut pst);
        if pst.dir.as_ref().expect("loaded").contains(name) {
            return Err(FsError::Exists);
        }
        let h = ccnvme_obs::hash::fnv1a64(name.as_bytes());
        let goal = (h ^ parent.wrapping_mul(0x9e37)) % self.layout.ninodes;
        let mut ws = WriteSet::default();
        let ino = self.alloc.alloc_inode_near(goal, &mut ws)?;
        // No other live inode in the table block: nothing on the device
        // is worth reading under the directory lock and the barrier (a
        // slot changes only through the cache after mount, so an
        // uncached block holds nothing newer than the device's copy).
        if self.alloc.inode_alone_in_block(ino) {
            self.cache.get_vacant(self.layout.inode_pos(ino).0);
        }
        // Initialize the child inode in memory and in its table block.
        let child = Inode::new(kind);
        self.write_inode(&mut ws, ino, &child);
        // Directory entry.
        self.dir_insert(&mut ws, &mut pst, parent, name, ino)?;
        if kind == InodeKind::Dir {
            pst.inode.nlink += 1;
        }
        pst.inode.mtime = ccnvme_runtime::now();
        if pst.meta_dirty == MetaDirty::Clean {
            pst.meta_dirty = MetaDirty::Timestamps;
        }
        // Parent inode block must be journaled too (size/nlink/mtime).
        self.write_inode(&mut ws, parent, &pst.inode);
        // Install the child handle (fresh inode); fsync(child) or
        // fsync(parent) persists this create.
        let ch = self.handle(ino);
        let mut cst = ch.st.lock();
        cst.inode = child;
        cst.meta_dirty = MetaDirty::Full;
        if kind == InodeKind::Dir {
            cst.dir = Some(DirState::default());
        }
        self.finish(ws, [&mut *pst, &mut *cst]);
        Ok(ino)
    }

    /// Writes `inode` into its 256-byte slot of the inode table.
    fn write_inode(&self, ws: &mut WriteSet, ino: u64, inode: &Inode) {
        let (lba, off) = self.layout.inode_pos(ino);
        ws.update(&self.cache.get(lba), off..off + 256, |slot| {
            slot.copy_from_slice(&inode.encode())
        });
    }

    /// Ends a namespace operation: the blocks it wrote become one open
    /// group (see [`OpIndex`]), named in the dependency set of every
    /// inode in `holders`, so an fsync of any of them persists the
    /// operation whole.
    fn finish<'a>(&self, ws: WriteSet, holders: impl IntoIterator<Item = &'a mut InodeSt>) {
        let deps = holders.into_iter().map(|st| &mut st.dep_groups);
        self.ops.lock().register(ws, deps);
    }

    /// Inserts a directory entry, growing the directory by one block
    /// when no block has room.
    fn dir_insert(
        &self,
        ws: &mut WriteSet,
        pst: &mut InodeSt,
        parent: u64,
        name: &str,
        ino: u64,
    ) -> FsResult<()> {
        ccnvme_runtime::cpu(DIRENT_CPU);
        let blk_idx = match pst.dir.as_ref().expect("dir loaded").block_with_space(name) {
            Some(b) => b,
            None => {
                let nb = pst.inode.nblocks();
                let lba = self.bmap_alloc(ws, pst, parent, nb)?;
                pst.inode.size = (nb + 1) * BLOCK_SIZE;
                pst.meta_dirty = MetaDirty::Full;
                // The device holds the block's previous owner's bytes at
                // this LBA: nothing worth reading, nothing a patch could
                // patch, so it is written whole.
                ws.update(&self.cache.get_zeroed(lba), WHOLE, dir::init_block);
                pst.dir.as_mut().expect("dir loaded").push_block()
            }
        };
        let edits = pst
            .dir
            .as_mut()
            .expect("dir loaded")
            .insert(name, ino, blk_idx);
        self.write_dirents(ws, pst, blk_idx, edits);
        Ok(())
    }

    /// Writes a directory operation's edits, in place, into directory
    /// block `blk_idx`: the journal carries those bytes and no others.
    fn write_dirents(&self, ws: &mut WriteSet, pst: &InodeSt, blk_idx: u32, edits: Vec<dir::Edit>) {
        let lba = self.bmap(pst, blk_idx as u64).expect("dir block mapped");
        let blk = self.cache.get(lba);
        for e in edits {
            ws.update(&blk, e.range(), |d| d.copy_from_slice(&e.bytes));
        }
    }

    /// Removes `name` from a loaded directory and writes the change.
    fn dir_remove(&self, ws: &mut WriteSet, pst: &mut InodeSt, name: &str) -> Option<u64> {
        let (ino, blk_idx, edits) = pst.dir.as_mut().expect("dir loaded").remove(name)?;
        self.write_dirents(ws, pst, blk_idx, edits);
        Some(ino)
    }

    /// Looks up `name` in directory `parent`.
    pub fn lookup(&self, parent: u64, name: &str) -> FsResult<u64> {
        ccnvme_runtime::cpu(NAMEI_CPU);
        let ph = self.handle(parent);
        let mut pst = ph.st.lock();
        if pst.inode.kind != InodeKind::Dir {
            return Err(FsError::NotADirectory);
        }
        self.load_dir(&mut pst);
        pst.dir
            .as_ref()
            .expect("loaded")
            .get(name)
            .ok_or(FsError::NotFound)
    }

    /// Lists a directory.
    pub fn readdir(&self, ino: u64) -> FsResult<Vec<(String, u64)>> {
        let h = self.handle(ino);
        let mut st = h.st.lock();
        if st.inode.kind != InodeKind::Dir {
            return Err(FsError::NotADirectory);
        }
        self.load_dir(&mut st);
        let mut v: Vec<(String, u64)> = st
            .dir
            .as_ref()
            .expect("loaded")
            .iter()
            .map(|(n, i)| (n.to_string(), i))
            .collect();
        v.sort();
        Ok(v)
    }

    /// Removes a file entry; frees the inode when the link count drops
    /// to zero.
    pub fn unlink(&self, parent: u64, name: &str) -> FsResult<()> {
        let t0 = ccnvme_runtime::now();
        self.unlink_impl(parent, name)?;
        self.sys.unlink.record(ccnvme_runtime::now() - t0);
        Ok(())
    }

    fn unlink_impl(&self, parent: u64, name: &str) -> FsResult<()> {
        self.ensure_writable()?;
        ccnvme_runtime::cpu(CREATE_CPU);
        let _op = self.op_barrier.read();
        let ph = self.handle(parent);
        let mut pst = ph.st.lock();
        self.load_dir(&mut pst);
        let ino = pst
            .dir
            .as_ref()
            .expect("loaded")
            .get(name)
            .ok_or(FsError::NotFound)?;
        let ch = self.handle(ino);
        let mut cst = ch.st.lock();
        if cst.inode.kind == InodeKind::Dir {
            return Err(FsError::IsADirectory); // That is rmdir's job.
        }
        let mut ws = WriteSet::default();
        self.dir_remove(&mut ws, &mut pst, name);
        pst.inode.mtime = ccnvme_runtime::now();
        self.write_inode(&mut ws, parent, &pst.inode);
        cst.inode.nlink -= 1;
        if cst.inode.nlink == 0 {
            self.free_inode(&mut ws, ino, &mut cst);
            self.finish(ws, [&mut *pst]);
        } else {
            self.write_inode(&mut ws, ino, &cst.inode);
            self.finish(ws, [&mut *pst, &mut *cst]);
        }
        Ok(())
    }

    /// Frees an inode whose last link is gone: its data and extent-leaf
    /// blocks, its number, its slot in the table and its handle. Every
    /// freed block also leaves the buffer cache — a directory's content
    /// and the leaves were cached metadata — so an open group or a
    /// dependency set that still names one finds nothing to journal
    /// there when the LBA lives on as file data (see `sync_inner`).
    fn free_inode(&self, ws: &mut WriteSet, ino: u64, st: &mut InodeSt) {
        let map = std::mem::take(&mut st.inode.map);
        let leaves = map.leaves().iter().copied();
        for lba in map.extents().iter().flat_map(|e| e.lbas()).chain(leaves) {
            self.alloc.free_block(lba, ws);
            self.cache.evict(lba);
        }
        st.inode.size = 0;
        st.pages.clear();
        st.dirty_pages.clear();
        self.alloc.free_inode(ino, ws);
        st.inode.kind = InodeKind::Free;
        st.inode.nlink = 0;
        self.write_inode(ws, ino, &st.inode);
        self.ops.lock().release(&std::mem::take(&mut st.dep_groups));
        self.icache.lock().remove(&ino);
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, parent: u64, name: &str) -> FsResult<()> {
        self.ensure_writable()?;
        ccnvme_runtime::cpu(CREATE_CPU);
        let _op = self.op_barrier.read();
        let ph = self.handle(parent);
        let mut pst = ph.st.lock();
        self.load_dir(&mut pst);
        let ino = pst
            .dir
            .as_ref()
            .expect("loaded")
            .get(name)
            .ok_or(FsError::NotFound)?;
        let ch = self.handle(ino);
        let mut cst = ch.st.lock();
        if cst.inode.kind != InodeKind::Dir {
            return Err(FsError::NotADirectory);
        }
        self.load_dir(&mut cst);
        if !cst.dir.as_ref().expect("loaded").is_empty() {
            return Err(FsError::NotEmpty);
        }
        let mut ws = WriteSet::default();
        self.dir_remove(&mut ws, &mut pst, name);
        pst.inode.nlink -= 1;
        pst.inode.mtime = ccnvme_runtime::now();
        self.write_inode(&mut ws, parent, &pst.inode);
        self.free_inode(&mut ws, ino, &mut cst);
        self.finish(ws, [&mut *pst]);
        Ok(())
    }

    /// Creates a hard link to `ino` in `parent` under `name`.
    pub fn link(&self, ino: u64, parent: u64, name: &str) -> FsResult<()> {
        self.ensure_writable()?;
        dir::check_name(name)?;
        ccnvme_runtime::cpu(CREATE_CPU);
        let _op = self.op_barrier.read();
        let ph = self.handle(parent);
        let mut pst = ph.st.lock();
        self.load_dir(&mut pst);
        if pst.dir.as_ref().expect("loaded").contains(name) {
            return Err(FsError::Exists);
        }
        let ch = self.handle(ino);
        let mut cst = ch.st.lock();
        if cst.inode.kind == InodeKind::Dir {
            return Err(FsError::IsADirectory);
        }
        cst.inode.nlink += 1;
        let mut ws = WriteSet::default();
        self.write_inode(&mut ws, ino, &cst.inode);
        self.dir_insert(&mut ws, &mut pst, parent, name, ino)?;
        pst.inode.mtime = ccnvme_runtime::now();
        self.write_inode(&mut ws, parent, &pst.inode);
        self.finish(ws, [&mut *pst, &mut *cst]);
        Ok(())
    }

    /// Renames `src_parent/src_name` to `dst_parent/dst_name`.
    /// An existing destination file (or empty directory) is replaced,
    /// POSIX-style. Moving a directory into itself is refused with
    /// [`FsError::InvalidName`].
    pub fn rename(
        &self,
        src_parent: u64,
        src_name: &str,
        dst_parent: u64,
        dst_name: &str,
    ) -> FsResult<()> {
        let t0 = ccnvme_runtime::now();
        self.rename_impl(src_parent, src_name, dst_parent, dst_name)?;
        self.sys.rename.record(ccnvme_runtime::now() - t0);
        Ok(())
    }

    fn rename_impl(
        &self,
        src_parent: u64,
        src_name: &str,
        dst_parent: u64,
        dst_name: &str,
    ) -> FsResult<()> {
        self.ensure_writable()?;
        dir::check_name(dst_name)?;
        ccnvme_runtime::cpu(CREATE_CPU);
        let _op = self.op_barrier.read();
        // Lock parents in inode order to avoid deadlock.
        let (ph1, ph2) = (self.handle(src_parent), self.handle(dst_parent));
        let same = src_parent == dst_parent;
        let (mut pst1, mut pst2_opt) = if same {
            (ph1.st.lock(), None)
        } else if src_parent < dst_parent {
            let a = ph1.st.lock();
            let b = ph2.st.lock();
            (a, Some(b))
        } else {
            let b = ph2.st.lock();
            let a = ph1.st.lock();
            (a, Some(b))
        };
        self.load_dir(&mut pst1);
        if let Some(pst2) = pst2_opt.as_mut() {
            self.load_dir(pst2);
        }
        // Validate source and destination before mutating anything.
        let ino = pst1
            .dir
            .as_ref()
            .expect("loaded")
            .get(src_name)
            .ok_or(FsError::NotFound)?;
        if ino == dst_parent {
            // A directory cannot move into itself (POSIX EINVAL), and
            // its handle lock is already held above as the destination.
            return Err(FsError::InvalidName);
        }
        let moving_dir = self.handle(ino).st.lock().inode.kind == InodeKind::Dir;
        let old_target: Option<u64> = {
            let dst_st: &InodeSt = match pst2_opt.as_ref() {
                Some(p) => p,
                None => &pst1,
            };
            dst_st.dir.as_ref().expect("loaded").get(dst_name)
        };
        if let Some(old_ino) = old_target {
            if old_ino == ino {
                return Ok(()); // Renaming onto itself.
            }
            let oh = self.handle(old_ino);
            let mut ost = oh.st.lock();
            if ost.inode.kind == InodeKind::Dir {
                self.load_dir(&mut ost);
                if !ost.dir.as_ref().expect("loaded").is_empty() {
                    return Err(FsError::NotEmpty);
                }
            }
        }
        let mut ws = WriteSet::default();
        // Remove the source entry, and the old destination's: each
        // writes the block its record is in, whichever block the new
        // entry goes to.
        self.dir_remove(&mut ws, &mut pst1, src_name)
            .expect("checked above");
        if let Some(old_ino) = old_target {
            let dst_st: &mut InodeSt = pst2_opt.as_deref_mut().unwrap_or(&mut pst1);
            self.dir_remove(&mut ws, dst_st, dst_name).expect("present");
            let oh = self.handle(old_ino);
            let mut ost = oh.st.lock();
            if ost.inode.kind == InodeKind::Dir {
                ost.inode.nlink = 0;
                dst_st.inode.nlink -= 1; // The dir's ".." link on its parent.
            } else {
                ost.inode.nlink = ost.inode.nlink.saturating_sub(1);
            }
            if ost.inode.nlink == 0 {
                self.free_inode(&mut ws, old_ino, &mut ost);
            } else {
                self.write_inode(&mut ws, old_ino, &ost.inode);
            }
        }
        // Insert at the destination.
        let dst_st: &mut InodeSt = pst2_opt.as_deref_mut().unwrap_or(&mut pst1);
        self.dir_insert(&mut ws, dst_st, dst_parent, dst_name, ino)?;
        // Moving a directory across parents moves its ".." link.
        if moving_dir && !same {
            pst1.inode.nlink -= 1;
            pst2_opt.as_mut().expect("different parents").inode.nlink += 1;
        }
        // Serialize both parents.
        pst1.inode.mtime = ccnvme_runtime::now();
        self.write_inode(&mut ws, src_parent, &pst1.inode);
        if let Some(pst2) = pst2_opt.as_mut() {
            pst2.inode.mtime = ccnvme_runtime::now();
            self.write_inode(&mut ws, dst_parent, &pst2.inode);
        }
        // The moved child also depends on this operation.
        let ch = self.handle(ino);
        let mut cst = ch.st.lock();
        let holders = [&mut *pst1, &mut *cst];
        self.finish(ws, holders.into_iter().chain(pst2_opt.as_deref_mut()));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Path helpers
    // ------------------------------------------------------------------

    /// Resolves an absolute path to an inode number.
    pub fn resolve(&self, path: &str) -> FsResult<u64> {
        let mut ino = ROOT_INO;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            ino = self.lookup(ino, comp)?;
        }
        Ok(ino)
    }

    /// Creates a file at an absolute path (parents must exist).
    pub fn create_path(&self, path: &str) -> FsResult<u64> {
        let (parent, name) = self.split_path(path)?;
        self.create(parent, name)
    }

    /// Creates a directory at an absolute path (parents must exist).
    pub fn mkdir_path(&self, path: &str) -> FsResult<u64> {
        let (parent, name) = self.split_path(path)?;
        self.mkdir(parent, name)
    }

    /// Removes the file at an absolute path.
    pub fn unlink_path(&self, path: &str) -> FsResult<()> {
        let (parent, name) = self.split_path(path)?;
        self.unlink(parent, name)
    }

    fn split_path<'a>(&self, path: &'a str) -> FsResult<(u64, &'a str)> {
        let trimmed = path.trim_end_matches('/');
        let (dir, name) = match trimmed.rfind('/') {
            Some(i) => (&trimmed[..i], &trimmed[i + 1..]),
            None => ("", trimmed),
        };
        if name.is_empty() {
            return Err(FsError::InvalidName);
        }
        Ok((self.resolve(dir)?, name))
    }

    // ------------------------------------------------------------------
    // Consistency check (fsck)
    // ------------------------------------------------------------------

    /// Walks the namespace and cross-checks it against the allocators.
    /// Returns human-readable inconsistencies (empty = consistent).
    pub fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if let Some(reason) = self.error_state() {
            problems.push(format!("filesystem degraded to read-only: {reason}"));
        }
        let mut seen_blocks: HashSet<u64> = HashSet::new();
        let mut link_counts: BTreeMap<u64, u16> = BTreeMap::new();
        let mut stack = vec![ROOT_INO];
        let mut visited: HashSet<u64> = HashSet::new();
        link_counts.insert(ROOT_INO, 1); // "/" itself.
        while let Some(ino) = stack.pop() {
            if !visited.insert(ino) {
                continue;
            }
            if !self.alloc.inode_allocated(ino) {
                problems.push(format!("inode {ino} reachable but not allocated"));
            }
            let h = self.handle(ino);
            let st = h.st.lock();
            self.check_mapping(ino, &st.inode, &mut seen_blocks, &mut problems);
            let children = if st.inode.kind == InodeKind::Dir {
                *link_counts.entry(ino).or_insert(0) += 1; // its own "."
                self.check_dir(ino, &st, &mut problems)
            } else {
                Vec::new()
            };
            drop(st);
            for child in children {
                *link_counts.entry(child).or_insert(0) += 1;
                let child_kind = self.handle(child).st.lock().inode.kind;
                if child_kind == InodeKind::Dir {
                    *link_counts.entry(ino).or_insert(0) += 1; // child's ".."
                }
                stack.push(child);
            }
        }
        for (ino, expect) in link_counts {
            let h = self.handle(ino);
            let nlink = h.st.lock().inode.nlink;
            if nlink != expect {
                problems.push(format!("inode {ino} nlink {nlink}, expected {expect}"));
            }
        }
        problems
    }

    /// The directory half of [`FileSystem::check`]: every block's record
    /// chain is well-formed (see [`dir::decode_block`]) and every name is
    /// unique in the directory and names an inode that exists. Returns
    /// the children.
    fn check_dir(&self, ino: u64, st: &InodeSt, problems: &mut Vec<String>) -> Vec<u64> {
        let mut names = HashSet::new();
        let mut children = Vec::new();
        for b in 0..st.inode.nblocks() {
            let Some(lba) = self.bmap(st, b) else {
                problems.push(format!("directory {ino}: block {b} is a hole"));
                continue;
            };
            let recs = match self.cache.get(lba).read(dir::decode_block) {
                Ok(recs) => recs,
                Err(e) => {
                    problems.push(format!("directory {ino} block {b}: {e}"));
                    continue;
                }
            };
            for d in recs.into_iter().filter(|d| d.ino != 0) {
                if d.ino > self.layout.ninodes {
                    problems.push(format!("{ino}/{}: inode {} out of range", d.name, d.ino));
                } else if !names.insert(d.name.clone()) {
                    problems.push(format!("directory {ino}: {} twice", d.name));
                } else {
                    children.push(d.ino);
                }
            }
        }
        children
    }

    /// The mapping half of [`FileSystem::check`]: the extent list is
    /// well-formed and every block it names — data and leaf alike — is
    /// inside the data area, allocated, and referenced exactly once.
    fn check_mapping(
        &self,
        ino: u64,
        inode: &Inode,
        seen_blocks: &mut HashSet<u64>,
        problems: &mut Vec<String>,
    ) {
        let data_area = self.layout.data_start()..self.layout.capacity;
        let mut claim = |lba: u64, what: &str| {
            if !data_area.contains(&lba) {
                problems.push(format!("{what} {lba} of ino {ino} outside the data area"));
                return;
            }
            if !seen_blocks.insert(lba) {
                problems.push(format!("{what} {lba} multiply referenced (ino {ino})"));
            }
            if !self.alloc.block_allocated(lba) {
                problems.push(format!("{what} {lba} in use by ino {ino} but free"));
            }
        };
        let extents = inode.map.extents();
        for e in extents {
            e.lbas().for_each(|lba| claim(lba, "block"));
        }
        for leaf in inode.map.leaves() {
            claim(*leaf, "extent leaf");
        }
        if inode.map.leaves().len() < inode.map.leaves_needed() {
            problems.push(format!(
                "inode {ino}: {} extents on a chain of {} leaves",
                extents.len(),
                inode.map.leaves().len()
            ));
        }
        if extents.iter().any(|e| e.len == 0)
            || extents
                .windows(2)
                .any(|w| w[0].end_file_block() > w[1].first_file_block as u64)
        {
            problems.push(format!("inode {ino}: extents unsorted or overlapping"));
        }
        if inode.kind == InodeKind::File {
            if let Some(e) = extents
                .iter()
                .find(|e| e.first_file_block as u64 >= inode.nblocks())
            {
                problems.push(format!(
                    "inode {ino}: extent at file block {} beyond its {} blocks",
                    e.first_file_block,
                    inode.nblocks()
                ));
            }
        }
    }
}

/// Builds the journal engine demanded by the configuration.
fn build_journal(cfg: &FsConfig, dev: &Dev, layout: &Layout) -> Arc<dyn Journal> {
    let horizon = layout.horizon();
    match cfg.variant {
        FsVariant::Mqfs | FsVariant::MqfsNoShadow => {
            let areas = AreaSpec::split(
                layout.journal_start(),
                layout.journal_len,
                cfg.queues.max(1),
            );
            Arc::new(MqJournal::with_checkpoint_core(
                Arc::clone(dev),
                areas,
                horizon,
                cfg.journald_core,
            ))
        }
        FsVariant::Ext4CcNvme => Arc::new(ClassicJournal::new(
            Arc::clone(dev),
            AreaSpec {
                start: layout.journal_start(),
                len: layout.journal_len,
            },
            horizon,
            CommitStyle::CcTx,
            cfg.journald_core,
        )),
        FsVariant::HoraeFs => Arc::new(ClassicJournal::new(
            Arc::clone(dev),
            AreaSpec {
                start: layout.journal_start(),
                len: layout.journal_len,
            },
            horizon,
            CommitStyle::Horae,
            cfg.journald_core,
        )),
        FsVariant::Ext4 => Arc::new(ClassicJournal::new(
            Arc::clone(dev),
            AreaSpec {
                start: layout.journal_start(),
                len: layout.journal_len,
            },
            horizon,
            CommitStyle::Classic,
            cfg.journald_core,
        )),
        FsVariant::Ext4NoJournal => Arc::new(NoJournal::new(Arc::clone(dev))),
    }
}

#[cfg(test)]
mod tests {
    use ccnvme_sim::Sim;

    use super::*;

    /// How `sync_inner` drives the index for one holder: seed from its
    /// dependency set, close over open groups, carry both, then retire
    /// (durable commit returned) or release (it was not durable).
    /// Returns the blocks the transaction journals.
    fn sync(ops: &mut OpIndex, deps: &mut Vec<u64>, durable: bool) -> Vec<u64> {
        let named = std::mem::take(deps);
        let mut seed = WriteSet::default();
        let mut carried = ops.seed(&named, &mut seed);
        let (meta, absorbed) = ops.closure(&seed);
        carried.extend(absorbed);
        ops.carry(&carried);
        if durable {
            ops.retire(&carried);
        } else {
            ops.release(&named);
        }
        meta.lbas().collect()
    }

    #[test]
    fn a_group_seeds_its_holders_until_a_durable_commit_retires_it() {
        Sim::run_main(1, || {
            let cache = BufferCache::new(crate::alloc::tests::memdev());
            let wrote = |lbas: &[u64]| {
                let mut ws = WriteSet::default();
                for &lba in lbas {
                    ws.update(&cache.get_zeroed(lba), 0..8, |d| d.fill(1));
                }
                ws
            };
            let mut ops = OpIndex::default();
            // create(d/x): the directory and the child hold the group.
            let (mut d, mut x) = (Vec::new(), Vec::new());
            ops.register(wrote(&[1, 2]), [&mut d, &mut x]);
            // fatomic(x) carries it, atomically only.
            assert_eq!(sync(&mut ops, &mut x, false), [1, 2]);
            // Closure passes a carried group by...
            assert!(ops.closure(&wrote(&[2])).1.is_empty());
            // ...but fsync(d), which names it, still journals it.
            assert_eq!(sync(&mut ops, &mut d, true), [1, 2]);
            // Retired: an id that still names it contributes nothing.
            let mut seed = WriteSet::default();
            assert!(ops.seed(&[0], &mut seed).is_empty() && seed.is_empty());
            assert!(ops.groups.is_empty() && ops.by_lba.is_empty());

            // create(d/y), fatomic(y), then d is freed: nobody can ask
            // for the carried group any more.
            let mut y = Vec::new();
            ops.register(wrote(&[3]), [&mut d, &mut y]);
            sync(&mut ops, &mut y, false);
            ops.release(&std::mem::take(&mut d));
            assert!(ops.groups.is_empty());
            // An open group whose holders are all freed stays for the
            // closure, which takes it, and then it goes.
            let mut e = Vec::new();
            ops.register(wrote(&[4, 5]), [&mut e]);
            ops.release(&std::mem::take(&mut e));
            assert_eq!(ops.groups.len(), 1);
            let mut f = Vec::new();
            ops.register(wrote(&[5]), [&mut f]);
            assert_eq!(sync(&mut ops, &mut f, false), [4, 5]);
            assert!(ops.groups.is_empty() && ops.by_lba.is_empty());

            // A directory nobody fsyncs does not hoard retired ids.
            for lba in 10..210 {
                let mut child = Vec::new();
                ops.register(wrote(&[lba]), [&mut d, &mut child]);
                sync(&mut ops, &mut child, true);
                assert!(d.len() <= 64, "{} ids held", d.len());
            }
            assert!(ops.groups.is_empty());
        });
    }
}
