//! Journaling engines for the MQFS file-system family.
//!
//! One transaction abstraction, four commit strategies — this is what
//! lets the evaluation compare Ext4, Ext4-NJ, HoraeFS and MQFS on a
//! single code base, as the paper does (§7.1):
//!
//! * [`ClassicJournal`] — JBD2-style: a single journal area, a dedicated
//!   commit thread (kjournald), group commit, and the full ordering
//!   protocol: journal description + journaled blocks, *wait*, FLUSH,
//!   commit record with FUA, *wait*. Two extra blocks and two ordering
//!   points per compound transaction (§3).
//! * [`ClassicJournal`] in Horae mode — the ordering points removed
//!   (HoraeFS, OSDI '20 \[27\]): descriptor, journaled blocks and the commit record
//!   are submitted together; one wait at the end.
//! * [`MqJournal`] — the paper's multi-queue journaling (§5.2): per-core
//!   journal areas mapped to ccNVMe hardware queues, commits performed in
//!   the application's context as one ccNVMe transaction (`REQ_TX`
//!   members + a `REQ_TX_COMMIT` journal-description block), no commit
//!   record, no FLUSH bios, per-core in-memory indexes that let one core
//!   checkpoint while others keep logging, and *selective revocation*
//!   (§5.4) for block reuse across queues.
//! * [`NoJournal`] — Ext4-NJ: metadata written in place; the paper's
//!   "ideal upper bound" for Ext4.
//!
//! All engines speak [`ccnvme_block::BlockDevice`], so they run unchanged
//! on the baseline NVMe driver or the ccNVMe driver.

pub mod area;
pub mod classic;
pub mod format;
pub mod mq;
pub mod nojournal;
pub mod ranges;
pub mod recover;

use std::{
    collections::{BTreeMap, HashSet},
    sync::Arc,
};

use ccnvme_block::{BioBuf, BlockBuf};

pub use area::AreaSpec;
pub use ccnvme_block::BioStatus;
pub use classic::{ClassicJournal, CommitStyle};
pub use mq::MqJournal;
pub use nojournal::NoJournal;
pub use ranges::ByteRanges;
pub use recover::{recover_areas, RecoveredUpdate};

/// Durability demanded from a commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// `fsync`: atomic and durable — return only when everything is on
    /// stable media.
    Durable,
    /// `fatomic`: atomic only — return once the crash-consistency point
    /// is reached (for ccNVMe, after the two MMIOs of §4).
    Atomic,
}

/// One block belonging to a transaction. Its content is a [`BlockBuf`]
/// snapshot, which the journal writes and keeps without copying; a
/// `TxBlock<BioBuf>` is accepted too, and converted as it is pushed
/// (without a copy when nobody else holds the buffer).
#[derive(Clone)]
pub struct TxBlock<B = BlockBuf> {
    /// Home location of the block in the file-system area.
    pub final_lba: u64,
    /// Content (for journaled metadata this is the shadow copy).
    pub buf: B,
}

impl From<TxBlock<BioBuf>> for TxBlock {
    fn from(b: TxBlock<BioBuf>) -> TxBlock {
        TxBlock {
            final_lba: b.final_lba,
            buf: b.buf.into(),
        }
    }
}

/// A transaction's blocks of one kind, in order: a `Vec<TxBlock>` whose
/// `push` also takes a `TxBlock<BioBuf>`.
#[derive(Default)]
pub struct TxBlocks(Vec<TxBlock>);

impl TxBlocks {
    /// Appends `b`.
    pub fn push(&mut self, b: impl Into<TxBlock>) {
        self.0.push(b.into());
    }
}

impl std::ops::Deref for TxBlocks {
    type Target = Vec<TxBlock>;

    fn deref(&self) -> &Vec<TxBlock> {
        &self.0
    }
}

impl std::ops::DerefMut for TxBlocks {
    fn deref_mut(&mut self) -> &mut Vec<TxBlock> {
        &mut self.0
    }
}

impl<'a> IntoIterator for &'a TxBlocks {
    type Item = &'a TxBlock;
    type IntoIter = std::slice::Iter<'a, TxBlock>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Callback releasing a frozen metadata page once its journal copy is
/// on media (the JBD2 "shadow buffer" discipline: writers touching the
/// page block until then — the serialization §5.3's shadow paging
/// removes).
pub type UnpinFn = Box<dyn FnOnce() + Send>;

/// A file-system transaction handed to a journal engine.
pub struct TxDescriptor {
    /// Globally ordered transaction ID (the linearization point, §5.1).
    pub tx_id: u64,
    /// Ordered-mode data blocks: written to their final location as part
    /// of the transaction, not journaled.
    pub data: TxBlocks,
    /// Journaled blocks (metadata; or data too in data-journaling mode).
    pub meta: TxBlocks,
    /// Blocks revoked by this transaction (freed metadata whose stale
    /// journal copies must not be replayed).
    pub revokes: Vec<u64>,
    /// For a `meta` block whose writers touched only part of it: the
    /// byte ranges they declared written, keyed by home LBA. The `buf`
    /// is still the whole block; an engine that can journal less than a
    /// block ([`MqJournal`]) may carry just these bytes. A `meta` block
    /// with no entry here was written whole.
    pub written: BTreeMap<u64, ByteRanges>,
    /// Page-unfreeze callbacks, invoked once the journal copies are
    /// written (empty when the file system uses shadow paging).
    pub unpin: Vec<UnpinFn>,
}

impl TxDescriptor {
    /// Creates an empty transaction with the given ID.
    pub fn new(tx_id: u64) -> Self {
        TxDescriptor {
            tx_id,
            data: TxBlocks::default(),
            meta: TxBlocks::default(),
            revokes: Vec::new(),
            written: BTreeMap::new(),
            unpin: Vec::new(),
        }
    }

    /// Returns whether the transaction carries no work at all.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty() && self.meta.is_empty() && self.revokes.is_empty()
    }

    /// Runs and clears the unpin callbacks.
    pub fn run_unpin(&mut self) {
        for f in self.unpin.drain(..) {
            f();
        }
    }
}

/// Why a commit failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitError {
    /// An unrecoverable I/O error hit the commit path. The transaction
    /// must be considered failed (its journal copies are never
    /// checkpointed) and the journal has aborted: no further commits are
    /// accepted. Carries the first typed bio status observed.
    Io(ccnvme_block::BioStatus),
    /// The journal was aborted by an earlier failure; this commit was
    /// not attempted.
    Aborted,
}

/// A journal engine: commits transactions and replays them after a crash.
pub trait Journal: Send + Sync {
    /// Commits `tx` with the requested durability. Blocks (in virtual
    /// time) according to the engine's protocol; on return with
    /// [`Durability::Durable`] the transaction is atomic and durable, and
    /// with [`Durability::Atomic`] it is crash-atomic.
    ///
    /// An `Err` means the transaction failed as a whole (frozen pages
    /// are still thawed) and the journal is aborted — see
    /// [`CommitError`]. Transient device errors never surface here: the
    /// host driver retries them transparently.
    fn commit_tx(&self, tx: TxDescriptor, durability: Durability) -> Result<(), CommitError>;

    /// Whether the journal aborted after an unrecoverable commit-path
    /// error. An aborted journal refuses further commits; the file
    /// system above degrades to read-only.
    fn is_aborted(&self) -> bool;

    /// Notifies the journal that `lba` is being reused for a
    /// non-journaled (data) write. Returns blocks that must be journaled
    /// instead of revoked ("case 1" of §5.4 — the block is mid-
    /// checkpoint, so the engine regresses to data journaling for it).
    fn note_block_reuse(&self, lba: u64) -> ReuseAction;

    /// Forces every journaled block to its final location and empties
    /// the journal (graceful unmount).
    fn checkpoint_all(&self);

    /// Allocates the next transaction ID. Hand every allocated ID to
    /// [`Journal::commit_tx`], an empty transaction included: an engine
    /// with a replay horizon keeps it at or below IDs it still expects
    /// to log.
    fn alloc_tx_id(&self) -> u64;

    /// Ensures future transaction IDs exceed `floor` (called after
    /// recovery so new transactions sort after every replayed or
    /// discarded one).
    fn set_tx_floor(&self, floor: u64);

    /// Scans the journal area(s) and returns the updates to replay,
    /// ordered by transaction ID. `discard` holds transaction IDs known
    /// to be unfinished (from the ccNVMe recovery window); their journal
    /// content is ignored even if intact.
    fn recover(&self, discard: &HashSet<u64>) -> Vec<RecoveredUpdate>;

    /// Durably records `floor` as the replay horizon: after this
    /// returns, no transaction below `floor` is ever replayed again.
    /// Mount calls it once replay completed *and* the discard set has
    /// been honoured — only then is it safe to clear the PMR abort logs
    /// (a crash before the floor is durable must re-discover the
    /// discarded IDs from those logs). On `Err` the floor did not land
    /// and the caller must keep everything the old one still needs.
    /// Engines without a persistent horizon (e.g. [`NoJournal`]) keep
    /// the default no-op.
    fn persist_replay_floor(&self, _floor: u64) -> Result<(), BioStatus> {
        Ok(())
    }

    /// Stops any background threads (graceful detach).
    fn shutdown(&self);
}

/// Outcome of [`Journal::note_block_reuse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseAction {
    /// No stale journal copy exists; proceed with the plain data write.
    None,
    /// A revoke record will be written with the next transaction; the
    /// caller proceeds with the plain data write.
    Revoked,
    /// The stale copy is being checkpointed right now: the caller must
    /// journal the new content (data journaling for this block) instead
    /// of writing it in place (§5.4 case 1).
    MustJournal,
}

/// Convenience alias used across the engines.
pub type Dev = Arc<dyn ccnvme_block::BlockDevice>;
