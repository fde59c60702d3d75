//! Ext4-NJ: no journaling at all.
//!
//! Metadata is written in place; `fsync` still waits for the writes (and
//! drains the volatile cache for durability) but offers no atomicity.
//! The paper uses this configuration as the ideal performance upper
//! bound of Ext4 on fast NVMe drives (§3, §7.1).

use std::{
    collections::HashSet,
    sync::atomic::{AtomicBool, AtomicU64, Ordering},
};

use ccnvme_block::{flush_cache, write_blocks, BioStatus};

use crate::{
    recover::RecoveredUpdate, CommitError, Dev, Durability, Journal, ReuseAction, TxBlock,
    TxDescriptor,
};

/// The no-journal engine.
pub struct NoJournal {
    dev: Dev,
    next_tx: AtomicU64,
    aborted: AtomicBool,
}

impl NoJournal {
    /// Creates the engine over `dev`.
    pub fn new(dev: Dev) -> Self {
        NoJournal {
            dev,
            next_tx: AtomicU64::new(1),
            aborted: AtomicBool::new(false),
        }
    }

    fn fail(&self, status: BioStatus, tx: &mut TxDescriptor) -> CommitError {
        // ord: SeqCst — abort must publish before any later commit
        // on another thread can report success.
        self.aborted.store(true, Ordering::SeqCst);
        tx.run_unpin();
        CommitError::Io(status)
    }
}

impl Journal for NoJournal {
    fn commit_tx(&self, mut tx: TxDescriptor, durability: Durability) -> Result<(), CommitError> {
        // ord: SeqCst — pairs with the abort store in fail().
        if self.aborted.load(Ordering::SeqCst) {
            tx.run_unpin();
            return Err(CommitError::Aborted);
        }
        if tx.is_empty() {
            tx.run_unpin();
            return Ok(());
        }
        // Ext4-NJ synchronously processes each category of block: data
        // first, then metadata in place (Figure 14(b): S-iD + W-iD, then
        // S-iM + W-iM, ...).
        let home = |blocks: &[TxBlock]| {
            write_blocks(
                &*self.dev,
                blocks.iter().map(|b| (b.final_lba, b.buf.clone())),
            )
        };
        let written = home(&tx.data).and_then(|()| home(&tx.meta));
        if let Err(status) = written {
            return Err(self.fail(status, &mut tx));
        }
        if durability == Durability::Durable {
            if let Err(status) = flush_cache(&*self.dev) {
                return Err(self.fail(status, &mut tx));
            }
        }
        tx.run_unpin();
        Ok(())
    }

    fn is_aborted(&self) -> bool {
        // ord: SeqCst — pairs with the abort store in fail().
        self.aborted.load(Ordering::SeqCst)
    }

    fn note_block_reuse(&self, _lba: u64) -> ReuseAction {
        ReuseAction::None
    }

    fn checkpoint_all(&self) {}

    fn alloc_tx_id(&self) -> u64 {
        // ord: SeqCst — tx IDs are the global commit order (§5.1).
        self.next_tx.fetch_add(1, Ordering::SeqCst)
    }

    fn set_tx_floor(&self, floor: u64) {
        // ord: SeqCst — recovery floor ordered against allocation.
        self.next_tx.fetch_max(floor + 1, Ordering::SeqCst);
    }

    fn recover(&self, _discard: &HashSet<u64>) -> Vec<RecoveredUpdate> {
        Vec::new()
    }

    fn shutdown(&self) {}
}
