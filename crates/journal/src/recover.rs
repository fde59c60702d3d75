//! Journal recovery: scan, validate, order, replay.
//!
//! The scan walks every block of each journal area looking for valid
//! journal description blocks. A transaction is *replayable* when
//!
//! * its ID is at or above the persistent horizon (otherwise its journal
//!   space may have been reused and newer copies lost),
//! * its ID is not in the caller's discard set (the ccNVMe unfinished
//!   window, §5.5),
//! * every journaled block's content matches the checksum recorded in
//!   the JD (a torn transaction fails this), and
//! * in classic mode, a commit record with its ID exists.
//!
//! Replayable transactions are applied in transaction-ID order — the
//! global persistence order that MQFS embeds in the ccNVMe command
//! (§4.4) — with revocation records suppressing older records of reused
//! blocks (§5.4). A transaction describes a home block either by a
//! whole-block copy in the ring or by byte-range *patches* inside its
//! JD; only a full copy supersedes what came before, a patch patches.
//! What replay writes is always a whole block: the newest surviving
//! full copy (else the block as the device holds it) with the surviving
//! patches above it applied in order.

use std::collections::{BTreeMap, HashMap, HashSet};

use ccnvme_block::{
    flush_cache, read_block, read_blocks, read_run, submit_and_wait, Bio, BioFlags, BioStatus,
};
use ccnvme_obs::seal::crc32c;

use crate::{
    area::AreaSpec,
    format::{self, JdBlock, JdPatch},
    Dev,
};

/// How transactions are validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverMode {
    /// MQFS/ccNVMe: per-block checksums prove completeness (the doorbell
    /// was the commit record).
    ChecksumOnly,
    /// Classic/Horae: additionally require a commit record.
    RequireCommitRecord,
}

/// One block to rewrite during replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredUpdate {
    /// Home location.
    pub final_lba: u64,
    /// Content to restore.
    pub data: Vec<u8>,
    /// Transaction that produced it (already ordered; informational).
    pub tx_id: u64,
}

/// Reads the persistent replay floor at `horizon_lba`; a block that
/// cannot be read holds no floor (replay everything), like a blank one.
pub fn read_horizon(dev: &Dev, horizon_lba: u64) -> u64 {
    read_block(&**dev, horizon_lba).map_or(0, |b| format::decode_horizon(&b))
}

/// Writes `h` as the persistent replay floor at `horizon_lba` (FUA) and
/// waits for it. On `Err` the old floor may still be the one on media:
/// the caller must neither remember `h` as written nor reuse journal
/// space that only `h` protects.
pub(crate) fn write_horizon(dev: &Dev, horizon_lba: u64, h: u64) -> Result<(), BioStatus> {
    let fua = BioFlags {
        fua: true,
        ..BioFlags::NONE
    };
    submit_and_wait(
        &**dev,
        Bio::write(horizon_lba, format::encode_horizon(h), fua),
    )
}

/// Scans `areas` and produces the ordered, validated update list.
pub fn recover_areas(
    dev: &Dev,
    areas: &[AreaSpec],
    mode: RecoverMode,
    min_tx: u64,
    discard: &HashSet<u64>,
) -> Vec<RecoveredUpdate> {
    // Pass 1: find all JDs and (classic) commit records, each area's
    // ring read as one run. A block that cannot be read is no record.
    let mut jds: Vec<JdBlock> = Vec::new();
    let mut commits: HashSet<u64> = HashSet::new();
    for area in areas {
        read_run(&**dev, area.start, area.len, |_, raw| {
            let Ok(raw) = raw else {
                return;
            };
            if let Some(jd) = JdBlock::decode(raw) {
                jds.push(jd);
            } else if let Some(tx_id) = format::decode_commit_record(raw) {
                commits.insert(tx_id);
            }
        });
    }
    // Pass 2: validate.
    let mut valid: Vec<(JdBlock, Vec<Vec<u8>>)> = Vec::new();
    for jd in jds {
        if jd.tx_id < min_tx || discard.contains(&jd.tx_id) {
            continue;
        }
        if mode == RecoverMode::RequireCommitRecord && !commits.contains(&jd.tx_id) {
            continue;
        }
        // One JD's journaled blocks are read together. Torn transaction:
        // some journaled block never landed, or cannot be read.
        let Ok(contents) = read_blocks(&**dev, jd.entries.iter().map(|e| e.journal_lba)) else {
            continue;
        };
        let mut pairs = jd.entries.iter().zip(&contents);
        if pairs.all(|(e, data)| u64::from(crc32c(data)) == e.checksum) {
            valid.push((jd, contents));
        }
    }
    // Pass 3: order by transaction ID and build each home block. A
    // revoke in transaction R suppresses every record of that block,
    // full copy or patch, from transactions <= R. Of what is left, only
    // a full copy supersedes: the block is the newest surviving full
    // copy — or, when there is none, what the device holds at home —
    // with every surviving patch above it applied in transaction order.
    valid.sort_by_key(|(jd, _)| jd.tx_id);
    let mut max_revoke: HashMap<u64, u64> = HashMap::new();
    for (jd, _) in &valid {
        for r in &jd.revokes {
            let e = max_revoke.entry(*r).or_insert(0);
            *e = (*e).max(jd.tx_id);
        }
    }
    let revoked = |lba: u64, tx_id: u64| max_revoke.get(&lba).is_some_and(|&r| tx_id <= r);
    #[derive(Default)]
    struct Home {
        /// Newest surviving full copy and its transaction.
        base: Option<(u64, Vec<u8>)>,
        /// Surviving patches, ascending transaction ID.
        patches: Vec<(u64, JdPatch)>,
    }
    let mut homes: BTreeMap<u64, Home> = BTreeMap::new();
    for (jd, contents) in valid {
        for (e, data) in jd.entries.iter().zip(contents) {
            if !revoked(e.final_lba, jd.tx_id) {
                homes.entry(e.final_lba).or_default().base = Some((jd.tx_id, data));
            }
        }
        for p in jd.patches {
            if !revoked(p.final_lba, jd.tx_id) {
                let home = homes.entry(p.final_lba).or_default();
                home.patches.push((jd.tx_id, p));
            }
        }
    }
    let mut updates: Vec<RecoveredUpdate> = homes
        .into_iter()
        .map(|(final_lba, home)| {
            let (mut tx_id, mut data) = home.base.unwrap_or_else(|| {
                // Patches need the block they patch: like any metadata
                // read, a failure here is a modeled kernel panic.
                match read_block(&**dev, final_lba) {
                    Ok(at_home) => (0, at_home),
                    Err(st) => panic!("metadata read failed at lba {final_lba}: {st:?}"),
                }
            });
            let base_tx = tx_id;
            for (t, p) in home.patches.iter().filter(|(t, _)| *t > base_tx) {
                let at = p.offset as usize;
                data[at..at + p.bytes.len()].copy_from_slice(&p.bytes);
                tx_id = *t;
            }
            RecoveredUpdate {
                final_lba,
                data,
                tx_id,
            }
        })
        .collect();
    updates.sort_by_key(|u| (u.tx_id, u.final_lba));
    updates
}

/// Attempts per replayed write (and per flush) before recovery gives up
/// and the mount degrades to read-only.
const REPLAY_ATTEMPTS: u32 = 3;

/// Runs `io` up to [`REPLAY_ATTEMPTS`] times, until it succeeds; the
/// last status when every attempt failed.
fn with_retry(mut io: impl FnMut() -> Result<(), BioStatus>) -> Result<(), BioStatus> {
    let first = io();
    (1..REPLAY_ATTEMPTS).fold(first, |res, _| res.or_else(|_| io()))
}

/// Applies recovered updates to the device and flushes.
///
/// **Idempotent by construction**: every update is a whole-block write
/// of validated journal content to its home location, so applying the
/// list once, twice, or resuming it after a crash in the middle always
/// converges on the same media bytes (`tests/recovery_idempotence.rs`
/// proves this property). That holds for a block built from patches
/// over the device's own copy too: a re-run reads back either the old
/// block or the patched one, and the same byte-range overwrites take
/// both to the same result. Each write is retried up to
/// [`REPLAY_ATTEMPTS`] times; an exhausted retry budget returns the
/// failing status so the mount can degrade to read-only instead of
/// presenting a half-replayed file system as healthy.
pub fn replay_updates(dev: &Dev, updates: &[RecoveredUpdate]) -> Result<(), BioStatus> {
    if updates.is_empty() {
        return Ok(());
    }
    for u in updates {
        with_retry(|| {
            submit_and_wait(
                &**dev,
                Bio::write(u.final_lba, u.data.clone(), BioFlags::NONE),
            )
        })?;
    }
    with_retry(|| flush_cache(&**dev))
}
