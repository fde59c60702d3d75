//! Post-crash forensics over a raw PMR image: mount the flight
//! recorder, reconstruct per-transaction timelines, and cross-check the
//! verdicts against the §4.4 recovery scan.
//!
//! Every cross-check is **one-directional** (blackbox claim ⇒ recovery
//! consequence), following the posted-write FIFO argument of
//! [`ccnvme_obs::blackbox`]: a record is durable only if everything
//! posted before it is durable, so a surviving record proves the
//! protocol write it witnesses — but a *missing* record proves nothing
//! (the cut may have landed between the protocol write and its
//! witness). Concretely, with `f` the forensics report and `r` the
//! recovery report of the same image:
//!
//! * `f.epoch ≤ r.generation` always: the blackbox header is posted
//!   after the PMR header during (re-)format, so its generation can
//!   trail, never lead. When it trails, the ring belongs to a previous
//!   life and per-transaction checks are skipped.
//! * [`TxVerdict::Aborted`] ⇒ `tx ∈ r.aborted`: the abort-log append is
//!   posted before the `tx_abort` record.
//! * [`TxVerdict::Completed`] ⇒ `tx` not in the unfinished window: the
//!   P-SQ-head advance past the transaction is posted before the
//!   `completion` record.
//! * [`TxVerdict::DurablyReached`] ⇒ if `tx` is in the window, its
//!   commit request is present: the commit SQE is posted before the
//!   doorbell the `doorbell` record witnesses.
//! * The ring's internal causal order (`tx_begin < doorbell <
//!   completion` by sequence number) must hold.
//!
//! Per-transaction checks are also skipped when the ring lapped: an
//! overwritten `tx_abort` or `completion` record silently demotes a
//! verdict, which is loss of evidence, not a contradiction.

use ccnvme_obs::{ForensicsReport, TxVerdict};
use ccnvme_pcie::PmrImage;

use crate::layout::PmrLayout;
use crate::recovery::{scan_pmr_bytes, RecoveryReport};

/// Everything forensics learned from one PMR image.
#[derive(Debug)]
pub struct ImageForensics {
    /// Timelines + verdicts from the mounted blackbox ring.
    pub report: ForensicsReport,
    /// The §4.4 recovery scan of the same image.
    pub recovery: RecoveryReport,
    /// Contradictions between the two (empty = consistent image).
    pub contradictions: Vec<String>,
}

/// Mounts the blackbox of a PMR image and cross-checks it against the
/// recovery scan. `Err` means the image has no mountable ccNVMe layout
/// or no mountable blackbox ring — never that the rings disagree (that
/// is reported via `contradictions`).
pub fn image_forensics(image: &PmrImage) -> Result<ImageForensics, String> {
    if image.size() < 64 {
        return Err("image smaller than a PMR header".to_string());
    }
    let layout = PmrLayout::decode_header(&image.read_vec(0, 64))
        .ok_or_else(|| "no valid ccNVMe header".to_string())?;
    let bb_off = layout.blackbox_off();
    let bb_len = ccnvme_obs::blackbox::BLACKBOX_BYTES as usize;
    if bb_off as usize + bb_len > image.size() {
        return Err("image truncated before the blackbox region".to_string());
    }
    let mount = ccnvme_obs::blackbox::mount(&image.read_vec(bb_off, bb_len))?;
    let report = ccnvme_obs::forensics::analyze(&mount);
    let recovery = scan_pmr_bytes(image).ok_or_else(|| "recovery scan failed".to_string())?;
    let contradictions = cross_check(&report, &recovery);
    Ok(ImageForensics {
        report,
        recovery,
        contradictions,
    })
}

/// The one-directional consistency rules between a forensics report and
/// the recovery scan of the same image (see the module docs). Returns
/// the contradictions found; empty means the image is consistent.
pub fn cross_check(f: &ForensicsReport, r: &RecoveryReport) -> Vec<String> {
    let mut out = Vec::new();
    for v in &f.causal_violations {
        out.push(format!("causal violation: {v}"));
    }
    // A blackbox epoch *ahead* of the header generation is impossible:
    // the blackbox header is posted after the PMR header.
    if f.epoch > r.generation {
        out.push(format!(
            "blackbox epoch {} ahead of PMR generation {}",
            f.epoch, r.generation
        ));
        return out;
    }
    // A trailing epoch is a previous life of the ring: its records
    // witness a generation the scan no longer describes.
    if f.epoch < r.generation {
        return out;
    }
    // A lapped ring may have overwritten the record that justified a
    // stronger verdict; only claim consistency on complete evidence.
    if f.lapped > 0 {
        return out;
    }
    for t in &f.txs {
        let windowed = r.unfinished.iter().find(|u| u.tx_id == t.tx_id);
        match t.verdict {
            TxVerdict::Aborted => {
                if !r.aborted.contains(&t.tx_id) {
                    out.push(format!(
                        "tx {:#x}: durable tx_abort record but absent from the abort log",
                        t.tx_id
                    ));
                }
            }
            TxVerdict::Completed => {
                if windowed.is_some() {
                    out.push(format!(
                        "tx {:#x}: durable completion record but still in the unfinished window",
                        t.tx_id
                    ));
                }
            }
            TxVerdict::DurablyReached => {
                if let Some(u) = windowed {
                    if !u.has_commit {
                        out.push(format!(
                            "tx {:#x}: durable commit doorbell but window lacks its commit entry",
                            t.tx_id
                        ));
                    }
                }
            }
            TxVerdict::InFlightAtCut => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use ccnvme_obs::blackbox::BlackboxRecord;
    use ccnvme_obs::forensics::TxTimeline;
    use ccnvme_obs::{EventKind, TraceCtx, TraceEvent};

    use crate::recovery::{RecoveredRequest, RecoveredTx};

    use super::*;

    fn tl(tx_id: u64, verdict: TxVerdict, kinds: &[EventKind]) -> TxTimeline {
        let records = kinds
            .iter()
            .enumerate()
            .map(|(i, k)| BlackboxRecord {
                seq: i as u64,
                ev: TraceEvent {
                    at: i as u64 * 10,
                    kind: *k,
                    qid: 1,
                    tx_id,
                    arg: 0,
                    ctx: TraceCtx::ZERO,
                },
            })
            .collect();
        TxTimeline {
            tx_id,
            records,
            verdict,
            trace_ids: vec![],
        }
    }

    fn freport(epoch: u32, lapped: u64, txs: Vec<TxTimeline>) -> ForensicsReport {
        ForensicsReport {
            epoch,
            lapped,
            invalid_slots: 0,
            txs,
            causal_violations: vec![],
        }
    }

    fn windowed(tx_id: u64, has_commit: bool) -> RecoveredTx {
        RecoveredTx {
            tx_id,
            queue: 0,
            requests: vec![RecoveredRequest {
                lba: 0,
                nblocks: 1,
                commit: has_commit,
                slot: 0,
            }],
            has_commit,
        }
    }

    #[test]
    fn consistent_image_has_no_contradictions() {
        let f = freport(
            3,
            0,
            vec![
                tl(1, TxVerdict::Aborted, &[EventKind::TxAbort]),
                tl(
                    2,
                    TxVerdict::Completed,
                    &[
                        EventKind::TxBegin,
                        EventKind::Doorbell,
                        EventKind::Completion,
                    ],
                ),
                tl(
                    3,
                    TxVerdict::DurablyReached,
                    &[EventKind::TxBegin, EventKind::Doorbell],
                ),
                tl(4, TxVerdict::InFlightAtCut, &[EventKind::TxBegin]),
            ],
        );
        let r = RecoveryReport {
            unfinished: vec![windowed(3, true)],
            aborted: HashSet::from([1]),
            generation: 3,
            ..RecoveryReport::default()
        };
        assert_eq!(cross_check(&f, &r), Vec::<String>::new());
    }

    #[test]
    fn abort_record_without_log_entry_is_a_contradiction() {
        let f = freport(1, 0, vec![tl(9, TxVerdict::Aborted, &[EventKind::TxAbort])]);
        let r = RecoveryReport {
            generation: 1,
            ..RecoveryReport::default()
        };
        let c = cross_check(&f, &r);
        assert_eq!(c.len(), 1);
        assert!(c[0].contains("abort log"));
    }

    #[test]
    fn completion_record_inside_window_is_a_contradiction() {
        let f = freport(
            1,
            0,
            vec![tl(7, TxVerdict::Completed, &[EventKind::Completion])],
        );
        let r = RecoveryReport {
            unfinished: vec![windowed(7, true)],
            generation: 1,
            ..RecoveryReport::default()
        };
        assert_eq!(cross_check(&f, &r).len(), 1);
    }

    #[test]
    fn doorbell_record_with_commitless_window_is_a_contradiction() {
        let f = freport(
            1,
            0,
            vec![tl(5, TxVerdict::DurablyReached, &[EventKind::Doorbell])],
        );
        let mut ok = RecoveryReport {
            unfinished: vec![windowed(5, true)],
            generation: 1,
            ..RecoveryReport::default()
        };
        assert!(cross_check(&f, &ok).is_empty());
        ok.unfinished = vec![windowed(5, false)];
        assert_eq!(cross_check(&f, &ok).len(), 1);
    }

    #[test]
    fn stale_epoch_and_lapped_rings_skip_tx_checks() {
        // Same contradiction as above, but under a stale epoch...
        let f = freport(1, 0, vec![tl(9, TxVerdict::Aborted, &[EventKind::TxAbort])]);
        let r = RecoveryReport {
            generation: 2,
            ..RecoveryReport::default()
        };
        assert!(cross_check(&f, &r).is_empty());
        // ...or on a lapped ring: evidence may be gone, not contradicted.
        let f = freport(2, 5, vec![tl(9, TxVerdict::Aborted, &[EventKind::TxAbort])]);
        assert!(cross_check(&f, &r).is_empty());
        // An epoch *ahead* of the generation is impossible, though.
        let f = freport(3, 0, vec![]);
        assert_eq!(cross_check(&f, &r).len(), 1);
    }
}
