//! Crash-recovery scan of the persistent submission queues (§4.4, §5.5).
//!
//! After power restore, the PMR again holds every P-SQ ring, P-SQDB and
//! P-SQ-head value that had arrived before the cut. The entries between
//! P-SQ-head and P-SQDB are the *unfinished* transactions: submitted (the
//! doorbell covers them) but not yet completed in order. ccNVMe makes an
//! in-memory copy of them and hands it to the upper layer, which decides
//! whether to replay or discard each one (MQFS validates the journal
//! content the entries point at, then replays complete transactions and
//! discards torn ones).

use std::collections::HashSet;

use ccnvme_obs::seal::verify_line;
use ccnvme_pcie::{MmioRegion, PmrImage};
use ccnvme_ssd::NvmeCommand;

use crate::layout::PmrLayout;

/// One request recovered from a P-SQ slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredRequest {
    /// First logical block address the request targeted.
    pub lba: u64,
    /// Length in blocks.
    pub nblocks: u16,
    /// Whether this was the transaction's commit request.
    pub commit: bool,
    /// Ring slot the entry occupied (diagnostics).
    pub slot: u32,
}

/// A transaction found in the unfinished window of one queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredTx {
    /// The transaction ID from the command's reserved Dwords 2–3.
    pub tx_id: u64,
    /// Hardware queue (0-based driver index).
    pub queue: u16,
    /// Member requests, in submission order.
    pub requests: Vec<RecoveredRequest>,
    /// Whether the commit request is present in the window.
    pub has_commit: bool,
}

/// Everything the recovery scan learned.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Unfinished transactions across all queues.
    pub unfinished: Vec<RecoveredTx>,
    /// Non-transactional requests found in the windows (informational;
    /// they carry no atomicity promise).
    pub non_tx_requests: Vec<RecoveredRequest>,
    /// Transactions recorded in the persistent abort logs: they failed
    /// (device error or host timeout) and the P-SQ-head already advanced
    /// past them, but their journal content may look intact — it must
    /// never be replayed.
    pub aborted: HashSet<u64>,
    /// Window slots whose per-slot seal (checksum + ring epoch) failed
    /// validation: torn mid-write or left over from a previous life of
    /// the ring. They are discarded, never parsed into a transaction.
    pub rejected_slots: u64,
    /// The ring generation the scanned header carried.
    pub generation: u32,
}

impl RecoveryReport {
    /// The set of transaction IDs that must not be trusted as complete:
    /// the unfinished window of §4.4 plus the explicitly aborted ones.
    pub fn unfinished_tx_ids(&self) -> HashSet<u64> {
        let mut ids: HashSet<u64> = self.unfinished.iter().map(|t| t.tx_id).collect();
        ids.extend(self.aborted.iter().copied());
        ids
    }
}

/// Scans a restored PMR over MMIO and extracts the unfinished window of
/// every queue. Returns `None` when the PMR carries no valid ccNVMe
/// header (never formatted, or corrupted beyond the magic).
pub fn scan_pmr(pmr: &MmioRegion) -> Option<RecoveryReport> {
    scan_with(&|off, len| pmr.read(off, len))
}

/// [`scan_pmr`] over a PMR image (no simulator, no PCIe cost): the
/// entry point forensics tooling uses on crash images and saved dumps.
pub fn scan_pmr_bytes(image: &PmrImage) -> Option<RecoveryReport> {
    if image.size() < 64 {
        return None;
    }
    scan_with(&|off, len| {
        if off as usize + len as usize <= image.size() {
            image.read_vec(off, len as usize)
        } else {
            vec![0; len as usize]
        }
    })
}

fn scan_with(read: &dyn Fn(u64, u64) -> Vec<u8>) -> Option<RecoveryReport> {
    let header = read(0, 64);
    let layout = PmrLayout::decode_header(&header)?;
    let generation = PmrLayout::decode_generation(&header);
    let mut report = RecoveryReport {
        generation,
        ..RecoveryReport::default()
    };
    for q in 0..layout.nqueues {
        let head_bytes = read(layout.head_off(q), 4);
        let db_bytes = read(layout.db_off(q), 4);
        let head = u32::from_le_bytes(head_bytes.try_into().expect("4 bytes")) % layout.depth;
        let db = u32::from_le_bytes(db_bytes.try_into().expect("4 bytes")) % layout.depth;
        let count = (db + layout.depth - head) % layout.depth;
        let mut cur = head;
        let mut open: Option<RecoveredTx> = None;
        for _ in 0..count {
            let raw = read(layout.slot_off(q, cur), 64);
            let raw: [u8; 64] = raw.try_into().expect("64 bytes");
            // Per-slot seal validation: a slot torn mid-WC-flush or
            // sealed under an older ring generation is discarded, not
            // replayed (§5.5 hardening).
            if !verify_line(&raw, generation) {
                report.rejected_slots += 1;
                cur = (cur + 1) % layout.depth;
                continue;
            }
            if let Some(cmd) = NvmeCommand::decode(&raw) {
                let req = RecoveredRequest {
                    lba: cmd.lba,
                    nblocks: cmd.nblocks,
                    commit: cmd.tx_flags.tx_commit,
                    slot: cur,
                };
                if cmd.tx_flags.is_tx() {
                    let same_tx = open.as_ref().is_some_and(|t| t.tx_id == cmd.tx_id);
                    if !same_tx {
                        if let Some(t) = open.take() {
                            report.unfinished.push(t);
                        }
                        open = Some(RecoveredTx {
                            tx_id: cmd.tx_id,
                            queue: q,
                            requests: Vec::new(),
                            has_commit: false,
                        });
                    }
                    let t = open.as_mut().expect("opened above");
                    t.has_commit |= req.commit;
                    t.requests.push(req);
                    if cmd.tx_flags.tx_commit {
                        report.unfinished.push(open.take().expect("open"));
                    }
                } else {
                    report.non_tx_requests.push(req);
                }
            }
            cur = (cur + 1) % layout.depth;
        }
        if let Some(t) = open.take() {
            report.unfinished.push(t);
        }
        // The queue's abort log: failed transactions the head already
        // advanced past.
        report.aborted.extend(layout.read_abort_log(q, read));
    }
    Some(report)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ccnvme_pcie::{mmio::RegionKind, PcieLink};
    use ccnvme_sim::Sim;
    use ccnvme_ssd::{Opcode, TxFlags};

    use super::*;

    fn fresh_pmr(layout: &PmrLayout) -> MmioRegion {
        let link = Arc::new(PcieLink::new(3_300_000_000));
        let pmr = MmioRegion::new("pmr", RegionKind::Pmr, 2 << 20, link);
        pmr.write(0, &layout.encode_header());
        pmr.flush();
        pmr
    }

    fn cmd(lba: u64, tx_id: u64, flags: TxFlags) -> NvmeCommand {
        NvmeCommand {
            opcode: Opcode::Write,
            cid: 0,
            nsid: 1,
            lba,
            nblocks: 1,
            fua: false,
            tx_id,
            tx_flags: flags,
            data_token: 0,
            ctx: ccnvme_obs::TraceCtx::ZERO,
        }
    }

    /// Encodes and seals a command under generation 0 (what a freshly
    /// formatted ring's driver would write).
    fn sealed(cmd: &NvmeCommand) -> [u8; 64] {
        let mut raw = cmd.encode();
        ccnvme_obs::seal::seal_line(&mut raw, 0);
        raw
    }

    #[test]
    fn empty_window_recovers_nothing() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let layout = PmrLayout::new(2, 64);
            let pmr = fresh_pmr(&layout);
            let report = scan_pmr(&pmr).expect("formatted");
            assert!(report.unfinished.is_empty());
        });
        sim.run();
    }

    #[test]
    fn unformatted_pmr_yields_none() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let link = Arc::new(PcieLink::new(3_300_000_000));
            let pmr = MmioRegion::new("pmr", RegionKind::Pmr, 2 << 20, link);
            assert!(scan_pmr(&pmr).is_none());
        });
        sim.run();
    }

    #[test]
    fn window_entries_grouped_by_tx() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let layout = PmrLayout::new(1, 64);
            let pmr = fresh_pmr(&layout);
            // Two transactions: tx 7 (2 members + commit), tx 8 (1 member,
            // no commit — torn).
            pmr.write(layout.slot_off(0, 0), &sealed(&cmd(10, 7, TxFlags::TX)));
            pmr.write(layout.slot_off(0, 1), &sealed(&cmd(11, 7, TxFlags::TX)));
            pmr.write(
                layout.slot_off(0, 2),
                &sealed(&cmd(12, 7, TxFlags::TX_COMMIT)),
            );
            pmr.write(layout.slot_off(0, 3), &sealed(&cmd(13, 8, TxFlags::TX)));
            // head = 0, doorbell covers 4 entries.
            pmr.write(layout.db_off(0), &4u32.to_le_bytes());
            pmr.flush();
            let report = scan_pmr(&pmr).expect("formatted");
            assert_eq!(report.unfinished.len(), 2);
            let t7 = &report.unfinished[0];
            assert_eq!(t7.tx_id, 7);
            assert_eq!(t7.requests.len(), 3);
            assert!(t7.has_commit);
            let t8 = &report.unfinished[1];
            assert_eq!(t8.tx_id, 8);
            assert!(!t8.has_commit);
            assert_eq!(report.unfinished_tx_ids(), HashSet::from([7, 8]));
        });
        sim.run();
    }

    #[test]
    fn entries_before_head_are_finished() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let layout = PmrLayout::new(1, 64);
            let pmr = fresh_pmr(&layout);
            pmr.write(
                layout.slot_off(0, 0),
                &sealed(&cmd(10, 1, TxFlags::TX_COMMIT)),
            );
            pmr.write(
                layout.slot_off(0, 1),
                &sealed(&cmd(11, 2, TxFlags::TX_COMMIT)),
            );
            pmr.write(layout.db_off(0), &2u32.to_le_bytes());
            // Head advanced past tx 1 (completed in order).
            pmr.write(layout.head_off(0), &1u32.to_le_bytes());
            pmr.flush();
            let report = scan_pmr(&pmr).expect("formatted");
            assert_eq!(report.unfinished.len(), 1);
            assert_eq!(report.unfinished[0].tx_id, 2);
        });
        sim.run();
    }

    #[test]
    fn window_wraps_around_ring() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let layout = PmrLayout::new(1, 8);
            let pmr = fresh_pmr(&layout);
            // head=6, db=1: slots 6, 7, 0.
            for (i, slot) in [6u32, 7, 0].into_iter().enumerate() {
                pmr.write(
                    layout.slot_off(0, slot),
                    &sealed(&cmd(20 + i as u64, 5, TxFlags::TX)),
                );
            }
            pmr.write(layout.head_off(0), &6u32.to_le_bytes());
            pmr.write(layout.db_off(0), &1u32.to_le_bytes());
            pmr.flush();
            let report = scan_pmr(&pmr).expect("formatted");
            assert_eq!(report.unfinished.len(), 1);
            assert_eq!(report.unfinished[0].requests.len(), 3);
            assert_eq!(
                report.unfinished[0]
                    .requests
                    .iter()
                    .map(|r| r.lba)
                    .collect::<Vec<_>>(),
                vec![20, 21, 22]
            );
        });
        sim.run();
    }

    #[test]
    fn non_tx_requests_reported_separately() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let layout = PmrLayout::new(1, 16);
            let pmr = fresh_pmr(&layout);
            pmr.write(layout.slot_off(0, 0), &sealed(&cmd(30, 0, TxFlags::NONE)));
            pmr.write(layout.db_off(0), &1u32.to_le_bytes());
            pmr.flush();
            let report = scan_pmr(&pmr).expect("formatted");
            assert!(report.unfinished.is_empty());
            assert_eq!(report.non_tx_requests.len(), 1);
            assert_eq!(report.non_tx_requests[0].lba, 30);
        });
        sim.run();
    }
}

#[cfg(test)]
mod robustness_tests {
    use std::sync::Arc;

    use ccnvme_pcie::{mmio::RegionKind, PcieLink};
    use ccnvme_sim::Sim;
    use ccnvme_ssd::{Opcode, TxFlags};

    use super::*;

    #[test]
    fn corrupt_doorbell_values_never_panic_the_scan() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let layout = PmrLayout::new(2, 16);
            let link = Arc::new(PcieLink::new(3_300_000_000));
            let pmr = MmioRegion::new("pmr", RegionKind::Pmr, 2 << 20, link);
            pmr.write(0, &layout.encode_header());
            // Garbage head/doorbell values far beyond the ring depth.
            pmr.write(layout.head_off(0), &0xdead_beefu32.to_le_bytes());
            pmr.write(layout.db_off(0), &0xffff_ffffu32.to_le_bytes());
            // And a garbage abort-log count.
            layout.publish_abort_count(&pmr, 1, 0xffff_ffff);
            pmr.flush();
            // The scan clamps modulo the depth — the abort log to its
            // capacity — and terminates.
            let report = scan_pmr(&pmr).expect("formatted");
            assert!(report.unfinished.len() <= 16);
            assert!(report.aborted.len() <= 16);
        });
        sim.run();
    }

    #[test]
    fn garbage_slot_bytes_are_skipped() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let layout = PmrLayout::new(1, 8);
            let link = Arc::new(PcieLink::new(3_300_000_000));
            let pmr = MmioRegion::new("pmr", RegionKind::Pmr, 2 << 20, link);
            pmr.write(0, &layout.encode_header());
            // Slot 0: garbage; slot 1: a valid commit.
            pmr.write(layout.slot_off(0, 0), &[0x5au8; 64]);
            let cmd = NvmeCommand {
                opcode: Opcode::Write,
                cid: 1,
                nsid: 1,
                lba: 9,
                nblocks: 1,
                fua: false,
                tx_id: 3,
                tx_flags: TxFlags::TX_COMMIT,
                data_token: 0,
                ctx: ccnvme_obs::TraceCtx::ZERO,
            };
            let mut raw = cmd.encode();
            ccnvme_obs::seal::seal_line(&mut raw, 0);
            pmr.write(layout.slot_off(0, 1), &raw);
            pmr.write(layout.db_off(0), &2u32.to_le_bytes());
            pmr.flush();
            let report = scan_pmr(&pmr).expect("formatted");
            assert_eq!(report.unfinished.len(), 1);
            assert_eq!(report.unfinished[0].tx_id, 3);
            assert_eq!(report.rejected_slots, 1);
        });
        sim.run();
    }

    #[test]
    fn torn_slot_fails_checksum_and_is_discarded_not_replayed() {
        // The regression the enumerator flushes out: a P-SQ slot whose
        // WC-buffer flush was cut mid-line. The seal checksum catches the
        // tear; the entry must be counted as rejected and its transaction
        // must not reach the replay candidates.
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let layout = PmrLayout::new(1, 8);
            let link = Arc::new(PcieLink::new(3_300_000_000));
            let pmr = MmioRegion::new("pmr", RegionKind::Pmr, 2 << 20, link);
            pmr.write(0, &layout.encode_header());
            let cmd = NvmeCommand {
                opcode: Opcode::Write,
                cid: 1,
                nsid: 1,
                lba: 77,
                nblocks: 1,
                fua: false,
                tx_id: 9,
                tx_flags: TxFlags::TX_COMMIT,
                data_token: 0,
                ctx: ccnvme_obs::TraceCtx::ZERO,
            };
            let mut raw = cmd.encode();
            ccnvme_obs::seal::seal_line(&mut raw, 0);
            // Tear the sealed slot: flip one payload byte (the LBA) as a
            // partial 64 B line write would.
            raw[40] ^= 0xff;
            pmr.write(layout.slot_off(0, 0), &raw);
            pmr.write(layout.db_off(0), &1u32.to_le_bytes());
            pmr.flush();
            let report = scan_pmr(&pmr).expect("formatted");
            assert_eq!(report.rejected_slots, 1);
            assert!(report.unfinished.is_empty(), "torn entry must not replay");
            assert!(!report.unfinished_tx_ids().contains(&9));
        });
        sim.run();
    }

    #[test]
    fn stale_epoch_slot_is_rejected_after_reformat() {
        // A slot sealed under generation 0 must not be parsed once the
        // ring was re-formatted to generation 1 (stale head/db values
        // could otherwise expose a previous life of the ring).
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let layout = PmrLayout::new(1, 8);
            let link = Arc::new(PcieLink::new(3_300_000_000));
            let pmr = MmioRegion::new("pmr", RegionKind::Pmr, 2 << 20, link);
            pmr.write(0, &layout.encode_header_with_generation(1));
            let cmd = NvmeCommand {
                opcode: Opcode::Write,
                cid: 1,
                nsid: 1,
                lba: 5,
                nblocks: 1,
                fua: false,
                tx_id: 4,
                tx_flags: TxFlags::TX_COMMIT,
                data_token: 0,
                ctx: ccnvme_obs::TraceCtx::ZERO,
            };
            let mut raw = cmd.encode();
            ccnvme_obs::seal::seal_line(&mut raw, 0);
            pmr.write(layout.slot_off(0, 0), &raw);
            pmr.write(layout.db_off(0), &1u32.to_le_bytes());
            pmr.flush();
            let report = scan_pmr(&pmr).expect("formatted");
            assert_eq!(report.generation, 1);
            assert_eq!(report.rejected_slots, 1);
            assert!(report.unfinished.is_empty());
        });
        sim.run();
    }

    #[test]
    fn interleaved_transactions_split_on_id_change() {
        // Two transactions interleaved in one queue window (tx 5, tx 6,
        // tx 5 again) must be reported as three runs — the scan groups
        // consecutive entries only, matching the same-core submission
        // rule of §4.5.
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let layout = PmrLayout::new(1, 8);
            let link = Arc::new(PcieLink::new(3_300_000_000));
            let pmr = MmioRegion::new("pmr", RegionKind::Pmr, 2 << 20, link);
            pmr.write(0, &layout.encode_header());
            for (slot, tx_id) in [(0u32, 5u64), (1, 6), (2, 5)] {
                let cmd = NvmeCommand {
                    opcode: Opcode::Write,
                    cid: slot as u16,
                    nsid: 1,
                    lba: slot as u64,
                    nblocks: 1,
                    fua: false,
                    tx_id,
                    tx_flags: TxFlags::TX,
                    data_token: 0,
                    ctx: ccnvme_obs::TraceCtx::ZERO,
                };
                let mut raw = cmd.encode();
                ccnvme_obs::seal::seal_line(&mut raw, 0);
                pmr.write(layout.slot_off(0, slot), &raw);
            }
            pmr.write(layout.db_off(0), &3u32.to_le_bytes());
            pmr.flush();
            let report = scan_pmr(&pmr).expect("formatted");
            assert_eq!(report.unfinished.len(), 3);
        });
        sim.run();
    }
}
