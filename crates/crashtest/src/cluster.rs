//! The cluster crash surface: the sharded 2PC cluster of
//! `crates/cluster` — the multi-domain counterpart of the single-device
//! file-system surface ([`crate::fs`]).
//!
//! The recorded pass drives a scripted mix of cross-shard commits,
//! single-shard fast-path commits, deliberate aborts and a commit
//! verdict racing a resolve inquiry for the same gtx against N
//! participant nodes plus one coordinator node, each on its own
//! instrumented device — one recovery domain each. At every cut the
//! surface additionally holds every subset of domains (coordinator
//! included) *down* through the first recovery wave, so in-doubt
//! participants must park until the coordinator returns:
//!
//! * **wave 1** — the up domains boot through ccNVMe recovery and, if
//!   the coordinator is up, resolve their in-doubt intents against it
//!   (presumed abort on absence);
//! * **wave 2** — the late domains boot and every remaining in-doubt
//!   intent resolves.
//!
//! After both waves the oracle asserts, for every scripted transaction:
//! **all-or-nothing visibility** across its participants (never a
//! partial cross-shard commit), **exactly-once effects** (commits acked
//! before the cut are fully visible, acked aborts never are), a
//! single-shard one-phase commit **never in doubt** on any domain, and
//! **convergence** — every down-subset schedule lands on byte-identical
//! media, and re-recovering the converged image changes nothing and
//! reports nothing in doubt. Each down-subset schedule is one crash
//! state. Counter `resolved_in_doubt`: in-doubt intents resolved across
//! all recoveries — a sweep that never cut through a prepared-but-
//! undecided window proved nothing about resolution, and fails.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme_cluster::{resolve_in_doubt_local, ClusterNode, ShardLayout};
use ccnvme_fabric::{ClusterBackend, ShardWrite, Status};
use ccnvme_sim::Ns;
use ccnvme_ssd::{DurableImage, PersistLog};

use crate::sweep::{CrashSurface, Domain, Judgement, Settled, SweepReport, Tape};
use crate::{boot_ctrl, SETTLED};

/// The scripted cluster workload.
#[derive(Clone)]
pub struct ClusterSurface {
    /// Participant shards (domains = `shards + 1` with the coordinator).
    pub shards: usize,
    /// Scripted transactions (cycling commit / fast-path / abort /
    /// race); the ack of transaction `i` is mark `i`.
    pub txs: usize,
}

/// What one scripted transaction intends.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TxKind {
    /// Cross-shard commit through the coordinator verdict.
    Commit,
    /// Single-shard one-phase commit (`commit_one`: no intent, no
    /// verdict).
    FastPath,
    /// Prepared everywhere, then a durable abort verdict.
    Abort,
    /// Prepared everywhere, then a commit verdict and a resolve inquiry
    /// race on two cores; the answer they agree on is decided.
    Race,
}

/// One scripted transaction as the oracle remembers it.
pub struct TxRec {
    gtx: u64,
    kind: TxKind,
    participants: Vec<usize>,
    /// Data lba (per participating shard) this transaction writes.
    lba: u64,
}

/// The unique block a transaction writes on one shard: gtx, shard and a
/// per-transaction fill byte, so partial visibility and cross-shard
/// mix-ups are both detectable.
fn tx_block(gtx: u64, shard: usize, tx: usize) -> Vec<u8> {
    let mut d = vec![0x41 + (tx % 32) as u8; 64];
    d[..8].copy_from_slice(&gtx.to_le_bytes());
    d[8..16].copy_from_slice(&(shard as u64).to_le_bytes());
    d
}

fn scripted_kind(tx: usize) -> TxKind {
    match tx % 4 {
        0 => TxKind::Commit,
        1 => TxKind::FastPath,
        2 => TxKind::Abort,
        _ => TxKind::Race,
    }
}

/// How much later the other participants of a fanned-out step start
/// than its lead. Any gap separates their persistence events into
/// distinct instants, so cuts fall between the lead's commit point and
/// the others'; with no gap the participants' events share instants and
/// every cut keeps all of a step or none of it.
const FAN_OUT_STAGGER_NS: Ns = 1_000;

/// Runs one 2PC step per participant at once, participant `i` on host
/// core `i` — the cluster client's fan-out: every capsule is sent
/// before any answer is awaited, and which participant gets there
/// first is up to the fabric. Here participant `lead` does, by
/// [`FAN_OUT_STAGGER_NS`]. Returns the statuses in order.
fn fan_out(lead: usize, steps: Vec<impl FnOnce() -> Status + Send + 'static>) -> Vec<Status> {
    let threads: Vec<_> = steps
        .into_iter()
        .enumerate()
        .map(|(core, step)| {
            ccnvme_sim::spawn("fan-out", core, move || {
                if core != lead {
                    ccnvme_sim::delay(FAN_OUT_STAGGER_NS);
                }
                step()
            })
        })
        .collect();
    threads.into_iter().map(|t| t.join()).collect()
}

/// Races `coord.verdict(gtx, true)` on host core 0 against
/// `coord.resolve(gtx)` on host core 1, from the same virtual instant,
/// and returns the decision both answered. The two must agree (§15.3):
/// the decision for a gtx is written at most once.
fn race_verdict_with_resolve(coord: &Arc<ClusterNode>, gtx: u64) -> bool {
    let (c0, c1) = (Arc::clone(coord), Arc::clone(coord));
    let verdict = ccnvme_sim::spawn("race-verdict", 0, move || c0.verdict(gtx, true));
    let resolve = ccnvme_sim::spawn("race-resolve", 1, move || c1.resolve(gtx));
    let ((vst, verdict), (rst, resolve)) = (verdict.join(), resolve.join());
    assert!(
        vst.is_ok() && rst.is_ok(),
        "gtx {gtx}: verdict {vst:?}, resolve {rst:?}"
    );
    assert_eq!(
        verdict, resolve,
        "gtx {gtx}: racing verdict and resolve answered different decisions"
    );
    verdict == ccnvme_cluster::layout::DECISION_COMMIT
}

/// One booted domain: its node and the intents it mounted in doubt.
type Booted = (Arc<ClusterNode>, Vec<u64>);

/// What one recovery schedule produced.
struct Recovered {
    nodes: Vec<Arc<ClusterNode>>,
    /// In-doubt intents resolved across both waves.
    resolved: usize,
    /// Every gtx some domain mounted in doubt.
    doubted: HashSet<u64>,
}

impl Recovered {
    /// Every domain's state once recovery and resolution settled.
    fn finals(&self) -> Vec<DurableImage> {
        let snapshot = |n: &Arc<ClusterNode>| n.driver().controller().crash_snapshot(SETTLED);
        self.nodes.iter().map(snapshot).collect()
    }
}

impl ClusterSurface {
    fn domains(&self) -> usize {
        self.shards + 1
    }

    /// Boots one domain: controller (fresh or from a crash image),
    /// ccNVMe probe (journal replay), cluster mount (intent/decision
    /// scan). Host cores come first, one per participant; domain `d`'s
    /// device core follows them.
    fn boot(
        &self,
        domain: usize,
        image: Option<&DurableImage>,
        record: bool,
    ) -> (Booted, Arc<CcNvmeDriver>) {
        let ctrl = boot_ctrl(self.shards + domain, image, record);
        let (drv, _report) = CcNvmeDriver::probe(ctrl, self.cores() as u16, 64);
        let drv = Arc::new(drv);
        (
            ClusterNode::mount(Arc::clone(&drv), ShardLayout::small(0)),
            drv,
        )
    }

    /// Boots every domain from `images` — the `down` bitmask names
    /// domains held back until wave 2 — and resolves all in-doubt
    /// intents.
    fn recover(&self, images: &[DurableImage], down: u32, record: bool) -> Recovered {
        let mut nodes: Vec<Option<Booted>> = vec![None; self.domains()];
        let (mut resolved, mut doubted) = (0, HashSet::new());
        // Wave 1: the up domains boot; in-doubt intents resolve only if
        // the coordinator is among them. Wave 2: the late domains
        // return; everything resolves.
        for wave_down in [false, true] {
            for (d, slot) in nodes.iter_mut().enumerate() {
                if ((down >> d) & 1 == 1) == wave_down {
                    *slot = Some(self.boot(d, Some(&images[d]), record).0);
                }
            }
            doubted.extend(nodes.iter().flatten().flat_map(|(_, doubt)| doubt));
            let Some((coord, _)) = nodes[self.shards].clone() else {
                continue;
            };
            for (node, in_doubt) in nodes.iter_mut().take(self.shards).flatten() {
                if !in_doubt.is_empty() {
                    resolve_in_doubt_local(node, &coord, in_doubt);
                    resolved += in_doubt.len();
                    in_doubt.clear();
                }
            }
        }
        Recovered {
            nodes: nodes
                .into_iter()
                .map(|s| s.expect("domain booted").0)
                .collect(),
            resolved,
            doubted,
        }
    }

    /// The transaction oracle: all-or-nothing visibility, acked commits
    /// visible, acked aborts not, and a one-phase commit never in
    /// doubt anywhere.
    fn check(&self, outcome: &Recovered, txs: &[TxRec], acked: &HashSet<u64>) -> Vec<String> {
        let nodes = &outcome.nodes;
        let mut problems = Vec::new();
        for (i, tx) in txs.iter().enumerate() {
            if tx.kind == TxKind::FastPath && outcome.doubted.contains(&tx.gtx) {
                problems.push(format!("gtx {}: one-phase commit mounted in doubt", tx.gtx));
            }
            let mut visible = Vec::new();
            for &p in &tx.participants {
                let block = nodes[p].read_block(tx.lba).expect("read data block");
                let expect = tx_block(tx.gtx, p, i);
                if block[..expect.len()] == expect[..] {
                    visible.push(true);
                } else if block.iter().all(|&b| b == 0) {
                    visible.push(false);
                } else {
                    problems.push(format!(
                        "gtx {} shard {p}: lba {} holds foreign bytes",
                        tx.gtx, tx.lba
                    ));
                    visible.push(false);
                }
            }
            let all = visible.iter().all(|&v| v);
            let none = visible.iter().all(|&v| !v);
            if !all && !none {
                problems.push(format!(
                    "gtx {}: partial cross-shard visibility {visible:?}",
                    tx.gtx
                ));
            }
            let acked = acked.contains(&(i as u64));
            if acked && tx.kind != TxKind::Abort && !all {
                problems.push(format!("gtx {}: acked commit lost", tx.gtx));
            }
            if acked && tx.kind == TxKind::Abort && !none {
                problems.push(format!("gtx {}: acked abort resurfaced", tx.gtx));
            }
        }
        problems
    }
}

impl CrashSurface for ClusterSurface {
    type Script = Vec<TxRec>;
    type Witness = Vec<HashMap<u64, Vec<u8>>>;

    fn name(&self) -> String {
        format!("cluster{}", self.shards)
    }

    fn cores(&self) -> usize {
        self.shards + self.domains()
    }

    /// Mirrors the cluster client's commit order exactly: ids from one
    /// coordinator lease; one `commit_one` on the fast path; otherwise
    /// prepare every participant at once, record the coordinator
    /// verdict (a race transaction races it against a resolve inquiry),
    /// decide every participant at once. Then ack.
    fn record(&self, tape: &mut Tape) -> Vec<TxRec> {
        let mut nodes = Vec::new();
        let mut domains = Vec::new();
        for d in 0..self.domains() {
            let ((node, in_doubt), drv) = self.boot(d, None, true);
            assert!(in_doubt.is_empty(), "fresh domain {d} mounted in doubt");
            nodes.push(node);
            domains.push(Domain {
                log: drv.controller().persist_log().expect("recording"),
                geometry: Some(drv.layout().sanitizer_geometry()),
            });
        }
        tape.start(domains);
        let coord = &nodes[self.shards];
        let mut txs: Vec<TxRec> = Vec::new();
        let mut lease = 0..0;
        for tx in 0..self.txs {
            if lease.is_empty() {
                let st;
                (st, lease) = coord.alloc_gtx();
                assert!(st.is_ok(), "lease gtxs for tx {tx}: {st:?}");
            }
            let gtx = lease.next().expect("a fresh lease holds an id");
            let mut kind = scripted_kind(tx);
            let participants = match kind {
                TxKind::FastPath => vec![tx % self.shards],
                _ => (0..self.shards).collect(),
            };
            let lba = tx as u64;
            let write = |p| ShardWrite {
                lba,
                data: tx_block(gtx, p, tx),
            };
            if kind == TxKind::FastPath {
                let p = participants[0];
                let st = nodes[p].commit_one(gtx, &[write(p)]);
                assert!(st.is_ok(), "commit_one tx {tx} on shard {p}: {st:?}");
            } else {
                // The lead rotates over the two-phase transactions, so
                // every participant leads some transaction's steps.
                let two_phase = txs.iter().filter(|t| t.kind != TxKind::FastPath);
                let lead = two_phase.count() % participants.len();
                let prepares = participants
                    .iter()
                    .map(|&p| {
                        let (node, w) = (Arc::clone(&nodes[p]), write(p));
                        move || node.prepare(gtx, &[w])
                    })
                    .collect();
                for (p, st) in participants.iter().zip(fan_out(lead, prepares)) {
                    assert!(st.is_ok(), "prepare tx {tx} on shard {p}: {st:?}");
                }
                let commit = if kind == TxKind::Race {
                    let commit = race_verdict_with_resolve(coord, gtx);
                    kind = if commit {
                        TxKind::Commit
                    } else {
                        TxKind::Abort
                    };
                    commit
                } else {
                    let commit = kind == TxKind::Commit;
                    let (st, word) = coord.verdict(gtx, commit);
                    assert!(st.is_ok(), "verdict tx {tx}: {st:?}");
                    let want = if commit {
                        ccnvme_cluster::layout::DECISION_COMMIT
                    } else {
                        ccnvme_cluster::layout::DECISION_ABORT
                    };
                    assert_eq!(word, want, "verdict word of tx {tx}");
                    commit
                };
                let decides = participants
                    .iter()
                    .map(|&p| {
                        let node = Arc::clone(&nodes[p]);
                        move || node.decide(gtx, commit)
                    })
                    .collect();
                for (p, st) in participants.iter().zip(fan_out(lead, decides)) {
                    assert!(st.is_ok(), "decide tx {tx} on shard {p}: {st:?}");
                }
            }
            tape.marks().mark(tx as u64);
            txs.push(TxRec {
                gtx,
                kind,
                participants,
                lba,
            });
        }
        txs
    }

    fn judge(&self, txs: &Vec<TxRec>, images: &[DurableImage], acked: &HashSet<u64>) -> Judgement {
        let schedules = 1usize << self.domains();
        let (mut clean, mut resolved, mut problems) = (0, 0, Vec::new());
        let mut reference: Option<Vec<DurableImage>> = None;
        for down in 0..schedules as u32 {
            let outcome = self.recover(images, down, false);
            resolved += outcome.resolved;
            let mut bad = self.check(&outcome, txs, acked);
            let finals = outcome.finals();
            match &reference {
                // Convergence: recovery order must not change the media.
                Some(reference) => {
                    for (d, (got, want)) in finals.iter().zip(reference).enumerate() {
                        if got.blocks != want.blocks {
                            bad.push(format!("domain {d} diverged"));
                        }
                    }
                }
                None => reference = Some(finals),
            }
            clean += bad.is_empty() as usize;
            problems.extend(bad.into_iter().map(|b| format!("down={down:#b}: {b}")));
        }
        // Byte-idempotent re-recovery: booting the converged image again
        // must find nothing in doubt and change nothing.
        let reference = reference.expect("the empty down-set ran");
        let again = self.recover(&reference, 0, false);
        if !again.doubted.is_empty() || again.resolved != 0 {
            problems.push("re-recovery found new in-doubt work".into());
        }
        for (d, (got, want)) in again.finals().iter().zip(&reference).enumerate() {
            if got.blocks != want.blocks {
                problems.push(format!("domain {d}: re-recovery changed media"));
            }
        }
        Judgement {
            schedules,
            clean,
            problems,
            counters: vec![("resolved_in_doubt", resolved as u64)],
        }
    }

    fn settle(
        &self,
        images: &[DurableImage],
        record: bool,
    ) -> Result<Settled<Self::Witness>, String> {
        let outcome = self.recover(images, 0, record);
        let log = |n: &Arc<ClusterNode>| n.driver().controller().persist_log();
        Ok(Settled {
            witness: outcome.finals().into_iter().map(|f| f.blocks).collect(),
            logs: outcome.nodes.iter().filter_map(log).collect(),
        })
    }

    fn finish(&self, _: &Vec<TxRec>, _: &[Arc<PersistLog>], report: &mut SweepReport) {
        if report.count("resolved_in_doubt") == 0 {
            report.fail("no cut ever produced an in-doubt intent — surface too coarse".into());
        }
    }
}
