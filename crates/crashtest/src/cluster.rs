//! The cluster crash surface: the sharded 2PC cluster of
//! `crates/cluster` — the multi-domain counterpart of the single-device
//! file-system surface ([`crate::fs`]).
//!
//! The recorded pass serves N participant nodes plus one coordinator
//! node, each on its own instrumented device — one recovery domain
//! each — through loopback fabric targets, and drives a scripted mix of
//! cross-shard commits, single-shard fast-path commits, deliberate
//! aborts and a commit verdict racing a second client's resolve inquiry
//! for the same gtx through the shipped [`ClusterClient`]: the sweep
//! proves the path that runs, capsule → session → node → media. At
//! every cut the surface additionally holds every subset of domains
//! (coordinator included) *down* through the first recovery wave, so
//! in-doubt participants must park until the coordinator returns:
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
//! state. Counters: `resolved_in_doubt`, in-doubt intents resolved
//! across all recoveries, and `split_in_doubt`, states in which a
//! two-phase gtx mounted in doubt on some of its participants but not
//! all. A sweep where either is 0 never cut through a
//! prepared-but-undecided window, or never between two participants'
//! steps, so it proved nothing about resolution, and fails.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme_cluster::{resolve_in_doubt_local, ClusterCfg, ClusterClient, ClusterNode, ShardLayout};
use ccnvme_fabric::{Backend, ClusterBackend, FabricConfig, FabricTarget, ShardWrite};
use ccnvme_ssd::{DurableImage, PersistLog};

use crate::sweep::{CrashSurface, Domain, Judgement, Settled, SweepReport, Tape};
use crate::{boot_ctrl, SETTLED};

/// Host cores, one per client. A target pins its `n`-th connection's
/// handler to core `n`, and each client dials every target once, the
/// first client before the second: so each client's capsules are
/// served on its own core.
const HOST_CORES: usize = 2;

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
    /// Single-shard one-phase commit (one `TX_COMMIT`: no intent, no
    /// verdict).
    FastPath,
    /// Prepared everywhere, then a resolve inquiry records presumed
    /// abort.
    Abort,
    /// Prepared everywhere, then a commit verdict and a second client's
    /// resolve inquiry race on two cores; the answer they agree on is
    /// decided.
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

/// One booted domain: its node and the intents it mounted in doubt.
type Booted = (Arc<ClusterNode>, Vec<u64>);

/// What one recovery schedule produced.
struct Recovered {
    nodes: Vec<Arc<ClusterNode>>,
    /// In-doubt intents resolved across both waves.
    resolved: usize,
    /// The gtxs each domain mounted in doubt.
    doubted: Vec<HashSet<u64>>,
}

impl Recovered {
    /// Every domain's state once recovery and resolution settled.
    fn finals(&self) -> Vec<DurableImage> {
        let snapshot = |n: &Arc<ClusterNode>| n.driver().controller().crash_snapshot(SETTLED);
        self.nodes.iter().map(snapshot).collect()
    }

    /// Whether some transaction mounted in doubt on some of its
    /// participants but not all.
    fn split(&self, txs: &[TxRec]) -> bool {
        txs.iter().any(|tx| {
            let parts = &tx.participants;
            let n = parts
                .iter()
                .filter(|&&p| self.doubted[p].contains(&tx.gtx))
                .count();
            0 < n && n < parts.len()
        })
    }
}

impl ClusterSurface {
    fn domains(&self) -> usize {
        self.shards + 1
    }

    /// Boots one domain: controller (fresh or from a crash image),
    /// ccNVMe probe (journal replay), cluster mount (intent/decision
    /// scan). Host cores come first; domain `d`'s device core follows
    /// them.
    fn boot(
        &self,
        domain: usize,
        image: Option<&DurableImage>,
        record: bool,
    ) -> (Booted, Arc<CcNvmeDriver>) {
        let ctrl = boot_ctrl(HOST_CORES + domain, image, record);
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
        let mut doubted = vec![HashSet::new(); self.domains()];
        let mut resolved = 0;
        // Wave 1: the up domains boot; in-doubt intents resolve only if
        // the coordinator is among them. Wave 2: the late domains
        // return; everything resolves.
        for wave_down in [false, true] {
            for (d, slot) in nodes.iter_mut().enumerate() {
                if ((down >> d) & 1 == 1) == wave_down {
                    let booted = self.boot(d, Some(&images[d]), record).0;
                    doubted[d].extend(&booted.1);
                    *slot = Some(booted);
                }
            }
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
            let in_doubt = outcome.doubted.iter().any(|d| d.contains(&tx.gtx));
            if tx.kind == TxKind::FastPath && in_doubt {
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
        HOST_CORES + self.domains()
    }

    /// Serves every domain through a loopback fabric target and runs
    /// the script through [`ClusterClient`]s: ids from `begin()`; a
    /// commit or fast-path transaction is one `commit()`, whose shard
    /// order rotates over the two-phase transactions so that each
    /// participant goes first in some; an abort or race transaction
    /// runs `prepare_on` on each participant, then an abort asks
    /// `resolve_gtx`, and a race starts the first client's commit
    /// `verdict` and a second client's `resolve_gtx` at one instant,
    /// on host cores 0 and 1: the two must answer alike. Then ack.
    fn record(&self, tape: &mut Tape) -> Vec<TxRec> {
        let mut targets = Vec::new();
        let mut domains = Vec::new();
        for d in 0..self.domains() {
            let ((node, in_doubt), drv) = self.boot(d, None, true);
            assert!(in_doubt.is_empty(), "fresh domain {d} mounted in doubt");
            targets.push(FabricTarget::new(
                Backend::Cluster(node as Arc<dyn ClusterBackend>),
                FabricConfig::new(HOST_CORES),
            ));
            domains.push(Domain {
                log: drv.controller().persist_log().expect("recording"),
                geometry: Some(drv.layout().sanitizer_geometry()),
            });
        }
        let connect = |client_id| {
            let shards = targets[..self.shards]
                .iter()
                .map(|t| t.loopback_connector(client_id))
                .collect();
            let coord = targets[self.shards].loopback_connector(client_id);
            ClusterClient::connect(client_id, shards, coord, ClusterCfg::default(), None)
                .expect("cluster connect")
        };
        let (mut client, mut racer) = (connect(1), connect(2));
        tape.start(domains);
        let mut txs: Vec<TxRec> = Vec::new();
        let mut two_phase = 0;
        for tx in 0..self.txs {
            let gtx = client.begin().expect("begin");
            let mut kind = scripted_kind(tx);
            let participants = if kind == TxKind::FastPath {
                vec![tx % self.shards]
            } else {
                let mut order: Vec<usize> = (0..self.shards).collect();
                order.rotate_left(two_phase % self.shards);
                two_phase += 1;
                order
            };
            let lba = tx as u64;
            let write = |p| {
                vec![ShardWrite {
                    lba,
                    data: tx_block(gtx, p, tx),
                }]
            };
            if matches!(kind, TxKind::Commit | TxKind::FastPath) {
                let by_shard = participants.iter().map(|&p| (p, write(p))).collect();
                let committed = client.commit(gtx, by_shard).expect("commit");
                assert!(committed, "tx {tx} aborted");
            } else {
                for &p in &participants {
                    client.prepare_on(p, gtx, write(p)).expect("prepare");
                }
                if kind == TxKind::Abort {
                    let commit = client.resolve_gtx(gtx, &participants).expect("resolve");
                    assert!(
                        !commit,
                        "tx {tx}: an inquiry with no verdict answered commit"
                    );
                } else {
                    let shards = participants.clone();
                    let inquiry = ccnvme_sim::spawn("race-resolve", 1, move || {
                        let answer = racer.resolve_gtx(gtx, &shards);
                        (racer, answer)
                    });
                    let verdict = client.verdict(gtx, true).expect("racing verdict");
                    let answer;
                    (racer, answer) = inquiry.join();
                    assert_eq!(
                        verdict,
                        answer.expect("racing resolve"),
                        "gtx {gtx}: racing verdict and resolve answered different decisions"
                    );
                    kind = if verdict {
                        TxKind::Commit
                    } else {
                        TxKind::Abort
                    };
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
        let (mut clean, mut resolved, mut split, mut problems) = (0, 0, 0, Vec::new());
        let mut reference: Option<Vec<DurableImage>> = None;
        for down in 0..schedules as u32 {
            let outcome = self.recover(images, down, false);
            resolved += outcome.resolved;
            split += outcome.split(txs) as u64;
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
        if again.doubted.iter().any(|d| !d.is_empty()) || again.resolved != 0 {
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
            counters: vec![
                ("resolved_in_doubt", resolved as u64),
                ("split_in_doubt", split),
            ],
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
        if report.count("split_in_doubt") == 0 {
            report.fail(
                "no cut ever fell between two participants' steps — surface too coarse".into(),
            );
        }
    }
}
