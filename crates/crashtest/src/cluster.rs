//! The cluster crash surface: the sharded 2PC cluster of
//! `crates/cluster` — the multi-domain counterpart of the single-device
//! file-system surface ([`crate::fs`]).
//!
//! The recorded pass serves N participant nodes plus one coordinator
//! node, each on its own instrumented device — one recovery domain
//! each — through loopback fabric targets, and drives a script of
//! [`Step`]s through the shipped [`ClusterClient`]: commits over any
//! participant set, deliberate aborts, a commit verdict racing a second
//! client's resolve inquiry for the same gtx, and partitions that cut
//! one domain off from the first client mid-script. The sweep proves
//! the path that runs, capsule → session → node → media. At every cut
//! the surface additionally holds every subset of domains (coordinator
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
//! partial cross-shard commit), the client's **outcome contract** (an
//! `Ok(true)` acked before the cut is visible on every participant; an
//! `Ok(false)`, or a `begin` that failed, is never visible; a domain
//! out of reach after a partition promises all-or-nothing only; any
//! other failure fails the recording), a single-shard one-phase commit
//! **never in doubt** on any domain, and **convergence** — every
//! down-subset schedule lands on byte-identical media, and re-recovering
//! the converged image changes nothing and reports nothing in doubt.
//! Each down-subset schedule is one crash state. Counters:
//! `resolved_in_doubt`, in-doubt intents resolved across all
//! recoveries, and `split_in_doubt`, states in which a two-phase gtx
//! mounted in doubt on some of its participants but not all.

use std::collections::HashSet;
use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme_cluster::{
    resolve_in_doubt_local, ClusterCfg, ClusterClient, ClusterError, ClusterNode, ShardLayout,
};
use ccnvme_fabric::{Backend, ClusterBackend, FabricConfig, FabricTarget, ShardWrite};
use ccnvme_obs::hash::IntMap;
use ccnvme_sim::Ns;
use ccnvme_ssd::{CrashMode, DurableImage, MediaBlock};
use parking_lot::Mutex;

use crate::boot_ctrl;
use crate::sweep::{CrashSurface, Domain, Judgement, Settled, Tape};

/// Host cores, one per client. A target pins its `n`-th connection's
/// handler to core `n`, and each client dials every target once, the
/// first client before the second: so each client's capsules are
/// served on its own core.
const HOST_CORES: usize = 2;

/// A cluster workload: a script of steps over `shards` participants.
#[derive(Clone)]
pub struct ClusterSurface {
    /// Participant shards (domains = `shards + 1` with the coordinator).
    pub shards: usize,
    /// The script. Transaction step `i` writes lba `i` on each of its
    /// participants, and its ack is mark `i`.
    pub steps: Vec<Step>,
}

/// One scripted step. A participant list is in the order the client
/// hands the shards to `commit()` (or prepares them).
#[derive(Clone, Debug)]
pub enum Step {
    /// One `commit()`: two-phase over several participants, one
    /// `TX_COMMIT` (no intent, no verdict) over one.
    Commit(Vec<usize>),
    /// Prepared on each participant, then a resolve inquiry records
    /// presumed abort.
    Abort(Vec<usize>),
    /// Prepared on each participant, then a commit verdict and a second
    /// client's resolve inquiry race on two host cores; the answer they
    /// agree on is decided.
    Race(Vec<usize>),
    /// Partitions domain `d` (`shards` is the coordinator) away from
    /// the first client and severs that client's live wire to it; the
    /// racing client keeps its sessions.
    Partition(usize),
}

/// What the client learned about one transaction.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Answered commit: fully visible once the ack precedes the cut.
    Committed,
    /// Answered abort, or `begin` failed: no commit verdict exists
    /// anywhere, so it is never visible.
    Aborted,
    /// Failed for want of a domain after a partition: only
    /// all-or-nothing is promised.
    Unknown,
}

/// One scripted transaction as the oracle remembers it.
pub struct TxRec {
    /// 0 when `begin` failed (the coordinator never issues id 0).
    gtx: u64,
    /// A single-shard `commit()`: never in doubt anywhere.
    one_phase: bool,
    participants: Vec<usize>,
    /// Data lba (per participant) this transaction writes; also its
    /// step index and ack mark.
    lba: u64,
    outcome: Outcome,
}

/// The unique block a transaction writes on one shard: gtx, shard and a
/// per-transaction fill byte, so partial visibility and cross-shard
/// mix-ups are both detectable.
fn tx_block(gtx: u64, shard: usize, lba: u64) -> Vec<u8> {
    let mut d = vec![0x41 + (lba % 32) as u8; 64];
    d[..8].copy_from_slice(&gtx.to_le_bytes());
    d[8..16].copy_from_slice(&(shard as u64).to_le_bytes());
    d
}

impl Step {
    /// Runs this transaction step under `gtx` and returns the client's
    /// answer: whether it committed.
    fn drive(
        &self,
        gtx: u64,
        by_shard: Vec<(usize, Vec<ShardWrite>)>,
        client: &mut ClusterClient,
        racer: &Arc<Mutex<ClusterClient>>,
    ) -> Result<bool, ClusterError> {
        let participants: Vec<usize> = by_shard.iter().map(|&(p, _)| p).collect();
        if let Step::Commit(_) = self {
            return client.commit(gtx, by_shard);
        }
        for (p, writes) in by_shard {
            client.prepare_on(p, gtx, writes)?;
        }
        if let Step::Abort(_) = self {
            return client.resolve_gtx(gtx, &participants);
        }
        let racer = Arc::clone(racer);
        let inquiry = ccnvme_sim::spawn("race-resolve", 1, move || {
            racer.lock().resolve_gtx(gtx, &participants)
        });
        let verdict = client.verdict(gtx, true);
        // The racing client is never partitioned: it always answers.
        let answer = inquiry.join().expect("racing resolve");
        if let Ok(v) = verdict {
            assert_eq!(
                v, answer,
                "gtx {gtx}: racing verdict and resolve answered different decisions"
            );
        }
        verdict
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
        let snapshot =
            |n: &Arc<ClusterNode>| n.driver().controller().crash_snapshot(CrashMode::SETTLED);
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
    /// `txs` transactions cycling commit, one-shard commit, abort and
    /// race. The one-shard commit of transaction `i` goes to shard
    /// `i % shards`; every other transaction spans all shards, in an
    /// order that rotates over them so each participant goes first in
    /// some.
    pub fn scripted(shards: usize, txs: usize) -> Self {
        let mut two_phase = 0;
        let steps = (0..txs)
            .map(|tx| {
                if tx % 4 == 1 {
                    return Step::Commit(vec![tx % shards]);
                }
                let mut order: Vec<usize> = (0..shards).collect();
                order.rotate_left(two_phase % shards);
                two_phase += 1;
                match tx % 4 {
                    0 => Step::Commit(order),
                    2 => Step::Abort(order),
                    _ => Step::Race(order),
                }
            })
            .collect();
        ClusterSurface { shards, steps }
    }

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

    /// The transaction oracle: all-or-nothing visibility, the outcome
    /// contract, and a one-phase commit never in doubt anywhere.
    fn check(&self, outcome: &Recovered, txs: &[TxRec], acked: &HashSet<u64>) -> Vec<String> {
        let nodes = &outcome.nodes;
        let mut problems = Vec::new();
        for tx in txs {
            let in_doubt = outcome.doubted.iter().any(|d| d.contains(&tx.gtx));
            if tx.one_phase && in_doubt {
                problems.push(format!("gtx {}: one-phase commit mounted in doubt", tx.gtx));
            }
            let mut visible = Vec::new();
            for &p in &tx.participants {
                let block = nodes[p].read_block(tx.lba).expect("read data block");
                let expect = tx_block(tx.gtx, p, tx.lba);
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
            match tx.outcome {
                Outcome::Committed if acked.contains(&tx.lba) && !all => {
                    problems.push(format!("gtx {}: acked commit lost", tx.gtx));
                }
                Outcome::Aborted if !none => {
                    problems.push(format!("gtx {}: aborted transaction visible", tx.gtx));
                }
                _ => {}
            }
        }
        problems
    }
}

impl CrashSurface for ClusterSurface {
    type Script = Vec<TxRec>;
    type Witness = Vec<IntMap<u64, MediaBlock>>;

    fn name(&self) -> String {
        format!("cluster{}", self.shards)
    }

    fn cores(&self) -> usize {
        HOST_CORES + self.domains()
    }

    /// Serves every domain through a loopback fabric target and runs
    /// the script through [`ClusterClient`]s: ids from `begin()`; a
    /// commit step is one `commit()`; an abort or race step runs
    /// `prepare_on` on each participant, then an abort asks
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
        let (mut client, racer) = (connect(1), Arc::new(Mutex::new(connect(2))));
        tape.start(domains);
        let (mut txs, mut partitioned) = (Vec::new(), false);
        for (i, step) in self.steps.iter().enumerate() {
            let participants = match step {
                Step::Commit(p) | Step::Abort(p) | Step::Race(p) => p.clone(),
                &Step::Partition(d) => {
                    partitioned = true;
                    targets[d].partition(1, Ns::MAX);
                    if d < self.shards {
                        client.sever_shard(d);
                    } else {
                        client.sever_coord();
                    }
                    continue;
                }
            };
            let lba = i as u64;
            let (gtx, answer) = match client.begin() {
                Ok(gtx) => {
                    let by_shard = participants
                        .iter()
                        .map(|&p| {
                            let data = tx_block(gtx, p, lba);
                            (p, vec![ShardWrite { lba, data }])
                        })
                        .collect();
                    (gtx, step.drive(gtx, by_shard, &mut client, &racer))
                }
                Err(e) => (0, Err(e)),
            };
            // An abort step (an inquiry with no verdict) never answers
            // commit. Before any partition every step succeeds and a
            // commit step commits. After one, only a domain out of reach
            // (any error but `Fabric`) may fail a step; with no gtx,
            // nothing was written.
            let unreachable = partitioned && !matches!(answer, Err(ClusterError::Fabric(_)));
            let outcome = match answer {
                Ok(true) if !matches!(step, Step::Abort(_)) => Outcome::Committed,
                Ok(false) if partitioned || !matches!(step, Step::Commit(_)) => Outcome::Aborted,
                Err(_) if unreachable && gtx == 0 => Outcome::Aborted,
                Err(_) if unreachable => Outcome::Unknown,
                other => panic!("step {i} {step:?} answered {other:?}"),
            };
            tape.marks().mark(lba);
            txs.push(TxRec {
                gtx,
                one_phase: matches!(step, Step::Commit(p) if p.len() == 1),
                participants,
                lba,
                outcome,
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
}
