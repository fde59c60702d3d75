//! Property: random multi-shard transactions driven through the
//! cluster initiator, under a random partition schedule and a random
//! consistent global crash cut, recover to all-or-nothing visibility on
//! every participant — and re-recovering the recovered cluster is
//! verdict- and byte-identical, N times over.
//!
//! Each case scripts a handful of transactions with random participant
//! sets against a 2-shard + coordinator cluster served over loopback
//! fabric. At a random step one random domain (a shard or the
//! coordinator) is partitioned away and its live wire severed, so
//! commits start aborting, parking in doubt, or failing outright. The
//! run's per-domain persistence logs are then cut at one random shared
//! instant (a consistent global cut), every domain boots from its
//! truncated image — a random subset held back to a second recovery
//! wave — in-doubt intents resolve against the coordinator (presumed
//! abort on absence), and the oracle checks:
//!
//! * a transaction is visible on ALL of its participants or NONE;
//! * a commit acked before the cut is fully visible;
//! * an abort ack (or a transaction that never allocated a gtx) is
//!   never visible;
//! * recovery leaves zero persist-order sanitizer violations;
//! * re-recovering the settled cluster twice finds nothing in doubt,
//!   flips no visibility verdict and changes no media byte.

use std::sync::Arc;

use ccnvme_repro::ccnvme::CcNvmeDriver;
use ccnvme_repro::cluster::{
    resolve_in_doubt_local, ClusterCfg, ClusterClient, ClusterError, ClusterNode, ShardLayout,
};
use ccnvme_repro::fabric::{
    Backend, ClientCfg, ClientStats, ClusterBackend, Connector, FabricConfig, FabricTarget,
    ShardWrite,
};
use ccnvme_repro::sim::{Ns, Sim};
use ccnvme_repro::ssd::{
    CacheSurvival, CrashMode, CtrlConfig, DurableImage, NvmeController, PersistLog, SsdProfile,
};
use proptest::prelude::*;

/// Host cores serving fabric handlers and the client.
const CORES: usize = 2;

/// Participant shards; the coordinator makes it three domains.
const SHARDS: usize = 2;

const DOMAINS: usize = SHARDS + 1;

/// Re-recovery repetitions of the settled cluster.
const RERECOVERIES: usize = 2;

fn sim_cores() -> usize {
    CORES + DOMAINS
}

fn in_sim<T, F>(f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    Sim::run_main(sim_cores(), f)
}

fn ctrl_config(domain: usize, record: bool) -> CtrlConfig {
    let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
    cc.device_core = CORES + domain;
    cc.record_persistence = record;
    cc
}

fn boot_domain(
    domain: usize,
    image: Option<&DurableImage>,
    record: bool,
) -> (Arc<ClusterNode>, Vec<u64>, Arc<CcNvmeDriver>) {
    let cc = ctrl_config(domain, record);
    let ctrl = match image {
        Some(img) => NvmeController::from_image(cc, img),
        None => NvmeController::new(cc),
    };
    let (drv, _report) = CcNvmeDriver::probe(ctrl, sim_cores() as u16, 64);
    let drv = Arc::new(drv);
    let (node, in_doubt) = ClusterNode::mount(Arc::clone(&drv), ShardLayout::small(0));
    (node, in_doubt, drv)
}

/// The block transaction `tx` writes on `shard` — tx index and shard id
/// under a per-transaction fill, so partial and foreign bytes are both
/// detectable (each transaction owns lba `tx` exclusively).
fn tx_pattern(tx: usize, shard: usize) -> Vec<u8> {
    let mut d = vec![0x61 + (tx % 24) as u8; 48];
    d[..8].copy_from_slice(&(tx as u64).to_le_bytes());
    d[8..16].copy_from_slice(&(shard as u64).to_le_bytes());
    d
}

fn participants(mask: u8) -> Vec<usize> {
    (0..SHARDS).filter(|s| mask >> s & 1 == 1).collect()
}

/// What the client learned about one transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    /// `commit` returned `Ok(true)`: acked, must be fully visible once
    /// the ack instant precedes the cut.
    Committed,
    /// `commit` returned `Ok(false)`: cleanly aborted — no commit
    /// verdict exists anywhere, so it must never become visible.
    Aborted,
    /// `commit` failed (in doubt, coordinator down, …): only
    /// all-or-nothing is promised.
    Unknown,
    /// `begin` already failed: no gtx, no writes, never visible.
    NeverStarted,
}

#[derive(Clone)]
struct PTx {
    mask: u8,
    lba: u64,
    outcome: Outcome,
    ack_at: Ns,
}

struct Run {
    logs: Vec<Arc<PersistLog>>,
    t0: Ns,
    txs: Vec<PTx>,
    sanitizer_violations: usize,
}

/// Drives the random transaction mix through a real cluster client
/// over loopback fabric, partitioning `part_target` away before step
/// `part_step` (no partition if `part_step >= masks.len()`).
fn record_workload(masks: Vec<u8>, part_step: usize, part_target: usize) -> Run {
    in_sim(move || {
        let mut nodes = Vec::new();
        let mut drvs = Vec::new();
        let mut targets = Vec::new();
        for d in 0..DOMAINS {
            let (node, in_doubt, drv) = boot_domain(d, None, true);
            assert!(in_doubt.is_empty(), "fresh domain {d} mounted in doubt");
            let mut cfg = FabricConfig::new(CORES);
            cfg.shard_label = Some(d as u64);
            targets.push(FabricTarget::new(
                Backend::Cluster(Arc::clone(&node) as Arc<dyn ClusterBackend>),
                cfg,
            ));
            nodes.push(node);
            drvs.push(drv);
        }
        let logs: Vec<Arc<PersistLog>> = drvs
            .iter()
            .map(|d| d.controller().persist_log().expect("recording"))
            .collect();
        let shard_conns: Vec<Box<dyn Connector>> = targets[..SHARDS]
            .iter()
            .map(|t| t.loopback_connector(1))
            .collect();
        let cfg = ClusterCfg {
            client_cfg: ClientCfg {
                ack_timeout_ns: 2_000_000,
                backoff_ns: 50_000,
                max_reconnects: 3,
                stats: ClientStats::detached(),
            },
        };
        let mut client = ClusterClient::connect(
            1,
            shard_conns,
            targets[SHARDS].loopback_connector(1),
            cfg,
            None,
        )
        .expect("cluster connect");
        let t0 = ccnvme_repro::sim::now();
        let mut txs = Vec::new();
        for (i, &mask) in masks.iter().enumerate() {
            if i == part_step {
                targets[part_target].partition(1, Ns::MAX);
                if part_target < SHARDS {
                    client.sever_shard(part_target);
                } else {
                    client.sever_coord();
                }
            }
            let lba = i as u64;
            let outcome = match client.begin() {
                Err(_) => Outcome::NeverStarted,
                Ok(gtx) => {
                    let by_shard: Vec<(usize, Vec<ShardWrite>)> = participants(mask)
                        .into_iter()
                        .map(|p| {
                            (
                                p,
                                vec![ShardWrite {
                                    lba,
                                    data: tx_pattern(i, p),
                                }],
                            )
                        })
                        .collect();
                    match client.commit(gtx, by_shard) {
                        Ok(true) => Outcome::Committed,
                        Ok(false) => Outcome::Aborted,
                        Err(
                            ClusterError::InDoubt { .. }
                            | ClusterError::ShardDown { .. }
                            | ClusterError::CoordinatorDown(_),
                        ) => Outcome::Unknown,
                        Err(other) => panic!("unexpected commit error: {other}"),
                    }
                }
            };
            txs.push(PTx {
                mask,
                lba,
                outcome,
                ack_at: ccnvme_repro::sim::now(),
            });
        }
        drop(client); // The client may hold severed wires; just vanish.
        let mut sanitizer_violations = 0;
        for (log, drv) in logs.iter().zip(&drvs) {
            sanitizer_violations += log.sanitize(&drv.layout().sanitizer_geometry()).len();
        }
        Run {
            logs,
            t0,
            txs,
            sanitizer_violations,
        }
    })
}

/// Boots every domain from its cut image (the `down` bitmask delayed to
/// wave 2), resolves all in-doubt intents, runs the oracle, then
/// re-recovers the settled cluster [`RERECOVERIES`] times.
fn recover_and_verify(
    images: Vec<DurableImage>,
    down: u32,
    cut_at: Ns,
    txs: Vec<PTx>,
) -> Result<(), String> {
    in_sim(move || {
        let mut nodes: Vec<Option<(Arc<ClusterNode>, Vec<u64>)>> = vec![None; DOMAINS];
        let wave = |nodes: &mut Vec<Option<(Arc<ClusterNode>, Vec<u64>)>>, boot_down: bool| {
            for d in 0..DOMAINS {
                if ((down >> d) & 1 == 1) == boot_down && nodes[d].is_none() {
                    let (node, in_doubt, _drv) = boot_domain(d, Some(&images[d]), false);
                    nodes[d] = Some((node, in_doubt));
                }
            }
        };
        let resolve_ready = |nodes: &mut Vec<Option<(Arc<ClusterNode>, Vec<u64>)>>| {
            let coord = match &nodes[SHARDS] {
                Some((c, _)) => Arc::clone(c),
                None => return,
            };
            for (node, in_doubt) in nodes.iter_mut().take(SHARDS).flatten() {
                resolve_in_doubt_local(node, &coord, in_doubt);
                in_doubt.clear();
            }
        };
        wave(&mut nodes, false);
        resolve_ready(&mut nodes);
        wave(&mut nodes, true);
        resolve_ready(&mut nodes);
        let nodes: Vec<Arc<ClusterNode>> = nodes
            .into_iter()
            .map(|s| s.expect("domain booted").0)
            .collect();

        // Visibility of each transaction on each of its participants.
        let visibility = |nodes: &[Arc<ClusterNode>]| -> Result<Vec<Vec<bool>>, String> {
            let mut all = Vec::new();
            for (i, tx) in txs.iter().enumerate() {
                let mut vis = Vec::new();
                for p in participants(tx.mask) {
                    let block = nodes[p].read_block(tx.lba).expect("read data block");
                    let expect = tx_pattern(i, p);
                    if block[..expect.len()] == expect[..] {
                        vis.push(true);
                    } else if block.iter().all(|&b| b == 0) {
                        vis.push(false);
                    } else {
                        return Err(format!("tx {i} shard {p}: lba {} foreign bytes", tx.lba));
                    }
                }
                all.push(vis);
            }
            Ok(all)
        };
        let vis = visibility(&nodes)?;
        for (i, (tx, v)) in txs.iter().zip(&vis).enumerate() {
            let all = v.iter().all(|&x| x);
            let none = v.iter().all(|&x| !x);
            if !all && !none {
                return Err(format!("tx {i}: partial cross-shard visibility {v:?}"));
            }
            match tx.outcome {
                Outcome::Committed if tx.ack_at < cut_at && !all => {
                    return Err(format!("tx {i}: acked commit lost"));
                }
                Outcome::Aborted | Outcome::NeverStarted if !none => {
                    return Err(format!("tx {i}: {:?} became visible", tx.outcome));
                }
                _ => {}
            }
        }

        // The settled cluster must re-recover to the same verdicts and
        // the same bytes, with nothing left in doubt — as many times as
        // we care to reboot it.
        let snapshot = |nodes: &[Arc<ClusterNode>]| -> Vec<DurableImage> {
            nodes
                .iter()
                .map(|n| {
                    n.driver().controller().crash_snapshot(CrashMode {
                        pmr_extra_prefix: usize::MAX,
                        cache_keep_prob: 1.0,
                        seed: 0,
                    })
                })
                .collect()
        };
        let mut finals = snapshot(&nodes);
        for round in 0..RERECOVERIES {
            let mut renodes = Vec::new();
            for (d, img) in finals.iter().enumerate() {
                let (node, in_doubt, _drv) = boot_domain(d, Some(img), false);
                if !in_doubt.is_empty() {
                    return Err(format!(
                        "re-recovery {round}: domain {d} in doubt {in_doubt:?}"
                    ));
                }
                renodes.push(node);
            }
            let revis = visibility(&renodes)?;
            if revis != vis {
                return Err(format!("re-recovery {round}: verdicts flipped"));
            }
            let refinals = snapshot(&renodes);
            for (d, (a, b)) in finals.iter().zip(&refinals).enumerate() {
                if a.blocks != b.blocks {
                    return Err(format!("re-recovery {round}: domain {d} media changed"));
                }
            }
            finals = refinals;
        }
        Ok(())
    })
}

fn run_case(
    masks: Vec<u8>,
    part_step: usize,
    part_target: usize,
    cut_mille: u64,
    down: u32,
) -> Result<(), TestCaseError> {
    let run = record_workload(masks, part_step, part_target);
    prop_assert!(
        run.sanitizer_violations == 0,
        "persist-order violations: {}",
        run.sanitizer_violations
    );
    let times: Vec<Vec<Ns>> = run.logs.iter().map(|l| l.event_times()).collect();
    let mut cut_times: Vec<Ns> = times
        .iter()
        .flatten()
        .copied()
        .filter(|&at| at >= run.t0)
        .collect();
    cut_times.sort_unstable();
    cut_times.dedup();
    cut_times.push(Ns::MAX);
    let cut_at = cut_times[(cut_mille as usize * (cut_times.len() - 1)) / 1000];
    let images: Vec<DurableImage> = run
        .logs
        .iter()
        .zip(&times)
        .map(|(l, t)| {
            let prefix = t.partition_point(|&at| at < cut_at);
            l.state_at(prefix, 0, CacheSurvival::DropAll)
        })
        .collect();
    let verdict = recover_and_verify(images, down, cut_at, run.txs);
    prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]
    #[test]
    #[allow(unused_mut)]
    fn random_cluster_schedules_stay_atomic(
        masks in proptest::collection::vec(1u8..4, 2..6),
        // `part_step` past the end means no partition at all.
        part_step in 0usize..8,
        part_target in 0usize..DOMAINS,
        cut_mille in 0u64..=1000,
        down in 0u32..(1 << DOMAINS),
    ) {
        run_case(masks, part_step, part_target, cut_mille, down)?;
    }
}
