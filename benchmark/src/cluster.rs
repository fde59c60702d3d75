//! `cluster_2pc`: eight clients commit against four shards and a
//! coordinator, each node its own device and ccNVMe driver behind a
//! loopback fabric target. One commit in eight spans two shards (full
//! two-phase commit); the rest take the single-shard fast path. The
//! file system and the journal do no work here.

use std::sync::Arc;
use std::time::Instant;

use ccnvme::CcNvmeDriver;
use ccnvme_cluster::{
    resolve_in_doubt_local, ClusterCfg, ClusterClient, ClusterError, ClusterNode, ShardLayout,
};
use ccnvme_fabric::{
    Backend, ClientCfg, ClientStats, ClusterBackend, Connector, FabricConfig, FabricTarget,
    ShardWrite,
};
use ccnvme_ssd::{CrashMode, CtrlConfig, DurableImage, NvmeController, SsdProfile};

use crate::segment::{
    closed_loop, run_sim, ClientRun, Oracle, Probe, Region, Rng, Segment, SegmentOpts,
};
use crate::span::Tracer;

/// Participant shards (the coordinator is one more node).
const SHARDS: usize = 4;
/// Concurrent cluster clients.
const CLIENTS: usize = 8;
/// Host cores running clients and fabric handler daemons.
const CORES: usize = 4;
/// Every `CROSS_EVERY`th commit of a client spans two shards.
const CROSS_EVERY: u64 = 8;
/// Payload bytes per shard write.
const PAYLOAD: usize = 64;
/// Untimed commits each client makes in set-up, written to the top of
/// its block range.
const WARM_OPS: u64 = 8;

/// Each node's window. Mount scans every decision and intent slot, so
/// the decision region is sized to the run (one record per cross-shard
/// commit) instead of `ShardLayout::standard`'s 8 192, which would
/// spend most of a segment's set-up reading empty slots.
const LAYOUT: ShardLayout = ShardLayout {
    base: 0,
    data_blocks: 8_192,
    intent_slots: 32,
    decision_slots: 512,
};

const DOMAINS: usize = SHARDS + 1;

/// Data blocks each client has to itself: timed commits count up from the
/// bottom of its range, warm-up commits down from the top.
const CLIENT_BLOCKS: u64 = LAYOUT.data_blocks / CLIENTS as u64;

/// Span around a single-shard `ClusterClient::commit`.
pub const COMMIT_SINGLE: &str = "cluster.commit_single";
/// Span around a `ClusterClient::commit` spanning two shards.
pub const COMMIT_CROSS: &str = "cluster.commit_cross";

/// Simulated cores: host cores, then one device core per node.
pub fn sim_cores() -> usize {
    CORES + DOMAINS
}

/// One booted node and the fabric target serving it.
pub struct Domain {
    node: Arc<ClusterNode>,
    target: Arc<FabricTarget>,
    in_doubt: Vec<u64>,
}

/// Boots the shards and the coordinator (the last domain) on fresh
/// devices.
pub fn boot_all() -> Vec<Domain> {
    (0..DOMAINS).map(|d| boot(d, None)).collect()
}

/// A probe over every node's stack.
pub fn probe(domains: &[Domain]) -> Probe {
    Probe(
        domains
            .iter()
            .map(|d| d.node.driver().controller().link())
            .collect(),
    )
}

/// Boots node `d` on a fresh device or a crash image: controller, ccNVMe
/// probe (journal replay), cluster mount, fabric target.
fn boot(d: usize, image: Option<&DurableImage>) -> Domain {
    let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
    cc.device_core = CORES + d;
    let ctrl = match image {
        Some(img) => NvmeController::from_image(cc, img),
        None => NvmeController::new(cc),
    };
    let (drv, _report) = CcNvmeDriver::probe(ctrl, sim_cores() as u16, 64);
    let (node, in_doubt) = ClusterNode::mount(Arc::new(drv), LAYOUT);
    let mut cfg = FabricConfig::new(CORES);
    cfg.shard_label = Some(d as u64);
    let target = FabricTarget::new(
        Backend::Cluster(Arc::clone(&node) as Arc<dyn ClusterBackend>),
        cfg,
    );
    Domain {
        node,
        target,
        in_doubt,
    }
}

fn connect(domains: &[Domain], client_id: u64) -> ClusterClient {
    let shard_conns: Vec<Box<dyn Connector>> = domains[..SHARDS]
        .iter()
        .map(|d| d.target.loopback_connector(client_id))
        .collect();
    // Credit stalls and reconnects count in the coordinator's registry,
    // which the probe reads with every other node's.
    let stats = ClientStats::registered(&domains[SHARDS].target.obs().metrics);
    let cfg = ClusterCfg {
        client_cfg: ClientCfg {
            stats,
            ..ClientCfg::default()
        },
        ..ClusterCfg::default()
    };
    ClusterClient::connect(
        client_id,
        shard_conns,
        domains[SHARDS].target.loopback_connector(client_id),
        cfg,
        None,
    )
    .expect("cluster connect")
}

/// One acknowledged commit, as the oracle remembers it.
#[derive(Debug, Clone)]
pub struct Acked {
    /// Shards the commit wrote.
    shards: Vec<usize>,
    /// The block it wrote on each of them.
    lba: u64,
    /// What `commit` returned: `true` must be visible on every shard,
    /// `false` (a clean abort) on none.
    committed: bool,
    client: usize,
    seq: u64,
    key: u64,
}

/// The bytes commit `seq` of `client` writes on `shard`: client,
/// sequence, key and shard, so lost, partial and misrouted commits are
/// all distinguishable.
fn payload(client: usize, seq: u64, key: u64, shard: usize) -> Vec<u8> {
    let mut p = vec![0u8; PAYLOAD];
    p[..8].copy_from_slice(&(client as u64).to_le_bytes());
    p[8..16].copy_from_slice(&seq.to_le_bytes());
    p[16..24].copy_from_slice(&key.to_le_bytes());
    p[24..32].copy_from_slice(&(shard as u64).to_le_bytes());
    let mut filler = Rng::new(key, seq);
    filler.fill(&mut p[32..]);
    p
}

/// Client `c`'s `i`th block.
fn client_lba(c: usize, i: u64) -> u64 {
    debug_assert!(i < CLIENT_BLOCKS);
    c as u64 * CLIENT_BLOCKS + i
}

/// One connected client, its seed stream and what it has committed.
pub struct Committer {
    client: ClusterClient,
    c: usize,
    rng: Rng,
    acked: Vec<Acked>,
}

impl Committer {
    /// Connects client `c` and makes its warm-up commits.
    pub fn new(domains: &[Domain], c: usize, seed: u64) -> Committer {
        let mut cm = Committer {
            client: connect(domains, c as u64 + 1),
            c,
            rng: Rng::new(seed, 1 + c as u64),
            acked: Vec::new(),
        };
        let mut quiet = Tracer::new(false, Instant::now(), c);
        for w in 0..WARM_OPS {
            cm.commit(&mut quiet, u64::MAX - w, CLIENT_BLOCKS - 1 - w, w % 2 == 1)
                .expect("warm-up commit");
        }
        cm
    }

    /// One commit: draw a key, route it, begin, commit. `slot` picks the
    /// block within the client's range. A clean abort is an error too:
    /// the commit did not do what was asked (the oracle still checks
    /// that nothing of it is visible).
    pub fn commit(
        &mut self,
        tr: &mut Tracer,
        seq: u64,
        slot: u64,
        cross: bool,
    ) -> Result<(), String> {
        let lba = client_lba(self.c, slot);
        let key = self.rng.next_u64();
        let home = self.client.shard_of(&key.to_le_bytes());
        let mut shards = vec![home];
        if cross {
            shards.push((home + 1 + self.rng.below(SHARDS as u64 - 1) as usize) % SHARDS);
        }
        let by_shard = shards
            .iter()
            .map(|&s| {
                let data = payload(self.c, seq, key, s);
                (s, vec![ShardWrite { lba, data }])
            })
            .collect();
        let failed = |e: ClusterError| e.to_string();
        let gtx = tr
            .call("cluster.begin", |_| self.client.begin())
            .map_err(failed)?;
        let kind = if cross { COMMIT_CROSS } else { COMMIT_SINGLE };
        let committed = tr
            .call(kind, |_| self.client.commit(gtx, by_shard))
            .map_err(failed)?;
        self.acked.push(Acked {
            shards,
            lba,
            committed,
            client: self.c,
            seq,
            key,
        });
        if committed {
            Ok(())
        } else {
            Err("aborted".to_string())
        }
    }
}

/// Checks every acknowledged commit through a fresh client: a commit
/// acknowledged `true` is visible on all its shards, one acknowledged
/// `false` on none.
pub fn verify_commits(client: &mut ClusterClient, acked: &[Acked], oracle: &mut Oracle) {
    for a in acked {
        oracle.checked += 1;
        for &s in &a.shards {
            let want = payload(a.client, a.seq, a.key, s);
            let visible = match client.get(s, a.lba) {
                Ok(block) => block.get(..PAYLOAD) == Some(&want[..]),
                Err(e) => {
                    oracle.violation(format!("get shard {s} lba {}: {e}", a.lba));
                    continue;
                }
            };
            if visible != a.committed {
                oracle.violation(format!(
                    "client {} commit {}: acknowledged {} but visible={visible} on shard {s}",
                    a.client, a.seq, a.committed
                ));
            }
        }
    }
}

/// Runs one segment with `ops_per_client` timed commits per client.
pub fn segment(ops_per_client: u64, opts: SegmentOpts) -> Segment {
    let seg_t0 = Instant::now();
    let ops_per_client = opts.scaled(ops_per_client, 16);
    assert!(ops_per_client + WARM_OPS <= CLIENT_BLOCKS);
    let seed = opts.seed;
    let ((mut timed, images, acked), events) = run_sim(sim_cores(), move || {
        let domains = boot_all();
        let probe = probe(&domains);
        let committers: Vec<Committer> = (0..CLIENTS)
            .map(|c| Committer::new(&domains, c, seed))
            .collect();

        let region = Region::begin(probe, seg_t0);
        let handles: Vec<_> = committers
            .into_iter()
            .map(|mut cm| {
                let c = cm.c;
                ccnvme_runtime::spawn(&format!("cluster-client-{c}"), c % CORES, move || {
                    let tr = Tracer::new(opts.traced, seg_t0, c);
                    let run = closed_loop(tr, ops_per_client, |i, tr| {
                        // Stagger the cross-shard commits over the clients.
                        let cross = (i + c as u64).is_multiple_of(CROSS_EVERY);
                        cm.commit(tr, i, i, cross)
                    });
                    cm.client.bye();
                    (run, cm.acked)
                })
            })
            .collect();
        let (runs, acked): (Vec<ClientRun>, Vec<Vec<Acked>>) =
            handles.into_iter().map(|h| h.join()).unzip();
        let acked: Vec<Acked> = acked.into_iter().flatten().collect();
        let user_bytes = acked
            .iter()
            .filter(|a| a.seq < ops_per_client)
            .map(|a| (a.shards.len() * PAYLOAD) as u64)
            .sum();
        let timed = region.end(CLIENTS as u64 * ops_per_client, user_bytes, false, runs);
        let images: Option<Vec<DurableImage>> = opts.oracle.then(|| {
            domains
                .iter()
                .map(|d| {
                    let drv = d.node.driver();
                    drv.controller().power_fail(CrashMode::adversarial(seed))
                })
                .collect()
        });
        (timed, images, acked)
    });
    timed.events = events;
    let oracle = images.map(|images| {
        run_sim(sim_cores(), move || {
            let mut oracle = Oracle::default();
            let domains: Vec<Domain> = images
                .iter()
                .enumerate()
                .map(|(d, img)| boot(d, Some(img)))
                .collect();
            let coord = &domains[SHARDS].node;
            for d in &domains[..SHARDS] {
                resolve_in_doubt_local(&d.node, coord, &d.in_doubt);
            }
            oracle.vt_recover_ns = ccnvme_runtime::now();
            let mut client = connect(&domains, 1_000);
            verify_commits(&mut client, &acked, &mut oracle);
            client.bye();
            oracle
        })
        .0
    });
    Segment { timed, oracle }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cluster oracle must be able to fail: a commit the application
    /// counts as acknowledged but that only reached prepare is invisible.
    #[test]
    fn oracle_catches_a_commit_that_was_never_decided() {
        let (oracle, _) = run_sim(sim_cores(), || {
            let domains = boot_all();
            let mut cm = Committer::new(&domains, 0, 5);
            cm.acked.clear();
            let mut quiet = Tracer::new(false, Instant::now(), 0);
            cm.commit(&mut quiet, 0, 0, false).unwrap();
            cm.commit(&mut quiet, 1, 1, true).unwrap();
            let gtx = cm.client.begin().unwrap();
            let lost = Acked {
                shards: vec![2],
                lba: 2,
                committed: true,
                client: 0,
                seq: 2,
                key: 77,
            };
            let data = payload(0, 2, 77, 2);
            cm.client
                .prepare_on(2, gtx, vec![ShardWrite { lba: 2, data }])
                .unwrap();
            let mut honest = Oracle::default();
            verify_commits(&mut cm.client, &cm.acked, &mut honest);
            assert!(honest.violations.is_empty(), "{:?}", honest.violations);
            assert_eq!(honest.checked, 2);
            let mut lying = Oracle::default();
            verify_commits(&mut cm.client, &[lost], &mut lying);
            lying
        });
        assert_eq!(oracle.violations.len(), 1, "{:?}", oracle.violations);
    }
}
