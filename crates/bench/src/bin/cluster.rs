//! Cluster scaling: commit throughput against a sharded ccNVMe-oF
//! cluster as the shard count grows, plus the kill-one-shard
//! degradation drill. Not a paper figure — the paper stops at one
//! device; this quantifies the two-phase cross-shard commit built on
//! the §4 transaction contract (DESIGN.md §15).
//!
//! Phase 1 sweeps shards over a fixed 24-client commit mix: every
//! eighth commit spans two shards (full 2PC — prepare on both,
//! coordinator verdict, durable decides), the rest are single-shard
//! one-phase commits (one `TX_COMMIT`, one local transaction) routed by
//! the hash ring. A 1-shard run has no second shard, so it carries no
//! 2PC at all and is not the same mix.
//!
//! The sweep runs on two core layouts. In the shared one every domain's
//! connection handlers run on the clients' 4 host cores, so a shard
//! adds a device but no CPU: past 4 shards the host cores bound the
//! rows, which then differ only by the run's set-up phase. In the
//! own-cores one each domain serves on 4 cores of its own, as a node of
//! a real cluster does, so a shard adds what it serves with. The
//! acceptance gate compares own-cores rows of the same mix: the 2-, 4-
//! and 8-shard rows do not decrease.
//!
//! Phase 2 kills one shard of four mid-run: commits touching its key
//! range must abort cleanly (`Ok(false)`, presumed abort) while every
//! other range keeps committing, `cluster.degraded_shards` tracks the
//! outage, and the first success after the heal clears it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme_bench::{f1, header, record_run_seq, row, scaled, write_metrics};
use ccnvme_cluster::{ClusterCfg, ClusterClient, ClusterNode, ShardLayout};
use ccnvme_fabric::{
    Backend, ClientCfg, ClientStats, ClusterBackend, Connector, FabricConfig, FabricTarget,
    ShardWrite,
};
use ccnvme_obs::{Histogram, Registry};
use ccnvme_sim::{Ns, Sim};
use ccnvme_ssd::{CtrlConfig, NvmeController, SsdProfile};

/// Host cores of the clients, and of each domain's handlers when it
/// has its own (see [`Cores`]).
const CORES: usize = 4;

/// Concurrent cluster initiators in the sweep, each a closed loop: a
/// client starts its next commit when the last one answered.
const CLIENTS: usize = 24;

/// Every `CROSS_EVERY`th commit spans two shards (full 2PC).
const CROSS_EVERY: u64 = 8;

/// Where each domain's fabric connection handlers run.
#[derive(Clone, Copy)]
enum Cores {
    /// On the clients' `CORES` host cores, shared by every domain.
    Shared,
    /// On `CORES` cores of the domain's own, after the clients'.
    Own,
}

impl Cores {
    /// Host cores: the clients' (and, when shared, every handler's),
    /// then each domain's own.
    fn host(self, shards: usize) -> usize {
        match self {
            Cores::Shared => CORES,
            Cores::Own => CORES * (shards + 2),
        }
    }

    /// The first handler core of domain `d`.
    fn first_handler(self, d: usize) -> usize {
        match self {
            Cores::Shared => 0,
            Cores::Own => CORES * (d + 1),
        }
    }

    /// Simulated cores: host cores, then one device core per domain.
    fn sim(self, shards: usize) -> usize {
        self.host(shards) + shards + 1
    }
}

struct Point {
    kiops: f64,
    mean_us: f64,
    p99_us: f64,
    cross: u64,
}

/// Builds `shards` participant domains plus the coordinator, each with
/// its own simulated device on its own core, served over loopback.
fn build_cluster(shards: usize, cores: Cores) -> (Vec<Arc<ClusterNode>>, Vec<Arc<FabricTarget>>) {
    let mut nodes = Vec::new();
    let mut targets = Vec::new();
    for d in 0..shards + 1 {
        let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
        cc.device_core = cores.host(shards) + d;
        let ctrl = NvmeController::new(cc);
        let (drv, _report) = CcNvmeDriver::probe(ctrl, cores.sim(shards) as u16, 64);
        let (node, in_doubt) = ClusterNode::mount(Arc::new(drv), ShardLayout::standard(0));
        assert!(in_doubt.is_empty(), "fresh node mounted in doubt");
        let mut cfg = FabricConfig::new(CORES);
        cfg.first_core = cores.first_handler(d);
        cfg.shard_label = Some(d as u64);
        let target = FabricTarget::new(
            Backend::Cluster(Arc::clone(&node) as Arc<dyn ClusterBackend>),
            cfg,
        );
        nodes.push(node);
        targets.push(target);
    }
    (nodes, targets)
}

fn connect(targets: &[Arc<FabricTarget>], client_id: u64, reg: Option<&Registry>) -> ClusterClient {
    let shards = targets.len() - 1;
    let shard_conns: Vec<Box<dyn Connector>> = targets[..shards]
        .iter()
        .map(|t| t.loopback_connector(client_id))
        .collect();
    let cfg = ClusterCfg {
        client_cfg: ClientCfg {
            ack_timeout_ns: 2_000_000,
            backoff_ns: 50_000,
            max_reconnects: 3,
            stats: ClientStats::detached(),
        },
    };
    ClusterClient::connect(
        client_id,
        shard_conns,
        targets[shards].loopback_connector(client_id),
        cfg,
        reg,
    )
    .expect("cluster connect")
}

fn payload(tag: u8) -> Vec<u8> {
    vec![tag; 64]
}

/// One sweep point: `CLIENTS` initiators over `shards` participants.
fn measure_shards(shards: usize, cores: Cores) -> Point {
    let (point, snap) = Sim::run_main(cores.sim(shards), move || {
        let (nodes, targets) = build_cluster(shards, cores);
        let hist = Arc::new(Histogram::new());
        let committed = Arc::new(AtomicU64::new(0));
        let data_blocks = ShardLayout::standard(0).data_blocks;
        let t0 = ccnvme_sim::now();
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let targets = targets.clone();
            let hist = Arc::clone(&hist);
            let committed = Arc::clone(&committed);
            handles.push(ccnvme_sim::spawn(
                &format!("cluster-client-{c}"),
                c % CORES,
                move || {
                    let mut client = connect(&targets, c as u64 + 1, None);
                    let ops = scaled(120);
                    for i in 0..ops {
                        let gtx = client.begin().expect("begin");
                        let lba = (c as u64 * 1009 + i) % data_blocks;
                        let tag = (c as u64 * 31 + i) as u8;
                        let by_shard = if shards > 1 && i % CROSS_EVERY == 0 {
                            let a = ((c as u64 + i) % shards as u64) as usize;
                            let b = (a + 1) % shards;
                            vec![
                                (
                                    a,
                                    vec![ShardWrite {
                                        lba,
                                        data: payload(tag),
                                    }],
                                ),
                                (
                                    b,
                                    vec![ShardWrite {
                                        lba,
                                        data: payload(tag ^ 0xff),
                                    }],
                                ),
                            ]
                        } else {
                            let s = client.shard_of(&lba.to_le_bytes());
                            vec![(
                                s,
                                vec![ShardWrite {
                                    lba,
                                    data: payload(tag),
                                }],
                            )]
                        };
                        let op0 = ccnvme_sim::now();
                        let ok = client.commit(gtx, by_shard).expect("commit");
                        assert!(ok, "healthy cluster aborted a commit");
                        hist.record(ccnvme_sim::now() - op0);
                        // ord: Relaxed — run statistics only; joined
                        // before the total is read.
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                    client.bye();
                },
            ));
        }
        for h in handles {
            h.join();
        }
        let elapsed = ccnvme_sim::now() - t0;
        // ord: Relaxed — read after every worker joined; no concurrent
        // writers remain.
        let commits = committed.load(Ordering::Relaxed);
        let lat = hist.summary();
        let coord = &nodes[shards];
        let point = Point {
            kiops: if elapsed == 0 {
                0.0
            } else {
                commits as f64 / (elapsed as f64 / 1e9) / 1e3
            },
            mean_us: lat.mean / 1e3,
            p99_us: lat.p99 as f64 / 1e3,
            cross: coord.stats().decisions.get(),
        };
        (point, targets[shards].obs().metrics.snapshot())
    });
    let label = match cores {
        Cores::Shared => format!("cluster.shards{shards}"),
        Cores::Own => format!("cluster.own_cores.shards{shards}"),
    };
    record_run_seq(&label, snap);
    point
}

struct Drill {
    healthy: u64,
    dead: u64,
    degraded_at_peak: i64,
    degraded_after_heal: i64,
}

/// Kills shard 3 of 4 mid-run: its key range aborts cleanly, the rest
/// keep committing, and the heal clears the degradation gauge.
fn measure_kill_one_shard() -> Drill {
    const SHARDS: usize = 4;
    const DEAD: usize = 3;
    let (drill, snap) = Sim::run_main(Cores::Shared.sim(SHARDS), move || {
        let (_nodes, targets) = build_cluster(SHARDS, Cores::Shared);
        let reg = targets[SHARDS].obs();
        let mut client = connect(&targets, 1, Some(&reg.metrics));
        let gauge = reg.metrics.gauge("cluster.degraded_shards");
        let pair = |i: u64, tag: u8| {
            let a = (i % SHARDS as u64) as usize;
            let b = (a + 1) % SHARDS;
            vec![
                (
                    a,
                    vec![ShardWrite {
                        lba: i % 512,
                        data: payload(tag),
                    }],
                ),
                (
                    b,
                    vec![ShardWrite {
                        lba: i % 512,
                        data: payload(tag ^ 0xff),
                    }],
                ),
            ]
        };
        // Warm phase: every pair commits.
        for i in 0..scaled(24) {
            let gtx = client.begin().expect("begin");
            assert!(client.commit(gtx, pair(i, i as u8)).expect("warm commit"));
        }
        // Kill shard 3: refuse new dials and cut the live wire.
        targets[DEAD].partition(1, Ns::MAX);
        client.sever_shard(DEAD);
        let (mut healthy, mut dead) = (0u64, 0u64);
        for i in 0..scaled(24) {
            let touches_dead =
                (i % SHARDS as u64) as usize == DEAD || (i + 1) % SHARDS as u64 == DEAD as u64;
            let gtx = client.begin().expect("begin");
            let ok = client.commit(gtx, pair(i, i as u8)).expect("drill commit");
            if touches_dead {
                assert!(!ok, "a commit through the dead shard claimed success");
                dead += 1;
            } else {
                assert!(ok, "a healthy key range stopped committing");
                healthy += 1;
            }
        }
        assert_eq!(client.degraded_shards(), vec![DEAD]);
        let degraded_at_peak = gauge.get();
        // Heal: the next commit through shard 3 reconnects and clears it.
        targets[DEAD].heal(1);
        let gtx = client.begin().expect("begin");
        assert!(client
            .commit(gtx, pair(DEAD as u64, 0x5a))
            .expect("post-heal commit"));
        assert!(client.degraded_shards().is_empty());
        let drill = Drill {
            healthy,
            dead,
            degraded_at_peak,
            degraded_after_heal: gauge.get(),
        };
        client.bye();
        (drill, reg.metrics.snapshot())
    });
    record_run_seq("cluster.kill_one_shard", snap);
    drill
}

/// Prints one layout's sweep and returns its `(shards, point)` rows.
fn sweep(cores: Cores, title: &str) -> Vec<(usize, Point)> {
    header(&format!(
        "Cluster commit scaling ({CLIENTS} clients, 1-in-{CROSS_EVERY} commits cross-shard 2PC, Optane 905P per shard, {title})"
    ));
    println!(
        "{:<22}{:>12}{:>12}{:>12}{:>12}",
        "shards", "commit k/s", "mean us", "p99 us", "2pc txs"
    );
    let mut points = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let p = measure_shards(shards, cores);
        row(
            &format!("{shards}"),
            &[
                f1(p.kiops),
                f1(p.mean_us),
                f1(p.p99_us),
                format!("{}", p.cross),
            ],
        );
        points.push((shards, p));
    }
    for (shards, p) in &points {
        if *shards > 1 {
            assert!(p.cross > 0, "no cross-shard commit exercised 2PC");
        }
    }
    points
}

fn main() {
    sweep(
        Cores::Shared,
        &format!("handlers on the clients' {CORES} cores"),
    );
    let points = sweep(Cores::Own, &format!("{CORES} handler cores per domain"));
    for pair in points[1..].windows(2) {
        let ((a, p), (b, q)) = (&pair[0], &pair[1]);
        assert!(
            q.kiops >= p.kiops,
            "{a}→{b} shards lowered commit throughput: {:.1} → {:.1} kcommits/s",
            p.kiops,
            q.kiops
        );
    }

    header("Kill-one-shard degradation drill (4 shards, shard 3 dies mid-run, then heals)");
    let d = measure_kill_one_shard();
    println!(
        "{:<22}{:>12}{:>12}{:>12}{:>12}",
        "", "healthy", "dead aborts", "degraded", "after heal"
    );
    row(
        "shard 3 down",
        &[
            format!("{}", d.healthy),
            format!("{}", d.dead),
            format!("{}", d.degraded_at_peak),
            format!("{}", d.degraded_after_heal),
        ],
    );
    assert!(d.healthy > 0 && d.dead > 0);
    assert_eq!(d.degraded_at_peak, 1);
    assert_eq!(d.degraded_after_heal, 0);

    write_metrics("cluster");
}
