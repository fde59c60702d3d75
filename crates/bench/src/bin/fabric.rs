//! Fabric fan-out: remote commit-ack latency and throughput as the
//! number of initiator connections grows, plus the credit-window
//! overload drill. Not a paper figure — the paper stops at the PCIe
//! link; this quantifies what the ccNVMe contract costs once it is
//! served over a fabric hop (DESIGN.md §12).
//!
//! Phase 1 sweeps `clients` over the FIO append+fsync job against an
//! MQFS-backed fabric target: the reported latency is the commit-ack
//! round trip (write capsule + fsync capsule). Phase 2 shrinks the
//! credit window to 2 and pipelines far past it: overload must degrade
//! to backpressure (`fabric.credit_stalls`) with zero failed
//! operations.

use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme_bench::{f1, header, record_run_seq, row, scaled, write_metrics, Stack, StackConfig};
use ccnvme_cluster::{ClusterNode, ShardLayout};
use ccnvme_fabric::{
    Backend, Capsule, ClientCfg, ClientStats, FabricClient, FabricConfig, FabricTarget, ShardWrite,
    SyncKind,
};
use ccnvme_obs::{Histogram, Summary};
use ccnvme_sim::Sim;
use ccnvme_ssd::{CtrlConfig, NvmeController, SsdProfile};
use mqfs::{FileSystem, FsVariant};

const CORES: usize = 4;

struct Point {
    kiops: f64,
    mean_us: f64,
    p99_us: f64,
    commits: u64,
    stalls: u64,
}

/// Appends + fsyncs over `clients` fabric initiators, each on its own
/// loopback session to one target serving `fs` and its own file;
/// client `c` runs on core `c % CORES`. Returns commits per second in
/// thousands and the commit-ack latency: write capsule plus sync
/// capsule, both network hops included.
fn fio_over_fabric(fs: &Arc<FileSystem>, clients: usize, ops: u64) -> (f64, Summary) {
    let target = FabricTarget::new(Backend::Fs(Arc::clone(fs)), FabricConfig::new(CORES));
    let hist = Arc::new(Histogram::new());
    let t0 = ccnvme_sim::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let (target, hist) = (Arc::clone(&target), Arc::clone(&hist));
            ccnvme_sim::spawn(&format!("fio-client-{c}"), c % CORES, move || {
                let id = c as u64 + 1;
                let mut client =
                    FabricClient::connect(id, target.loopback_connector(id), ClientCfg::default())
                        .expect("fabric connect");
                let ino = client
                    .create(&format!("/fio-client-{c}"))
                    .expect("open private file");
                let payload = vec![0xf1u8; 4096];
                let mut offset = client.stat(ino).expect("stat");
                for _ in 0..ops {
                    let op0 = ccnvme_sim::now();
                    client.write(ino, offset, &payload).expect("append");
                    client.sync(ino, SyncKind::Fsync).expect("fsync");
                    hist.record(ccnvme_sim::now() - op0);
                    offset += 4096;
                }
                client.bye();
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    let elapsed = ccnvme_sim::now() - t0;
    let kiops = (clients as u64 * ops) as f64 / (elapsed as f64 / 1e9) / 1e3;
    (kiops, hist.summary())
}

/// One sweep point: `clients` initiators over an MQFS fabric target.
fn measure_clients(clients: usize) -> Point {
    let cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), CORES);
    let (point, metrics) = Sim::run_main(cfg.sim_cores(), move || {
        let (stack, fs) = Stack::format(&cfg);
        let (kiops, latency) = fio_over_fabric(&fs, clients, scaled(400));
        let snap = stack.metrics();
        let point = Point {
            kiops,
            mean_us: latency.mean / 1e3,
            p99_us: latency.p99 as f64 / 1e3,
            commits: snap.counter("fabric.commits"),
            stalls: 0,
        };
        (point, snap)
    });
    record_run_seq(&format!("fabric.clients{clients}"), metrics);
    point
}

/// Submits every capsule of `ops` before waiting for any ack. Returns
/// the `val` of each successful response and the number of failures.
fn pipeline(client: &mut FabricClient, ops: impl Iterator<Item = Capsule>) -> (Vec<u64>, u64) {
    let mut errs = 0;
    let mut cids = Vec::new();
    for op in ops {
        match client.submit(op) {
            Ok(cid) => cids.push(cid),
            Err(_) => errs += 1,
        }
    }
    let mut vals = Vec::new();
    for cid in cids {
        match client.wait_for(cid) {
            Ok(resp) if resp.status.is_ok() => vals.push(resp.val),
            _ => errs += 1,
        }
    }
    (vals, errs)
}

/// The overload drill: a window of 2 against a deep pipeline of
/// one-node cluster transactions. Success criterion: stalls observed,
/// zero errors.
fn measure_overload() -> (u64, u64) {
    let (stalls, errors, metrics) = Sim::run_main(CORES + 1, || {
        let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
        cc.device_core = CORES;
        let ctrl = NvmeController::new(cc);
        let (drv, _report) = CcNvmeDriver::probe(ctrl, (CORES + 1) as u16, 64);
        let layout = ShardLayout {
            data_blocks: 65_536,
            ..ShardLayout::small(0)
        };
        let (node, _) = ClusterNode::mount(Arc::new(drv), layout);
        let mut fcfg = FabricConfig::new(CORES);
        fcfg.window = 2;
        let target = FabricTarget::new(Backend::Cluster(node), fcfg);
        let obs = target.obs();
        let stats = ClientStats::registered(&obs.metrics);
        let mut errors = 0u64;
        let mut handles = Vec::new();
        for c in 0..CORES as u64 {
            let target = Arc::clone(&target);
            let stats = Arc::clone(&stats);
            handles.push(ccnvme_sim::spawn(
                &format!("overload-{c}"),
                c as usize % CORES,
                move || {
                    let mut client = FabricClient::connect(
                        c + 1,
                        target.loopback_connector(c + 1),
                        ClientCfg {
                            stats,
                            ..ClientCfg::default()
                        },
                    )
                    .expect("connect");
                    // Pipeline far past the window: one gtx lease per
                    // transaction first, then one 8-write `TX_COMMIT`
                    // capsule per transaction.
                    const BURST: u64 = 8;
                    let depth = scaled(256).div_ceil(BURST) * BURST;
                    let (txs, alloc_errs) =
                        pipeline(&mut client, (0..depth / BURST).map(|_| Capsule::AllocTx));
                    let commits = txs.iter().zip(0..).map(|(&tx_id, t)| Capsule::TxCommit {
                        tx_id,
                        writes: (0..BURST)
                            .map(|j| ShardWrite {
                                lba: c * 16_384 + t * BURST + j,
                                data: vec![c as u8; 512],
                            })
                            .collect(),
                    });
                    let (_, commit_errs) = pipeline(&mut client, commits);
                    let tail = client.alloc_tx().expect("alloc tail");
                    client
                        .tx_commit(
                            tail,
                            vec![ShardWrite {
                                lba: c * 16_384 + depth,
                                data: vec![c as u8],
                            }],
                        )
                        .expect("final durable commit");
                    client.bye();
                    alloc_errs + commit_errs
                },
            ));
        }
        for h in handles {
            errors += h.join();
        }
        (stats.credit_stalls.get(), errors, obs.metrics.snapshot())
    });
    record_run_seq("fabric.overload_w2", metrics);
    (stalls, errors)
}

fn main() {
    header("Fabric fan-out (FIO 4 KB append+fsync over loopback sessions, MQFS, Optane 905P)");
    println!(
        "{:<12}{:>10}{:>14}{:>14}{:>12}",
        "clients", "kiops", "mean ack us", "p99 ack us", "commits"
    );
    for clients in [1usize, 2, 4, 8] {
        let p = measure_clients(clients);
        row(
            &format!("{clients}"),
            &[
                f1(p.kiops),
                f1(p.mean_us),
                f1(p.p99_us),
                format!("{}", p.commits),
            ],
        );
        assert_eq!(p.stalls, 0);
    }

    header("Credit overload (window = 2, 4 clients, deep pipeline)");
    let (stalls, errors) = measure_overload();
    row(
        "window=2",
        &[format!("stalls {stalls}"), format!("errors {errors}")],
    );
    assert!(
        stalls > 0,
        "a deep pipeline over a window of 2 must hit backpressure"
    );
    assert_eq!(
        errors, 0,
        "credit exhaustion must degrade to stalls, never to errors"
    );

    write_metrics("fabric");
}
