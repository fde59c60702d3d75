//! Cluster KV: cross-shard crash-consistent transactions over real TCP
//! sockets, surviving a coordinator kill in the middle of a commit.
//!
//! Four shard targets and one coordinator target each run their own
//! simulated ccNVMe device behind a [`TcpFabricServer`]; a cluster
//! initiator on a real OS thread routes single-key puts to their ring
//! shard (fast path — no coordinator involved) and runs a cross-shard
//! "transfer" as a two-phase commit. The example kills the coordinator
//! *between phase 1 and the verdict*: both shards hold prepared
//! intents, the client's verdict call exhausts its retry ladder with
//! `CoordinatorDown`, and the transfer is in doubt. The coordinator
//! then comes back (its durable decision region was still empty — the
//! warm-up traffic never touched it) and a resumed client finishes the
//! same gtx: prepare is a no-op on the staged intents, the verdict
//! records COMMIT, both decides apply. Exactly-once is proved three
//! ways — every value reads back intact, re-resolving the gtx changes
//! nothing, and each shard's `cluster.applies` counter matches the
//! number of writes that committed there.
//!
//! ```sh
//! cargo run --example cluster_kv
//! ```

use std::sync::Arc;

use ccnvme_repro::ccnvme::CcNvmeDriver;
use ccnvme_repro::cluster::{ClusterCfg, ClusterClient, ClusterError, ClusterNode, ShardLayout};
use ccnvme_repro::fabric::{
    Backend, ClientCfg, ClusterBackend, Connector, FabricClient, FabricConfig, ShardWrite,
    TcpConnector, TcpFabricServer,
};
use ccnvme_repro::ssd::{CtrlConfig, NvmeController, SsdProfile};

/// Fabric handler cores per target.
const CORES: usize = 2;

/// Participant shards (the coordinator makes it five servers).
const SHARDS: usize = 4;

/// Single-key warm-up puts (all fast path).
const WARMUP: u64 = 8;

/// Value bytes per put.
const VAL: usize = 64;

/// Starts one cluster domain: its own simulated device behind a TCP
/// fabric server on an ephemeral port.
fn start_domain(label: u64) -> TcpFabricServer {
    let mut fcfg = FabricConfig::new(CORES);
    fcfg.shard_label = Some(label);
    TcpFabricServer::start("127.0.0.1:0", CORES, fcfg, || {
        let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
        cc.device_core = CORES;
        let (drv, _report) = CcNvmeDriver::probe(NvmeController::new(cc), (CORES + 2) as u16, 64);
        let (node, in_doubt) = ClusterNode::mount(Arc::new(drv), ShardLayout::small(0));
        assert!(in_doubt.is_empty(), "fresh domain mounted in doubt");
        Backend::Cluster(node as Arc<dyn ClusterBackend>)
    })
    .expect("bind cluster domain")
}

/// Waits until a freshly started domain answers a hello — its build
/// (device probe, journal replay, intent/decision scan) runs on the
/// server's sim thread and can outlast one dial timeout.
fn wait_ready(server: &TcpFabricServer) {
    for _ in 0..100 {
        if let Ok(c) = FabricClient::connect(999, server.connector(), ClientCfg::default()) {
            c.bye();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    panic!("domain at {} never became ready", server.addr());
}

fn connect(shards: &[TcpFabricServer], coord_addr: std::net::SocketAddr) -> ClusterClient {
    let shard_conns: Vec<Box<dyn Connector>> = shards.iter().map(|s| s.connector()).collect();
    ClusterClient::connect(
        7,
        shard_conns,
        Box::new(TcpConnector::new(coord_addr)),
        ClusterCfg::default(),
        None,
    )
    .expect("cluster connect")
}

fn value(key: u64) -> Vec<u8> {
    let mut v = format!("kv-{key}:").into_bytes();
    v.resize(VAL, (0x30 + key % 64) as u8);
    v
}

fn main() {
    let shards: Vec<TcpFabricServer> = (0..SHARDS as u64).map(start_domain).collect();
    let coord = start_domain(SHARDS as u64);
    for (i, s) in shards.iter().enumerate() {
        wait_ready(s);
        println!("shard {i} serving at {}", s.addr());
    }
    wait_ready(&coord);
    println!("coordinator serving at {}", coord.addr());

    // Warm-up: single-key puts ride the ring to one shard each and
    // commit on the fast path — the coordinator is never consulted, so
    // its decision region stays durably empty.
    let mut client = connect(&shards, coord.addr());
    let mut applied_on = [0u64; SHARDS];
    for key in 0..WARMUP {
        let shard = client.shard_of(&key.to_le_bytes());
        let gtx = client.begin().expect("begin");
        let committed = client
            .commit(
                gtx,
                vec![(
                    shard,
                    vec![ShardWrite {
                        lba: key,
                        data: value(key),
                    }],
                )],
            )
            .expect("warm-up commit");
        assert!(committed);
        applied_on[shard] += 1;
    }
    println!("{WARMUP} fast-path puts committed across {SHARDS} shards");

    // The cross-shard transfer: stage phase 1 on two shards, then kill
    // the coordinator before any verdict exists.
    let (a, b) = (0usize, 2usize);
    let (lba_a, lba_b) = (WARMUP, WARMUP + 1);
    let gtx = client.begin().expect("begin transfer");
    client
        .prepare_on(
            a,
            gtx,
            vec![ShardWrite {
                lba: lba_a,
                data: value(100),
            }],
        )
        .expect("prepare shard a");
    client
        .prepare_on(
            b,
            gtx,
            vec![ShardWrite {
                lba: lba_b,
                data: value(101),
            }],
        )
        .expect("prepare shard b");
    println!("gtx {gtx} prepared on shards {a} and {b}; killing the coordinator");
    coord.stop();
    match client.verdict(gtx, true) {
        Err(ClusterError::CoordinatorDown(_)) => {
            println!("verdict lost: gtx {gtx} is in doubt on both shards")
        }
        other => panic!("expected CoordinatorDown, got {other:?}"),
    }
    drop(client); // The mid-commit client dies with its transfer.

    // The coordinator returns (fresh port, same — empty — durable
    // state) and a resumed client finishes the very same transaction:
    // re-prepare is a no-op on the staged intents, the verdict records
    // COMMIT, both decides apply. Exactly once, end to end.
    let coord = start_domain(SHARDS as u64);
    wait_ready(&coord);
    println!("coordinator back at {}", coord.addr());
    let mut resumed = connect(&shards, coord.addr());
    let committed = resumed
        .commit(
            gtx,
            vec![
                (
                    a,
                    vec![ShardWrite {
                        lba: lba_a,
                        data: value(100),
                    }],
                ),
                (
                    b,
                    vec![ShardWrite {
                        lba: lba_b,
                        data: value(101),
                    }],
                ),
            ],
        )
        .expect("resumed commit");
    assert!(committed, "the resumed transfer must commit");
    applied_on[a] += 1;
    applied_on[b] += 1;
    println!("resumed client committed gtx {gtx}");

    // Replaying the resolution must change nothing: the verdict is
    // durable and both decides are idempotent no-ops now.
    assert!(resumed.resolve_gtx(gtx, &[a, b]).expect("re-resolve"));

    // Oracle 1: every value reads back intact.
    for key in 0..WARMUP {
        let shard = resumed.shard_of(&key.to_le_bytes());
        let got = resumed.get(shard, key).expect("read back");
        assert_eq!(&got[..VAL], &value(key)[..], "put {key} corrupted or lost");
    }
    assert_eq!(
        &resumed.get(a, lba_a).expect("read a")[..VAL],
        &value(100)[..]
    );
    assert_eq!(
        &resumed.get(b, lba_b).expect("read b")[..VAL],
        &value(101)[..]
    );
    resumed.bye();

    // Oracle 2: each shard's `cluster.applies` counter equals the
    // number of transactions that committed there — the in-doubt
    // transfer applied exactly once despite the re-prepare, the retried
    // verdict and the replayed resolution.
    for (i, s) in shards.iter().enumerate() {
        let mut verifier = FabricClient::connect(99, s.connector(), ClientCfg::default())
            .expect("verifier connect");
        let json = verifier.metrics_json().expect("metrics");
        let applies = metric(&json, "cluster.applies");
        let in_doubt = metric(&json, "cluster.in_doubt");
        verifier.bye();
        println!(
            "shard {i}: cluster.applies = {applies} (expected {})",
            applied_on[i]
        );
        assert_eq!(
            applies, applied_on[i],
            "shard {i} applied a transaction twice"
        );
        assert_eq!(in_doubt, 0, "shard {i} still holds an in-doubt intent");
    }
    for s in shards {
        s.stop();
    }
    coord.stop();
    println!("exactly-once holds: all values intact, no double applies, nothing in doubt");
}

/// Pulls an integer metric out of the `ccnvme-metrics/v1` document.
fn metric(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\"");
    let at = json.find(&key).unwrap_or_else(|| panic!("{name} missing"));
    json[at + key.len()..]
        .trim_start_matches(|c: char| c == ':' || c.is_whitespace())
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("integer metric")
}
