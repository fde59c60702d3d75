//! TCP transport tests: real sockets into a simulated target. The
//! smoke test always runs; the multi-client soak is gated behind
//! `CCNVME_TCP_SOAK=1` (wired into `scripts/check.sh` deep tier).

use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme_fabric::{
    ClientCfg, ClientStats, FabricClient, FabricConfig, ShardWrite, TcpFabricServer,
};
use ccnvme_ssd::{CtrlConfig, NvmeController, SsdProfile};

mod common;
use common::one_node;

const CORES: usize = 2;

fn start_node_server(window: u32) -> TcpFabricServer {
    let mut fcfg = FabricConfig::new(CORES);
    fcfg.window = window;
    TcpFabricServer::start("127.0.0.1:0", CORES, fcfg, || {
        let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
        cc.device_core = CORES;
        let ctrl = NvmeController::new(cc);
        let (drv, _report) = CcNvmeDriver::probe(ctrl, (CORES + 1) as u16, 64);
        one_node(Arc::new(drv), 0, 4_096)
    })
    .expect("bind tcp server")
}

/// One real-socket client: handshake, a two-write transaction commit,
/// and a metrics fetch showing `fabric.*` counters.
#[test]
fn tcp_single_client_smoke() {
    let server = start_node_server(16);
    let mut client = FabricClient::connect(1, server.connector(), ClientCfg::default())
        .expect("connect over tcp");
    assert_eq!(client.window(), 16);

    let tx = client.alloc_tx().expect("alloc");
    client
        .tx_commit(tx, vec![w(0, b"tcp-member"), w(1, b"tcp-commit")])
        .expect("commit");

    let json = client.metrics_json().expect("metrics");
    assert!(json.contains("\"fabric.commits\""));
    assert!(json.contains("\"fabric.capsules\""));
    client.bye();
    server.stop();
}

/// Four concurrent OS-thread clients over real sockets; the per-target
/// commit counter must equal the total number of unique commits (no
/// loss, no double execution).
#[test]
fn tcp_four_clients_commit_concurrently() {
    let server = start_node_server(16);
    let addr = server.addr();
    const CLIENTS: u64 = 4;
    let commits_each: u64 = if soak() { 32 } else { 4 };

    let mut joins = Vec::new();
    for c in 0..CLIENTS {
        let connector = Box::new(ccnvme_fabric::TcpConnector::new(addr));
        joins.push(std::thread::spawn(move || {
            let mut client = FabricClient::connect(c + 1, connector, ClientCfg::default())
                .expect("connect over tcp");
            for i in 0..commits_each {
                let tx = client.alloc_tx().expect("alloc");
                let body = format!("tcp-c{c}-i{i}");
                client
                    .tx_commit(tx, vec![w(c * 1_000 + i, body.as_bytes())])
                    .expect("commit");
            }
            client
        }));
    }
    let mut clients: Vec<FabricClient> = joins
        .into_iter()
        .map(|j| j.join().expect("client thread"))
        .collect();

    let json = clients[0].metrics_json().expect("metrics");
    let commits = metric_value(&json, "fabric.commits").expect("fabric.commits in snapshot");
    assert_eq!(commits, CLIENTS * commits_each, "every commit exactly once");
    for client in clients.drain(..) {
        client.bye();
    }
    server.stop();
}

/// Soak (deep tier): a client whose connection is killed mid-stream
/// reconnects over real TCP and finishes with exactly-once commits.
#[test]
fn tcp_reconnect_resumes_session() {
    if !soak() {
        return; // deep tier only: CCNVME_TCP_SOAK=1 scripts/check.sh
    }
    let server = start_node_server(16);
    let stats = ClientStats::detached();
    let mut client = FabricClient::connect(
        9,
        server.connector(),
        ClientCfg {
            stats: Arc::clone(&stats),
            ..ClientCfg::default()
        },
    )
    .expect("connect");

    for i in 0..8u64 {
        let tx = client.alloc_tx().expect("alloc");
        client
            .tx_commit(tx, vec![w(i, format!("pre-{i}").as_bytes())])
            .expect("commit");
        if i == 3 {
            // Kill the wire under the client; the next call must ride
            // reconnect + session resume.
            client.sever();
        }
    }
    assert!(
        stats.reconnects.get() >= 1,
        "the killed wire forces a reconnect"
    );
    let json = client.metrics_json().expect("metrics");
    let commits = metric_value(&json, "fabric.commits").expect("fabric.commits");
    assert_eq!(commits, 8, "reconnect must not lose or duplicate commits");
    client.bye();
    server.stop();
}

/// One member write of a transaction.
fn w(lba: u64, data: &[u8]) -> ShardWrite {
    ShardWrite {
        lba,
        data: data.to_vec(),
    }
}

fn soak() -> bool {
    std::env::var("CCNVME_TCP_SOAK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Pulls an integer metric out of a `ccnvme-metrics/v1` JSON document.
fn metric_value(json: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\"");
    let at = json.find(&key)?;
    let rest = &json[at + key.len()..];
    let colon = rest.find(':')?;
    let digits: String = rest[colon + 1..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}
