//! Loopback-transport integration tests: multi-client concurrency,
//! credit backpressure, transport faults and the exactly-once
//! reconnect/replay contract, all inside the deterministic simulator.

use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme_block::BlockDevice;
use ccnvme_fabric::{
    Backend, Capsule, ClientCfg, ClientStats, CodecError, FabricClient, FabricConfig, FabricError,
    FabricTarget, ShardWrite, Status,
};
use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, NetDir, NetFaultKind, NetFaultRule, Trigger};
use ccnvme_obs::Obs;
use ccnvme_ploc::{PlocConfig, PlocOp, PlocService};
use ccnvme_sim::Sim;
use ccnvme_ssd::{CtrlConfig, NvmeController, SsdProfile};
use parking_lot::Mutex;

mod common;
use common::one_node;

/// Host cores serving fabric connections in these tests.
const CORES: usize = 2;

/// Runs `f` on a simulated thread with enough cores for `CORES` hosts
/// plus the device core.
fn in_sim<T, F>(f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    Sim::run_main(CORES + 1, f)
}

/// Builds a one-node cluster serving the window `[0, 4 096)` of a
/// fresh device.
fn node_backend() -> (Arc<CcNvmeDriver>, Backend) {
    let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
    cc.device_core = CORES;
    let ctrl = NvmeController::new(cc);
    let (drv, _report) = CcNvmeDriver::probe(ctrl, (CORES + 1) as u16, 64);
    let drv = Arc::new(drv);
    let backend = one_node(Arc::clone(&drv), 0, 4_096);
    (drv, backend)
}

/// Fast client timeouts so fault recovery stays cheap in virtual time.
fn quick_cfg(stats: Arc<ClientStats>) -> ClientCfg {
    ClientCfg {
        ack_timeout_ns: 2_000_000,
        backoff_ns: 50_000,
        max_reconnects: 50,
        stats,
    }
}

/// One member write of a transaction.
fn w(lba: u64, data: &[u8]) -> ShardWrite {
    ShardWrite {
        lba,
        data: data.to_vec(),
    }
}

fn read_block(drv: &Arc<CcNvmeDriver>, lba: u64) -> Vec<u8> {
    ccnvme_block::read_block(&**drv, lba).unwrap_or_else(|st| panic!("read back lba {lba}: {st:?}"))
}

/// One client allocates a transaction and commits two writes in one
/// capsule; both blocks are on media and `fabric.*` counters record the
/// exchange.
#[test]
fn single_client_commit_is_durable_and_counted() {
    in_sim(|| {
        let (drv, backend) = node_backend();
        let target = FabricTarget::new(backend, FabricConfig::new(CORES));
        let stats = target.stats();
        let mut client = FabricClient::connect(
            1,
            target.loopback_connector(1),
            quick_cfg(ClientStats::detached()),
        )
        .expect("connect");
        assert_eq!(client.window(), target.window());

        let tx = client.alloc_tx().expect("alloc tx");
        client
            .tx_commit(tx, vec![w(7, b"member-block"), w(8, b"commit-block")])
            .expect("commit");

        assert_eq!(&read_block(&drv, 7)[..12], b"member-block");
        assert_eq!(&read_block(&drv, 8)[..12], b"commit-block");
        assert_eq!(stats.commits.get(), 1);
        assert_eq!(stats.replayed_commits.get(), 0);
        assert_eq!(stats.sessions.get(), 1);
        assert_eq!(stats.capsules.get(), 3, "hello, alloc, commit");
        client.bye();
    });
}

/// A target over a one-node cluster whose window is `[1 000, 1 064)` of
/// a device whose media fails `kind` at window LBA 5, and a client
/// connected to it.
fn media_fault_target(kind: FaultKind) -> (Arc<FabricTarget>, FabricClient) {
    let base = 1_000;
    let plan = FaultPlan::new(1).rule(FaultRule::new(
        kind,
        Trigger::LbaRange {
            start: base + 5,
            end: base + 6,
        },
    ));
    let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
    cc.device_core = CORES;
    cc.fault = Some(Arc::new(plan.injector()));
    let (drv, _report) = CcNvmeDriver::probe(NvmeController::new(cc), (CORES + 1) as u16, 64);
    let backend = one_node(Arc::new(drv), base, 64);
    let target = FabricTarget::new(backend, FabricConfig::new(CORES));
    let client = FabricClient::connect(
        1,
        target.loopback_connector(1),
        quick_cfg(ClientStats::detached()),
    )
    .expect("connect");
    (target, client)
}

/// A media error on a node window's read reaches the client as what it
/// is, `BioMedia` — not a generic `BioError` — and a neighbouring block
/// still reads.
#[test]
fn blk_read_reports_the_media_error_it_hit() {
    in_sim(|| {
        let (_target, mut client) = media_fault_target(FaultKind::MediaRead);
        assert_eq!(
            client.blk_read(5),
            Err(FabricError::Remote(Status::BioMedia))
        );
        assert_eq!(client.blk_read(6).expect("healthy block"), vec![0; 4096]);
        client.bye();
    });
}

/// A commit whose write hits a media error answers `BioMedia`, and
/// a failed commit is no commit: `fabric.commits` stays 0.
#[test]
fn failed_commit_reports_media_and_counts_no_commit() {
    in_sim(|| {
        let (target, mut client) = media_fault_target(FaultKind::MediaWrite);
        let tx = client.alloc_tx().expect("alloc");
        assert_eq!(
            client.tx_commit(tx, vec![w(4, b"member"), w(5, b"commit")]),
            Err(FabricError::Remote(Status::BioMedia))
        );
        assert_eq!(target.stats().commits.get(), 0, "a failed commit counted");
        client.bye();
    });
}

/// The runtime persist-order sanitizer over a fabric-served commit: the
/// target's cluster node drives the same PMR ring protocol, so its
/// recorded persistence log must replay clean through the shadow queues
/// — and trip once flush marks are discounted, proving the check has
/// teeth on fabric traffic too.
#[test]
fn fabric_commit_survives_the_persist_order_sanitizer() {
    in_sim(|| {
        let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
        cc.device_core = CORES;
        cc.record_persistence = true;
        let ctrl = NvmeController::new(cc);
        let (drv, _report) = CcNvmeDriver::probe(ctrl, (CORES + 1) as u16, 64);
        let drv = Arc::new(drv);
        let backend = one_node(Arc::clone(&drv), 0, 4_096);
        let target = FabricTarget::new(backend, FabricConfig::new(CORES));
        let mut client = FabricClient::connect(
            1,
            target.loopback_connector(1),
            quick_cfg(ClientStats::detached()),
        )
        .expect("connect");

        let tx = client.alloc_tx().expect("alloc tx");
        // Two members, so the non-boundary doorbell path runs too.
        client
            .tx_commit(
                tx,
                vec![w(3, b"sanitized-member"), w(4, b"sanitized-commit")],
            )
            .expect("commit");
        client.bye();

        let plog = drv.controller().persist_log().expect("recording");
        let geo = drv.layout().sanitizer_geometry();
        let violations = plog.sanitize(&geo);
        assert!(
            violations.is_empty(),
            "fabric-served commit broke persist order: {violations:?}"
        );
        assert!(
            !plog.sanitize_ignoring_flushes(&geo).is_empty(),
            "shadow machine is vacuous: discounting flushes must trip it"
        );
    });
}

/// Four clients commit concurrently from their own simulated threads;
/// every commit lands exactly once and every acked block is on media.
#[test]
fn four_clients_commit_concurrently() {
    in_sim(|| {
        const CLIENTS: u64 = 4;
        const COMMITS_PER_CLIENT: u64 = 8;
        let (drv, backend) = node_backend();
        let target = FabricTarget::new(backend, FabricConfig::new(CORES));
        let stats = target.stats();

        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let t = Arc::clone(&target);
            handles.push(ccnvme_sim::spawn(
                &format!("client{c}"),
                (c as usize) % CORES,
                move || {
                    let mut client = FabricClient::connect(
                        c + 1,
                        t.loopback_connector(c + 1),
                        quick_cfg(ClientStats::detached()),
                    )
                    .expect("connect");
                    for i in 0..COMMITS_PER_CLIENT {
                        let tx = client.alloc_tx().expect("alloc");
                        let lba = c * 100 + i;
                        let body = format!("c{c}-i{i}");
                        client
                            .tx_commit(tx, vec![w(lba, body.as_bytes())])
                            .expect("commit");
                    }
                    client.bye();
                },
            ));
        }
        for h in handles {
            h.join();
        }

        for c in 0..CLIENTS {
            for i in 0..COMMITS_PER_CLIENT {
                let want = format!("c{c}-i{i}");
                let got = read_block(&drv, c * 100 + i);
                assert_eq!(&got[..want.len()], want.as_bytes(), "client {c} commit {i}");
            }
        }
        assert_eq!(stats.commits.get(), CLIENTS * COMMITS_PER_CLIENT);
        assert_eq!(stats.replayed_commits.get(), 0);
        assert_eq!(stats.sessions.get(), CLIENTS);
        assert_eq!(stats.reconnects.get(), 0);
    });
}

/// With a tiny credit window the initiator stalls instead of erroring:
/// every operation still succeeds and the stall counter records the
/// backpressure.
#[test]
fn credit_exhaustion_degrades_to_backpressure() {
    in_sim(|| {
        let (_drv, backend) = node_backend();
        let mut cfg = FabricConfig::new(CORES);
        cfg.window = 2;
        let target = FabricTarget::new(backend, cfg);
        let stats = ClientStats::detached();
        let mut client = FabricClient::connect(
            1,
            target.loopback_connector(1),
            quick_cfg(Arc::clone(&stats)),
        )
        .expect("connect");
        assert_eq!(client.window(), 2);

        let txs: Vec<u64> = (0..16).map(|_| client.alloc_tx().expect("alloc")).collect();
        // Pipeline far past the window without consuming acks.
        let mut cids = Vec::new();
        for (lba, tx_id) in txs.into_iter().enumerate() {
            let cid = client
                .submit(Capsule::TxCommit {
                    tx_id,
                    writes: vec![w(lba as u64, &[lba as u8; 64])],
                })
                .expect("submit");
            cids.push(cid);
        }
        for cid in cids {
            let resp = client.wait_for(cid).expect("ack");
            assert!(
                resp.status.is_ok(),
                "commit {cid} failed: {:?}",
                resp.status
            );
        }
        assert!(
            stats.credit_stalls.get() > 0,
            "a 16-deep pipeline over a window of 2 must stall"
        );
        client.bye();
    });
}

/// A commit whose write falls outside the window, or carries more
/// than a block, is refused with `Protocol` as a whole: none of its
/// writes lands and no commit is counted.
#[test]
fn inadmissible_commits_write_nothing() {
    in_sim(|| {
        let (drv, backend) = node_backend();
        let target = FabricTarget::new(backend, FabricConfig::new(CORES));
        let stats = target.stats();
        let mut client = FabricClient::connect(
            1,
            target.loopback_connector(1),
            quick_cfg(ClientStats::detached()),
        )
        .expect("connect");

        let refused = Err(FabricError::Remote(Status::Protocol));
        let tx = client.alloc_tx().expect("alloc");
        assert_eq!(
            client.tx_commit(tx, vec![w(1, b"in-window"), w(4_096, b"outside")]),
            refused
        );
        let tx = client.alloc_tx().expect("alloc");
        assert_eq!(
            client.tx_commit(tx, vec![w(2, b"fits"), w(3, &[7; 4_097])]),
            refused
        );
        for lba in 1..=3 {
            assert_eq!(read_block(&drv, lba), vec![0; 4_096], "lba {lba}");
        }
        assert_eq!(stats.commits.get(), 0);
        client.bye();
    });
}

/// A transaction over the capsule's write cap fails at the initiator
/// with a typed codec error, at once: it never reaches the wire (where
/// the target would drop it and the retransmits would wedge the
/// session), and the session keeps committing.
#[test]
fn oversized_commit_fails_fast_and_the_session_goes_on() {
    in_sim(|| {
        let (drv, backend) = node_backend();
        let target = FabricTarget::new(backend, FabricConfig::new(CORES));
        let stats = target.stats();
        let mut client = FabricClient::connect(
            1,
            target.loopback_connector(1),
            quick_cfg(ClientStats::detached()),
        )
        .expect("connect");

        let tx = client.alloc_tx().expect("alloc");
        let nine = (0..9).map(|lba| w(lba, b"member")).collect();
        let t0 = ccnvme_sim::now();
        assert_eq!(
            client.tx_commit(tx, nine),
            Err(FabricError::Codec(CodecError::Overflow { len: 9, max: 8 }))
        );
        assert_eq!(ccnvme_sim::now(), t0, "refused without a round trip");
        client
            .tx_commit(tx, vec![w(100, b"next-commit")])
            .expect("commit after the refusal");
        assert_eq!(&read_block(&drv, 100)[..11], b"next-commit");
        assert_eq!(stats.bad_frames.get(), 0);
        assert_eq!(stats.commits.get(), 1);
        client.bye();
    });
}

/// A partition that eats a durable commit's ack: the client reconnects,
/// resumes its session and retransmits; the target answers from its
/// caches. The commit executes exactly once and the session keeps
/// working afterwards.
#[test]
fn partition_mid_commit_replays_exactly_once() {
    in_sim(|| {
        let (drv, backend) = node_backend();
        // The 3rd target->client frame is the ack of the first commit
        // (hello ack, alloc ack, commit ack). Cut it.
        let plan = FaultPlan::new(7).net_rule(
            NetFaultRule::new(NetFaultKind::Partition, Trigger::Nth(3))
                .dir(NetDir::ToClient)
                .heal(200_000),
        );
        let mut cfg = FabricConfig::new(CORES);
        cfg.injector = Some(Arc::new(plan.injector()));
        let injector = cfg.injector.clone().unwrap();
        let target = FabricTarget::new(backend, cfg);
        let stats = target.stats();
        let cstats = ClientStats::detached();
        let mut client = FabricClient::connect(
            1,
            target.loopback_connector(1),
            quick_cfg(Arc::clone(&cstats)),
        )
        .expect("connect");

        let tx1 = client.alloc_tx().expect("alloc");
        // The ack of this durable commit is lost to the partition; the
        // call must ride reconnect + retransmit to completion anyway.
        client
            .tx_commit(tx1, vec![w(5, b"survives-partition")])
            .expect("commit 1");
        // Session still live: a second transaction commits normally.
        let tx2 = client.alloc_tx().expect("alloc 2");
        client
            .tx_commit(tx2, vec![w(6, b"after-heal")])
            .expect("commit 2");
        client.bye();

        assert_eq!(&read_block(&drv, 5)[..18], b"survives-partition");
        assert_eq!(&read_block(&drv, 6)[..10], b"after-heal");
        // Exactly-once: two unique transactions, two executions.
        assert_eq!(stats.commits.get(), 2, "retransmit must not re-execute");
        assert!(
            stats.replayed_commits.get() >= 1,
            "the retransmitted commit must be answered from the cache"
        );
        assert!(cstats.reconnects.get() >= 1, "client must have reconnected");
        assert_eq!(stats.reconnects.get(), cstats.reconnects.get());
        assert_eq!(injector.counters().net_partitions.get(), 1);
    });
}

/// Duplicated and reordered frames are absorbed by the session layer:
/// all operations succeed, data is correct, and duplicate commits do
/// not double-execute.
#[test]
fn duplicates_and_reorders_are_absorbed() {
    in_sim(|| {
        let (drv, backend) = node_backend();
        let plan = FaultPlan::new(11)
            .net_rule(
                NetFaultRule::new(NetFaultKind::Duplicate, Trigger::Probability(0.25))
                    .dir(NetDir::ToTarget),
            )
            .net_rule(
                NetFaultRule::new(NetFaultKind::Duplicate, Trigger::Probability(0.25))
                    .dir(NetDir::ToClient),
            );
        let mut cfg = FabricConfig::new(CORES);
        cfg.injector = Some(Arc::new(plan.injector()));
        let injector = cfg.injector.clone().unwrap();
        let target = FabricTarget::new(backend, cfg);
        let stats = target.stats();
        let mut client = FabricClient::connect(
            1,
            target.loopback_connector(1),
            quick_cfg(ClientStats::detached()),
        )
        .expect("connect");

        const N: u64 = 24;
        for i in 0..N {
            let tx = client.alloc_tx().expect("alloc");
            let body = format!("dup-{i}");
            client
                .tx_commit(tx, vec![w(i, body.as_bytes())])
                .expect("commit");
        }
        client.bye();

        for i in 0..N {
            let want = format!("dup-{i}");
            assert_eq!(&read_block(&drv, i)[..want.len()], want.as_bytes());
        }
        assert_eq!(stats.commits.get(), N, "duplicates must not re-execute");
        assert!(
            injector.counters().net_dups.get() > 0,
            "the schedule must actually duplicate"
        );
    });
}

/// Dropped request frames surface as ack timeouts; the client's
/// go-back-N retransmission completes every operation exactly once.
#[test]
fn dropped_frames_are_retransmitted() {
    in_sim(|| {
        let (drv, backend) = node_backend();
        // Drop two specific client->target frames.
        let plan = FaultPlan::new(3)
            .net_rule(NetFaultRule::new(NetFaultKind::Drop, Trigger::Nth(4)).dir(NetDir::ToTarget))
            .net_rule(NetFaultRule::new(NetFaultKind::Drop, Trigger::Nth(7)).dir(NetDir::ToTarget));
        let mut cfg = FabricConfig::new(CORES);
        cfg.injector = Some(Arc::new(plan.injector()));
        let target = FabricTarget::new(backend, cfg);
        let stats = target.stats();
        let mut client = FabricClient::connect(
            1,
            target.loopback_connector(1),
            quick_cfg(ClientStats::detached()),
        )
        .expect("connect");

        const N: u64 = 6;
        for i in 0..N {
            let tx = client.alloc_tx().expect("alloc");
            let body = format!("drop-{i}");
            client
                .tx_commit(tx, vec![w(i, body.as_bytes())])
                .expect("commit");
        }
        client.bye();

        for i in 0..N {
            let want = format!("drop-{i}");
            assert_eq!(&read_block(&drv, i)[..want.len()], want.as_bytes());
        }
        assert_eq!(stats.commits.get(), N);
    });
}

/// The MQFS syscall surface over the fabric: create, write, sync, read
/// and stat against a mounted file system; `fsync` acks count as
/// fabric commits.
#[test]
fn fs_backend_serves_syscall_surface() {
    use ccnvme_crashtest::StackConfig;
    use mqfs::FsVariant;

    let cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), CORES);
    let out: Arc<Mutex<Option<()>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let mut sim = Sim::new(cfg.sim_cores());
    sim.spawn("test-main", 0, move || {
        let (_stack, fs) = ccnvme_crashtest::Stack::format(&cfg);
        let target = FabricTarget::new(Backend::Fs(Arc::clone(&fs)), FabricConfig::new(CORES));
        let stats = target.stats();
        let mut client = FabricClient::connect(
            1,
            target.loopback_connector(1),
            quick_cfg(ClientStats::detached()),
        )
        .expect("connect");

        let ino = client.create("/fabric.log").expect("create");
        assert_eq!(client.resolve("/fabric.log").expect("resolve"), ino);
        client.write(ino, 0, b"hello over the wire").expect("write");
        client
            .sync(ino, ccnvme_fabric::SyncKind::Fsync)
            .expect("fsync");
        assert_eq!(
            client.read(ino, 0, 64).expect("read"),
            b"hello over the wire".to_vec()
        );
        assert_eq!(client.stat(ino).expect("stat"), 19);
        // AllocTx is a cluster-backend operation.
        assert!(matches!(
            client.alloc_tx(),
            Err(FabricError::Remote(ccnvme_fabric::Status::NotSupported))
        ));
        assert_eq!(stats.commits.get(), 1, "fsync is the fs commit point");
        let json = client.metrics_json().expect("metrics");
        assert!(json.contains("fabric.commits"), "snapshot carries fabric.*");
        client.bye();
        fs.unmount();
        *out2.lock() = Some(());
    });
    sim.run();
    out.lock().take().expect("test closure ran");
}

/// One trace id follows a request across the whole fabric: the
/// initiator stamps a deterministic context into the capsule, the
/// target adopts it for execution, and the device-side `MediaWrite`
/// carries the same id — even when the connection is killed mid-stream
/// and the commit only lands via reconnect + retransmission.
#[test]
fn trace_id_spans_initiator_to_media_write_across_a_kill() {
    in_sim(|| {
        const CLIENT_ID: u64 = 42;
        let (drv, backend) = node_backend();
        let target = FabricTarget::new(backend, FabricConfig::new(CORES));
        let cstats = ClientStats::detached();
        let mut client = FabricClient::connect(
            CLIENT_ID,
            target.loopback_connector(CLIENT_ID),
            quick_cfg(Arc::clone(&cstats)),
        )
        .expect("connect");

        let tx = client.alloc_tx().expect("alloc");
        // Submit the durable commit, then kill the connection before
        // consuming its ack: the commit can only complete through the
        // retransmitted — byte-identical, identically-stamped — frame.
        let cid = client
            .submit(Capsule::TxCommit {
                tx_id: tx,
                writes: vec![w(3, b"traced-commit")],
            })
            .expect("submit");
        client.sever();
        let resp = client.wait_for(cid).expect("commit rides the retransmit");
        assert!(resp.status.is_ok(), "commit failed: {:?}", resp.status);
        assert!(
            cstats.reconnects.get() >= 1,
            "the kill must force a reconnect"
        );
        client.bye();

        // The initiator's stamp is deterministic in (client_id, cid).
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&CLIENT_ID.to_le_bytes());
        key[8..].copy_from_slice(&cid.to_le_bytes());
        let expected = ccnvme_obs::hash::fnv1a64(&key);

        let obs = drv.obs().expect("ccNVMe driver exposes obs");
        // The node numbers its local transactions itself, so the
        // commit rode the last one begun: the lease's mark write came
        // before it.
        let local_tx = obs
            .trace
            .snapshot()
            .iter()
            .rev()
            .find(|e| e.kind == ccnvme_obs::EventKind::TxBegin)
            .expect("the commit began a local transaction")
            .tx_id;
        let events = obs.trace.events_for_tx(local_tx);
        let media: Vec<_> = events
            .iter()
            .filter(|e| e.kind == ccnvme_obs::EventKind::MediaWrite)
            .collect();
        assert!(!media.is_empty(), "the commit must reach media");
        for e in &media {
            assert_eq!(e.ctx.trace_id, expected, "MediaWrite carries the stamp");
            assert_eq!(e.ctx.span, cid as u32);
            assert_eq!(e.ctx.origin, CLIENT_ID as u32);
        }
        // The same id is on the host-side protocol events, so the whole
        // timeline — initiator stamp, P-SQ store, doorbell, media — is
        // one trace.
        for kind in [
            ccnvme_obs::EventKind::TxBegin,
            ccnvme_obs::EventKind::Doorbell,
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| e.kind == kind && e.ctx.trace_id == expected),
                "{} must carry the stamp",
                kind.name()
            );
        }
    });
}

/// One capsule of each family, in the order of the matrix's columns.
fn family_probes() -> Vec<Capsule> {
    vec![
        Capsule::Metrics,
        Capsule::AllocTx,
        Capsule::TxCommit {
            tx_id: 1,
            writes: vec![w(1, b"probe")],
        },
        Capsule::BlkRead { lba: 1 },
        Capsule::TxPrepare {
            gtx: 2,
            writes: vec![w(2, b"probe")],
        },
        Capsule::TxDecide {
            gtx: 2,
            commit: true,
        },
        Capsule::TxVerdict {
            gtx: 3,
            commit: true,
        },
        Capsule::FsResolve { path: "/".into() },
        Capsule::FsStat { ino: 1 },
        Capsule::PlocOp {
            seq: 1,
            op: PlocOp::Push(7),
        },
        Capsule::PlocRecover,
    ]
}

/// Sends every family probe to a target over the backend `build`
/// makes, on a sim of `cores` cores; `true` where the answer is not
/// `NotSupported`.
fn served_by(cores: usize, build: impl FnOnce() -> Backend + Send + 'static) -> Vec<bool> {
    Sim::run_main(cores, move || {
        let target = FabricTarget::new(build(), FabricConfig::new(CORES));
        let mut client = FabricClient::connect(
            1,
            target.loopback_connector(1),
            quick_cfg(ClientStats::detached()),
        )
        .expect("connect");
        let served = family_probes()
            .into_iter()
            .map(|op| {
                let cid = client.submit(op).expect("submit");
                client.wait_for(cid).expect("answer").status != Status::NotSupported
            })
            .collect();
        client.bye();
        served
    })
}

/// The backend × capsule matrix: each backend serves its own capsule
/// families and answers `NotSupported` to every other one; `Metrics`
/// is served by all three.
#[test]
fn each_backend_serves_exactly_its_capsule_families() {
    use ccnvme_crashtest::StackConfig;
    use mqfs::FsVariant;

    const X: bool = true;
    const O: bool = false;
    //             Metrics AllocTx TxCommit BlkRead Prepare Decide Verdict FsResolve FsStat PlocOp PlocRecover
    let fs = [X, O, O, O, O, O, O, X, X, O, O];
    let ploc = [X, O, O, O, O, O, O, O, O, X, X];
    let cluster = [X, X, X, X, X, X, X, O, O, O, O];

    let fs_cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), CORES);
    let sim_cores = fs_cfg.sim_cores();
    assert_eq!(
        served_by(sim_cores, move || Backend::Fs(
            ccnvme_crashtest::Stack::format(&fs_cfg).1
        )),
        fs,
        "fs"
    );
    assert_eq!(
        served_by(CORES + 1, || {
            let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
            cc.device_core = CORES;
            let ctrl = NvmeController::new(cc);
            let base = ccnvme::PmrLayout::new(1, 16).app_region_off();
            let config = PlocConfig {
                clients: 4,
                pool: 32,
                buckets: 4,
            };
            Backend::Ploc(PlocService::format(ctrl.pmr(), base, config, Obs::new()))
        }),
        ploc,
        "ploc"
    );
    assert_eq!(
        served_by(CORES + 1, || node_backend().1),
        cluster,
        "cluster"
    );
}
