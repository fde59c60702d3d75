//! Cluster integration tests over the loopback fabric: 2PC flows end to
//! end, the single-shard fast path, presumed abort, client-restart
//! resolution, and shard-down degradation scoped to one key range.

use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme::PmrLayout;
use ccnvme_block::{read_block, BLOCK_SIZE, RUN_CMD_BLOCKS};
use ccnvme_cluster::layout::{
    decode_decision, decode_intent, encode_decision, DECISION_ABORT, DECISION_COMMIT, DECISION_LINE,
};
use ccnvme_cluster::{
    resolve_in_doubt_local, ClusterCfg, ClusterClient, ClusterError, ClusterNode, ShardLayout,
    GTX_LEASE,
};
use ccnvme_fabric::capsule::{decode_response, encode_request};
use ccnvme_fabric::{
    Backend, Capsule, ClientCfg, ClientStats, ClusterBackend, Connector, FabricClient,
    FabricConfig, FabricError, FabricTarget, Request, ShardWrite, Status,
};
use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, Trigger};
use ccnvme_obs::Registry;
use ccnvme_sim::Sim;
use ccnvme_ssd::{CrashMode, CtrlConfig, DurableImage, NvmeController, SsdProfile};

/// Host cores serving fabric connections in these tests.
const CORES: usize = 2;

/// Shards in the standard test cluster.
const SHARDS: usize = 2;

/// Simulated cores: host cores, then one device core per domain
/// (shards + coordinator).
fn sim_cores() -> usize {
    CORES + SHARDS + 1
}

fn in_sim<T, F>(f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    Sim::run_main(sim_cores(), f)
}

/// Builds one cluster domain: its own device, driver and node.
fn node_on_core(device_core: usize) -> Arc<ClusterNode> {
    let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
    cc.device_core = device_core;
    let ctrl = NvmeController::new(cc);
    let (drv, _report) = CcNvmeDriver::probe(ctrl, sim_cores() as u16, 64);
    let (node, in_doubt) = ClusterNode::mount(Arc::new(drv), ShardLayout::small(0));
    assert!(in_doubt.is_empty(), "fresh node mounted in doubt");
    node
}

/// A cluster of fabric targets: `SHARDS` participants plus the
/// coordinator, each labeled with its shard id for shard-scoped faults.
struct TestCluster {
    nodes: Vec<Arc<ClusterNode>>,
    targets: Vec<Arc<FabricTarget>>,
}

impl TestCluster {
    fn new() -> TestCluster {
        let mut nodes = Vec::new();
        let mut targets = Vec::new();
        for d in 0..SHARDS + 1 {
            let node = node_on_core(CORES + d);
            let mut cfg = FabricConfig::new(CORES);
            cfg.shard_label = Some(d as u64);
            let target = FabricTarget::new(
                Backend::Cluster(Arc::clone(&node) as Arc<dyn ClusterBackend>),
                cfg,
            );
            nodes.push(node);
            targets.push(target);
        }
        TestCluster { nodes, targets }
    }

    fn connectors(&self, client_id: u64) -> (Vec<Box<dyn Connector>>, Box<dyn Connector>) {
        let shard_conns = self.targets[..SHARDS]
            .iter()
            .map(|t| t.loopback_connector(client_id))
            .collect();
        (
            shard_conns,
            self.targets[SHARDS].loopback_connector(client_id),
        )
    }

    fn client(&self, client_id: u64, reg: Option<&Registry>) -> ClusterClient {
        let (shards, coord) = self.connectors(client_id);
        let cfg = ClusterCfg {
            client_cfg: ClientCfg {
                ack_timeout_ns: 2_000_000,
                backoff_ns: 50_000,
                max_reconnects: 3,
                stats: ClientStats::detached(),
            },
        };
        ClusterClient::connect(client_id, shards, coord, cfg, reg).expect("cluster connect")
    }
}

fn block(tag: u8) -> Vec<u8> {
    vec![tag; 32]
}

fn writes(lba: u64, tag: u8) -> Vec<ShardWrite> {
    vec![ShardWrite {
        lba,
        data: block(tag),
    }]
}

fn assert_block(got: &[u8], want: &[u8]) {
    assert_eq!(got.len(), BLOCK_SIZE as usize);
    assert_eq!(&got[..want.len()], want);
}

/// A cross-shard commit lands on every participant and is readable
/// through the fabric; node stats record one prepare/apply per shard
/// and one coordinator decision.
#[test]
fn cross_shard_commit_is_atomic_and_readable() {
    in_sim(|| {
        let cluster = TestCluster::new();
        let mut client = cluster.client(1, None);
        let gtx = client.begin().expect("begin");
        let committed = client
            .commit(gtx, vec![(0, writes(5, 0xa1)), (1, writes(9, 0xb2))])
            .expect("commit");
        assert!(committed);
        assert_block(&client.get(0, 5).expect("read shard 0"), &block(0xa1));
        assert_block(&client.get(1, 9).expect("read shard 1"), &block(0xb2));
        for s in 0..SHARDS {
            let stats = cluster.nodes[s].stats();
            assert_eq!(stats.prepares.get(), 1);
            assert_eq!(stats.applies.get(), 1);
            assert_eq!(stats.in_doubt.get(), 0);
        }
        assert_eq!(cluster.nodes[SHARDS].stats().decisions.get(), 1);
        client.bye();
    });
}

/// Block data transfers so far on `node`'s device.
fn block_ios(node: &ClusterNode) -> u64 {
    node.obs().metrics.snapshot().counter("pcie.block_ios")
}

/// A single-shard transaction is one-phase: no coordinator decision
/// record, no intent slot, and exactly one block written — its home
/// block, in place.
#[test]
fn single_shard_commit_skips_the_coordinator() {
    in_sim(|| {
        let cluster = TestCluster::new();
        let mut client = cluster.client(2, None);
        let gtx = client.begin().expect("begin");
        let before = block_ios(&cluster.nodes[1]);
        assert!(client
            .commit(gtx, vec![(1, writes(3, 0x77))])
            .expect("commit"));
        assert_eq!(
            block_ios(&cluster.nodes[1]) - before,
            1,
            "a one-block commit wrote more than its home block"
        );
        assert_block(&client.get(1, 3).expect("read"), &block(0x77));
        assert_eq!(cluster.nodes[SHARDS].stats().decisions.get(), 0);
        let stats = cluster.nodes[1].stats();
        assert_eq!(stats.prepares.get(), 0, "the fast path staged an intent");
        assert_eq!(stats.applies.get(), 1);
        assert_eq!(stats.in_doubt.get(), 0);
        client.bye();
    });
}

/// A single-shard commit over the capsule's write cap fails at once as
/// a fabric error: the shard is not marked degraded, and the next
/// commit goes through.
#[test]
fn oversized_single_shard_commit_fails_without_degrading_the_shard() {
    in_sim(|| {
        let cluster = TestCluster::new();
        let mut client = cluster.client(9, None);
        let gtx = client.begin().expect("begin");
        let nine: Vec<ShardWrite> = (0..9).flat_map(|lba| writes(lba, 0x99)).collect();
        assert!(matches!(
            client.commit(gtx, vec![(0, nine)]),
            Err(ClusterError::Fabric(FabricError::Codec(_)))
        ));
        assert!(client.degraded_shards().is_empty());
        let gtx = client.begin().expect("begin");
        assert!(client
            .commit(gtx, vec![(0, writes(30, 0x9a))])
            .expect("commit after the refusal"));
        assert_block(&client.get(0, 30).expect("read"), &block(0x9a));
        client.bye();
    });
}

/// A `TX_COMMIT` retransmitted under the same cid is answered from the
/// session's response cache, not applied a second time.
#[test]
fn retransmitted_tx_commit_is_answered_from_the_cache() {
    in_sim(|| {
        let cluster = TestCluster::new();
        let target = &cluster.targets[0];
        let stats = target.stats();
        let mut wire = target.loopback_connect(8).expect("dial");
        let mut call = |req: &Request| {
            wire.send(&encode_request(req)).expect("send");
            decode_response(&wire.recv(2_000_000).expect("ack")).expect("decode")
        };
        let hello = Request::new(
            0,
            Capsule::Hello {
                client_id: 8,
                resume: false,
            },
        );
        assert!(call(&hello).status.is_ok());
        let commit = Request::new(
            1,
            Capsule::TxCommit {
                tx_id: 1,
                writes: writes(4, 0x5e),
            },
        );
        assert!(call(&commit).status.is_ok());
        assert_eq!(stats.replayed_commits.get(), 0);
        assert!(call(&commit).status.is_ok(), "the replayed ack");
        assert_eq!(stats.replayed_commits.get(), 1);
        assert_eq!(stats.commits.get(), 1, "the retransmit re-executed");
        assert_eq!(cluster.nodes[0].stats().applies.get(), 1);
    });
}

/// The verdict is get-or-set: once the abort is durable, a commit
/// retry for the same gtx loses and every participant aborts.
#[test]
fn durable_verdict_wins_over_late_commit_request() {
    in_sim(|| {
        let cluster = TestCluster::new();
        let mut client = cluster.client(3, None);
        let gtx = client.begin().expect("begin");
        client.prepare_on(0, gtx, writes(7, 0xc3)).expect("prepare");
        assert!(!client.verdict(gtx, false).expect("abort verdict"));
        // A racing (or replayed) commit attempt must come back abort.
        assert!(!client.verdict(gtx, true).expect("late commit verdict"));
        client.decide_on(0, gtx, false).expect("decide");
        let b = client.get(0, 7).expect("read");
        assert!(b.iter().all(|&x| x == 0), "aborted write became visible");
        assert_eq!(cluster.nodes[0].stats().aborts.get(), 1);
        // A resolve inquiry answers the recorded abort and records
        // nothing more.
        assert!(!client.resolve_gtx(gtx, &[0]).expect("resolve"));
        assert_eq!(cluster.nodes[SHARDS].stats().decisions.get(), 1);
        assert_eq!(cluster.nodes[0].stats().aborts.get(), 1);
        client.bye();
    });
}

/// An in-doubt participant with no coordinator record resolves to
/// presumed abort — and the abort is durably recorded, so a later
/// commit verdict cannot contradict it.
#[test]
fn in_doubt_without_verdict_resolves_to_presumed_abort() {
    in_sim(|| {
        let cluster = TestCluster::new();
        let mut client = cluster.client(4, None);
        let gtx = client.begin().expect("begin");
        client
            .prepare_on(0, gtx, writes(11, 0xd4))
            .expect("prepare");
        client
            .prepare_on(1, gtx, writes(11, 0xd5))
            .expect("prepare");
        drop(client);
        // The client vanished mid-commit: recovery resolves both
        // intents against the (empty) coordinator record.
        for s in 0..SHARDS {
            assert_eq!(cluster.nodes[s].stats().in_doubt.get(), 1);
            let commits = resolve_in_doubt_local(&cluster.nodes[s], &cluster.nodes[SHARDS], &[gtx]);
            assert_eq!(commits, 0, "presumed abort committed");
            assert_eq!(cluster.nodes[s].stats().in_doubt.get(), 0);
        }
        // The first inquiry recorded the presumed abort; the second
        // found it.
        assert_eq!(cluster.nodes[SHARDS].stats().decisions.get(), 1);
        // The late client's commit attempt now loses to the inquiry.
        let mut late = cluster.client(4, None);
        assert!(!late.verdict(gtx, true).expect("late verdict"));
        late.bye();
    });
}

/// A restarted client resumes an interrupted commit with
/// `resolve_gtx`: the durable verdict drives every participant to the
/// same outcome, exactly once.
#[test]
fn restarted_client_resolves_to_the_durable_verdict() {
    in_sim(|| {
        let cluster = TestCluster::new();
        let mut client = cluster.client(5, None);
        let gtx = client.begin().expect("begin");
        client
            .prepare_on(0, gtx, writes(13, 0xe1))
            .expect("prepare");
        client
            .prepare_on(1, gtx, writes(13, 0xe2))
            .expect("prepare");
        assert!(client.verdict(gtx, true).expect("verdict"));
        // Crash after the verdict, before any decide.
        drop(client);
        let mut resumed = cluster.client(5, None);
        assert!(resumed.resolve_gtx(gtx, &[0, 1]).expect("resolve"));
        assert_block(&resumed.get(0, 13).expect("read"), &block(0xe1));
        assert_block(&resumed.get(1, 13).expect("read"), &block(0xe2));
        // Resolving again replays the decision without re-applying.
        assert!(resumed.resolve_gtx(gtx, &[0, 1]).expect("re-resolve"));
        for s in 0..SHARDS {
            assert_eq!(cluster.nodes[s].stats().applies.get(), 1);
        }
        resumed.bye();
    });
}

/// Killing one shard degrades only its key range: commits touching it
/// abort cleanly, the other shard keeps committing, the
/// `cluster.degraded_shards` gauge tracks the outage, and the first
/// success after the heal clears it. The aborted commit leaves nothing
/// behind on the live participant, whichever of the two the client
/// sent its prepare to first.
#[test]
fn down_shard_degrades_only_its_key_range() {
    for dead in 0..SHARDS {
        in_sim(move || down_shard_drill(dead));
    }
}

fn down_shard_drill(dead: usize) {
    let live = 1 - dead;
    let cluster = TestCluster::new();
    let reg = Registry::new();
    let mut client = cluster.client(6, Some(&reg));
    let gauge = reg.gauge("cluster.degraded_shards");
    // Sever the dead shard's wires and refuse new connections.
    cluster.targets[dead].partition(6, ccnvme_sim::Ns::MAX);
    client.sever_shard(dead);
    let gtx = client.begin().expect("begin");
    let committed = client
        .commit(gtx, vec![(0, writes(20, 0x11)), (1, writes(20, 0x22))])
        .expect("commit across the outage");
    assert!(!committed, "commit through dead shard {dead} must abort");
    assert_eq!(client.degraded_shards(), vec![dead]);
    assert_eq!(gauge.get(), 1);
    // The live participant's prepare was decided abort: nothing in
    // doubt, nothing visible.
    assert_eq!(
        cluster.nodes[live].stats().in_doubt.get(),
        0,
        "shard {live} left in doubt"
    );
    let b = client.get(live, 20).expect("read the live shard");
    assert!(b.iter().all(|&x| x == 0), "aborted write visible on {live}");
    // The live shard's key range is untouched by the outage.
    let gtx2 = client.begin().expect("begin");
    assert!(client
        .commit(gtx2, vec![(live, writes(21, 0x33))])
        .expect("commit"));
    assert_block(&client.get(live, 21).expect("read"), &block(0x33));
    // Heal: the next touch of the dead shard reconnects and clears it.
    cluster.targets[dead].heal(6);
    let gtx3 = client.begin().expect("begin");
    assert!(client
        .commit(gtx3, vec![(0, writes(22, 0x44)), (1, writes(22, 0x55))])
        .expect("commit after heal"));
    assert!(client.degraded_shards().is_empty());
    assert_eq!(gauge.get(), 0);
    client.bye();
}

/// Global tx ids are durable across coordinator crashes: allocation
/// raises a persisted high-water mark above a whole lease before any id
/// of it is served, so a remounted coordinator — whose decision log
/// and intent slots can be completely empty, as after a single-shard
/// fast path or a pre-verdict crash — never re-issues an id an earlier
/// incarnation handed out (a re-issue would alias a still-prepared
/// intent on some shard and silently commit the old transaction's
/// data).
#[test]
fn gtx_ids_survive_coordinator_crashes() {
    in_sim(|| {
        let coord_config = || {
            let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
            cc.device_core = CORES;
            cc
        };
        let ctrl = NvmeController::new(coord_config());
        let (drv, _report) = CcNvmeDriver::probe(ctrl, sim_cores() as u16, 64);
        let (coord, _) = ClusterNode::mount(Arc::new(drv), ShardLayout::small(0));
        let (st, lease) = coord.alloc_gtx();
        assert!(st.is_ok(), "alloc before crash: {st:?}");
        assert_eq!(lease.end - lease.start, GTX_LEASE);
        // Harsh crash: volatile state gone, no decision record and no
        // local intent ever mentioned an id of the lease.
        let img = coord
            .driver()
            .controller()
            .crash_snapshot(CrashMode::adversarial(7));
        let ctrl = NvmeController::from_image(coord_config(), &img);
        let (drv, _report) = CcNvmeDriver::probe(ctrl, sim_cores() as u16, 64);
        let (remounted, in_doubt) = ClusterNode::mount(Arc::new(drv), ShardLayout::small(0));
        assert!(in_doubt.is_empty(), "coordinator remounted in doubt");
        let (st, after) = remounted.alloc_gtx();
        assert!(st.is_ok(), "alloc after remount: {st:?}");
        assert!(
            lease.end <= after.start,
            "gtxs {after:?} re-issued after a coordinator crash (pre-crash lease {lease:?})"
        );
    });
}

/// A device on the first device core, blank or booted from `image`, with
/// its ccNVMe driver probed (journal replay done).
fn boot(image: Option<&DurableImage>) -> Arc<CcNvmeDriver> {
    let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
    cc.device_core = CORES;
    let ctrl = match image {
        Some(img) => NvmeController::from_image(cc, img),
        None => NvmeController::new(cc),
    };
    Arc::new(CcNvmeDriver::probe(ctrl, sim_cores() as u16, 64).0)
}

/// Mount reads the protocol window as one run of multi-block reads:
/// on `ShardLayout::standard` at most ⌈(32 × 9 + 1) / 16⌉ = 19 commands
/// reach the device (33 with one read per header and the mark; the
/// decision log is one PMR read, no command), and a prepared intent
/// still comes back with its staged data. A mount writes nothing, so every command it issues is a read;
/// `ssd.service_ns` records one sample per command the device serves.
#[test]
fn mount_reads_the_protocol_window_in_bulk() {
    in_sim(|| {
        let layout = ShardLayout::standard(0);
        let (node, _) = ClusterNode::mount(boot(None), layout);
        let staged = [writes(5, 0x5a), writes(6, 0x6b)].concat();
        assert!(node.prepare(9, &staged).is_ok());
        let img = node
            .driver()
            .controller()
            .crash_snapshot(CrashMode::SETTLED);
        let drv = boot(Some(&img));
        let served = |obs: Arc<ccnvme_obs::Obs>| {
            let m = obs.metrics.snapshot();
            m.histogram("ssd.service_ns").map_or(0, |h| h.summary.count)
        };
        let before = served(ccnvme_block::obs_of(&*drv));
        let (node, in_doubt) = ClusterNode::mount(drv, layout);
        let reads = served(node.obs()) - before;
        let window = layout.total_blocks() - layout.data_blocks;
        assert!(
            reads <= window.div_ceil(RUN_CMD_BLOCKS.into()),
            "mount read its {window}-block window in {reads} commands"
        );
        assert_eq!(in_doubt, [9]);
        assert!(node.decide(9, true).is_ok());
        assert_block(&node.read_block(5).expect("read"), &block(0x5a));
        assert_block(&node.read_block(6).expect("read"), &block(0x6b));
    });
}

/// The decision log may hold holes: two verdicts claim lines k and
/// k + 1, and only the second lands before a crash. Mount takes every
/// sealed line, hole or not, and puts the cursor one past the last, so
/// with line 2 empty and line 3 sealed the next verdict writes line 4
/// and overwrites neither.
#[test]
fn mount_steps_over_a_hole_in_the_decision_log() {
    in_sim(|| {
        let layout = ShardLayout::small(0);
        let (coord, _) = ClusterNode::mount(boot(None), layout);
        assert_eq!(coord.verdict(1, true), (Status::Ok, DECISION_COMMIT));
        assert_eq!(coord.verdict(2, false), (Status::Ok, DECISION_ABORT));
        let at = |i: u64| coord.decision_log().start + i * DECISION_LINE;
        let pmr = coord.driver().controller().pmr();
        pmr.write(at(3), &encode_decision(3, true));
        pmr.flush();
        let img = coord
            .driver()
            .controller()
            .crash_snapshot(CrashMode::SETTLED);
        let (coord, _) = ClusterNode::mount(boot(Some(&img)), layout);
        // The line past the hole is a recorded verdict: a resolve
        // inquiry's abort loses to it.
        assert_eq!(coord.verdict(3, false), (Status::Ok, DECISION_COMMIT));
        assert_eq!(coord.verdict(4, false), (Status::Ok, DECISION_ABORT));
        let pmr = coord.driver().controller().pmr();
        let line = |i: u64| {
            let raw = pmr.read(at(i), DECISION_LINE);
            decode_decision(&raw.try_into().expect("one line"))
        };
        assert_eq!(
            (0..6).map(line).collect::<Vec<_>>(),
            [
                Some((1, true)),
                Some((2, false)),
                None,
                Some((3, true)),
                Some((4, false)),
                None
            ],
            "decision log lines 0..6 after the remount's verdict"
        );
    });
}

/// A verdict is answered only once its line has arrived: a power cut at
/// the instant the answer returns, which keeps no posted write still on
/// the link (`torn: 0`), leaves the decision in the remounted log. The
/// line arrives at least 64 ns after it is posted, so without the flush
/// before the answer the cut drops it and the inquiry below records
/// abort instead.
#[test]
fn an_answered_verdict_survives_a_cut_at_the_answer() {
    in_sim(|| {
        let layout = ShardLayout::small(0);
        let (coord, _) = ClusterNode::mount(boot(None), layout);
        assert_eq!(coord.verdict(5, true), (Status::Ok, DECISION_COMMIT));
        let img = coord
            .driver()
            .controller()
            .power_fail(CrashMode::adversarial(0));
        let (coord, _) = ClusterNode::mount(boot(Some(&img)), layout);
        assert_eq!(
            coord.verdict(5, false),
            (Status::Ok, DECISION_COMMIT),
            "the answered commit was lost to the cut"
        );
    });
}

/// A decision log that does not fit between the start of the PMR's
/// application region and the PMR's end is refused at mount, and the
/// panic names both sizes — also for a line count whose byte size
/// would wrap a `u64` to 0 and so seem to fit.
#[test]
fn a_decision_log_past_the_pmr_end_panics_at_mount() {
    let room = SsdProfile::optane_905p().pmr_size
        - PmrLayout::new(sim_cores() as u16, 64).app_region_off();
    for decision_slots in [room / DECISION_LINE + 1, 1 << 58] {
        let layout = ShardLayout {
            decision_slots,
            ..ShardLayout::small(0)
        };
        let err =
            std::panic::catch_unwind(|| in_sim(move || ClusterNode::mount(boot(None), layout).1))
                .expect_err("an oversized decision log mounted");
        let msg = err
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        let bytes = u128::from(decision_slots) * u128::from(DECISION_LINE);
        assert!(
            msg.contains(&format!("({bytes} B)")) && msg.contains(&format!("the {room} B")),
            "{decision_slots} lines: {msg}"
        );
    }
    // The longest log that fits mounts.
    let layout = ShardLayout {
        decision_slots: room / DECISION_LINE,
        ..ShardLayout::small(0)
    };
    assert!(in_sim(move || ClusterNode::mount(boot(None), layout).1).is_empty());
}

/// Two clients' leases never overlap, and `begin()` asks the
/// coordinator once per lease: N ids cost ⌈N / GTX_LEASE⌉ `AllocTx`
/// capsules, counted by the coordinator's `cluster.gtx_leases`.
#[test]
fn clients_lease_disjoint_gtx_runs() {
    in_sim(|| {
        let cluster = TestCluster::new();
        let (mut a, mut b) = (cluster.client(10, None), cluster.client(11, None));
        let n = 2 * GTX_LEASE + 3;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            for client in [&mut a, &mut b] {
                let gtx = client.begin().expect("begin");
                assert!(seen.insert(gtx), "gtx {gtx} handed out twice");
            }
        }
        assert_eq!(
            cluster.nodes[SHARDS].stats().gtx_leases.get(),
            2 * n.div_ceil(GTX_LEASE),
            "AllocTx capsules for {n} begins per client"
        );
        a.bye();
        b.bye();
    });
}

/// Virtual time one commit takes.
fn commit_vt(client: &mut ClusterClient, by_shard: Vec<(usize, Vec<ShardWrite>)>) -> u64 {
    let gtx = client.begin().expect("begin");
    let t0 = ccnvme_sim::now();
    assert!(client.commit(gtx, by_shard).expect("commit"));
    ccnvme_sim::now() - t0
}

/// On an idle cluster a cross-shard commit costs three dependent round
/// trips — prepares, verdict, decides — not one per participant per
/// phase: the two participants' prepares overlap, and so do their
/// decides. It costs 3.0 single commits: two two-block transactions (a
/// prepare, then a decide) on each shard, plus one sealed PMR line and
/// its flush on the coordinator. Both shards serve this client's
/// session on the same simulated host core, so the second
/// participant's submission waits out the first's CPU work. With the
/// verdict a one-block ccNVMe transaction it cost 3.7, over the bound.
#[test]
fn cross_shard_commit_overlaps_its_participants() {
    in_sim(|| {
        let cluster = TestCluster::new();
        let mut client = cluster.client(12, None);
        let single = commit_vt(&mut client, vec![(0, writes(40, 0x61))]);
        let cross = commit_vt(
            &mut client,
            vec![(0, writes(41, 0x62)), (1, writes(41, 0x63))],
        );
        assert!(
            cross * 10 <= single * 33,
            "cross-shard commit {cross} ns against single-shard {single} ns: more than 3.3x"
        );
        client.bye();
    });
}

/// A 2PC step whose backing local transaction fails with an injected
/// media error must surface the failure in its status — never ack `Ok`
/// and mutate the node's protocol maps while the media diverges.
#[test]
fn prepare_surfaces_injected_media_errors() {
    in_sim(|| {
        let layout = ShardLayout::small(0);
        // Fail every media write into the intent-slot region; reads and
        // the rest of the window stay healthy, so probe and mount work.
        let plan = FaultPlan::new(1).rule(FaultRule::new(
            FaultKind::MediaWrite,
            Trigger::LbaRange {
                start: layout.slot_header(0),
                end: layout.gtx_hwm_lba(),
            },
        ));
        let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
        cc.device_core = CORES;
        cc.fault = Some(Arc::new(plan.injector()));
        let ctrl = NvmeController::new(cc);
        let (drv, _report) = CcNvmeDriver::probe(ctrl, sim_cores() as u16, 64);
        let (node, _) = ClusterNode::mount(Arc::new(drv), layout);
        let st = node.prepare(
            1,
            &[ShardWrite {
                lba: 3,
                data: block(0x9c),
            }],
        );
        assert!(!st.is_ok(), "prepare acked Ok over a failing medium");
        assert_eq!(node.stats().prepares.get(), 0, "failed prepare counted");
        assert_eq!(node.stats().in_doubt.get(), 0, "failed prepare left doubt");
    });
}

/// Runs `a` on host core 0 and `b` on host core 1 from the same virtual
/// instant: a deterministic two-core race.
fn race<A, B>(
    a: impl FnOnce() -> A + Send + 'static,
    b: impl FnOnce() -> B + Send + 'static,
) -> (A, B)
where
    A: Send + 'static,
    B: Send + 'static,
{
    let a = ccnvme_sim::spawn("race-a", 0, a);
    let b = ccnvme_sim::spawn("race-b", 1, b);
    (a.join(), b.join())
}

/// Intent slots whose header on the device names `gtx`.
fn intents_on_media(node: &ClusterNode, gtx: u64) -> usize {
    let layout = node.layout();
    (0..layout.intent_slots)
        .filter(|&slot| {
            let header = read_block(&*node.driver(), layout.slot_header(slot)).expect("read");
            decode_intent(&header).is_some_and(|(g, _)| g == gtx)
        })
        .count()
}

/// Two prepares of one gtx race on two cores: one intent is staged, and
/// each ack finds it on the device.
#[test]
fn racing_prepares_of_one_gtx_stage_one_intent() {
    in_sim(|| {
        let node = node_on_core(CORES);
        let prepare = |node: &Arc<ClusterNode>| {
            let node = Arc::clone(node);
            move || {
                let st = node.prepare(7, &writes(3, 0x31));
                (st, intents_on_media(&node, 7))
            }
        };
        let (a, b) = race(prepare(&node), prepare(&node));
        assert_eq!(
            (a, b),
            ((Status::Ok, 1), (Status::Ok, 1)),
            "racing prepares: (status, intents on media) at each ack"
        );
        assert_eq!(node.stats().prepares.get(), 1, "one gtx staged twice");
        assert_eq!(node.stats().in_doubt.get(), 1);
    });
}

/// Two commit decides of one prepared gtx race on two cores: the writes
/// are applied once, and each ack finds them visible.
#[test]
fn racing_decides_of_one_gtx_apply_once() {
    in_sim(|| {
        let node = node_on_core(CORES);
        assert!(node.prepare(7, &writes(3, 0x32)).is_ok());
        let decide = |node: &Arc<ClusterNode>| {
            let node = Arc::clone(node);
            move || {
                let st = node.decide(7, true);
                let visible = node.read_block(3).expect("read")[..32] == block(0x32)[..];
                (st, visible)
            }
        };
        let (a, b) = race(decide(&node), decide(&node));
        assert_eq!(
            (a, b),
            ((Status::Ok, true), (Status::Ok, true)),
            "racing decides: (status, writes visible) at each ack"
        );
        let stats = node.stats();
        assert_eq!(stats.applies.get(), 1, "one prepared gtx applied twice");
        assert_eq!(stats.in_doubt.get(), 0);
        assert_eq!(
            intents_on_media(&node, 7),
            0,
            "the intent outlived its decide"
        );
    });
}

/// A media error under a node's data window reaches a fabric client's
/// `BlkRead` as `BioMedia`, the status the device reported.
#[test]
fn blk_read_reports_the_media_error_it_hit() {
    in_sim(|| {
        let layout = ShardLayout::small(0);
        let plan = FaultPlan::new(1).rule(FaultRule::new(
            FaultKind::MediaRead,
            Trigger::LbaRange {
                start: layout.base + 3,
                end: layout.base + 4,
            },
        ));
        let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
        cc.device_core = CORES;
        cc.fault = Some(Arc::new(plan.injector()));
        let ctrl = NvmeController::new(cc);
        let (drv, _report) = CcNvmeDriver::probe(ctrl, sim_cores() as u16, 64);
        let (node, _) = ClusterNode::mount(Arc::new(drv), layout);
        let target = FabricTarget::new(
            Backend::Cluster(node as Arc<dyn ClusterBackend>),
            FabricConfig::new(CORES),
        );
        let cfg = ClientCfg {
            ack_timeout_ns: 2_000_000,
            backoff_ns: 50_000,
            max_reconnects: 3,
            stats: ClientStats::detached(),
        };
        let mut client =
            FabricClient::connect(1, target.loopback_connector(1), cfg).expect("connect");
        assert_eq!(
            client.blk_read(3),
            Err(FabricError::Remote(Status::BioMedia))
        );
        assert_block(&client.blk_read(4).expect("healthy block"), &[0; 32]);
        client.bye();
    });
}
