//! Fabric crash campaign: deterministic connection kills mid-commit
//! with exactly-once replay asserted on every schedule, plus the
//! durability oracle (acked commits survive an adversarial power
//! failure).

use std::sync::Arc;

use ccnvme::CcNvmeDriver;
use ccnvme_fabric::{ClientCfg, ClientStats, FabricClient, FabricConfig, FabricTarget, ShardWrite};
use ccnvme_fault::{FaultPlan, NetDir, NetFaultKind, NetFaultRule, Trigger};
use ccnvme_sim::Sim;
use ccnvme_ssd::{CrashMode, CtrlConfig, DurableImage, NvmeController, SsdProfile};

mod common;
use common::one_node;

const CORES: usize = 2;
const COMMITS: u64 = 4;

fn in_sim<T, F>(f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    Sim::run_main(CORES + 1, f)
}

fn node_target(
    injector: Option<Arc<ccnvme_fault::FaultInjector>>,
) -> (Arc<CcNvmeDriver>, Arc<FabricTarget>) {
    let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
    cc.device_core = CORES;
    let ctrl = NvmeController::new(cc);
    let (drv, _report) = CcNvmeDriver::probe(ctrl, (CORES + 1) as u16, 64);
    let drv = Arc::new(drv);
    let mut fcfg = FabricConfig::new(CORES);
    fcfg.injector = injector;
    let target = FabricTarget::new(one_node(Arc::clone(&drv), 0, 4_096), fcfg);
    (drv, target)
}

/// One member write of a transaction.
fn w(lba: u64, data: &[u8]) -> ShardWrite {
    ShardWrite {
        lba,
        data: data.to_vec(),
    }
}

/// What one schedule observed — compared across reruns for determinism.
#[derive(Debug, PartialEq, Eq)]
struct ScheduleOutcome {
    commits: u64,
    replayed: u64,
    reconnects: u64,
    partitions: u64,
    image: Vec<(u64, Vec<u8>)>,
}

/// Runs one schedule: cut the `nth` target->client frame mid-stream
/// while a client runs `COMMITS` durable commits, then power-fail and
/// collect the durable image.
fn run_schedule(nth: u64) -> ScheduleOutcome {
    in_sim(move || {
        let plan = FaultPlan::new(0x5eed ^ nth).net_rule(
            NetFaultRule::new(NetFaultKind::Partition, Trigger::Nth(nth))
                .dir(NetDir::ToClient)
                .heal(200_000),
        );
        let injector = Arc::new(plan.injector());
        let (drv, target) = node_target(Some(Arc::clone(&injector)));
        let cstats = ClientStats::detached();
        let mut client = FabricClient::connect(
            1,
            target.loopback_connector(1),
            ClientCfg {
                ack_timeout_ns: 2_000_000,
                backoff_ns: 50_000,
                max_reconnects: 50,
                stats: Arc::clone(&cstats),
            },
        )
        .expect("connect");
        for i in 0..COMMITS {
            let tx = client.alloc_tx().expect("alloc");
            let body = format!("sched{nth}-commit{i}");
            client
                .tx_commit(tx, vec![w(i, body.as_bytes())])
                .expect("commit must survive the schedule");
        }
        client.bye();
        let stats = target.stats();
        let image = drv.controller().power_fail(CrashMode::adversarial(nth));
        let mut blocks: Vec<(u64, Vec<u8>)> = image
            .blocks
            .iter()
            .filter(|(lba, _)| **lba < COMMITS)
            .map(|(l, d)| (*l, d.to_vec()))
            .collect();
        blocks.sort();
        ScheduleOutcome {
            commits: stats.commits.get(),
            replayed: stats.replayed_commits.get(),
            reconnects: cstats.reconnects.get(),
            partitions: injector.counters().net_partitions.get(),
            image: blocks,
        }
    })
}

/// The sweep: cutting every plausible ack position in the exchange must
/// leave every schedule exactly-once (commit counter equals unique
/// transactions) with every acked block durable, and each schedule must
/// be deterministic under rerun.
#[test]
fn connection_kill_sweep_is_exactly_once_and_deterministic() {
    // Frames ToClient: hello ack, then (alloc ack, commit ack) pairs.
    // Nth 2..=9 covers cuts before, on and between every commit ack.
    for nth in 2..=9u64 {
        let out = run_schedule(nth);
        assert_eq!(
            out.partitions, 1,
            "schedule {nth}: the partition must fire inside the exchange"
        );
        assert_eq!(
            out.commits, COMMITS,
            "schedule {nth}: retransmits must never re-execute a commit"
        );
        assert!(
            out.reconnects >= 1,
            "schedule {nth}: the client must have reconnected"
        );
        // Every acked commit is on media after an adversarial power cut.
        assert_eq!(
            out.image.len() as u64,
            COMMITS,
            "schedule {nth}: durable image must hold every acked block"
        );
        for (lba, data) in &out.image {
            let want = format!("sched{nth}-commit{lba}");
            assert_eq!(
                &data[..want.len()],
                want.as_bytes(),
                "schedule {nth}: lba {lba} content"
            );
        }
        // A cut commit ack must have been replayed from the cache; a
        // cut alloc ack re-executes harmlessly (alloc is not a commit).
        if out.replayed > 0 {
            assert!(out.reconnects >= 1);
        }
        // Determinism: the same schedule replays to the same outcome.
        let again = run_schedule(nth);
        assert_eq!(out, again, "schedule {nth} must be deterministic");
    }
}

/// At least one cut position in the sweep must land on a commit ack and
/// exercise the replay cache (the sweep is not vacuous).
#[test]
fn sweep_exercises_commit_replay() {
    let replayed: u64 = (2..=9u64).map(|nth| run_schedule(nth).replayed).sum();
    assert!(
        replayed >= 1,
        "no schedule in the sweep replayed a commit from the cache"
    );
}

/// The plain durability oracle with no faults: every durably-acked
/// commit is present in the adversarial crash image.
#[test]
fn acked_commits_survive_adversarial_power_failure() {
    let image: DurableImage = in_sim(|| {
        let (drv, target) = node_target(None);
        let mut client =
            FabricClient::connect(1, target.loopback_connector(1), ClientCfg::default())
                .expect("connect");
        for i in 0..COMMITS {
            let tx = client.alloc_tx().expect("alloc");
            let body = format!("durable-{i}");
            client
                .tx_commit(tx, vec![w(i, body.as_bytes())])
                .expect("commit");
        }
        client.bye();
        drv.controller().power_fail(CrashMode::adversarial(99))
    });
    for i in 0..COMMITS {
        let want = format!("durable-{i}");
        let block = image
            .blocks
            .get(&i)
            .unwrap_or_else(|| panic!("acked lba {i} missing from durable image"));
        assert_eq!(&block[..want.len()], want.as_bytes());
    }
}
