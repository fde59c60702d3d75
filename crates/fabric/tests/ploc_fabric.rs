//! Ploc-over-fabric integration: detectable lock-free operations served
//! to remote clients keep their exactly-once contract across the wire —
//! retransmitted sequences replay, severed connections resume, and the
//! recovery verdict a client fetches over the fabric matches what the
//! PMR region durably recorded.

use std::sync::Arc;

use ccnvme_fabric::{Backend, ClientCfg, ClientStats, FabricClient, FabricConfig, FabricTarget};
use ccnvme_obs::Obs;
use ccnvme_ploc::{OpResult, PlocConfig, PlocOp, PlocService, RecoverVerdict};
use ccnvme_sim::Sim;
use ccnvme_ssd::{CtrlConfig, NvmeController, SsdProfile};

/// Host cores serving fabric connections in these tests.
const CORES: usize = 2;

fn in_sim<T, F>(f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    Sim::run_main(CORES + 1, f)
}

/// A ploc service on a fresh device's PMR, behind a fabric target.
fn ploc_target() -> (Arc<PlocService>, Arc<FabricTarget>) {
    let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
    cc.device_core = CORES;
    let ctrl = Arc::new(NvmeController::new(cc));
    let base = ccnvme::PmrLayout::new(1, 16).app_region_off();
    let svc = PlocService::format(
        ctrl.pmr(),
        base,
        PlocConfig {
            clients: 4,
            pool: 32,
            buckets: 4,
        },
        Obs::new(),
    );
    let target = FabricTarget::new(Backend::Ploc(Arc::clone(&svc)), FabricConfig::new(CORES));
    (svc, target)
}

fn quick_cfg() -> ClientCfg {
    ClientCfg {
        ack_timeout_ns: 2_000_000,
        backoff_ns: 50_000,
        max_reconnects: 50,
        stats: ClientStats::detached(),
    }
}

/// Remote push/pop/insert round-trip, with a retransmitted sequence
/// answered from the per-client result cache instead of re-executed.
#[test]
fn remote_ops_execute_and_retransmits_replay() {
    in_sim(|| {
        let (svc, target) = ploc_target();
        let mut c =
            FabricClient::connect(0, target.loopback_connector(0), quick_cfg()).expect("connect");

        assert_eq!(c.ploc_next(PlocOp::Push(41)).expect("push"), OpResult::Done);
        assert_eq!(c.ploc_next(PlocOp::Push(42)).expect("push"), OpResult::Done);
        // Explicitly re-issue the last sequence: the target must answer
        // the recorded result without pushing a second 42.
        assert_eq!(
            c.ploc_op(2, PlocOp::Push(42)).expect("replay"),
            OpResult::Done
        );
        assert_eq!(svc.stack_contents(), vec![42, 41], "no double execution");
        let replays = target.obs().metrics.counter("ploc.replays");
        assert_eq!(replays.get(), 1, "the repeat was served from the cache");

        assert_eq!(
            c.ploc_next(PlocOp::Insert { key: 9, val: 90 })
                .expect("insert"),
            OpResult::Done
        );
        assert_eq!(
            c.ploc_next(PlocOp::Lookup { key: 9 }).expect("lookup"),
            OpResult::Value(90)
        );
        assert_eq!(c.ploc_next(PlocOp::Pop).expect("pop"), OpResult::Value(42));
        c.bye();
    });
}

/// A severed wire mid-stream: the client re-dials, resumes its session
/// and its detectable sequence, and no operation is lost or doubled.
#[test]
fn severed_connection_resumes_exactly_once() {
    in_sim(|| {
        let (svc, target) = ploc_target();
        let mut c =
            FabricClient::connect(1, target.loopback_connector(1), quick_cfg()).expect("connect");
        for v in [1u64, 2, 3] {
            assert_eq!(
                c.ploc_next(PlocOp::Enqueue(v)).expect("enq"),
                OpResult::Done
            );
        }
        // Kill the wire without telling anyone; the next call must ride
        // the reconnect + retransmit path.
        c.sever();
        assert_eq!(
            c.ploc_next(PlocOp::Enqueue(4)).expect("enq"),
            OpResult::Done
        );
        assert_eq!(
            c.ploc_next(PlocOp::Dequeue).expect("deq"),
            OpResult::Value(1)
        );
        assert_eq!(svc.queue_contents(), vec![2, 3, 4]);
        assert!(
            target.stats().reconnects.get() >= 1,
            "the sever forced a session resumption"
        );
        c.bye();
    });
}

/// A brand-new client process (fresh `FabricClient`, same client id)
/// recovers its verdict over the fabric and resumes the sequence space
/// exactly where the durable state says it stopped.
#[test]
fn fresh_client_recovers_verdict_and_resumes_sequences() {
    in_sim(|| {
        let (_svc, target) = ploc_target();
        {
            let mut c = FabricClient::connect(2, target.loopback_connector(2), quick_cfg())
                .expect("connect");
            assert_eq!(c.ploc_next(PlocOp::Push(7)).expect("push"), OpResult::Done);
            assert_eq!(c.ploc_next(PlocOp::Pop).expect("pop"), OpResult::Value(7));
            // Dropped without `bye`: the "process" died.
        }
        let mut c =
            FabricClient::connect(2, target.loopback_connector(2), quick_cfg()).expect("reconnect");
        let verdict = c.ploc_resume().expect("recover");
        assert_eq!(
            verdict,
            RecoverVerdict::Completed {
                seq: 2,
                result: OpResult::Value(7)
            }
        );
        // The auto-seq counter continues at 3, so the next op executes.
        assert_eq!(c.ploc_next(PlocOp::Push(8)).expect("push"), OpResult::Done);
        assert_eq!(
            c.ploc_recover().expect("recover"),
            RecoverVerdict::Completed {
                seq: 3,
                result: OpResult::Done
            }
        );
        c.bye();
    });
}

/// Mutating ploc ops count as fabric commits; lookups do not. The
/// non-ploc surfaces answer `NotSupported` on this backend.
#[test]
fn commit_accounting_and_foreign_surfaces() {
    in_sim(|| {
        let (_svc, target) = ploc_target();
        let stats = target.stats();
        let mut c =
            FabricClient::connect(3, target.loopback_connector(3), quick_cfg()).expect("connect");
        assert_eq!(c.ploc_next(PlocOp::Push(1)).expect("push"), OpResult::Done);
        assert_eq!(
            c.ploc_next(PlocOp::Lookup { key: 1 }).expect("lookup"),
            OpResult::NotFound
        );
        assert_eq!(stats.commits.get(), 1, "only the mutation committed");
        assert!(c.alloc_tx().is_err(), "tx surface is not served by ploc");
        assert!(c.resolve("/x").is_err(), "fs surface is not served by ploc");
        c.bye();
    });
}
