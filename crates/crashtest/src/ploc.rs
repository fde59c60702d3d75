//! The ploc crash surface: the detectable structures of `crates/ploc`
//! under a scripted multi-client workload — the shared-state
//! counterpart of the file-system surface ([`crate::fs`]).
//!
//! The recorded pass runs the script — one op list per client, all
//! clients at once — against a [`PlocService`] on an
//! instrumented device while the host records, per `(client, seq)`, the
//! result each operation returned and the instant its ack became
//! durable. Every crash image is mounted and held to the detectability
//! contract:
//!
//! * the mount must succeed and yield a verdict for every client;
//! * no acked operation is lost: the verdict's `next_seq` must cover
//!   every ack whose flush preceded the cut, and a
//!   [`RecoverVerdict::Completed`] verdict must carry the *same*
//!   result the recorded execution returned (the cut is a prefix of
//!   that very history, so evidence and result agree);
//! * re-issuing the last completed sequence must replay from the
//!   durable record, not re-execute;
//! * after re-driving every client to the end of its script, the
//!   structures must conserve values exactly — each mutation took
//!   effect exactly once: a lost effect leaves a pushed value
//!   unaccounted, a doubled one surfaces the same unique value twice.
//!
//! The workload can be driven locally (direct [`PlocService::op`]
//! calls) or over the loopback fabric (`PLOC_OP` capsules through a
//! [`FabricTarget`]), proving the exactly-once contract end to end
//! across the wire. The convergence witness is the per-client verdicts
//! (evidence is never destroyed ahead of the verdict it supports) plus
//! the region bytes a mount converges to. Counter `region_writes`: PMR
//! posted writes that landed inside the ploc sub-region during the
//! recorded run — the sweep actually cut through them.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use ccnvme_fabric::{Backend, ClientCfg, ClientStats, FabricClient, FabricConfig, FabricTarget};
use ccnvme_obs::Obs;
use ccnvme_ploc::{OpResult, PlocConfig, PlocOp, PlocService, RecoverVerdict};
use ccnvme_ssd::{CrashMode, DurableImage, PersistLog};
use parking_lot::Mutex;

use crate::boot_ctrl;
use crate::sweep::{CrashSurface, Domain, Judgement, Settled, SweepReport, Tape};

/// Host cores serving clients (and, in fabric mode, connections); the
/// device daemons are pinned one past them.
const CORES: usize = 2;

/// A ploc workload: one op list per client.
#[derive(Clone)]
pub struct PlocSurface {
    /// Geometry of the region under test.
    pub ploc: PlocConfig,
    /// Client `c`'s operations, issued as sequences `1..`; one list per
    /// client of `ploc`. Values and keys must be unique across the
    /// script, so a doubled effect surfaces as a duplicated value and a
    /// lost one as a hole in the conservation multiset.
    pub script: Vec<Vec<PlocOp>>,
    /// Drive the workload (and the post-crash resume) through loopback
    /// fabric sessions instead of direct service calls.
    pub fabric: bool,
}

/// What the oracle remembers of the recorded execution.
pub struct PlocScript {
    /// Every operation's returned result.
    results: BTreeMap<(u16, u32), OpResult>,
    /// Ploc sub-region bounds inside the PMR.
    bounds: (u64, u64),
}

/// The deterministic per-client script. Clients cycle through all six
/// operation kinds, staggered by client id so different kinds contend
/// at any instant. Values and keys are unique per `(client, seq)`.
pub fn scripted_op(c: u16, seq: u32) -> PlocOp {
    let v = (c as u64) * 1_000 + seq as u64;
    let k = (c as u32) * 1_000 + seq;
    match (c as u32 + seq - 1) % 6 {
        0 => PlocOp::Push(v),
        1 => PlocOp::Enqueue(v),
        2 => PlocOp::Insert { key: k, val: seq },
        3 => PlocOp::Pop,
        4 => PlocOp::Dequeue,
        _ => PlocOp::Lookup { key: k },
    }
}

fn mark_key(c: u16, seq: u32) -> u64 {
    (c as u64) << 32 | seq as u64
}

fn app_base() -> u64 {
    ccnvme::PmrLayout::new(1, 16).app_region_off()
}

/// One scripted client: direct service calls, or a loopback fabric
/// session.
struct Client {
    c: u16,
    svc: Arc<PlocService>,
    remote: Option<FabricClient>,
}

impl Client {
    fn attach(c: u16, svc: &Arc<PlocService>, target: Option<&Arc<FabricTarget>>) -> Self {
        let cfg = ClientCfg {
            ack_timeout_ns: 2_000_000,
            backoff_ns: 50_000,
            max_reconnects: 50,
            stats: ClientStats::detached(),
        };
        Client {
            c,
            svc: Arc::clone(svc),
            remote: target.map(|t| {
                FabricClient::connect(c as u64, t.loopback_connector(c as u64), cfg)
                    .expect("loopback connect")
            }),
        }
    }

    /// Issues `op` as sequence `seq`.
    fn op(&mut self, seq: u32, op: PlocOp) -> Result<OpResult, String> {
        match &mut self.remote {
            Some(fc) => fc.ploc_op(seq, op).map_err(|e| e.to_string()),
            None => self.svc.op(self.c, seq, op).map_err(|e| e.to_string()),
        }
    }

    fn resume(&mut self) -> RecoverVerdict {
        match &mut self.remote {
            Some(fc) => fc.ploc_resume().expect("fabric resume"),
            None => self.svc.recover(self.c).expect("recover"),
        }
    }

    fn bye(self) {
        if let Some(fc) = self.remote {
            fc.bye();
        }
    }
}

/// Exact conservation check for one structure: the multiset of values
/// successfully pushed must equal the values popped plus the values
/// still present — and no unique value may be observed twice.
fn conserve(
    name: &str,
    mut pushed: Vec<u64>,
    popped: &[u64],
    contents: &[u64],
    problems: &mut Vec<String>,
) {
    let mut seen = HashSet::new();
    for &v in popped.iter().chain(contents.iter()) {
        if !seen.insert(v) {
            problems.push(format!(
                "{name}: value {v} observed twice — an effect doubled"
            ));
        }
    }
    let mut have: Vec<u64> = popped.iter().chain(contents.iter()).copied().collect();
    have.sort_unstable();
    pushed.sort_unstable();
    if have != pushed {
        problems.push(format!(
            "{name}: pushed {pushed:?} but accounted for {have:?}"
        ));
    }
}

impl PlocSurface {
    /// [`scripted_op`]'s lists of `ops_per_client` operations for every
    /// client of `ploc`, driven locally.
    pub fn scripted(ploc: PlocConfig, ops_per_client: u32) -> Self {
        let script = (0..ploc.clients)
            .map(|c| {
                (1..=ops_per_client)
                    .map(|seq| scripted_op(c, seq))
                    .collect()
            })
            .collect();
        PlocSurface {
            ploc,
            script,
            fabric: false,
        }
    }

    /// Client `c`'s operation `seq`.
    fn op(&self, c: u16, seq: u32) -> PlocOp {
        self.script[c as usize][seq as usize - 1]
    }

    fn target(&self, svc: &Arc<PlocService>) -> Option<Arc<FabricTarget>> {
        self.fabric
            .then(|| FabricTarget::new(Backend::Ploc(Arc::clone(svc)), FabricConfig::new(CORES)))
    }
}

impl CrashSurface for PlocSurface {
    type Script = PlocScript;
    type Witness = (Vec<RecoverVerdict>, Vec<u8>);

    fn name(&self) -> String {
        "ploc".into()
    }

    fn cores(&self) -> usize {
        CORES + 1
    }

    fn record(&self, tape: &mut Tape) -> PlocScript {
        assert_eq!(
            self.script.len(),
            self.ploc.clients as usize,
            "one op list per client"
        );
        let ctrl = Arc::new(boot_ctrl(CORES, None, true));
        let svc = PlocService::format(ctrl.pmr(), app_base(), self.ploc, Obs::new());
        // Format's durability is unconditional: it ends in a flush.
        tape.start(vec![Domain {
            log: ctrl.persist_log().expect("record_persistence was set"),
            geometry: None,
        }]);
        let target = self.target(&svc);
        let results = Arc::new(Mutex::new(BTreeMap::new()));
        let clients: Vec<_> = (0..self.ploc.clients)
            .map(|c| {
                let (svc, target) = (Arc::clone(&svc), target.clone());
                let marks = Arc::clone(tape.marks());
                let results = Arc::clone(&results);
                let ops = self.script[c as usize].clone();
                let name = format!("ploc-client-{c}");
                ccnvme_sim::spawn(&name, c as usize % CORES, move || {
                    let mut client = Client::attach(c, &svc, target.as_ref());
                    for (seq, op) in (1..).zip(ops) {
                        let r = client.op(seq, op).expect("scripted op");
                        // The result is durable before the ack
                        // returns; the mark closes the oracle's
                        // "this op may no longer be lost" window.
                        results.lock().insert((c, seq), r);
                        marks.mark(mark_key(c, seq));
                    }
                    client.bye();
                })
            })
            .collect();
        for client in clients {
            client.join();
        }
        let results = std::mem::take(&mut *results.lock());
        PlocScript {
            results,
            bounds: svc.region_bounds(),
        }
    }

    fn judge(
        &self,
        script: &PlocScript,
        images: &[DurableImage],
        acked: &HashSet<u64>,
    ) -> Judgement {
        let ctrl = Arc::new(boot_ctrl(CORES, Some(&images[0]), false));
        let svc = match PlocService::mount(ctrl.pmr(), app_base(), Obs::new()) {
            Ok(svc) => svc,
            Err(e) => return Judgement::single(vec![format!("mount failed: {e}")]),
        };
        let target = self.target(&svc);
        let results = &script.results;
        let mut problems = Vec::new();
        // The definitive result of every (client, seq): completed ops
        // keep their recorded result (the cut is a prefix of that
        // history), everything past the verdict is re-driven.
        let mut definitive: BTreeMap<(u16, u32), OpResult> = BTreeMap::new();
        for c in 0..self.ploc.clients {
            let mut client = Client::attach(c, &svc, target.as_ref());
            let verdict = client.resume();
            let floor = verdict.next_seq() - 1;
            let ops = self.script[c as usize].len() as u32;
            let max_acked = (1..=ops)
                .rev()
                .find(|&s| acked.contains(&mark_key(c, s)))
                .unwrap_or(0);
            if floor < max_acked {
                problems.push(format!(
                    "client {c}: acked op {max_acked} lost — verdict {verdict:?}"
                ));
            }
            if floor > ops {
                problems.push(format!("client {c}: verdict {verdict:?} beyond the script"));
                continue;
            }
            if let RecoverVerdict::Completed { seq, result } = verdict {
                match results.get(&(c, seq)) {
                    Some(&r1) if r1 == result => {}
                    Some(&r1) => problems.push(format!(
                        "client {c}: op {seq} recovered as {result:?} but the \
                         execution it prefixes returned {r1:?}"
                    )),
                    None => problems.push(format!(
                        "client {c}: verdict for op {seq} the script never ran"
                    )),
                }
            }
            for seq in 1..=floor {
                definitive.insert((c, seq), results[&(c, seq)]);
            }
            // Re-issuing the last completed sequence must replay the
            // recorded result, not execute a second time (a double
            // would also trip the conservation check below).
            if floor >= 1 {
                match client.op(floor, self.op(c, floor)) {
                    Ok(r) if r == definitive[&(c, floor)] => {}
                    Ok(r) => problems.push(format!(
                        "client {c}: replay of op {floor} answered {r:?}, executed {:?}",
                        definitive[&(c, floor)]
                    )),
                    Err(e) => problems.push(format!("client {c}: replay of op {floor}: {e}")),
                }
            }
            // Re-drive the rest of the script to its end.
            for seq in floor + 1..=ops {
                match client.op(seq, self.op(c, seq)) {
                    Ok(r) => {
                        definitive.insert((c, seq), r);
                    }
                    Err(e) => problems.push(format!("client {c}: re-drive op {seq}: {e}")),
                }
            }
            client.bye();
        }
        // Conservation: with every sequence driven to a definitive
        // result, each structure's books must balance exactly.
        let (mut pushed, mut popped) = (Vec::new(), Vec::new());
        let (mut enq, mut deq) = (Vec::new(), Vec::new());
        let mut inserted = Vec::new();
        for (&(c, seq), &r) in &definitive {
            match (self.op(c, seq), r) {
                (PlocOp::Push(v), OpResult::Done) => pushed.push(v),
                (PlocOp::Enqueue(v), OpResult::Done) => enq.push(v),
                (PlocOp::Insert { key, val }, OpResult::Done) => inserted.push((key, val)),
                (PlocOp::Push(_) | PlocOp::Enqueue(_) | PlocOp::Insert { .. }, OpResult::Full) => {}
                (PlocOp::Pop, OpResult::Value(v)) => popped.push(v),
                (PlocOp::Dequeue, OpResult::Value(v)) => deq.push(v),
                (PlocOp::Pop | PlocOp::Dequeue, OpResult::Empty) => {}
                (PlocOp::Lookup { .. }, _) => {}
                (op, r) => problems.push(format!(
                    "client {c} op {seq}: {op:?} answered impossible {r:?}"
                )),
            }
        }
        conserve(
            "stack",
            pushed,
            &popped,
            &svc.stack_contents(),
            &mut problems,
        );
        conserve("queue", enq, &deq, &svc.queue_contents(), &mut problems);
        inserted.sort_unstable();
        let mut got = svc.hash_contents();
        got.sort_unstable();
        if inserted != got {
            problems.push(format!("hash: inserted {inserted:?} but mounted {got:?}"));
        }
        Judgement::single(problems)
    }

    fn settle(
        &self,
        images: &[DurableImage],
        record: bool,
    ) -> Result<Settled<Self::Witness>, String> {
        let ctrl = Arc::new(boot_ctrl(CORES, Some(&images[0]), record));
        let svc = PlocService::mount(ctrl.pmr(), app_base(), Obs::new())
            .map_err(|e| format!("mount failed: {e}"))?;
        let verdicts = (0..self.ploc.clients)
            .map(|c| svc.recover(c).expect("in-range client"))
            .collect();
        let (lo, hi) = svc.region_bounds();
        Ok(Settled {
            witness: (
                verdicts,
                ctrl.crash_snapshot(CrashMode::SETTLED)
                    .pmr
                    .read_vec(lo, (hi - lo) as usize),
            ),
            logs: ctrl.persist_log().into_iter().collect(),
        })
    }

    fn finish(&self, script: &PlocScript, logs: &[Arc<PersistLog>], report: &mut SweepReport) {
        let (lo, hi) = script.bounds;
        let region_writes = logs[0].pmr_writes_in_range(lo, hi);
        report
            .counters
            .insert("region_writes", region_writes as u64);
        if region_writes == 0 {
            report
                .fail("no posted write ever landed in the ploc region — nothing was tested".into());
        }
    }
}
