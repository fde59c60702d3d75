//! The fabric target: sessions and capsule execution.
//!
//! A target serves one [`Backend`] — a mounted MQFS file system
//! (syscall surface), a ploc service (detectable data structures) or a
//! cluster node (transactions: one-phase and two-phase commit). Each
//! accepted connection gets a handler daemon pinned to core
//! `first_core + conn % cores`; everything the handler submits
//! therefore rides that core's ccNVMe hardware queue, preserving the
//! paper's per-core queue affinity across the network hop.
//!
//! Exactly-once: a session (keyed by the client's stable id, surviving
//! reconnects) processes capsules in strictly increasing command-id
//! order, stashing early arrivals and answering retransmitted cids from
//! a bounded response cache. That cache is the one place a retransmit's
//! outcome is decided; what a *restarted* client re-asks under a fresh
//! session is the backend's own idempotency (see [`ClusterBackend`]).

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ccnvme_fault::FaultInjector;
use ccnvme_obs::{Counter, Obs};
use ccnvme_ploc::{PlocError, PlocService};
use ccnvme_runtime::{Ns, RtMutex};
use mqfs::FileSystem;
use parking_lot::Mutex;

use crate::capsule::{
    decode_request, encode_ploc_verdict, encode_response, Capsule, Request, Response, ShardWrite,
    Status, SyncKind,
};
use crate::error::FabricError;
use crate::transport::{Connector, LoopbackTransport, PartitionMap, Transport};

/// Default per-session credit window (unacked capsules the initiator
/// may keep in flight — the NVMe-oF SQHD role).
pub const DEFAULT_WINDOW: u32 = 16;

/// Response-cache entries kept per session, as a multiple of the
/// window. Retransmits can only reference cids inside the window, so
/// 2× leaves slack for duplicates racing the cache prune.
const CACHE_WINDOWS: usize = 2;

/// How long an idle connection handler waits per receive before
/// re-checking its wire (virtual ns for loopback handlers).
const SERVE_IDLE_NS: Ns = 10 * ccnvme_runtime::MS;

/// What a target serves.
#[derive(Clone)]
pub enum Backend {
    /// The MQFS syscall surface over a mounted file system.
    Fs(Arc<FileSystem>),
    /// Detectable lock-free data structures on the device's PMR
    /// (`crates/ploc`). The session's `client_id` doubles as the ploc
    /// client slot, so each remote client owns its own INTENT/RESULT
    /// checkpoint records.
    Ploc(Arc<PlocService>),
    /// A cluster node (`crates/cluster`): the 2PC participant /
    /// coordinator surface over the node's own ccNVMe device, driven by
    /// the `TX_COMMIT` (one participant) and `TX_PREPARE` / `TX_DECIDE`
    /// / `TX_VERDICT` (two-phase) capsules.
    Cluster(Arc<dyn ClusterBackend>),
}

/// The commit surface a cluster node exposes through a fabric target:
/// one-phase commit for a single participant, two-phase commit
/// otherwise. Implemented by `ccnvme-cluster`; defined here so the
/// target can dispatch cluster capsules without depending on that
/// crate.
///
/// Every mutating call is a commit point backed by one atomic persist on
/// the node's own device: a local ccNVMe transaction, or, for a verdict,
/// one sealed 64 B PMR line followed by a PMR flush. Every 2PC call is
/// idempotent at the global-transaction level — the cluster's
/// exactly-once story composes the session response cache (same client
/// retransmitting) with these semantics (a *restarted* client, under a
/// fresh session, re-asking about an old `gtx`).
pub trait ClusterBackend: Send + Sync {
    /// The node stack's observability hub.
    fn obs(&self) -> Arc<Obs>;

    /// Leases a run of fresh global transaction ids (coordinator role;
    /// served to clients through `AllocTx`, the run length in `aux`).
    /// Allocation is durable: every id of the run is below a persisted
    /// high-water mark before any is served, so a crashed and remounted
    /// coordinator never re-issues one. Raising the mark is itself a
    /// local transaction and can fail — hence the status.
    fn alloc_gtx(&self) -> (Status, Range<u64>);

    /// Phase 1: durably stage `writes` for `gtx` in an intent slot.
    /// The `Ok` ack means prepared — the shard can redo the writes
    /// after any crash. Re-preparing a known `gtx` is a no-op success.
    fn prepare(&self, gtx: u64, writes: &[ShardWrite]) -> Status;

    /// Phase 2: apply (`commit`) or discard the prepared intent.
    /// Unknown `gtx` is a no-op success (already applied, or never
    /// prepared and thus nothing to abort).
    fn decide(&self, gtx: u64, commit: bool) -> Status;

    /// One-phase commit for a transaction whose only participant is
    /// this node: `writes` land on their home LBAs as one local
    /// transaction. The `Ok` ack means durable; nothing is staged, so
    /// nothing can be left in doubt.
    fn commit_one(&self, gtx: u64, writes: &[ShardWrite]) -> Status;

    /// Record-or-fetch the coordinator decision for `gtx`. Returns the
    /// *final* decision word (1 = commit, 2 = abort): when a decision
    /// is already durable the recorded one wins over the request. A
    /// resolve inquiry for an in-doubt `gtx` is a verdict proposing
    /// abort: with no decision recorded it durably records the presumed
    /// abort before answering.
    fn verdict(&self, gtx: u64, commit: bool) -> (Status, u64);

    /// Read one block of the node's data window.
    fn read_block(&self, lba: u64) -> Result<Vec<u8>, Status>;
}

/// Target configuration.
#[derive(Clone)]
pub struct FabricConfig {
    /// Host cores available for connection handlers; loopback
    /// connection `n` is pinned to core `first_core + n % cores` (its
    /// hardware queue).
    pub cores: usize,
    /// The first of the target's `cores` handler cores. 0 unless the
    /// simulation gives each target cores of its own.
    pub first_core: usize,
    /// Per-session credit window.
    pub window: u32,
    /// Optional fault injector whose transport rules the loopback wires
    /// consult.
    pub injector: Option<Arc<FaultInjector>>,
    /// Shard label stamped on this target's connections so shard-scoped
    /// fault rules (and asymmetric partitions) can single it out of a
    /// cluster. `None` for standalone targets.
    pub shard_label: Option<u64>,
}

impl FabricConfig {
    /// Defaults for `cores` handler cores.
    pub fn new(cores: usize) -> Self {
        FabricConfig {
            cores: cores.max(1),
            first_core: 0,
            window: DEFAULT_WINDOW,
            injector: None,
            shard_label: None,
        }
    }
}

/// `fabric.*` counters, registered into the backend stack's metrics
/// registry so one snapshot covers device, file system and fabric.
#[derive(Debug)]
pub struct FabricStats {
    /// Capsules received by connection handlers.
    pub capsules: Arc<Counter>,
    /// Commit points executed: commit-like capsules (`FsSync`, the four
    /// `Tx*` commit and 2PC capsules, a mutating `PlocOp`) that ran
    /// against the backend and answered `Ok`. A failed one does not
    /// count, nor does one answered from the response cache — the
    /// exactly-once observable: retransmitted commits must not move it.
    pub commits: Arc<Counter>,
    /// Commit capsules answered from the response cache instead of
    /// re-executed.
    pub replayed_commits: Arc<Counter>,
    /// Sessions created.
    pub sessions: Arc<Counter>,
    /// Successful session resumptions (reconnect after a partition).
    pub reconnects: Arc<Counter>,
    /// Frames that failed to decode and were dropped.
    pub bad_frames: Arc<Counter>,
}

impl FabricStats {
    /// Creates the stat set registered under `fabric.*` in `obs`.
    pub fn registered(obs: &Obs) -> Arc<FabricStats> {
        let reg = &obs.metrics;
        Arc::new(FabricStats {
            capsules: reg.counter("fabric.capsules"),
            commits: reg.counter("fabric.commits"),
            replayed_commits: reg.counter("fabric.replayed_commits"),
            sessions: reg.counter("fabric.sessions"),
            reconnects: reg.counter("fabric.reconnects"),
            bad_frames: reg.counter("fabric.bad_frames"),
        })
    }
}

struct SessSt {
    /// Next cid the session will execute. Everything below is done
    /// (answerable from the response cache); everything above waits in
    /// the stash.
    expected_cid: u64,
    stash: BTreeMap<u64, Request>,
    resp_cache: BTreeMap<u64, Response>,
}

struct Session {
    /// The client's stable identity — for a ploc backend this is also
    /// the ploc client slot the session's detectable ops run under.
    client_id: u64,
    /// Serializes capsule execution across connections of the same
    /// client: after a partition, a handler for the new connection may
    /// start while the old handler is still finishing a durable commit;
    /// this lock makes the retransmitted commit wait and then hit the
    /// response cache instead of double-executing.
    exec: RtMutex<()>,
    st: Mutex<SessSt>,
}

impl Session {
    fn fresh(client_id: u64) -> Arc<Session> {
        Arc::new(Session {
            client_id,
            exec: RtMutex::new(()),
            st: Mutex::new(SessSt {
                expected_cid: 1,
                stash: BTreeMap::new(),
                resp_cache: BTreeMap::new(),
            }),
        })
    }
}

/// The fabric target.
pub struct FabricTarget {
    backend: Backend,
    cfg: FabricConfig,
    obs: Arc<Obs>,
    stats: Arc<FabricStats>,
    partitions: Arc<PartitionMap>,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_conn: AtomicU64,
}

impl FabricTarget {
    /// Builds a target over `backend`.
    pub fn new(backend: Backend, cfg: FabricConfig) -> Arc<FabricTarget> {
        let obs = match &backend {
            Backend::Fs(fs) => ccnvme_block::obs_of(fs.device().as_ref()),
            Backend::Ploc(svc) => svc.obs(),
            Backend::Cluster(node) => node.obs(),
        };
        let stats = FabricStats::registered(&obs);
        Arc::new(FabricTarget {
            backend,
            cfg,
            obs,
            stats,
            partitions: Arc::new(PartitionMap::default()),
            sessions: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        })
    }

    /// The target's `fabric.*` counters.
    pub fn stats(&self) -> Arc<FabricStats> {
        Arc::clone(&self.stats)
    }

    /// The observability hub the target registers into (the backend
    /// stack's hub).
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// The configured credit window.
    pub fn window(&self) -> u32 {
        self.cfg.window
    }

    /// The connection-id allocator, shared with alternate front ends
    /// (the TCP server) so loopback and TCP connections share one id
    /// space and queue placement rule.
    pub fn conn_seq(&self) -> &AtomicU64 {
        &self.next_conn
    }

    /// Opens a loopback connection for `client_id`, spawning the
    /// connection handler daemon on core `first_core + conn % cores`.
    /// Fails with [`FabricError::Unreachable`] while the client is
    /// partitioned.
    ///
    /// Must be called from a simulated thread.
    pub fn loopback_connect(
        self: &Arc<Self>,
        client_id: u64,
    ) -> Result<Box<dyn Transport>, FabricError> {
        if self
            .partitions
            .blocked(client_id, ccnvme_runtime::now())
            .is_some()
        {
            return Err(FabricError::Unreachable);
        }
        // ord: Relaxed — connection ids only need uniqueness; handler
        // placement tolerates any interleaving.
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let core = self.cfg.first_core + (conn as usize) % self.cfg.cores;
        let (client_side, mut server_side) = LoopbackTransport::pair(
            client_id,
            self.cfg.shard_label,
            self.cfg.injector.clone(),
            Arc::clone(&self.partitions),
        );
        let me = Arc::clone(self);
        ccnvme_runtime::spawn_daemon(&format!("fabric-conn{conn}"), core, move || {
            me.serve_conn(&mut server_side, core as u16);
        });
        Ok(Box::new(client_side))
    }

    /// Administratively partitions `client_id` from this target until
    /// `until`: new dials fail with [`FabricError::Unreachable`]. Live
    /// connections are not severed here — pair with
    /// [`FabricClient::sever`](crate::FabricClient::sever) to model the
    /// wire dying too (a dead target answers nothing either way).
    pub fn partition(&self, client_id: u64, until: Ns) {
        self.partitions.cut(client_id, until);
    }

    /// Lifts an administrative partition for `client_id`.
    pub fn heal(&self, client_id: u64) {
        self.partitions.clear(client_id);
    }

    /// A connector that re-dials loopback connections for `client_id`.
    pub fn loopback_connector(self: &Arc<Self>, client_id: u64) -> Box<dyn Connector> {
        Box::new(LoopbackConnector {
            target: Arc::clone(self),
            client_id,
        })
    }

    /// Serves one connection until its wire dies or the client says
    /// `Bye`. Public so the TCP front end can drive it with bridged
    /// transports; `qid` labels the connection's queue in metrics.
    pub fn serve_conn(self: &Arc<Self>, t: &mut dyn Transport, qid: u16) {
        let inflight = self.obs.metrics.gauge(&format!("fabric.q{qid}.inflight"));
        let mut session: Option<Arc<Session>> = None;
        'conn: loop {
            let bytes = match t.recv(SERVE_IDLE_NS) {
                Ok(b) => b,
                Err(FabricError::Timeout) => continue,
                Err(_) => break,
            };
            self.stats.capsules.inc();
            let req = match decode_request(&bytes) {
                Ok(r) => r,
                Err(_) => {
                    // Damaged frame: drop it; the initiator's timeout
                    // path retransmits an intact copy.
                    self.stats.bad_frames.inc();
                    continue;
                }
            };
            inflight.inc();
            let mut bye = false;
            let replies = match req.op {
                Capsule::Hello { client_id, resume } => {
                    let (sess, resp) = self.attach_session(client_id, resume);
                    session = Some(sess);
                    vec![encode_response(&resp)]
                }
                Capsule::Bye => {
                    bye = true;
                    vec![encode_response(&Response::status(req.cid, Status::Ok))]
                }
                _ => match &session {
                    Some(sess) => self.process(sess, req),
                    // Capsules before the handshake violate the
                    // protocol.
                    None => vec![encode_response(&Response::status(
                        req.cid,
                        Status::Protocol,
                    ))],
                },
            };
            inflight.dec();
            for frame in replies {
                if t.send(&frame).is_err() {
                    break 'conn;
                }
            }
            if bye {
                break;
            }
        }
        t.close();
    }

    fn attach_session(&self, client_id: u64, resume: bool) -> (Arc<Session>, Response) {
        let mut sessions = self.sessions.lock();
        let sess = match sessions.get(&client_id) {
            Some(existing) if resume => {
                self.stats.reconnects.inc();
                Arc::clone(existing)
            }
            _ => {
                self.stats.sessions.inc();
                let fresh = Session::fresh(client_id);
                sessions.insert(client_id, Arc::clone(&fresh));
                fresh
            }
        };
        let expected = sess.st.lock().expected_cid;
        let resp = Response {
            cid: 0,
            status: Status::Ok,
            val: self.cfg.window as u64,
            aux: expected,
            data: Vec::new(),
        };
        (sess, resp)
    }

    /// Runs one request through the session's in-order pipeline,
    /// returning every response that becomes ready (the request's own,
    /// plus any stashed successors it unblocks).
    fn process(&self, sess: &Arc<Session>, req: Request) -> Vec<Vec<u8>> {
        {
            let mut st = sess.st.lock();
            if req.cid > st.expected_cid {
                // Early arrival (reordered wire): wait for the gap. A
                // stash beyond any plausible window means the peer
                // ignores credits — drop the frame; it can retransmit.
                if st.stash.len() < CACHE_WINDOWS * 2 * self.cfg.window as usize {
                    st.stash.insert(req.cid, req);
                }
                return Vec::new();
            }
            if req.cid < st.expected_cid {
                if let Some(r) = st.resp_cache.get(&req.cid) {
                    if commit_like(&req.op) {
                        self.stats.replayed_commits.inc();
                    }
                    return vec![encode_response(r)];
                }
                // In flight on another connection of this client, or
                // pruned; the slow path below sorts it out.
            }
        }
        let mut out = Vec::new();
        let mut cur = req;
        loop {
            let resp = self.execute_serialized(sess, &cur);
            out.push(encode_response(&resp));
            let next = {
                let mut st = sess.st.lock();
                let want = st.expected_cid;
                st.stash.remove(&want)
            };
            match next {
                Some(n) => cur = n,
                None => break,
            }
        }
        out
    }

    /// Executes one capsule under the session's execution lock,
    /// re-checking the response cache after acquiring it — the
    /// double-execution guard for retransmits racing a still-running
    /// original on a dead connection.
    fn execute_serialized(&self, sess: &Arc<Session>, req: &Request) -> Response {
        let _exec = sess.exec.lock();
        {
            let mut st = sess.st.lock();
            if req.cid < st.expected_cid {
                if commit_like(&req.op) {
                    self.stats.replayed_commits.inc();
                }
                return match st.resp_cache.get(&req.cid) {
                    Some(r) => r.clone(),
                    None => Response::status(req.cid, Status::Protocol),
                };
            }
            debug_assert_eq!(req.cid, st.expected_cid, "in-order pipeline");
            st.expected_cid = req.cid + 1;
        }
        let resp = self.exec_op(sess, req);
        {
            let mut st = sess.st.lock();
            st.resp_cache.insert(req.cid, resp.clone());
            let cap = (CACHE_WINDOWS * self.cfg.window as usize).max(4);
            while st.resp_cache.len() > cap {
                st.resp_cache.pop_first();
            }
        }
        resp
    }

    /// Executes one capsule against the backend. `Metrics` is answered
    /// here for every backend; every other capsule goes to the one
    /// function that serves this backend. A commit-like capsule that
    /// executed and answered `Ok` counts in `fabric.commits`.
    fn exec_op(&self, sess: &Session, req: &Request) -> Response {
        // Adopt the capsule's trace context for the whole execution: every
        // Bio the backend builds on this thread inherits it, so the
        // initiator's trace id follows the request down to `MediaWrite`
        // and into the target's blackbox — across retransmits too, since
        // retransmitted frames carry the identical stamped context.
        let _trace = ccnvme_obs::ctx::scoped(req.ctx);
        let (cid, op) = (req.cid, &req.op);
        if let Capsule::Metrics = op {
            let json = self.obs.metrics.snapshot().to_json().into_bytes();
            return Response {
                data: json,
                ..Response::ok_val(cid, 0)
            };
        }
        let resp = match &self.backend {
            Backend::Fs(fs) => fs_op(fs, cid, op),
            Backend::Ploc(svc) => ploc_op(svc, sess.client_id, cid, op),
            Backend::Cluster(node) => cluster_op(node.as_ref(), cid, op),
        };
        if resp.status.is_ok() && commit_like(op) {
            self.stats.commits.inc();
        }
        resp
    }
}

/// The MQFS syscall surface.
fn fs_op(fs: &FileSystem, cid: u64, op: &Capsule) -> Response {
    let answer = match op {
        Capsule::FsResolve { path } => fs.resolve(path).map(|ino| Response::ok_val(cid, ino)),
        Capsule::FsCreate { path } => fs
            .resolve(path)
            .or_else(|_| fs.create_path(path))
            .map(|ino| Response::ok_val(cid, ino)),
        Capsule::FsWrite { ino, offset, data } => fs
            .write(*ino, *offset, data)
            .map(|()| Response::status(cid, Status::Ok)),
        Capsule::FsRead { ino, offset, len } => fs
            .read(*ino, *offset, *len as usize)
            .map(|data| Response::ok_data(cid, data)),
        Capsule::FsSync { ino, mode } => match mode {
            SyncKind::Fsync => fs.fsync(*ino),
            SyncKind::Fdatasync => fs.fdatasync(*ino),
            SyncKind::Fatomic => fs.fatomic(*ino),
            SyncKind::Fdataatomic => fs.fdataatomic(*ino),
        }
        .map(|()| Response::status(cid, Status::Ok)),
        Capsule::FsStat { ino } => Ok(Response::ok_val(cid, fs.stat(*ino).0)),
        _ => return Response::status(cid, Status::NotSupported),
    };
    answer.unwrap_or_else(|e| Response::status(cid, Status::Fs(e)))
}

/// The ploc surface. The session's `client_id` is the ploc client slot.
fn ploc_op(svc: &PlocService, client_id: u64, cid: u64, op: &Capsule) -> Response {
    let answer = match (op, u16::try_from(client_id)) {
        (Capsule::PlocOp { .. } | Capsule::PlocRecover, Err(_)) => {
            return Response::status(cid, Status::Protocol)
        }
        (Capsule::PlocOp { seq, op }, Ok(client)) => svc.op(client, *seq, *op).map(|result| {
            let (tag, payload) = result.to_wire();
            Response {
                aux: tag as u64,
                ..Response::ok_val(cid, payload)
            }
        }),
        (Capsule::PlocRecover, Ok(client)) => svc.recover(client).map(|verdict| {
            let (val, aux) = encode_ploc_verdict(verdict);
            Response {
                aux,
                ..Response::ok_val(cid, val)
            }
        }),
        _ => return Response::status(cid, Status::NotSupported),
    };
    match answer {
        Ok(resp) => resp,
        Err(PlocError::Unformatted) => Response::status(cid, Status::NotSupported),
        Err(PlocError::BadClient { .. } | PlocError::BadSeq { .. }) => {
            Response::status(cid, Status::Protocol)
        }
    }
}

/// A cluster node: gtx leases, the one-phase commit, the three 2PC
/// steps and block reads.
fn cluster_op(node: &dyn ClusterBackend, cid: u64, op: &Capsule) -> Response {
    match op {
        Capsule::AllocTx => match node.alloc_gtx() {
            (st, run) if st.is_ok() => Response {
                aux: run.end - run.start,
                ..Response::ok_val(cid, run.start)
            },
            (st, _) => Response::status(cid, st),
        },
        Capsule::TxCommit { tx_id, writes } => {
            Response::status(cid, node.commit_one(*tx_id, writes))
        }
        Capsule::TxPrepare { gtx, writes } => Response::status(cid, node.prepare(*gtx, writes)),
        Capsule::TxDecide { gtx, commit } => Response::status(cid, node.decide(*gtx, *commit)),
        Capsule::TxVerdict { gtx, commit } => {
            let (status, decision) = node.verdict(*gtx, *commit);
            Response {
                status,
                ..Response::ok_val(cid, decision)
            }
        }
        Capsule::BlkRead { lba } => match node.read_block(*lba) {
            Ok(data) => Response::ok_data(cid, data),
            Err(status) => Response::status(cid, status),
        },
        _ => Response::status(cid, Status::NotSupported),
    }
}

/// Whether `op` is a commit point: one that executed and answered `Ok`
/// counts in `fabric.commits`, one answered from the response cache in
/// `fabric.replayed_commits`.
fn commit_like(op: &Capsule) -> bool {
    match op {
        Capsule::FsSync { .. } => true,
        // Every mutating transaction capsule is a commit point on its
        // target's device: the one-phase commit, the intent, the
        // application and the verdict's sealed PMR line (a resolve
        // inquiry's presumed abort included).
        Capsule::TxCommit { .. }
        | Capsule::TxPrepare { .. }
        | Capsule::TxDecide { .. }
        | Capsule::TxVerdict { .. } => true,
        // A mutating ploc op commits at its RESULT flush; a replayed
        // one must count as a deduplicated commit, not a re-execution.
        Capsule::PlocOp { op, .. } => op.mutates(),
        _ => false,
    }
}

/// Re-dials loopback connections to one target for one client.
pub struct LoopbackConnector {
    target: Arc<FabricTarget>,
    client_id: u64,
}

impl Connector for LoopbackConnector {
    fn connect(&mut self) -> Result<Box<dyn Transport>, FabricError> {
        self.target.loopback_connect(self.client_id)
    }

    fn backoff(&self, ns: Ns) {
        ccnvme_runtime::delay(ns);
    }
}
