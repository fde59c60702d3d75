//! The fabric initiator: a client of one [`FabricTarget`] session.
//!
//! The client owns the reliability half of the protocol: it numbers
//! every capsule with a strictly increasing command id, keeps at most
//! `window` commands unacked (the credit window), and — when an ack
//! times out or the wire dies — re-dials through its [`Connector`] and
//! retransmits everything unacked in cid order (go-back-N). The
//! target's session layer deduplicates, so the client retries blindly
//! and still gets exactly-once commit semantics.
//!
//! This module makes no simulator calls of its own: all waiting happens
//! inside the transport (`recv` timeout) and connector (`backoff`), so
//! the same client drives both the loopback and TCP transports.
//!
//! [`FabricTarget`]: crate::FabricTarget

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use ccnvme_obs::{hash::fnv1a64, Counter, Registry};
use ccnvme_runtime::Ns;

use ccnvme_ploc::{OpResult, PlocOp, RecoverVerdict};

use crate::capsule::{
    decode_ploc_verdict, decode_response, encode_request, Capsule, Request, Response, ShardWrite,
    SyncKind,
};
use crate::error::FabricError;
use crate::transport::{Connector, Transport};

/// Client-side `fabric.*` counters.
#[derive(Debug)]
pub struct ClientStats {
    /// Times the client stalled waiting for credit (window full).
    pub credit_stalls: Arc<Counter>,
    /// Reconnect attempts after a timeout or severed wire.
    pub reconnects: Arc<Counter>,
}

impl ClientStats {
    /// Creates the stat set registered under `fabric.*` in `reg`.
    pub fn registered(reg: &Registry) -> Arc<ClientStats> {
        Arc::new(ClientStats {
            credit_stalls: reg.counter("fabric.credit_stalls"),
            reconnects: reg.counter("fabric.client_reconnects"),
        })
    }

    /// Creates an unregistered stat set (counts are still readable
    /// through the `Arc`s).
    pub fn detached() -> Arc<ClientStats> {
        Arc::new(ClientStats {
            credit_stalls: Arc::new(Counter::default()),
            reconnects: Arc::new(Counter::default()),
        })
    }
}

/// Client tuning knobs.
#[derive(Clone)]
pub struct ClientCfg {
    /// How long to wait for an ack before assuming the frame (or its
    /// ack) was lost and reconnecting.
    pub ack_timeout_ns: Ns,
    /// Pause between reconnect attempts.
    pub backoff_ns: Ns,
    /// Reconnect attempts per recovery episode before giving up with
    /// [`FabricError::Unreachable`].
    pub max_reconnects: u32,
    /// Where to count stalls and reconnects.
    pub stats: Arc<ClientStats>,
}

impl Default for ClientCfg {
    fn default() -> Self {
        ClientCfg {
            ack_timeout_ns: 50 * ccnvme_runtime::MS,
            backoff_ns: 100_000,
            max_reconnects: 50,
            stats: ClientStats::detached(),
        }
    }
}

/// A connected fabric client: one session on one target.
pub struct FabricClient {
    transport: Box<dyn Transport>,
    connector: Box<dyn Connector>,
    cfg: ClientCfg,
    client_id: u64,
    next_cid: u64,
    window: u32,
    /// Sent but unacked frames, by cid — the retransmit set.
    unacked: BTreeMap<u64, Vec<u8>>,
    /// Acks that arrived while we were waiting for a different cid.
    got: BTreeMap<u64, Response>,
    /// Last ploc operation sequence issued by the auto-seq helpers.
    /// Seed it from the target's verdict with [`Self::ploc_resume`]
    /// after a client restart.
    ploc_seq: u32,
}

impl FabricClient {
    /// Dials the target through `connector` and runs the `Hello`
    /// handshake. `client_id` must be stable across reconnects of this
    /// logical client — it names the session.
    pub fn connect(
        client_id: u64,
        mut connector: Box<dyn Connector>,
        cfg: ClientCfg,
    ) -> Result<FabricClient, FabricError> {
        let transport = connector.connect()?;
        let mut c = FabricClient {
            transport,
            connector,
            cfg,
            client_id,
            next_cid: 1,
            window: 1,
            unacked: BTreeMap::new(),
            got: BTreeMap::new(),
            ploc_seq: 0,
        };
        c.hello(false)?;
        Ok(c)
    }

    /// The session's stable client id.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// The credit window granted by the target.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Runs the cid-0 handshake on the current transport and adopts the
    /// granted window.
    fn hello(&mut self, resume: bool) -> Result<(), FabricError> {
        let frame = encode_request(&Request::new(
            0,
            Capsule::Hello {
                client_id: self.client_id,
                resume,
            },
        ));
        self.transport.send(&frame)?;
        let resp = loop {
            let bytes = self.transport.recv(self.cfg.ack_timeout_ns)?;
            let resp = decode_response(&bytes)?;
            if resp.cid == 0 {
                break resp;
            }
            // A stale ack from before the reconnect; bank it.
            self.unacked.remove(&resp.cid);
            self.got.insert(resp.cid, resp);
        };
        if !resp.status.is_ok() {
            return Err(FabricError::Protocol("hello rejected".into()));
        }
        self.window = (resp.val as u32).max(1);
        Ok(())
    }

    /// Puts a freshly dialled wire in place of the current one: the
    /// resume handshake, then every unacked frame again in cid order
    /// (go-back-N). `Ok(false)`: the handshake failed and the new wire
    /// is closed again; `Err`: the wire died during the resend.
    fn adopt(&mut self, transport: Box<dyn Transport>) -> Result<bool, FabricError> {
        self.transport = transport;
        if self.hello(true).is_err() {
            self.transport.close();
            return Ok(false);
        }
        for frame in self.unacked.values() {
            self.transport.send(frame)?;
        }
        Ok(true)
    }

    /// Tears the wire down, then re-dials until a new wire is adopted.
    fn reconnect(&mut self) -> Result<(), FabricError> {
        self.cfg.stats.reconnects.inc();
        self.transport.close();
        let mut attempts = 0;
        loop {
            if let Ok(t) = self.connector.connect() {
                match self.adopt(t) {
                    Ok(true) => return Ok(()),
                    // The fresh wire died already; go around again.
                    Err(_) => return self.reconnect(),
                    Ok(false) => {}
                }
            }
            attempts += 1;
            if attempts >= self.cfg.max_reconnects {
                return Err(FabricError::Unreachable);
            }
            self.connector.backoff(self.cfg.backoff_ns);
        }
    }

    /// One cheap connectivity check: a single dial with no backoff and
    /// no retries, so a dead target answers `false` in one refused
    /// connection instead of a full timeout/reconnect/backoff episode.
    /// On success the fresh wire is adopted and the next call runs on
    /// it; if it dies during the resend, the frames stay unacked and
    /// the next real call's reconnect retries them.
    pub fn probe(&mut self) -> bool {
        let Ok(t) = self.connector.connect() else {
            return false;
        };
        self.transport.close();
        matches!(self.adopt(t), Ok(true))
    }

    /// Pulls one ack off the wire and banks it. `Ok(false)` means the
    /// wait timed out without the wire dying.
    fn pump(&mut self) -> Result<bool, FabricError> {
        match self.transport.recv(self.cfg.ack_timeout_ns) {
            Ok(bytes) => {
                let resp = decode_response(&bytes)?;
                self.unacked.remove(&resp.cid);
                self.got.insert(resp.cid, resp);
                Ok(true)
            }
            Err(FabricError::Timeout) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Sends `op`, stalling for credit first if the window is full.
    /// Returns the assigned cid; pair with [`wait_for`](Self::wait_for)
    /// for the response. A capsule over a codec cap fails with
    /// [`FabricError::Codec`] before it takes a cid: the target would
    /// drop it undecoded, and the retransmits would wedge the session.
    pub fn submit(&mut self, op: Capsule) -> Result<u64, FabricError> {
        op.check_caps()?;
        while self.unacked.len() >= self.window as usize {
            self.cfg.stats.credit_stalls.inc();
            match self.pump() {
                Ok(true) => {}
                Ok(false) | Err(FabricError::Timeout) | Err(FabricError::Disconnected) => {
                    self.reconnect()?;
                }
                Err(e) => return Err(e),
            }
        }
        let cid = self.next_cid;
        self.next_cid += 1;
        // Stamp the request's trace context: deterministic in
        // (client_id, cid), so a retransmitted command — whose frame is
        // cached below, byte-identical — keeps the same trace id across
        // reconnects and target restarts. The stamped context also
        // becomes this thread's current context, so locally recorded
        // events of the round trip share the id.
        let ctx = ccnvme_obs::TraceCtx {
            trace_id: {
                let mut key = [0u8; 16];
                key[..8].copy_from_slice(&self.client_id.to_le_bytes());
                key[8..].copy_from_slice(&cid.to_le_bytes());
                fnv1a64(&key)
            },
            span: cid as u32,
            origin: self.client_id as u32,
        };
        ccnvme_obs::ctx::set_current(ctx);
        let frame = encode_request(&Request { cid, op, ctx });
        self.unacked.insert(cid, frame.clone());
        if self.transport.send(&frame).is_err() {
            self.reconnect()?;
        }
        Ok(cid)
    }

    /// Blocks until the ack for `cid` arrives, reconnecting and
    /// retransmitting through losses as needed.
    pub fn wait_for(&mut self, cid: u64) -> Result<Response, FabricError> {
        loop {
            if let Some(resp) = self.got.remove(&cid) {
                return Ok(resp);
            }
            match self.pump() {
                Ok(true) => {}
                Ok(false) | Err(FabricError::Timeout) | Err(FabricError::Disconnected) => {
                    self.reconnect()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Submits `op` and waits for its ack; a non-`Ok` status becomes
    /// [`FabricError::Remote`].
    pub fn call(&mut self, op: Capsule) -> Result<Response, FabricError> {
        let cid = self.submit(op)?;
        let resp = self.wait_for(cid)?;
        if resp.status.is_ok() {
            Ok(resp)
        } else {
            Err(FabricError::Remote(resp.status))
        }
    }

    // ---- transaction surface (cluster backend) ----

    /// Allocates a fresh remote transaction id.
    pub fn alloc_tx(&mut self) -> Result<u64, FabricError> {
        Ok(self.alloc_tx_run()?.start)
    }

    /// Allocates a run of fresh remote transaction ids: a coordinator's
    /// lease.
    pub fn alloc_tx_run(&mut self) -> Result<Range<u64>, FabricError> {
        let resp = self.call(Capsule::AllocTx)?;
        Ok(resp.val..resp.val + resp.aux.max(1))
    }

    /// Commits `writes` as one transaction `tx_id` (from
    /// [`alloc_tx`](Self::alloc_tx)) on this target, a cluster shard
    /// that is the transaction's only participant.
    /// The `Ok` ack means the writes are durable; without it the
    /// transaction is all there or not at all. At most
    /// [`MAX_PREPARE_WRITES`](crate::capsule::MAX_PREPARE_WRITES) writes.
    pub fn tx_commit(&mut self, tx_id: u64, writes: Vec<ShardWrite>) -> Result<(), FabricError> {
        self.call(Capsule::TxCommit { tx_id, writes }).map(|_| ())
    }

    // ---- 2PC surface (cluster backend) ----

    /// Phase 1: durably stage `writes` for global transaction `gtx` on
    /// this shard. The `Ok` ack means the shard is prepared.
    pub fn tx_prepare(&mut self, gtx: u64, writes: Vec<ShardWrite>) -> Result<(), FabricError> {
        self.call(Capsule::TxPrepare { gtx, writes }).map(|_| ())
    }

    /// Phase 2: apply or discard the prepared intent for `gtx`.
    pub fn tx_decide(&mut self, gtx: u64, commit: bool) -> Result<(), FabricError> {
        self.call(Capsule::TxDecide { gtx, commit }).map(|_| ())
    }

    /// Records the coordinator decision for `gtx`; returns the *final*
    /// decision (`true` = commit), which may differ from the request if
    /// a decision was already durable. With `commit = false` this is
    /// also the resolve inquiry: absence becomes a durable presumed
    /// abort.
    pub fn tx_verdict(&mut self, gtx: u64, commit: bool) -> Result<bool, FabricError> {
        let resp = self.call(Capsule::TxVerdict { gtx, commit })?;
        Ok(resp.val == 1)
    }

    /// Reads one block of the target's cluster data window.
    pub fn blk_read(&mut self, lba: u64) -> Result<Vec<u8>, FabricError> {
        Ok(self.call(Capsule::BlkRead { lba })?.data)
    }

    // ---- syscall surface (fs backend) ----

    /// Resolves `path` to an inode number.
    pub fn resolve(&mut self, path: &str) -> Result<u64, FabricError> {
        Ok(self
            .call(Capsule::FsResolve {
                path: path.to_string(),
            })?
            .val)
    }

    /// Resolves `path`, creating the file if it does not exist.
    pub fn create(&mut self, path: &str) -> Result<u64, FabricError> {
        Ok(self
            .call(Capsule::FsCreate {
                path: path.to_string(),
            })?
            .val)
    }

    /// Writes `data` at `offset` of inode `ino`.
    pub fn write(&mut self, ino: u64, offset: u64, data: &[u8]) -> Result<(), FabricError> {
        self.call(Capsule::FsWrite {
            ino,
            offset,
            data: data.to_vec(),
        })
        .map(|_| ())
    }

    /// Reads up to `len` bytes at `offset` of inode `ino`.
    pub fn read(&mut self, ino: u64, offset: u64, len: u32) -> Result<Vec<u8>, FabricError> {
        Ok(self.call(Capsule::FsRead { ino, offset, len })?.data)
    }

    /// Syncs inode `ino` with the given mode — the remote commit point
    /// of the syscall surface.
    pub fn sync(&mut self, ino: u64, mode: SyncKind) -> Result<(), FabricError> {
        self.call(Capsule::FsSync { ino, mode }).map(|_| ())
    }

    /// Returns the size of inode `ino`.
    pub fn stat(&mut self, ino: u64) -> Result<u64, FabricError> {
        Ok(self.call(Capsule::FsStat { ino })?.val)
    }

    // ---- detectable data-structure surface (ploc backend) ----

    /// Executes detectable ploc operation `op` under explicit sequence
    /// `seq`. Exactly-once: retransmits of the same `seq` are answered
    /// from the target's per-client result cache, and after a crash
    /// [`Self::ploc_recover`] reports what this `seq` did.
    pub fn ploc_op(&mut self, seq: u32, op: PlocOp) -> Result<OpResult, FabricError> {
        let resp = self.call(Capsule::PlocOp { seq, op })?;
        OpResult::from_wire(resp.aux as u8, resp.val)
            .ok_or_else(|| FabricError::Protocol("unparseable ploc result".into()))
    }

    /// Executes `op` under the next auto-assigned sequence. Call
    /// [`Self::ploc_resume`] first when re-attaching after a client
    /// restart, so the counter continues where the target left off.
    pub fn ploc_next(&mut self, op: PlocOp) -> Result<OpResult, FabricError> {
        let seq = self.ploc_seq + 1;
        let r = self.ploc_op(seq, op)?;
        self.ploc_seq = seq;
        Ok(r)
    }

    /// Asks the target what this client's last detectable operation
    /// did ([`ccnvme_ploc::PlocService::recover`]).
    pub fn ploc_recover(&mut self) -> Result<RecoverVerdict, FabricError> {
        let resp = self.call(Capsule::PlocRecover)?;
        decode_ploc_verdict(resp.val, resp.aux)
            .ok_or_else(|| FabricError::Protocol("unparseable ploc verdict".into()))
    }

    /// Recovers the client's verdict and seeds the auto-seq counter so
    /// [`Self::ploc_next`] resumes exactly where the target's durable
    /// state says this client stopped. Returns the verdict so the
    /// caller can learn the in-flight operation's definitive result.
    pub fn ploc_resume(&mut self) -> Result<RecoverVerdict, FabricError> {
        let verdict = self.ploc_recover()?;
        self.ploc_seq = verdict.next_seq() - 1;
        Ok(verdict)
    }

    /// Severs the current wire without notifying the session layer — a
    /// chaos hook simulating a mid-stream connection loss. The next
    /// operation rides the reconnect + retransmit path.
    pub fn sever(&mut self) {
        self.transport.close();
    }

    // ---- common ----

    /// Fetches the target's metrics snapshot as a JSON document.
    pub fn metrics_json(&mut self) -> Result<String, FabricError> {
        let resp = self.call(Capsule::Metrics)?;
        String::from_utf8(resp.data).map_err(|_| FabricError::Protocol("metrics not UTF-8".into()))
    }

    /// Ends the session politely. Errors are ignored — the target's
    /// idle path cleans up regardless.
    pub fn bye(mut self) {
        if let Ok(cid) = self.submit(Capsule::Bye) {
            let _ = self.wait_for(cid);
        }
        self.transport.close();
    }
}

/// Maps a remote status to `Result`, for callers that kept the raw
/// [`Response`].
pub fn check(resp: &Response) -> Result<(), FabricError> {
    if resp.status.is_ok() {
        Ok(())
    } else {
        Err(FabricError::Remote(resp.status))
    }
}
