//! The cluster initiator: consistent-hash routing, the two-phase commit
//! driver, and the per-shard retry/degradation ladder.
//!
//! One [`ClusterClient`] holds a fabric session per shard plus one to
//! the coordinator target. Transport-level loss is absorbed inside each
//! [`FabricClient`] (ack timeout → reconnect → replay); this layer only
//! sees [`FabricError::Unreachable`] after that ladder is exhausted, at
//! which point it retries a bounded number of times and then *degrades*
//! the shard. A call into a degraded shard's key range first probes the
//! wire with one cheap dial ([`FabricClient::probe`] — no backoff, no
//! timeout ladder): while the target stays dead the call fails fast
//! with [`ClusterError::ShardDown`] at the cost of a refused
//! connection, while every other shard keeps serving; once the target
//! answers the dial, the call proceeds normally and its success heals
//! the shard. The degraded count is exported as the
//! `cluster.degraded_shards` gauge.

use std::collections::HashSet;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use ccnvme_fabric::initiator::check;
use ccnvme_fabric::{Capsule, ClientCfg, Connector, FabricClient, FabricError, ShardWrite};
use ccnvme_obs::{Gauge, Registry};

use crate::hash::HashRing;

/// Cluster-level failures, one step above [`FabricError`].
#[derive(Debug)]
pub enum ClusterError {
    /// A participant shard stayed unreachable through the retry ladder;
    /// only its key range is affected.
    ShardDown {
        /// The shard that is down.
        shard: usize,
        /// The terminal fabric error.
        err: FabricError,
    },
    /// The coordinator target stayed unreachable.
    CoordinatorDown(FabricError),
    /// The commit reached the verdict step but the coordinator's answer
    /// was lost: the outcome is decided on media but unknown here.
    /// Resolve with [`ClusterClient::resolve_gtx`] once the coordinator
    /// is back.
    InDoubt {
        /// The in-doubt global transaction.
        gtx: u64,
    },
    /// A non-availability fabric failure (protocol error, remote
    /// status).
    Fabric(FabricError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::ShardDown { shard, err } => write!(f, "shard {shard} down: {err}"),
            ClusterError::CoordinatorDown(err) => write!(f, "coordinator down: {err}"),
            ClusterError::InDoubt { gtx } => write!(f, "gtx {gtx} in doubt"),
            ClusterError::Fabric(err) => write!(f, "fabric: {err}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Full fabric-client recovery episodes per shard or coordinator
/// operation before the target is declared down. Each episode already
/// runs the session's own timeout/reconnect/backoff ladder.
const ATTEMPTS: u32 = 2;

/// Virtual nodes per shard on the hash ring.
const VNODES: usize = 16;

/// Cluster client tuning knobs.
#[derive(Clone, Default)]
pub struct ClusterCfg {
    /// Per-session fabric client configuration.
    pub client_cfg: ClientCfg,
}

/// A connected cluster initiator: N shard sessions, one coordinator
/// session, and a consistent-hash ring over the shards.
pub struct ClusterClient {
    shards: Vec<FabricClient>,
    coord: FabricClient,
    ring: HashRing,
    degraded: HashSet<usize>,
    degraded_gauge: Option<Arc<Gauge>>,
    /// Gtx ids leased from the coordinator and not yet handed out.
    lease: Range<u64>,
}

impl ClusterClient {
    /// Dials every shard and the coordinator. `client_id` names this
    /// logical client on every target (sessions are per-target, so one
    /// id is correct on all of them). Pass a registry to export
    /// `cluster.degraded_shards`.
    pub fn connect(
        client_id: u64,
        shard_connectors: Vec<Box<dyn Connector>>,
        coord_connector: Box<dyn Connector>,
        cfg: ClusterCfg,
        reg: Option<&Registry>,
    ) -> Result<ClusterClient, ClusterError> {
        let ring = HashRing::new(shard_connectors.len(), VNODES);
        let mut shards = Vec::with_capacity(shard_connectors.len());
        for (i, conn) in shard_connectors.into_iter().enumerate() {
            let c = FabricClient::connect(client_id, conn, cfg.client_cfg.clone())
                .map_err(|err| ClusterError::ShardDown { shard: i, err })?;
            shards.push(c);
        }
        let coord = FabricClient::connect(client_id, coord_connector, cfg.client_cfg.clone())
            .map_err(ClusterError::CoordinatorDown)?;
        Ok(ClusterClient {
            shards,
            coord,
            ring,
            degraded: HashSet::new(),
            degraded_gauge: reg.map(|r| r.gauge("cluster.degraded_shards")),
            lease: 0..0,
        })
    }

    /// The routing ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Routes a key to its owning shard.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.ring.shard_of(key)
    }

    /// Shards currently marked degraded.
    pub fn degraded_shards(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.degraded.iter().copied().collect();
        v.sort_unstable();
        v
    }

    fn set_degraded(&mut self, shard: usize, down: bool) {
        let changed = if down {
            self.degraded.insert(shard)
        } else {
            self.degraded.remove(&shard)
        };
        if changed {
            if let Some(g) = &self.degraded_gauge {
                g.set(self.degraded.len() as i64);
            }
        }
    }

    /// Runs `f` against shard `shard` with the retry ladder; marks the
    /// shard degraded on exhaustion and heals it on success. A degraded
    /// shard fails fast: one cheap dial decides between `ShardDown` now
    /// and proceeding on the freshly adopted wire.
    fn with_shard<T>(
        &mut self,
        shard: usize,
        mut f: impl FnMut(&mut FabricClient) -> Result<T, FabricError>,
    ) -> Result<T, ClusterError> {
        if self.degraded.contains(&shard) && !self.shards[shard].probe() {
            return Err(ClusterError::ShardDown {
                shard,
                err: FabricError::Unreachable,
            });
        }
        let mut last = FabricError::Unreachable;
        for _ in 0..ATTEMPTS {
            match f(&mut self.shards[shard]) {
                Ok(v) => {
                    self.set_degraded(shard, false);
                    return Ok(v);
                }
                Err(err @ (FabricError::Remote(_) | FabricError::Codec(_))) => {
                    // A real answer (or a broken one) — not an
                    // availability problem, retrying won't change it.
                    return Err(ClusterError::Fabric(err));
                }
                Err(err) => last = err,
            }
        }
        self.set_degraded(shard, true);
        Err(ClusterError::ShardDown { shard, err: last })
    }

    /// Sends each `(shard, capsule)` step before waiting for any answer,
    /// so the participants of one 2PC phase work at once. A step whose
    /// submit or wait fails for availability — or whose shard is
    /// degraded — is retried through [`Self::with_shard`]'s ladder once
    /// every first attempt has been waited for. Returns each step's
    /// outcome, in order.
    fn fan_out(&mut self, steps: &[(usize, Capsule)]) -> Vec<Result<(), ClusterError>> {
        let sent: Vec<Result<u64, FabricError>> = steps
            .iter()
            .map(|(shard, op)| {
                if self.degraded.contains(shard) {
                    Err(FabricError::Unreachable)
                } else {
                    self.shards[*shard].submit(op.clone())
                }
            })
            .collect();
        let first: Vec<Result<(), FabricError>> = steps
            .iter()
            .zip(sent)
            .map(|((shard, _), cid)| {
                let resp = self.shards[*shard].wait_for(cid?)?;
                check(&resp)
            })
            .collect();
        steps
            .iter()
            .zip(first)
            .map(|((shard, op), res)| match res {
                Ok(()) => {
                    self.set_degraded(*shard, false);
                    Ok(())
                }
                Err(err @ (FabricError::Remote(_) | FabricError::Codec(_))) => {
                    Err(ClusterError::Fabric(err))
                }
                Err(_) => self.with_shard(*shard, |c| c.call(op.clone()).map(|_| ())),
            })
            .collect()
    }

    fn with_coord<T>(
        &mut self,
        mut f: impl FnMut(&mut FabricClient) -> Result<T, FabricError>,
    ) -> Result<T, ClusterError> {
        let mut last = FabricError::Unreachable;
        for _ in 0..ATTEMPTS {
            match f(&mut self.coord) {
                Ok(v) => return Ok(v),
                Err(err @ (FabricError::Remote(_) | FabricError::Codec(_))) => {
                    return Err(ClusterError::Fabric(err));
                }
                Err(err) => last = err,
            }
        }
        Err(ClusterError::CoordinatorDown(last))
    }

    /// Hands out a fresh global transaction id from this client's lease,
    /// asking the coordinator for a new lease when it runs out. Every id
    /// of a lease is below the coordinator's durable high-water mark, so
    /// ids stay crash-unique; a lease this client never finishes only
    /// burns ids.
    pub fn begin(&mut self) -> Result<u64, ClusterError> {
        if self.lease.is_empty() {
            self.lease = self.with_coord(|c| c.alloc_tx_run())?;
        }
        Ok(self.lease.next().expect("a fresh lease holds an id"))
    }

    /// Stages `writes` on `shard` under `gtx` (phase 1 on one shard).
    pub fn prepare_on(
        &mut self,
        shard: usize,
        gtx: u64,
        writes: Vec<ShardWrite>,
    ) -> Result<(), ClusterError> {
        self.with_shard(shard, |c| c.tx_prepare(gtx, writes.clone()))
    }

    /// Records the coordinator's decision; returns the *final* decision,
    /// which may differ from the request if one was already durable.
    pub fn verdict(&mut self, gtx: u64, commit: bool) -> Result<bool, ClusterError> {
        self.with_coord(|c| c.tx_verdict(gtx, commit))
    }

    /// Applies or discards a prepared transaction on one shard.
    pub fn decide_on(&mut self, shard: usize, gtx: u64, commit: bool) -> Result<(), ClusterError> {
        self.with_shard(shard, |c| c.tx_decide(gtx, commit))
    }

    /// Commits `gtx` across `by_shard` (shard index → member writes).
    /// Returns whether the transaction committed. `Ok(false)` means it
    /// aborted cleanly (a shard was down at prepare time); every other
    /// failure leaves crash recovery to finish the job. The contract:
    /// `Ok(true)` ⇒ the writes are visible on every participant; no
    /// `Ok(true)` ⇒ the transaction is all there or not at all.
    ///
    /// A single-shard transaction is one-phase: one `TX_COMMIT` capsule,
    /// one local ccNVMe transaction writing the blocks home. There is
    /// nothing to agree on, so the coordinator is never consulted and
    /// nothing is ever left in doubt.
    ///
    /// Otherwise the prepares go to every participant at once, then the
    /// verdict, then the decides, again at once: three dependent round
    /// trips, whatever the participant count.
    pub fn commit(
        &mut self,
        gtx: u64,
        by_shard: Vec<(usize, Vec<ShardWrite>)>,
    ) -> Result<bool, ClusterError> {
        if by_shard.is_empty() {
            return Ok(true);
        }
        if let [(shard, writes)] = &by_shard[..] {
            self.with_shard(*shard, |c| c.tx_commit(gtx, writes.clone()))?;
            return Ok(true);
        }
        let participants: Vec<usize> = by_shard.iter().map(|&(s, _)| s).collect();
        let prepares: Vec<(usize, Capsule)> = by_shard
            .into_iter()
            .map(|(shard, writes)| (shard, Capsule::TxPrepare { gtx, writes }))
            .collect();
        let outcomes = self.fan_out(&prepares);
        let prepared: Vec<usize> = participants
            .iter()
            .zip(&outcomes)
            .filter(|(_, res)| res.is_ok())
            .map(|(&s, _)| s)
            .collect();
        if let Some(err) = outcomes.into_iter().find_map(Result::err) {
            // Abort path, once every prepare has answered. Record the
            // abort verdict FIRST: once a prepare exists anywhere, a
            // crashed participant may later resolve this gtx, and it
            // must find abort — never a gap a retried commit could fill.
            let _ = self.verdict(gtx, false);
            self.decide_all(gtx, &prepared, false);
            return match err {
                ClusterError::ShardDown { .. } => Ok(false),
                other => Err(other),
            };
        }
        // All prepared: the verdict is the commit point.
        let decision = match self.verdict(gtx, true) {
            Ok(d) => d,
            Err(ClusterError::CoordinatorDown(_)) => return Err(ClusterError::InDoubt { gtx }),
            Err(other) => return Err(other),
        };
        self.decide_all(gtx, &participants, decision);
        Ok(decision)
    }

    /// Decides `gtx` on every shard in `shards` at once. Failures are
    /// tolerated: a down shard keeps its intent, and its recovery
    /// resolves the gtx against the durable verdict.
    fn decide_all(&mut self, gtx: u64, shards: &[usize], commit: bool) {
        let decides: Vec<(usize, Capsule)> = shards
            .iter()
            .map(|&s| (s, Capsule::TxDecide { gtx, commit }))
            .collect();
        let _ = self.fan_out(&decides);
    }

    /// Finishes an interrupted commit after a client restart: asks the
    /// coordinator for the durable decision with a verdict that proposes
    /// abort (recording presumed abort if none) and drives every
    /// participant to it. Returns the decision.
    pub fn resolve_gtx(&mut self, gtx: u64, participants: &[usize]) -> Result<bool, ClusterError> {
        let decision = self.verdict(gtx, false)?;
        self.decide_all(gtx, participants, decision);
        Ok(decision)
    }

    /// Reads one data block from a shard's window.
    pub fn get(&mut self, shard: usize, lba: u64) -> Result<Vec<u8>, ClusterError> {
        self.with_shard(shard, |c| c.blk_read(lba))
    }

    /// Severs the wire of one shard session (fault drills: the next
    /// call on that shard runs the reconnect ladder).
    pub fn sever_shard(&mut self, shard: usize) {
        self.shards[shard].sever();
    }

    /// Severs the coordinator session's wire.
    pub fn sever_coord(&mut self) {
        self.coord.sever();
    }

    /// Tears down every session politely.
    pub fn bye(self) {
        for c in self.shards {
            c.bye();
        }
        self.coord.bye();
    }
}
