//! The transport abstraction and the deterministic loopback transport.
//!
//! A [`Transport`] moves opaque capsule frames between an initiator and
//! the target; a [`Connector`] dials (and re-dials) connections. The
//! loopback transport runs entirely inside the simulator — frames ride
//! sim channels with a modeled propagation delay — and consults the
//! fault injector's transport rules on every send, so drop / duplicate /
//! reorder / partition schedules replay deterministically.

use std::collections::HashMap;
use std::sync::Arc;

use ccnvme_fault::{FaultInjector, NetDir, NetFaultKind, NetOp};
use ccnvme_runtime::{Ns, Receiver, Sender};
use parking_lot::Mutex;

use crate::error::FabricError;

/// One-way propagation delay of the loopback "wire": a fast local
/// fabric hop (RDMA-class). Round trip adds ~2× this to every ack.
pub const LOOPBACK_HOP_NS: Ns = 3_000;

/// Moves capsule frames over one connection.
///
/// Implementations define their own time base: the loopback transport
/// blocks in *virtual* time, the TCP transport in real time. Callers
/// pass timeouts in nanoseconds of whichever base the transport uses.
pub trait Transport: Send {
    /// Sends one capsule frame. `Ok` means handed to the wire — not
    /// delivered; a lost frame surfaces as a receive timeout later.
    fn send(&mut self, frame: &[u8]) -> Result<(), FabricError>;

    /// Receives the next capsule frame, waiting at most `timeout_ns`.
    fn recv(&mut self, timeout_ns: Ns) -> Result<Vec<u8>, FabricError>;

    /// Tears the connection down (idempotent).
    fn close(&mut self);
}

/// Dials connections to a target; owns the transport-appropriate way to
/// wait between reconnect attempts.
pub trait Connector: Send {
    /// Opens a fresh connection.
    fn connect(&mut self) -> Result<Box<dyn Transport>, FabricError>;

    /// Sleeps `ns` in the transport's time base (virtual for loopback,
    /// real for TCP) before a retry.
    fn backoff(&self, ns: Ns);
}

/// Severed-connection bookkeeping shared by a target and its loopback
/// connectors: a partitioned client stays unreachable until its heal
/// instant passes.
#[derive(Debug, Default)]
pub struct PartitionMap {
    heal_at: Mutex<HashMap<u64, Ns>>,
}

impl PartitionMap {
    /// Records that `client` is partitioned until `until`.
    pub fn cut(&self, client: u64, until: Ns) {
        let mut m = self.heal_at.lock();
        let e = m.entry(client).or_insert(0);
        *e = (*e).max(until);
    }

    /// Returns the heal instant if `client` is still unreachable at
    /// `now`.
    pub fn blocked(&self, client: u64, now: Ns) -> Option<Ns> {
        let m = self.heal_at.lock();
        m.get(&client).copied().filter(|&until| now < until)
    }

    /// Lifts `client`'s partition immediately, whatever its heal
    /// instant was.
    pub fn clear(&self, client: u64) {
        self.heal_at.lock().remove(&client);
    }
}

pub(crate) enum Payload {
    Data(Vec<u8>),
    Hangup,
}

pub(crate) struct Wire {
    sent_at: Ns,
    payload: Payload,
}

/// One endpoint of a simulated fabric connection. Symmetric: the
/// initiator holds one with `side = ToTarget`, the target's connection
/// handler holds the mirror with `side = ToClient`. Fault decisions are
/// made on the sending side, once per frame.
pub struct LoopbackTransport {
    side: NetDir,
    conn: u64,
    /// Shard label of the target this connection is bound to, threaded
    /// into every [`NetOp`] so shard-scoped fault rules can tell the
    /// cluster's targets apart.
    shard: Option<u64>,
    tx: Sender<Wire>,
    rx: Receiver<Wire>,
    injector: Option<Arc<FaultInjector>>,
    partitions: Arc<PartitionMap>,
    /// A frame held back by a reorder injection; delivered after the
    /// next frame (or dropped with the connection).
    hold: Option<Vec<u8>>,
    dead: bool,
}

impl LoopbackTransport {
    /// Builds the two endpoints of one connection.
    pub(crate) fn pair(
        conn: u64,
        shard: Option<u64>,
        injector: Option<Arc<FaultInjector>>,
        partitions: Arc<PartitionMap>,
    ) -> (LoopbackTransport, LoopbackTransport) {
        let (c2t_tx, c2t_rx) = ccnvme_runtime::mpsc_channel(None);
        let (t2c_tx, t2c_rx) = ccnvme_runtime::mpsc_channel(None);
        let client = LoopbackTransport {
            side: NetDir::ToTarget,
            conn,
            shard,
            tx: c2t_tx,
            rx: t2c_rx,
            injector: injector.clone(),
            partitions: Arc::clone(&partitions),
            hold: None,
            dead: false,
        };
        let server = LoopbackTransport {
            side: NetDir::ToClient,
            conn,
            shard,
            tx: t2c_tx,
            rx: c2t_rx,
            injector,
            partitions,
            hold: None,
            dead: false,
        };
        (client, server)
    }

    fn ship(&mut self, frame: Vec<u8>) -> Result<(), FabricError> {
        let wire = Wire {
            sent_at: ccnvme_runtime::now(),
            payload: Payload::Data(frame),
        };
        if self.tx.send(wire).is_err() {
            self.dead = true;
            return Err(FabricError::Disconnected);
        }
        Ok(())
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), FabricError> {
        if self.dead {
            return Err(FabricError::Disconnected);
        }
        let decision = self.injector.as_ref().and_then(|inj| {
            inj.decide_net(&NetOp {
                dir: self.side,
                conn: self.conn,
                shard: self.shard,
                now: ccnvme_runtime::now(),
            })
        });
        match decision.map(|d| (d.kind, d.heal_ns)) {
            // Lost on the wire; the peer's timeout path recovers.
            Some((NetFaultKind::Drop, _)) => Ok(()),
            // One-way black hole: the frame vanishes but the connection
            // stays up — the opposite direction keeps delivering, so the
            // peer sees silence, not a hangup.
            Some((NetFaultKind::AsymPartition, _)) => Ok(()),
            Some((NetFaultKind::Duplicate, _)) => {
                self.ship(frame.to_vec())?;
                self.ship(frame.to_vec())?;
                if let Some(h) = self.hold.take() {
                    self.ship(h)?;
                }
                Ok(())
            }
            // Held back; delivered after the next frame. If no further
            // frame is ever sent the hold degenerates to a drop, which
            // the timeout path also recovers from.
            Some((NetFaultKind::Reorder, _)) => {
                if self.hold.is_none() {
                    self.hold = Some(frame.to_vec());
                    Ok(())
                } else {
                    self.ship(frame.to_vec())
                }
            }
            Some((NetFaultKind::Partition, heal_ns)) => {
                let now = ccnvme_runtime::now();
                self.partitions.cut(self.conn, now + heal_ns);
                let _ = self.tx.send(Wire {
                    sent_at: now,
                    payload: Payload::Hangup,
                });
                self.dead = true;
                // The triggering frame is lost in the cut.
                Ok(())
            }
            None => {
                self.ship(frame.to_vec())?;
                if let Some(h) = self.hold.take() {
                    self.ship(h)?;
                }
                Ok(())
            }
        }
    }

    fn recv(&mut self, timeout_ns: Ns) -> Result<Vec<u8>, FabricError> {
        if self.dead {
            return Err(FabricError::Disconnected);
        }
        let t0 = ccnvme_runtime::now();
        match self.rx.recv_timeout(timeout_ns) {
            Some(Wire { sent_at, payload }) => match payload {
                Payload::Data(frame) => {
                    // Model the propagation delay on the receive side so
                    // the sender never blocks on the wire.
                    let now = ccnvme_runtime::now();
                    let arrives = sent_at + LOOPBACK_HOP_NS;
                    if arrives > now {
                        ccnvme_runtime::delay(arrives - now);
                    }
                    Ok(frame)
                }
                Payload::Hangup => {
                    self.dead = true;
                    Err(FabricError::Disconnected)
                }
            },
            // `None` covers both an expired timeout and a dropped peer
            // endpoint. Distinguish them by elapsed virtual time: the
            // channel reports sender-gone *immediately*, so an early
            // return is a hangup (the peer was dropped without `close`,
            // like a process death resetting a TCP connection). Mapping
            // it to `Timeout` instead would make the handler's poll
            // loop spin without advancing virtual time — a livelock.
            None => {
                if ccnvme_runtime::now().saturating_sub(t0) < timeout_ns {
                    self.dead = true;
                    Err(FabricError::Disconnected)
                } else {
                    Err(FabricError::Timeout)
                }
            }
        }
    }

    fn close(&mut self) {
        if !self.dead {
            let _ = self.tx.send(Wire {
                sent_at: ccnvme_runtime::now(),
                payload: Payload::Hangup,
            });
            self.dead = true;
        }
    }
}
