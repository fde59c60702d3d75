//! ccNVMe over Fabrics: a target/initiator pair that extends the
//! paper's crash-consistency contract (§4: a transaction is
//! crash-consistent after two persistent MMIOs) across a network hop.
//!
//! The shape follows NVMe-oF: clients speak *capsules* over a
//! connection; each connection maps onto one fabric queue, which the
//! target pins to one host core — and therefore onto one ccNVMe
//! hardware queue — so the multi-queue scalability story survives the
//! wire. Three protocol problems are layered on top:
//!
//! * **Remote persistence** — one `TxCommit` capsule carries a whole
//!   transaction, which the target's cluster node submits as `REQ_TX`
//!   members and a `REQ_TX_COMMIT` write straight into the P-SQ from the
//!   connection's core, then waits for; a commit ack means "on media",
//!   and no ack means the transaction is all there or not at all.
//! * **Flow control** — a credit window per session (NVMe-oF SQHD
//!   style): the initiator keeps at most `window` commands unacked and
//!   stalls (counting `fabric.credit_stalls`) when credits run out, so
//!   overload degrades to backpressure instead of errors.
//! * **Exactly-once retransmission** — per-session strictly-increasing
//!   command ids and a response cache let a client that lost an ack to
//!   a partition retransmit blindly: re-executions are deduplicated and
//!   answered with the recorded outcome (`fabric.replayed_commits`).
//!
//! Two transports implement the same [`Transport`] trait: a
//! deterministic in-process loopback (runs in the simulator; the
//! crashtest campaigns drive it, with transport faults injected from a
//! [`ccnvme_fault::FaultPlan`]) and a real TCP transport (OS threads
//! bridge sockets into a simulation that hosts the target). See
//! `DESIGN.md` §12 for the capsule format and the session state
//! machine.

#![warn(missing_docs)]

pub mod capsule;
pub mod error;
pub mod initiator;
pub mod target;
pub mod tcp;
pub mod transport;

pub use capsule::{Capsule, PlocOpWire, Request, Response, ShardWrite, Status, SyncKind};
pub use error::{CodecError, FabricError};
pub use initiator::{ClientCfg, ClientStats, FabricClient};
pub use target::{
    Backend, ClusterBackend, FabricConfig, FabricStats, FabricTarget, LoopbackConnector,
};
pub use tcp::{TcpConnector, TcpFabricServer};
pub use transport::{Connector, Transport};
