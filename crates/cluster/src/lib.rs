//! Crash-tolerant sharded ccNVMe-oF cluster.
//!
//! The paper's `REQ_TX` gives single-target atomicity after two
//! persistent MMIOs (§4). This crate fans transactions across N fabric
//! targets — each its own simulated SSD, PMR, journal and recovery
//! domain — and makes a *cross-shard* commit exactly as crash-tolerant,
//! by building two-phase commit out of nothing but atomic persists on
//! one domain each: ordinary single-shard ccNVMe transactions, and one
//! sealed PMR line per verdict:
//!
//! * **Prepare** (`TX_PREPARE`) — the participant durably stages the
//!   transaction's member writes in an *intent slot* of its block
//!   window, as one local transaction acked only once its bios
//!   complete (crash-atomicity holds earlier, at the ccNVMe atomicity
//!   point; the completion wait is what lets an injected media error
//!   surface in the ack instead of silently diverging node state from
//!   the media). From that ack on, the shard can redo the writes
//!   after any crash, whichever way the decision goes.
//! * **Verdict** (`TX_VERDICT`) — the coordinator records the decision
//!   as one sealed 64 B line of its *decision log* in the PMR
//!   application region, posted and flushed: no block I/O.
//!   Get-or-set: a decision already durable wins over any retry, so
//!   the decision for a gtx is written at most once, ever. Recovery's
//!   inquiry about an in-doubt gtx is a verdict that proposes abort:
//!   absence is *presumed abort*, recorded durably before the answer,
//!   so a late commit verdict loses to the inquiry instead of racing it.
//! * **Decide** (`TX_DECIDE`) — the participant applies the staged
//!   writes to their final LBAs *and* frees the intent header in one
//!   local transaction (crash-atomic, so "applied" and "no longer
//!   in-doubt" are the same event), or just frees it on abort.
//!
//! The participants of one step are independent domains, so the client
//! sends a step's capsule to all of them before it waits for any answer:
//! a cross-shard commit is three dependent round trips (prepare,
//! verdict, decide), not one per participant per phase. Gtx ids come
//! from the coordinator in leases of [`GTX_LEASE`].
//!
//! A transaction touching a single shard has nothing to agree on and
//! skips all three steps: its one capsule (`TX_COMMIT`) is one local
//! ccNVMe transaction writing the blocks to their home LBAs, acked once
//! durable. A crash before the ack leaves it all there or not at all,
//! and no intent slot is written, so nothing is ever in doubt.
//!
//! Exactly-once layering: the fabric session replay cache (PR 5)
//! absorbs *transport* retries of these capsules; the gtx-level
//! idempotency above (no-op decides, get-or-set verdicts, resolve
//! before redecide) absorbs *client restarts*, which arrive on fresh
//! sessions the replay cache has never seen.

#![warn(missing_docs)]

pub mod client;
pub mod hash;
pub mod layout;
pub mod node;

pub use client::{ClusterCfg, ClusterClient, ClusterError};
pub use hash::HashRing;
pub use layout::ShardLayout;
pub use node::{resolve_in_doubt_local, ClusterNode, NodeStats, GTX_LEASE};
