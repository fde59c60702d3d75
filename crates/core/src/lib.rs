//! ccNVMe: crash consistent Non-Volatile Memory Express.
//!
//! This crate is the reproduction of the paper's core contribution: an
//! NVMe host driver extension that couples crash consistency to the data
//! dissemination mechanism (§4). It contains:
//!
//! * [`NvmeDriver`] — the **baseline** NVMe driver: per-core submission
//!   queues in host memory, eager per-request doorbells, classic
//!   `PREFLUSH`/`FUA` barrier handling. This is the substrate for the
//!   Ext4/HoraeFS/Ext4-NJ comparison systems.
//! * [`CcNvmeDriver`] — the **ccNVMe** driver: persistent submission
//!   queues (P-SQ) and doorbells (P-SQDB) in the device's PMR, persistent
//!   MMIO writes, *transaction-aware MMIO and doorbell* (one flush + one
//!   doorbell per transaction, §4.3), in-order transaction completion via
//!   chained completion doorbells (§4.4), and atomicity decoupled from
//!   durability: a transaction is crash-atomic the moment `submit_bio`
//!   returns for its `REQ_TX_COMMIT` bio.
//! * [`recovery`] — the crash-recovery scan: after power restore, the
//!   entries between P-SQ-head and P-SQDB are the unfinished
//!   transactions, handed to the upper layer (§4.4, §5.5).
//!
//! The drivers differ in their queue state machine only; what a host
//! queue does under either protocol — command building, the error
//! ladder and its daemons, tracing — is one private module, `hostq`.
//!
//! Both drivers implement [`ccnvme_block::BlockDevice`], so file systems
//! are agnostic to which one they run on — exactly the pluggability the
//! paper claims (§4.5: tag bios with `REQ_TX`/`REQ_TX_COMMIT` and a
//! transaction ID; everything else is unchanged).

pub mod ccdriver;
pub mod driver;
pub mod errpolicy;
pub mod forensics;
mod hostq;
pub mod layout;
pub mod recovery;

pub use ccdriver::CcNvmeDriver;
pub use driver::NvmeDriver;
pub use errpolicy::{ErrPolicy, HostErrStats};
pub use forensics::{cross_check, image_forensics, ImageForensics};
pub use layout::PmrLayout;
pub use recovery::{RecoveredRequest, RecoveredTx, RecoveryReport};

/// Default capacity of the simulated namespace, in 4 KB blocks (16 GiB).
pub const DEFAULT_CAPACITY_BLOCKS: u64 = 4 << 20;

/// Default hardware queue depth.
pub const QUEUE_DEPTH: u32 = 256;

/// CPU cost of carrying one bio through the block layer and driver
/// submission path (request allocation, mapping, command build). The
/// paper's Figure 14 measures >1 µs per request through Linux's stack;
/// ours is leaner but of the same order.
pub const SUBMIT_CPU: ccnvme_runtime::Ns = 600;
