//! A simulated NVMe solid-state drive.
//!
//! The controller implements the NVMe data-dissemination mechanism of §2
//! of the paper: per-core submission queues with doorbells, command fetch
//! over DMA (or directly from the Persistent Memory Region), data
//! transfer, completion posting and MSI-X interrupts — all with explicit
//! virtual-time costs and PCIe traffic accounting.
//!
//! Three device profiles reproduce Table 3 (Intel 750, Optane 905P,
//! Optane DC P5800X), including their bandwidth/IOPS envelopes, latencies
//! and write-cache behaviour. Power loss can be injected at any instant;
//! the surviving state (durable blocks + the PMR image with PCIe
//! posted-write prefix semantics) can be carried into a fresh controller
//! to model a reboot.

pub mod command;
pub mod controller;
pub mod hostmem;
pub mod persist;
pub mod profile;
pub mod store;

pub use command::{CompletionEntry, NvmeCommand, Opcode, Status, StatusCodeType, TxFlags};
pub use controller::{CrashMode, CtrlConfig, DurableImage, NvmeController, QueueParams, SqBacking};
pub use hostmem::{DataBuf, HostBuf, HostMemory};
pub use persist::{
    PersistCursor, PersistEventKind, PersistLog, QueueWindow, SanitizerGeometry, SanitizerViolation,
};
pub use profile::SsdProfile;
pub use store::{BlockStore, CacheSurvival, MediaBlock, BLOCK_SIZE};
