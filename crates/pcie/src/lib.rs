//! PCI Express transport model.
//!
//! This crate models the pieces of the PCIe fabric that the ccNVMe paper's
//! argument rests on:
//!
//! * **MMIO** with CPU write-combining and the *persistent MMIO write*
//!   protocol of §4.3 — stores coalesce in the write-combining buffer,
//!   posted writes drain over the link asynchronously, and persistence is
//!   reached by a cache-line flush followed by a (zero-byte) read that
//!   exploits the PCIe rule that a read must not pass a posted write
//!   (PCIe 3.1a, Table 2-39).
//! * **DMA** transfers (queue entries and 4 KB data blocks) sharing link
//!   bandwidth with MMIO traffic.
//! * **Traffic accounting** — the MMIO / DMA(Q) / block-I/O / IRQ counters
//!   that Table 1 of the paper reports.
//! * **Crash semantics** — posted writes arrive in FIFO order, so the
//!   device state after a power cut is the committed bytes plus a *prefix*
//!   of the in-flight writes. The crash-consistency harness exploits this
//!   to enumerate crash states. Every PMR image — live, crashed, booted
//!   from or replayed — is one [`PmrImage`] of shared copy-on-write
//!   pages.
//!
//! All timing is in nanoseconds on the ambient `ccnvme_runtime` clock
//! (virtual under the simulator).

pub mod cost;
pub mod gate;
pub mod image;
pub mod link;
pub mod mmio;
pub mod traffic;

pub use gate::{BandwidthGate, ChannelBank};
pub use image::PmrImage;
pub use link::{DmaKind, PcieLink};
pub use mmio::{MmioEvent, MmioRegion};
pub use traffic::{TrafficCounters, TrafficSnapshot};
