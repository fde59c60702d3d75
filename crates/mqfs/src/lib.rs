//! MQFS: the multi-queue file system (§5 of the ccNVMe paper), plus the
//! comparison variants the evaluation uses — Ext4 (JBD2-style), Ext4-NJ
//! (no journal) and HoraeFS — all on one code base and one on-disk
//! format, differing only in journaling engine, driver features used and
//! metadata-locking discipline:
//!
//! | Variant | Journal | Driver | Shared-metadata handling |
//! |---|---|---|---|
//! | `Mqfs` | multi-queue, app context | ccNVMe | shadow paging (§5.3) |
//! | `MqfsNoShadow` | multi-queue | ccNVMe | page locks (Fig. 13 ablation) |
//! | `Ext4CcNvme` | classic thread, ccNVMe-tx commit | ccNVMe | page locks (Fig. 13 "+ccNVMe") |
//! | `HoraeFs` | classic thread, no ordering points | NVMe | page locks |
//! | `Ext4` | classic thread, FLUSH + commit record | NVMe | page locks |
//! | `Ext4NoJournal` | none | NVMe | page locks |
//!
//! The public API mirrors the syscalls the paper discusses: `create`,
//! `write`, `read`, `unlink`, `rename`, `mkdir`, `fsync`, `fdatasync` and
//! the new atomicity primitives `fatomic` / `fdataatomic` (§5.1).

pub mod alloc;
pub mod buffer;
pub mod dir;
pub mod error;
pub mod fs;
pub mod inode;
pub mod layout;

pub use error::{FsError, FsResult};
pub use fs::{FileSystem, FsConfig, FsVariant};
pub use inode::InodeKind;
pub use layout::{Layout, ROOT_INO};
