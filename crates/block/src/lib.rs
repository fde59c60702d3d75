//! A minimal multi-queue block layer.
//!
//! This is the thin shim between file systems and the NVMe/ccNVMe driver,
//! mirroring the slice of the Linux block layer that the paper's systems
//! touch: a [`Bio`] describes one contiguous block request, carries the
//! classic barrier flags (`PREFLUSH`, `FUA`) and — following §4.5 of the
//! paper — the ccNVMe transaction attributes (`REQ_TX`,
//! `REQ_TX_COMMIT`) plus a transaction ID. Upper layers submit bios
//! through a [`BlockDevice`] and synchronize with a [`BioWaiter`].
//!
//! Request merging is not modeled: the paper's traffic analysis (§3)
//! assumes merging is disabled, and the workloads issue 4 KB-aligned
//! requests.

use std::collections::VecDeque;
#[cfg(not(feature = "loom"))]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ccnvme_runtime::{RtCondvar, RtMutex};
#[cfg(feature = "loom")]
use loom::sync::atomic::{AtomicUsize, Ordering};
use parking_lot::Mutex;

/// A read bio's destination buffer (one or more 4 KB blocks), filled in
/// by the device.
pub type BioBuf = Arc<Mutex<Vec<u8>>>;

/// An immutable, shared block buffer (one or more whole 4 KB blocks):
/// what a write bio carries. The simulated device keeps this very
/// allocation as the media content, so nothing between a writer's
/// snapshot and the store copies it; a writer that wants to change the
/// bytes again gets a private copy ([`BlockBuf::get_mut`] answers `None`
/// while anyone else holds it).
#[derive(Clone)]
pub struct BlockBuf(Arc<Vec<u8>>);

impl BlockBuf {
    /// Wraps `data` without copying it.
    pub fn new(data: Vec<u8>) -> BlockBuf {
        BlockBuf(Arc::new(data))
    }

    /// The bytes, writable in place when this is the only handle to
    /// them; `None` while they are shared (with a bio in flight, a
    /// journal image or the device's media).
    pub fn get_mut(&mut self) -> Option<&mut [u8]> {
        Arc::get_mut(&mut self.0).map(Vec::as_mut_slice)
    }

    /// The shared allocation itself, as a device keeps it.
    pub fn shared(&self) -> &Arc<Vec<u8>> {
        &self.0
    }
}

impl std::ops::Deref for BlockBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for BlockBuf {
    fn from(data: Vec<u8>) -> BlockBuf {
        BlockBuf::new(data)
    }
}

impl From<BioBuf> for BlockBuf {
    /// Takes the bytes out of a [`BioBuf`] nobody else holds, without
    /// copying them; a shared one is copied.
    fn from(buf: BioBuf) -> BlockBuf {
        let data = Arc::try_unwrap(buf).map_or_else(|b| b.lock().clone(), Mutex::into_inner);
        BlockBuf::new(data)
    }
}

impl std::fmt::Debug for BlockBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlockBuf({} B)", self.0.len())
    }
}

/// A bio's data.
pub enum BioData {
    /// A flush carries none.
    None,
    /// A write's source.
    Src(BlockBuf),
    /// A read's destination.
    Dst(BioBuf),
}

/// Blocks in a buffer of `len` bytes.
///
/// # Panics
///
/// Panics unless `len` is a nonzero multiple of [`BLOCK_SIZE`].
fn whole_blocks(len: usize) -> u16 {
    let len = len as u64;
    assert!(
        len > 0 && len.is_multiple_of(BLOCK_SIZE),
        "bio data must be whole blocks"
    );
    (len / BLOCK_SIZE) as u16
}

/// Logical block size of the stack.
pub const BLOCK_SIZE: u64 = 4096;

/// Bio operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BioOp {
    /// Read `nblocks` from `lba`.
    Read,
    /// Write `nblocks` at `lba`.
    Write,
    /// Stand-alone cache flush (no data).
    Flush,
}

/// Completion status of a bio.
///
/// The error variants preserve the NVMe status-code class so upper
/// layers can pick a recovery strategy: media errors and timeouts are
/// unrecoverable at the block layer (the journal aborts and the file
/// system degrades to read-only), while `Busy` only surfaces after the
/// driver has exhausted its transparent retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BioStatus {
    /// Success.
    Ok,
    /// The device rejected the request (malformed, internal error).
    Error,
    /// Unrecoverable media error (read or write fault, torn DMA).
    Media,
    /// The command timed out and was aborted by the driver's watchdog.
    Timeout,
    /// The device stayed busy past the driver's retry budget.
    Busy,
}

impl BioStatus {
    /// Whether the bio completed successfully.
    pub fn is_ok(self) -> bool {
        self == BioStatus::Ok
    }

    /// Whether the bio failed (any error variant).
    pub fn failed(self) -> bool {
        self != BioStatus::Ok
    }
}

/// Request flags, a subset of Linux `req_opf` modifiers plus the ccNVMe
/// transaction attributes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BioFlags {
    /// Issue a cache flush before the data write (classic commit-record
    /// ordering point).
    pub preflush: bool,
    /// Force unit access: the write bypasses the volatile cache.
    pub fua: bool,
    /// `REQ_TX`: the request belongs to a ccNVMe transaction.
    pub tx: bool,
    /// `REQ_TX_COMMIT`: the request commits its ccNVMe transaction.
    pub tx_commit: bool,
}

impl BioFlags {
    /// No flags.
    pub const NONE: BioFlags = BioFlags {
        preflush: false,
        fua: false,
        tx: false,
        tx_commit: false,
    };

    /// `REQ_TX` only.
    pub const TX: BioFlags = BioFlags {
        preflush: false,
        fua: false,
        tx: true,
        tx_commit: false,
    };

    /// `REQ_TX | REQ_TX_COMMIT`.
    pub const TX_COMMIT: BioFlags = BioFlags {
        preflush: false,
        fua: false,
        tx: true,
        tx_commit: true,
    };

    /// `PREFLUSH | FUA` (classic journal commit record).
    pub const PREFLUSH_FUA: BioFlags = BioFlags {
        preflush: true,
        fua: true,
        tx: false,
        tx_commit: false,
    };
}

/// What a bio's completion calls: a [`BioWaiter`]'s shared state, or any
/// `Fn(BioStatus)` closure.
pub trait EndIo: Send + Sync {
    /// Called once per bio it is attached to, with the bio's status.
    fn end_io(&self, status: BioStatus);
}

impl<F: Fn(BioStatus) + Send + Sync> EndIo for F {
    fn end_io(&self, status: BioStatus) {
        self(status)
    }
}

/// Completion callback, invoked exactly once per bio: one may be shared
/// by many bios (a [`BioWaiter`] attaches its one state to each).
pub type BioEndIo = Arc<dyn EndIo>;

/// One block I/O request.
pub struct Bio {
    /// Operation.
    pub op: BioOp,
    /// First logical block address.
    pub lba: u64,
    /// Length in blocks (0 for [`BioOp::Flush`]).
    pub nblocks: u16,
    /// Data buffer (`Write`: source, `Read`: destination). Holds
    /// exactly `nblocks * BLOCK_SIZE` bytes.
    pub data: BioData,
    /// Modifier flags.
    pub flags: BioFlags,
    /// ccNVMe transaction ID (meaningful when `flags.tx`).
    pub tx_id: u64,
    /// Trace context inherited from the submitting thread at
    /// construction, so the originating request's id follows the bio
    /// across the driver, the SQE and the device's media write.
    pub ctx: ccnvme_obs::TraceCtx,
    /// Completion callback.
    pub end_io: Option<BioEndIo>,
}

impl Bio {
    /// Creates a write bio over `data`.
    pub fn write(lba: u64, data: impl Into<BlockBuf>, flags: BioFlags) -> Bio {
        let data = data.into();
        Bio {
            op: BioOp::Write,
            lba,
            nblocks: whole_blocks(data.len()),
            data: BioData::Src(data),
            flags,
            tx_id: 0,
            ctx: ccnvme_obs::ctx::current(),
            end_io: None,
        }
    }

    /// Creates a read bio into `data`.
    pub fn read(lba: u64, data: BioBuf) -> Bio {
        let nblocks = whole_blocks(data.lock().len());
        Bio {
            op: BioOp::Read,
            lba,
            nblocks,
            data: BioData::Dst(data),
            flags: BioFlags::NONE,
            tx_id: 0,
            ctx: ccnvme_obs::ctx::current(),
            end_io: None,
        }
    }

    /// Creates a stand-alone flush bio.
    pub fn flush() -> Bio {
        Bio {
            op: BioOp::Flush,
            lba: 0,
            nblocks: 0,
            data: BioData::None,
            flags: BioFlags::NONE,
            tx_id: 0,
            ctx: ccnvme_obs::ctx::current(),
            end_io: None,
        }
    }

    /// Tags the bio with a transaction ID (builder style).
    pub fn with_tx_id(mut self, tx_id: u64) -> Bio {
        self.tx_id = tx_id;
        self
    }

    /// Transfer size in bytes.
    pub fn bytes(&self) -> u64 {
        self.nblocks as u64 * BLOCK_SIZE
    }

    /// Invokes the completion callback (driver side).
    pub fn complete(&mut self, status: BioStatus) {
        if let Some(f) = self.end_io.take() {
            f.end_io(status);
        }
    }
}

impl std::fmt::Debug for Bio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bio")
            .field("op", &self.op)
            .field("lba", &self.lba)
            .field("nblocks", &self.nblocks)
            .field("flags", &self.flags)
            .field("tx_id", &self.tx_id)
            .finish_non_exhaustive()
    }
}

/// A queue-aware block device (implemented by the NVMe/ccNVMe drivers).
pub trait BlockDevice: Send + Sync {
    /// Submits a bio from the current simulated thread. The driver picks
    /// the hardware queue from the caller's core, per the NVMe
    /// core-to-queue affinity model.
    fn submit_bio(&self, bio: Bio);

    /// Number of hardware queues.
    fn num_queues(&self) -> usize;

    /// Returns whether the device has a volatile write cache (i.e.
    /// whether `PREFLUSH`/`FUA` are meaningful barriers).
    fn has_volatile_cache(&self) -> bool;

    /// Capacity in blocks.
    fn capacity_blocks(&self) -> u64;

    /// The observability hub of the stack this device belongs to, if it
    /// has one. Drivers return their PCIe link's hub so journals and
    /// file systems register metrics into the same per-stack registry;
    /// synthetic test devices keep the default `None`.
    fn obs(&self) -> Option<std::sync::Arc<ccnvme_obs::Obs>> {
        None
    }
}

/// Returns `dev`'s observability hub, or a fresh detached one — so upper
/// layers can always register metrics without caring whether the device
/// is a real driver or a test stub.
pub fn obs_of(dev: &dyn BlockDevice) -> std::sync::Arc<ccnvme_obs::Obs> {
    dev.obs().unwrap_or_else(ccnvme_obs::Obs::new)
}

/// Waits for a group of bios to complete (in virtual time).
///
/// Attach to any number of bios before submission, then call
/// [`BioWaiter::wait`]; it returns once every attached bio completed,
/// with the typed status of the first one that failed. Waking from the
/// wait pays the context-switch plus interrupt-handler CPU cost on the
/// caller's core — the cost that ccNVMe's atomicity path avoids.
///
/// Pollers ([`BioWaiter::landed`], [`BioWaiter::outstanding`], and
/// [`BioWaiter::first_error`] while nothing failed) read one atomic
/// word and take no lock.
pub struct BioWaiter {
    inner: Arc<WaiterInner>,
}

/// The completion word's failed bit; the rest of the word counts
/// outstanding bios in units of [`ONE_BIO`].
const FAILED: usize = 1;
const ONE_BIO: usize = 2;

struct WaiterInner {
    /// `outstanding << 1 | failed`. A completion changes it while it
    /// holds `st`, so a `wait()` that checked it under `st` cannot miss
    /// the wake-up; the failed bit is set iff `st.first_error` is.
    state: AtomicUsize,
    st: RtMutex<WaitSt>,
    cv: RtCondvar,
}

struct WaitSt {
    irq_wakeups: usize,
    first_error: Option<BioStatus>,
}

impl EndIo for WaiterInner {
    fn end_io(&self, status: BioStatus) {
        let mut st = self.st.lock();
        st.irq_wakeups += 1;
        let mut delta = ONE_BIO;
        if status.failed() && st.first_error.is_none() {
            st.first_error = Some(status);
            // One decrement and the failed bit in one update: a poller
            // never sees the count drop with the bit clear.
            delta -= FAILED;
        }
        // ord: Release — pairs with the pollers' Acquire loads: one that
        // sees this bio done sees everything its completer did.
        let done = self.state.fetch_sub(delta, Ordering::Release) / ONE_BIO == 1;
        drop(st);
        if done {
            self.cv.notify_all();
        }
    }
}

impl BioWaiter {
    /// Creates a waiter with no attached bios.
    pub fn new() -> Self {
        BioWaiter {
            inner: Arc::new(WaiterInner {
                state: AtomicUsize::new(0),
                st: RtMutex::new(WaitSt {
                    irq_wakeups: 0,
                    first_error: None,
                }),
                cv: RtCondvar::new(),
            }),
        }
    }

    /// Attaches this waiter to `bio` as its completion callback.
    ///
    /// # Panics
    ///
    /// Panics if the bio already has a completion callback.
    pub fn attach(&self, bio: &mut Bio) {
        assert!(bio.end_io.is_none(), "bio already has an end_io callback");
        // ord: Relaxed — attaching comes before submitting the bio and
        // before sharing a handle, and both of those synchronize.
        self.inner.state.fetch_add(ONE_BIO, Ordering::Relaxed);
        bio.end_io = Some(Arc::clone(&self.inner) as BioEndIo);
    }

    /// Returns the number of bios not yet completed.
    pub fn outstanding(&self) -> usize {
        // ord: Acquire — pairs with the completion's Release.
        self.inner.state.load(Ordering::Acquire) / ONE_BIO
    }

    /// Whether every attached bio completed and none failed.
    pub fn landed(&self) -> bool {
        // ord: Acquire — pairs with the completion's Release.
        self.inner.state.load(Ordering::Acquire) == 0
    }

    /// The status of the first failed bio, if any completed with an
    /// error so far.
    pub fn first_error(&self) -> Option<BioStatus> {
        // ord: Acquire — pairs with the completion's Release, which it
        // made under `st`: seeing the bit, the lock finds the status.
        if self.inner.state.load(Ordering::Acquire) & FAILED == 0 {
            return None;
        }
        self.inner.st.lock().first_error
    }

    /// Returns another handle observing the same completion set (e.g. to
    /// let a checkpointer check whether a transaction's I/O finished).
    pub fn clone_handle(&self) -> BioWaiter {
        BioWaiter {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Blocks until every attached bio completes; `Ok` if none failed,
    /// else the status of the first that did.
    pub fn wait(&self) -> Result<(), BioStatus> {
        let mut blocked = false;
        let first_error;
        let wakeups;
        {
            let mut st = self.inner.st.lock();
            while self.outstanding() > 0 {
                blocked = true;
                st = self.inner.cv.wait(st);
            }
            first_error = st.first_error;
            wakeups = std::mem::take(&mut st.irq_wakeups);
        }
        if blocked {
            // The waiter was woken by the completion interrupt: charge
            // the context switch and the interrupt-handler work that the
            // paper's Table 1 and §7.4 attribute to block-I/O waiting.
            ccnvme_runtime::cpu(
                ccnvme_pcie::cost::CONTEXT_SWITCH
                    + ccnvme_pcie::cost::IRQ_HANDLER_CPU * wakeups.max(1) as u64,
            );
        }
        first_error.map_or(Ok(()), Err)
    }
}

impl Default for BioWaiter {
    fn default() -> Self {
        BioWaiter::new()
    }
}

/// Submits one bio and waits for it.
pub fn submit_and_wait(dev: &dyn BlockDevice, mut bio: Bio) -> Result<(), BioStatus> {
    let waiter = BioWaiter::new();
    waiter.attach(&mut bio);
    dev.submit_bio(bio);
    waiter.wait()
}

/// Reads the block at `lba` and waits for it.
pub fn read_block(dev: &dyn BlockDevice, lba: u64) -> Result<Vec<u8>, BioStatus> {
    let buf: BioBuf = Arc::new(Mutex::new(vec![0u8; BLOCK_SIZE as usize]));
    submit_and_wait(dev, Bio::read(lba, Arc::clone(&buf)))?;
    let data = buf.lock().clone();
    Ok(data)
}

/// Blocks per read command of [`read_run`]: 64 KB, below the 128 KB
/// maximum data transfer size common NVMe devices report, and the most
/// one failed command costs in single-block re-reads.
pub const RUN_CMD_BLOCKS: u16 = 16;

/// Read commands [`read_run`] keeps in flight at once. With
/// [`RUN_CMD_BLOCKS`] that bounds its buffers at 512 KB however long the
/// run, and it is more commands than the Optane profiles have read
/// channels (4 on the P5800X, 6 on the 905P), so none of them idles.
pub const RUN_IN_FLIGHT: usize = 8;

/// Reads the `len` blocks from `start` and hands each to `each` as
/// `(lba, bytes or status)`, once per block, in LBA order.
///
/// The run goes out as read commands of [`RUN_CMD_BLOCKS`] blocks, at
/// most [`RUN_IN_FLIGHT`] of them in flight. A command that fails is
/// read again one block at a time, so every block's outcome is exactly
/// what [`read_block`] of it gives: a media error on one LBA fails that
/// block alone.
pub fn read_run(
    dev: &dyn BlockDevice,
    start: u64,
    len: u64,
    mut each: impl FnMut(u64, Result<&[u8], BioStatus>),
) {
    let end = start + len;
    let mut next = start;
    let mut in_flight: VecDeque<(u64, BioBuf, BioWaiter)> = VecDeque::with_capacity(RUN_IN_FLIGHT);
    loop {
        while in_flight.len() < RUN_IN_FLIGHT && next < end {
            let n = (end - next).min(RUN_CMD_BLOCKS.into());
            let buf: BioBuf = Arc::new(Mutex::new(vec![0u8; (n * BLOCK_SIZE) as usize]));
            let waiter = BioWaiter::new();
            let mut bio = Bio::read(next, Arc::clone(&buf));
            waiter.attach(&mut bio);
            dev.submit_bio(bio);
            in_flight.push_back((next, buf, waiter));
            next += n;
        }
        let Some((lba, buf, waiter)) = in_flight.pop_front() else {
            return;
        };
        let landed = waiter.wait().is_ok();
        let data = std::mem::take(&mut *buf.lock());
        for (block, lba) in data.chunks(BLOCK_SIZE as usize).zip(lba..) {
            if landed {
                each(lba, Ok(block));
            } else {
                each(lba, read_block(dev, lba).as_deref().map_err(|&st| st));
            }
        }
    }
}

/// Reads each of `lbas` as its own one-block command, all in flight
/// together, and waits for every one: the blocks in `lbas` order when
/// none failed, else the status of the first that did.
pub fn read_blocks(
    dev: &dyn BlockDevice,
    lbas: impl IntoIterator<Item = u64>,
) -> Result<Vec<Vec<u8>>, BioStatus> {
    let waiter = BioWaiter::new();
    let bufs: Vec<BioBuf> = lbas
        .into_iter()
        .map(|lba| {
            let buf: BioBuf = Arc::new(Mutex::new(vec![0u8; BLOCK_SIZE as usize]));
            let mut bio = Bio::read(lba, Arc::clone(&buf));
            waiter.attach(&mut bio);
            dev.submit_bio(bio);
            buf
        })
        .collect();
    waiter.wait()?;
    Ok(bufs
        .iter()
        .map(|b| std::mem::take(&mut *b.lock()))
        .collect())
}

/// Writes each `(lba, buffer)` of `blocks` as a plain write, in order,
/// and waits for all of them; `Ok` when none failed, else the status of
/// the first that did.
pub fn write_blocks(
    dev: &dyn BlockDevice,
    blocks: impl IntoIterator<Item = (u64, BlockBuf)>,
) -> Result<(), BioStatus> {
    let waiter = BioWaiter::new();
    for (lba, buf) in blocks {
        let mut bio = Bio::write(lba, buf, BioFlags::NONE);
        waiter.attach(&mut bio);
        dev.submit_bio(bio);
    }
    waiter.wait()
}

/// Submits `writes` as one ccNVMe transaction `tx_id` and waits for it:
/// every write but the last goes out `REQ_TX`, the last `REQ_TX_COMMIT`,
/// in order, each zero-padded to whole blocks. The transaction is
/// crash-atomic once the commit is submitted (§4.3); the wait makes a
/// failed member visible in the returned status.
///
/// # Panics
///
/// Panics if `writes` is empty.
pub fn commit_tx(
    dev: &dyn BlockDevice,
    tx_id: u64,
    writes: Vec<(u64, Vec<u8>)>,
) -> Result<(), BioStatus> {
    assert!(!writes.is_empty(), "a transaction needs a commit write");
    let waiter = BioWaiter::new();
    let last = writes.len() - 1;
    for (i, (lba, mut data)) in writes.into_iter().enumerate() {
        let padded = data.len().div_ceil(BLOCK_SIZE as usize).max(1) * BLOCK_SIZE as usize;
        // Exactly: the device keeps this allocation as the media blocks.
        data.reserve_exact(padded - data.len());
        data.resize(padded, 0);
        let flags = if i == last {
            BioFlags::TX_COMMIT
        } else {
            BioFlags::TX
        };
        let mut bio = Bio::write(lba, data, flags).with_tx_id(tx_id);
        waiter.attach(&mut bio);
        dev.submit_bio(bio);
    }
    waiter.wait()
}

/// Drains the device's volatile write cache and waits for it; no I/O at
/// all when the device has none.
pub fn flush_cache(dev: &dyn BlockDevice) -> Result<(), BioStatus> {
    if !dev.has_volatile_cache() {
        return Ok(());
    }
    submit_and_wait(dev, Bio::flush())
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use ccnvme_sim::Sim;

    use super::*;

    #[test]
    fn write_bio_derives_block_count() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let data: BioBuf = Arc::new(Mutex::new(vec![0u8; 8192]));
            let bio = Bio::write(10, data, BioFlags::TX);
            assert_eq!(bio.nblocks, 2);
            assert_eq!(bio.bytes(), 8192);
        });
        sim.run();
    }

    #[test]
    fn a_unique_bio_buf_becomes_a_block_buf_without_a_copy() {
        let unique: BioBuf = Arc::new(Mutex::new(vec![7u8; 4096]));
        let at = unique.lock().as_ptr();
        let block = BlockBuf::from(unique);
        assert_eq!(block.as_ptr(), at, "the bytes moved, not copied");
        let shared: BioBuf = Arc::new(Mutex::new(vec![8u8; 4096]));
        let keep = Arc::clone(&shared);
        let copy = BlockBuf::from(shared);
        assert_ne!(copy.as_ptr(), keep.lock().as_ptr());
        assert_eq!(&copy[..], &keep.lock()[..]);
    }

    #[test]
    fn a_shared_block_buf_is_not_writable_in_place() {
        let mut a = BlockBuf::new(vec![1u8; 4096]);
        let b = a.clone();
        assert!(a.get_mut().is_none(), "shared with b");
        drop(b);
        a.get_mut().expect("the only handle")[0] = 2;
        assert_eq!(a[0], 2);
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn partial_block_data_rejected() {
        let data: BioBuf = Arc::new(Mutex::new(vec![0u8; 100]));
        let _ = Bio::write(0, data, BioFlags::NONE);
    }

    #[test]
    fn waiter_blocks_until_all_complete() {
        let mut sim = Sim::new(2);
        sim.spawn("t", 0, || {
            let waiter = BioWaiter::new();
            let mut bios: Vec<Bio> = (0..3)
                .map(|i| Bio::write(i, vec![0u8; 4096], BioFlags::NONE))
                .collect();
            for b in &mut bios {
                waiter.attach(b);
            }
            assert_eq!(waiter.outstanding(), 3);
            // "Device": completes them later from another thread.
            ccnvme_sim::spawn("dev", 1, move || {
                for mut b in bios {
                    ccnvme_sim::delay(1_000);
                    b.complete(BioStatus::Ok);
                }
            });
            waiter.wait().expect("all ok");
            assert!(ccnvme_sim::now() >= 3_000);
        });
        sim.run();
    }

    #[test]
    fn waiter_with_nothing_outstanding_returns_immediately() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let w = BioWaiter::new();
            let t0 = ccnvme_sim::now();
            w.wait().expect("trivially ok");
            assert_eq!(ccnvme_sim::now(), t0);
        });
        sim.run();
    }

    #[test]
    fn waiter_reports_errors() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let w = BioWaiter::new();
            let mut b = Bio::flush();
            w.attach(&mut b);
            b.complete(BioStatus::Error);
            assert_eq!(w.wait(), Err(BioStatus::Error));
        });
        sim.run();
    }

    #[test]
    fn complete_runs_end_io_once() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let hits = Arc::new(ccnvme_obs::Counter::new());
            let h = Arc::clone(&hits);
            let mut bio = Bio::flush();
            bio.end_io = Some(Arc::new(move |_| h.inc()));
            bio.complete(BioStatus::Ok);
            bio.complete(BioStatus::Ok); // Second call is a no-op.
            assert_eq!(hits.get(), 1);
        });
        sim.run();
    }

    #[test]
    fn waiter_records_first_typed_error() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let w = BioWaiter::new();
            let mut a = Bio::flush();
            let mut b = Bio::flush();
            w.attach(&mut a);
            w.attach(&mut b);
            a.complete(BioStatus::Media);
            assert_eq!(
                (w.outstanding(), w.first_error()),
                (1, Some(BioStatus::Media))
            );
            b.complete(BioStatus::Timeout);
            assert_eq!(w.outstanding(), 0);
            assert!(!w.landed(), "every bio completed, one failed: not landed");
            assert_eq!(w.wait(), Err(BioStatus::Media));
            assert_eq!(w.first_error(), Some(BioStatus::Media));
            assert!(BioStatus::Media.failed() && !BioStatus::Media.is_ok());
        });
        sim.run();
    }

    #[test]
    fn landed_waits_for_every_bio_and_counts_down_exactly() {
        Sim::run_main(1, || {
            let w = BioWaiter::new();
            assert!(w.landed(), "nothing attached is trivially landed");
            let mut bios: Vec<Bio> = (0..3).map(|_| Bio::flush()).collect();
            for b in &mut bios {
                w.attach(b);
            }
            for (done, b) in bios.iter_mut().enumerate() {
                assert_eq!(w.outstanding(), 3 - done);
                assert!(!w.landed(), "landed with {} bios outstanding", 3 - done);
                b.complete(BioStatus::Ok);
            }
            assert_eq!(w.outstanding(), 0);
            assert!(w.landed());
            assert_eq!(w.first_error(), None);
            assert_eq!(w.wait(), Ok(()));
        });
    }

    /// A device that completes every bio inline with `status`, filling
    /// a successful read with `0xab`, and counts what it was sent.
    struct StubDev {
        status: BioStatus,
        volatile_cache: bool,
        submitted: Mutex<Vec<BioOp>>,
        /// `(lba, nblocks, flags, tx_id)` of each write, in order.
        writes: Mutex<Vec<(u64, u16, BioFlags, u64)>>,
    }

    impl StubDev {
        fn new(status: BioStatus, volatile_cache: bool) -> StubDev {
            StubDev {
                status,
                volatile_cache,
                submitted: Mutex::new(Vec::new()),
                writes: Mutex::new(Vec::new()),
            }
        }
    }

    impl BlockDevice for StubDev {
        fn submit_bio(&self, mut bio: Bio) {
            self.submitted.lock().push(bio.op);
            if bio.op == BioOp::Write {
                self.writes
                    .lock()
                    .push((bio.lba, bio.nblocks, bio.flags, bio.tx_id));
            }
            if let (BioData::Dst(buf), BioStatus::Ok) = (&bio.data, self.status) {
                buf.lock().fill(0xab);
            }
            bio.complete(self.status);
        }

        fn num_queues(&self) -> usize {
            1
        }

        fn has_volatile_cache(&self) -> bool {
            self.volatile_cache
        }

        fn capacity_blocks(&self) -> u64 {
            16
        }
    }

    #[test]
    fn helpers_return_the_typed_status() {
        Sim::run_main(1, || {
            for status in [BioStatus::Media, BioStatus::Timeout, BioStatus::Busy] {
                let dev = StubDev::new(status, true);
                let write = Bio::write(3, vec![0u8; 4096], BioFlags::NONE);
                assert_eq!(submit_and_wait(&dev, write), Err(status));
                assert_eq!(read_block(&dev, 3), Err(status));
                assert_eq!(flush_cache(&dev), Err(status));
            }
            let ok = StubDev::new(BioStatus::Ok, true);
            assert_eq!(read_block(&ok, 3), Ok(vec![0xab; 4096]));
            assert_eq!(flush_cache(&ok), Ok(()));
            assert_eq!(*ok.submitted.lock(), [BioOp::Read, BioOp::Flush]);
        });
    }

    #[test]
    fn commit_tx_sends_members_then_the_commit_padded_to_blocks() {
        Sim::run_main(1, || {
            let dev = StubDev::new(BioStatus::Ok, false);
            let writes = vec![(7, vec![1; 10]), (9, vec![2; 4096]), (3, vec![3; 5000])];
            assert_eq!(commit_tx(&dev, 42, writes), Ok(()));
            assert_eq!(
                *dev.writes.lock(),
                [
                    (7, 1, BioFlags::TX, 42),
                    (9, 1, BioFlags::TX, 42),
                    (3, 2, BioFlags::TX_COMMIT, 42),
                ]
            );
            let failing = StubDev::new(BioStatus::Media, false);
            assert_eq!(
                commit_tx(&failing, 1, vec![(0, Vec::new())]),
                Err(BioStatus::Media)
            );
        });
    }

    #[test]
    fn flush_cache_without_a_volatile_cache_does_no_io() {
        Sim::run_main(1, || {
            let dev = StubDev::new(BioStatus::Media, false);
            assert_eq!(flush_cache(&dev), Ok(()));
            assert!(dev.submitted.lock().is_empty());
        });
    }

    /// A device whose block `lba` holds `lba as u8` in every byte; a read
    /// command covering `bad` fails with a media error and fills
    /// nothing. With `hold`, bios wait in `held` for the test to
    /// complete them; otherwise each completes inline. Records each
    /// read command's `(lba, nblocks)`.
    struct RunDev {
        bad: Option<u64>,
        hold: bool,
        held: Mutex<Vec<Bio>>,
        reads: Mutex<Vec<(u64, u16)>>,
    }

    impl RunDev {
        fn new(bad: Option<u64>, hold: bool) -> RunDev {
            RunDev {
                bad,
                hold,
                held: Mutex::new(Vec::new()),
                reads: Mutex::new(Vec::new()),
            }
        }

        fn complete(&self, mut bio: Bio) {
            let span = bio.lba..bio.lba + u64::from(bio.nblocks);
            if self.bad.is_some_and(|bad| span.contains(&bad)) {
                return bio.complete(BioStatus::Media);
            }
            if let BioData::Dst(buf) = &bio.data {
                for (block, lba) in buf.lock().chunks_mut(BLOCK_SIZE as usize).zip(span) {
                    block.fill(lba as u8);
                }
            }
            bio.complete(BioStatus::Ok);
        }
    }

    impl BlockDevice for RunDev {
        fn submit_bio(&self, bio: Bio) {
            self.reads.lock().push((bio.lba, bio.nblocks));
            if self.hold {
                self.held.lock().push(bio);
            } else {
                self.complete(bio);
            }
        }

        fn num_queues(&self) -> usize {
            1
        }

        fn has_volatile_cache(&self) -> bool {
            false
        }

        fn capacity_blocks(&self) -> u64 {
            1 << 20
        }
    }

    /// Runs `read_run(dev, start, len)` and returns each block's lba and
    /// its first byte, or its status.
    fn run(dev: &RunDev, start: u64, len: u64) -> Vec<(u64, Result<u8, BioStatus>)> {
        let mut got = Vec::new();
        read_run(dev, start, len, |lba, block| {
            got.push((
                lba,
                block.map(|b| {
                    assert!(b.iter().all(|&x| x == b[0]), "block {lba} is not whole");
                    b[0]
                }),
            ));
        });
        got
    }

    #[test]
    fn a_run_across_command_boundaries_returns_every_block_in_lba_order() {
        Sim::run_main(1, || {
            let dev = RunDev::new(None, false);
            let want: Vec<_> = (5..45).map(|lba| (lba, Ok(lba as u8))).collect();
            assert_eq!(run(&dev, 5, 40), want);
            assert_eq!(*dev.reads.lock(), [(5, 16), (21, 16), (37, 8)]);
        });
    }

    #[test]
    fn a_media_error_inside_a_command_fails_exactly_that_block() {
        Sim::run_main(1, || {
            let dev = RunDev::new(Some(26), false);
            let want: Vec<_> = (5..45)
                .map(|lba| match lba {
                    26 => (lba, Err(BioStatus::Media)),
                    _ => (lba, Ok(lba as u8)),
                })
                .collect();
            assert_eq!(run(&dev, 5, 40), want);
            // The failed command's 16 blocks were read again one by one.
            let singles = dev.reads.lock().iter().filter(|r| r.1 == 1).count();
            assert_eq!(singles, 16);
        });
    }

    #[test]
    fn a_run_of_n_blocks_is_n_over_blocks_per_command_reads() {
        Sim::run_main(1, || {
            let per = u64::from(RUN_CMD_BLOCKS);
            for n in [1, per - 1, per, per + 1, 4_096] {
                let dev = RunDev::new(None, false);
                assert_eq!(run(&dev, 100, n).len() as u64, n);
                assert_eq!(dev.reads.lock().len() as u64, n.div_ceil(per), "{n} blocks");
            }
            let dev = RunDev::new(None, false);
            read_run(&dev, 0, 0, |lba, _| {
                panic!("an empty run handed over {lba}")
            });
            assert!(dev.reads.lock().is_empty());
        });
    }

    #[test]
    fn a_run_keeps_at_most_its_bound_of_commands_in_flight() {
        Sim::run_main(2, || {
            let dev = Arc::new(RunDev::new(None, true));
            let blocks = 40 * u64::from(RUN_CMD_BLOCKS);
            let device = Arc::clone(&dev);
            let most = ccnvme_sim::spawn("dev", 1, move || {
                let (mut done, mut most) = (0, 0);
                while done < 40 {
                    ccnvme_sim::delay(1_000);
                    let held = std::mem::take(&mut *device.held.lock());
                    most = most.max(held.len());
                    done += held.len();
                    held.into_iter().for_each(|bio| device.complete(bio));
                }
                most
            });
            assert_eq!(run(&dev, 0, blocks).len() as u64, blocks);
            assert_eq!(most.join(), RUN_IN_FLIGHT);
        });
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn flags_constants_are_consistent() {
        assert!(BioFlags::TX_COMMIT.tx && BioFlags::TX_COMMIT.tx_commit);
        assert!(BioFlags::TX.tx && !BioFlags::TX.tx_commit);
        assert!(BioFlags::PREFLUSH_FUA.preflush && BioFlags::PREFLUSH_FUA.fua);
    }
}

// The loom tier: the completion word and the lock it is updated under,
// on the loom-backed Os arm of RtMutex + RtCondvar.
// Run with: cargo test -p ccnvme-block --features loom --lib loom_
#[cfg(all(test, feature = "loom"))]
mod loom_tests {
    use super::*;

    /// Two completions with `statuses` race a `landed()` poller and a
    /// `wait()`er. Each completer counts itself in `started` before it
    /// completes its bio, so a poller that sees the waiter landed must
    /// also see both counted; a lost wake-up leaves the waiter parked,
    /// a deadlock the explorer reports.
    fn race(statuses: [BioStatus; 2]) {
        loom::model(move || {
            let w = BioWaiter::new();
            let started = Arc::new(AtomicUsize::new(0));
            let mut threads = Vec::new();
            for status in statuses {
                let mut bio = Bio::flush();
                w.attach(&mut bio);
                let started = Arc::clone(&started);
                threads.push(loom::thread::spawn(move || {
                    // ord: SeqCst — the model checker's only ordering.
                    started.fetch_add(1, Ordering::SeqCst);
                    bio.complete(status);
                }));
            }
            let failing = statuses.iter().find(|s| s.failed()).copied();
            let poller = w.clone_handle();
            let started_seen = Arc::clone(&started);
            threads.push(loom::thread::spawn(move || {
                for _ in 0..2 {
                    if poller.landed() {
                        assert!(failing.is_none(), "landed after a failure");
                        // ord: SeqCst — the model checker's only ordering.
                        let n = started_seen.load(Ordering::SeqCst);
                        assert_eq!(n, 2, "landed before the last completion");
                    }
                }
            }));
            assert_eq!(w.wait(), failing.map_or(Ok(()), Err));
            assert_eq!(w.outstanding(), 0);
            assert_eq!(w.landed(), failing.is_none());
            for t in threads {
                t.join().unwrap();
            }
        });
    }

    #[test]
    fn loom_a_waiter_lands_only_after_the_last_completion() {
        race([BioStatus::Ok, BioStatus::Ok]);
    }

    #[test]
    fn loom_a_failed_completion_never_lands() {
        race([BioStatus::Ok, BioStatus::Media]);
    }
}
