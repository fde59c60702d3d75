//! The baseline NVMe driver (original NVMe semantics, §2 of the paper).
//!
//! Per-core submission queues live in host memory; the driver rings the
//! SQ tail doorbell eagerly for every request and acknowledges every
//! completion with a CQ head doorbell write — the 2 MMIOs, 2 DMA(Q),
//! 1 block I/O and 1 IRQ per request that Table 1 attributes to classic
//! systems. Barrier semantics follow the Linux block layer: a `PREFLUSH`
//! bio first issues (and waits for) a Flush command; `FUA` sets the
//! force-unit-access bit in the write command.
//!
//! The driver also implements the host error path (see
//! [`crate::errpolicy`]): transient busy completions are retried after
//! capped exponential backoff, and a per-driver watchdog tracks every
//! in-flight command's age against the virtual clock — first re-ringing
//! the SQ doorbell (which recovers a dropped doorbell MMIO), then
//! aborting the command and draining/re-creating its hardware queue.

use std::{collections::HashMap, sync::Arc};

use ccnvme_block::{Bio, BioOp, BioStatus, BioWaiter, BlockDevice};
use ccnvme_obs::{EventKind, Obs};
use ccnvme_runtime::{Ns, RtCondvar, RtMutex};
use ccnvme_ssd::{
    CompletionEntry, HostMemory, NvmeCommand, NvmeController, QueueParams, SqBacking,
};
use parking_lot::Mutex;

use crate::errpolicy::{Age, ErrPolicy};
use crate::hostq::{spawn_daemons, watchdog_daemon, Attempt, ErrPath, QueueObs};
use crate::{DEFAULT_CAPACITY_BLOCKS, QUEUE_DEPTH, SUBMIT_CPU};

/// CPU cost of formatting one 64-byte SQE into host memory.
const SQE_WRITE_CPU: Ns = 100;

/// Base of the standard NVMe doorbell register array.
const DB_BASE: u64 = 0x1000;

struct Inflight {
    bio: Bio,
    attempt: Attempt,
}

struct DqSt {
    tail: u32,
    inflight: HashMap<u16, Inflight>,
    free_cids: Vec<u16>,
    /// Bumped on every queue drain/re-create; completions carrying a
    /// stale epoch belong to an aborted incarnation and are dropped.
    epoch: u64,
}

impl DqSt {
    /// Claims the next SQ slot; returns it and the tail to ring.
    fn next_slot(&mut self, depth: u32) -> (u32, u32) {
        let slot = self.tail;
        self.tail = (self.tail + 1) % depth;
        (slot, self.tail)
    }
}

struct DrvQueue {
    depth: u32,
    sqmem: Arc<Mutex<Vec<u8>>>,
    sqdb_off: u64,
    cqdb_off: u64,
    /// Lifecycle events and `nvme.q{qid}.complete_ns`.
    obs: QueueObs,
    dev: Arc<DrvDev>,
    st: RtMutex<DqSt>,
    cv: RtCondvar,
}

/// The device as a queue sees it. The controller holds the completion
/// callbacks, so they reach what the driver shares through their queue,
/// never through the driver.
struct DrvDev {
    regs: Arc<ccnvme_pcie::MmioRegion>,
    hostmem: Arc<HostMemory>,
    err: ErrPath<DrvQueue>,
}

struct DrvInner {
    ctrl: NvmeController,
    dev: Arc<DrvDev>,
    queues: Vec<Arc<DrvQueue>>,
    capacity: u64,
    volatile_cache: bool,
    obs: Arc<Obs>,
}

/// The baseline multi-queue NVMe driver.
pub struct NvmeDriver {
    inner: Arc<DrvInner>,
}

impl NvmeDriver {
    /// Attaches to `ctrl` with one hardware queue per host core
    /// (`num_queues`), each [`QUEUE_DEPTH`] deep, using the default
    /// [`ErrPolicy`].
    pub fn new(ctrl: NvmeController, num_queues: usize) -> Self {
        assert!(num_queues > 0, "need at least one queue");
        let volatile_cache = ctrl.profile().volatile_cache;
        let obs = ctrl.link().obs.clone();
        let (err, retry_rx) = ErrPath::new(ErrPolicy::default(), &obs);
        let dev = Arc::new(DrvDev {
            regs: ctrl.regs(),
            hostmem: ctrl.hostmem(),
            err,
        });
        let mut queues = Vec::with_capacity(num_queues);
        for i in 0..num_queues {
            let qid = (i + 1) as u16;
            let depth = QUEUE_DEPTH;
            let q = Arc::new(DrvQueue {
                depth,
                sqmem: Arc::new(Mutex::new(vec![0u8; depth as usize * 64])),
                sqdb_off: DB_BASE + qid as u64 * 8,
                cqdb_off: DB_BASE + qid as u64 * 8 + 4,
                obs: QueueObs::new(&obs, qid, &format!("nvme.q{qid}.complete_ns")),
                dev: Arc::clone(&dev),
                st: RtMutex::new(DqSt {
                    tail: 0,
                    inflight: HashMap::new(),
                    free_cids: (0..depth as u16).collect(),
                    epoch: 0,
                }),
                cv: RtCondvar::new(),
            });
            attach_queue(&ctrl, &q, 0);
            queues.push(q);
        }
        let inner = Arc::new(DrvInner {
            ctrl,
            dev,
            queues,
            capacity: DEFAULT_CAPACITY_BLOCKS,
            volatile_cache,
            obs,
        });
        let wd = Arc::clone(&inner);
        spawn_daemons("nvme", retry_rx, move || watchdog_loop(wd), resubmit);
        NvmeDriver { inner }
    }

    /// The underlying controller (power-fail injection, traffic counters).
    pub fn controller(&self) -> &NvmeController {
        &self.inner.ctrl
    }

    fn queue_for_current_core(&self) -> &Arc<DrvQueue> {
        let core = ccnvme_runtime::current_core();
        &self.inner.queues[core % self.inner.queues.len()]
    }

    /// Issues a Flush command on `q` and waits for its completion — the
    /// classic ordering point that ccNVMe eliminates. Returns whether
    /// the flush succeeded.
    fn flush_sync(&self, q: &Arc<DrvQueue>) -> bool {
        let waiter = BioWaiter::new();
        let mut bio = Bio::flush();
        waiter.attach(&mut bio);
        self.submit_cmd(q, bio);
        waiter.wait().is_ok()
    }

    fn submit_cmd(&self, q: &Arc<DrvQueue>, bio: Bio) {
        let tx_id = bio.tx_id;
        let trace = bio.ctx;
        let mut attempt = Attempt::from_bio(&q.dev.hostmem, &bio);
        // Reserve a slot and a command id (block while the ring is full).
        let (cmd, slot, new_tail) = {
            let mut st = q.st.lock();
            while st.inflight.len() as u32 >= q.depth - 1 {
                st = q.cv.wait(st);
            }
            let cid = st.free_cids.pop().expect("cid pool tracks inflight");
            let (slot, new_tail) = st.next_slot(q.depth);
            let cmd = attempt.start(cid);
            st.inflight.insert(cid, Inflight { bio, attempt });
            (cmd, slot, new_tail)
        };
        q.obs.event(EventKind::TxBegin, tx_id, 0, trace, true);
        write_sqe(q, slot, &cmd);
        q.obs
            .event(EventKind::SqeStore, tx_id, cmd.cid as u64, trace, true);
        // Eager per-request doorbell — original NVMe behaviour.
        q.dev.regs.write(q.sqdb_off, &new_tail.to_le_bytes());
        q.obs
            .event(EventKind::Doorbell, tx_id, new_tail as u64, trace, true);
    }
}

/// Writes `cmd` into SQ slot `slot` in host memory (plain stores, no
/// PCIe traffic).
fn write_sqe(q: &DrvQueue, slot: u32, cmd: &NvmeCommand) {
    ccnvme_runtime::cpu(SQE_WRITE_CPU);
    let mut mem = q.sqmem.lock();
    let off = slot as usize * 64;
    mem[off..off + 64].copy_from_slice(&cmd.encode());
}

/// Registers `q` (at `epoch`) with the controller and starts its fetch
/// worker. Called at driver bring-up and again after a queue drain.
fn attach_queue(ctrl: &NvmeController, q: &Arc<DrvQueue>, epoch: u64) {
    let cb_q = Arc::clone(q);
    ctrl.create_io_queue(QueueParams {
        qid: q.obs.qid,
        depth: q.depth,
        sq: SqBacking::Host {
            ring: Arc::clone(&q.sqmem),
            doorbell: q.sqdb_off,
        },
        on_complete: Arc::new(move |entry: CompletionEntry| {
            complete_one(&cb_q, epoch, entry);
        }),
    });
}

fn complete_one(q: &Arc<DrvQueue>, epoch: u64, entry: CompletionEntry) {
    let dev = &q.dev;
    enum Next {
        Retry(Ns),
        Done(Inflight),
        Ignore,
    }
    let next = {
        let mut st = q.st.lock();
        if st.epoch != epoch {
            // Completion from a drained queue incarnation: its commands
            // were already aborted; the cid may have been recycled.
            return;
        }
        match st.inflight.get_mut(&entry.cid) {
            None => Next::Ignore,
            // Transient failure within budget: keep the slot and
            // resubmit after backoff.
            Some(inf) => match inf.attempt.on_busy(entry.status) {
                Some(backoff) => Next::Retry(backoff),
                None => {
                    let inf = st.inflight.remove(&entry.cid).expect("present");
                    st.free_cids.push(entry.cid);
                    Next::Done(inf)
                }
            },
        }
    };
    // Acknowledge the CQE: ring the CQ head doorbell (the second MMIO of
    // the per-request pair in Table 1).
    dev.regs.write(q.cqdb_off, &entry.sq_head.to_le_bytes());
    match next {
        Next::Ignore => {}
        Next::Retry(backoff) => dev.err.retry_after(q, entry.cid, backoff),
        Next::Done(inf) => {
            q.cv.notify_all();
            q.obs.completed(inf.attempt.submitted_at);
            q.obs
                .event(EventKind::Completion, inf.bio.tx_id, 0, inf.bio.ctx, true);
            finish(&dev.hostmem, inf, dev.err.terminal(entry.status));
        }
    }
}

/// Releases the payload registration and completes the bio.
fn finish(hostmem: &HostMemory, inf: Inflight, status: BioStatus) {
    if inf.attempt.token != 0 {
        hostmem.unregister(inf.attempt.token);
    }
    let mut bio = inf.bio;
    bio.complete(status);
}

/// Resubmits a backed-off command at the queue tail (same cid, same
/// payload token, fresh submission timestamp).
fn resubmit(q: &Arc<DrvQueue>, cid: u16) {
    let (cmd, slot, new_tail) = {
        let mut st = q.st.lock();
        let Some(inf) = st.inflight.get_mut(&cid) else {
            // Aborted (queue drained) while waiting out the backoff.
            return;
        };
        let cmd = inf.attempt.restart();
        let (slot, new_tail) = st.next_slot(q.depth);
        (cmd, slot, new_tail)
    };
    write_sqe(q, slot, &cmd);
    q.dev.err.stats.retries.inc();
    q.dev.regs.write(q.sqdb_off, &new_tail.to_le_bytes());
}

/// Daemon: ages every in-flight command against the clock.
/// Stage 1 (`kick_after`): re-ring the SQ doorbell — recovers dropped
/// doorbell MMIOs. Stage 2 (`timeout`): abort by draining and
/// re-creating the hardware queue.
fn watchdog_loop(inner: Arc<DrvInner>) {
    watchdog_daemon(
        &inner.dev.err,
        &inner.queues,
        |q, age| {
            let mut expired = false;
            for inf in q.st.lock().inflight.values_mut() {
                expired |= age(&mut inf.attempt) == Age::Expired;
            }
            if expired {
                reinit_queue(&inner, q);
            }
            expired
        },
        |q| {
            let tail = q.st.lock().tail;
            q.dev.regs.write(q.sqdb_off, &tail.to_le_bytes());
        },
    )
}

/// Aborts every command on `q` and re-creates the hardware queue (the
/// NVMe host's reset escalation, scoped to one queue). Aborted bios
/// complete with [`BioStatus::Timeout`]; completions still in flight
/// from the old incarnation are fenced off by the epoch bump.
fn reinit_queue(inner: &Arc<DrvInner>, q: &Arc<DrvQueue>) {
    inner.ctrl.delete_io_queue(q.obs.qid);
    let (aborted, epoch) = {
        let mut st = q.st.lock();
        st.epoch += 1;
        let aborted: Vec<Inflight> = st.inflight.drain().map(|(_, v)| v).collect();
        st.free_cids = (0..q.depth as u16).collect();
        st.tail = 0;
        (aborted, st.epoch)
    };
    attach_queue(&inner.ctrl, q, epoch);
    q.dev.err.stats.queue_reinits.inc();
    for inf in aborted {
        q.dev.err.stats.timeouts.inc();
        finish(&q.dev.hostmem, inf, BioStatus::Timeout);
    }
    q.cv.notify_all();
}

impl BlockDevice for NvmeDriver {
    fn submit_bio(&self, mut bio: Bio) {
        ccnvme_runtime::cpu(SUBMIT_CPU);
        let q = Arc::clone(self.queue_for_current_core());
        // The classic ordering point: drain the device write cache before
        // the payload write. If the drain itself fails, the barrier
        // cannot be honoured — fail the bio rather than break ordering.
        if bio.flags.preflush && self.inner.volatile_cache && !self.flush_sync(&q) {
            bio.complete(BioStatus::Error);
            return;
        }
        if bio.op == BioOp::Flush && !self.inner.volatile_cache {
            // Power-protected device: FLUSH is a no-op (the block
            // layer elides it, per the paper's Figure 14 note).
            bio.complete(BioStatus::Ok);
            return;
        }
        self.submit_cmd(&q, bio);
    }

    fn num_queues(&self) -> usize {
        self.inner.queues.len()
    }

    fn has_volatile_cache(&self) -> bool {
        self.inner.volatile_cache
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity
    }

    fn obs(&self) -> Option<Arc<Obs>> {
        Some(Arc::clone(&self.inner.obs))
    }
}

#[cfg(test)]
mod tests {
    use ccnvme_block::{read_block, submit_and_wait, BioBuf, BioFlags};
    use ccnvme_sim::Sim;
    use ccnvme_ssd::{CrashMode, CtrlConfig, SsdProfile};

    use super::*;

    fn buf(byte: u8, blocks: usize) -> BioBuf {
        Arc::new(Mutex::new(vec![byte; blocks * 4096]))
    }

    fn driver_on(profile: SsdProfile, host_cores: usize) -> NvmeDriver {
        let mut cfg = CtrlConfig::new(profile);
        cfg.device_core = host_cores; // Device daemons on the extra core.
        NvmeDriver::new(NvmeController::new(cfg), host_cores)
    }

    #[test]
    fn write_read_roundtrip() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::optane_p5800x(), 1);
            let data = buf(0x5c, 1);
            submit_and_wait(&drv, Bio::write(42, data, BioFlags::NONE)).expect("write");
            assert_eq!(read_block(&drv, 42).expect("read")[0], 0x5c);
        });
        sim.run();
    }

    #[test]
    fn the_store_keeps_the_written_allocation_itself() {
        Sim::run_main(2, || {
            let drv = driver_on(SsdProfile::optane_p5800x(), 1);
            let data = ccnvme_block::BlockBuf::new(vec![0x3c; 2 * 4096]);
            submit_and_wait(&drv, Bio::write(42, data.clone(), BioFlags::NONE)).expect("write");
            for lba in [42, 43] {
                let kept = drv.controller().store().block(lba).expect("landed");
                assert!(
                    Arc::ptr_eq(kept.buffer(), data.shared()),
                    "lba {lba} copied"
                );
            }
        });
    }

    #[test]
    fn per_request_doorbells_and_irqs() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::optane_p5800x(), 1);
            let t0 = drv.controller().link().traffic.snapshot();
            let waiter = BioWaiter::new();
            let n = 4;
            for i in 0..n {
                let mut bio = Bio::write(i, buf(i as u8, 1), BioFlags::NONE);
                waiter.attach(&mut bio);
                drv.submit_bio(bio);
            }
            waiter.wait().expect("writes ok");
            let d = drv.controller().link().traffic.snapshot().since(&t0);
            // Original NVMe: per request 1 SQDB + 1 CQDB, 1 SQE fetch +
            // 1 CQE post, 1 block I/O, 1 IRQ.
            assert_eq!(d.mmio_doorbells, 2 * n);
            assert_eq!(d.dma_queue, 2 * n);
            assert_eq!(d.block_ios, n);
            assert_eq!(d.irqs, n);
        });
        sim.run();
    }

    #[test]
    fn preflush_orders_cache_drain_before_write() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::intel_750(), 1);
            // A cached write, then a PREFLUSH|FUA commit-style write.
            submit_and_wait(&drv, Bio::write(1, buf(1, 1), BioFlags::NONE)).expect("write");
            submit_and_wait(&drv, Bio::write(2, buf(2, 1), BioFlags::PREFLUSH_FUA))
                .expect("commit");
            // After the barrier, both must survive an adversarial crash.
            let image = drv.controller().power_fail(CrashMode::adversarial(3));
            assert_eq!(image.blocks.get(&1).map(|b| b[0]), Some(1));
            assert_eq!(image.blocks.get(&2).map(|b| b[0]), Some(2));
        });
        sim.run();
    }

    #[test]
    fn flush_bio_is_noop_on_power_protected_device() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::optane_905p(), 1);
            let t0 = ccnvme_sim::now();
            submit_and_wait(&drv, Bio::flush()).expect("flush");
            // Only the submission-path CPU cost, no device round trip.
            assert!(ccnvme_sim::now() - t0 <= 2 * crate::SUBMIT_CPU);
        });
        sim.run();
    }

    #[test]
    fn queue_backpressure_blocks_submitters() {
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let drv = driver_on(SsdProfile::intel_750(), 1);
            let waiter = BioWaiter::new();
            // More bios than the queue depth; submission must not panic
            // and all must complete.
            let n = QUEUE_DEPTH as u64 + 50;
            for i in 0..n {
                let mut bio = Bio::write(i, buf(1, 1), BioFlags::NONE);
                waiter.attach(&mut bio);
                drv.submit_bio(bio);
            }
            waiter.wait().expect("all ok");
        });
        sim.run();
    }

    fn driver_on_faulty(
        profile: SsdProfile,
        host_cores: usize,
        plan: ccnvme_fault::FaultPlan,
    ) -> NvmeDriver {
        let mut cfg = CtrlConfig::new(profile).with_fault(Arc::new(plan.injector()));
        cfg.device_core = host_cores;
        NvmeDriver::new(NvmeController::new(cfg), host_cores)
    }

    #[test]
    fn busy_completions_are_retried_transparently() {
        use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, Trigger};
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let plan = FaultPlan::new(11).rule(FaultRule::new(FaultKind::Busy, Trigger::Nth(1)));
            let drv = driver_on_faulty(SsdProfile::optane_p5800x(), 1, plan);
            let status = submit_and_wait(&drv, Bio::write(7, buf(7, 1), BioFlags::NONE));
            assert_eq!(status, Ok(()));
            let s = drv.controller().link().obs.metrics.snapshot();
            assert_eq!(s.counter("host_err.busy_completions"), 1);
            assert_eq!(s.counter("host_err.retries"), 1);
            assert_eq!(s.counter("host_err.retries_exhausted"), 0);
            // The retried write really landed.
            assert_eq!(read_block(&drv, 7).expect("read")[0], 7);
        });
        sim.run();
    }

    #[test]
    fn exhausted_retries_surface_busy_to_the_bio() {
        use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, Trigger};
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            // Every write attempt is rejected busy: the budget runs out.
            let plan = FaultPlan::new(12).rule(FaultRule::new(FaultKind::Busy, Trigger::Always));
            let drv = driver_on_faulty(SsdProfile::optane_p5800x(), 1, plan);
            let status = submit_and_wait(&drv, Bio::write(1, buf(1, 1), BioFlags::NONE));
            assert_eq!(status, Err(BioStatus::Busy));
            let s = drv.controller().link().obs.metrics.snapshot();
            assert_eq!(
                s.counter("host_err.retries"),
                crate::errpolicy::MAX_RETRIES as u64
            );
            assert_eq!(s.counter("host_err.retries_exhausted"), 1);
        });
        sim.run();
    }

    #[test]
    fn stalled_command_is_aborted_and_queue_reinitialized() {
        use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, Trigger};
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let plan = FaultPlan::new(13).rule(FaultRule::new(FaultKind::Stall, Trigger::Nth(1)));
            let drv = driver_on_faulty(SsdProfile::optane_p5800x(), 1, plan);
            let t0 = ccnvme_sim::now();
            let status = submit_and_wait(&drv, Bio::write(3, buf(3, 1), BioFlags::NONE));
            assert_eq!(status, Err(BioStatus::Timeout));
            let elapsed = ccnvme_sim::now() - t0;
            let policy = ErrPolicy::default();
            assert!(elapsed >= policy.timeout, "aborted too early: {elapsed}");
            let s = drv.controller().link().obs.metrics.snapshot();
            assert_eq!(s.counter("host_err.timeouts"), 1);
            assert_eq!(s.counter("host_err.queue_reinits"), 1);
            // The re-created queue serves I/O normally.
            let status = submit_and_wait(&drv, Bio::write(4, buf(4, 1), BioFlags::NONE));
            assert_eq!(status, Ok(()));
            assert_eq!(read_block(&drv, 4).expect("read")[0], 4);
        });
        sim.run();
    }

    #[test]
    fn dropped_doorbell_is_recovered_by_watchdog_kick() {
        use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, Trigger};
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let plan =
                FaultPlan::new(14).rule(FaultRule::new(FaultKind::DoorbellDrop, Trigger::Nth(1)));
            let drv = driver_on_faulty(SsdProfile::optane_p5800x(), 1, plan);
            let t0 = ccnvme_sim::now();
            let status = submit_and_wait(&drv, Bio::write(9, buf(9, 1), BioFlags::NONE));
            // Recovered transparently — no error surfaces.
            assert_eq!(status, Ok(()));
            let elapsed = ccnvme_sim::now() - t0;
            let policy = ErrPolicy::default();
            assert!(
                elapsed >= policy.kick_after,
                "kick cannot precede the deadline"
            );
            assert!(elapsed < policy.timeout, "kick should beat the abort path");
            let s = drv.controller().link().obs.metrics.snapshot();
            assert_eq!(s.counter("host_err.doorbell_kicks"), 1);
            assert_eq!(s.counter("host_err.timeouts"), 0);
        });
        sim.run();
    }

    #[test]
    fn media_error_propagates_as_typed_status() {
        use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, Trigger};
        let mut sim = Sim::new(2);
        sim.spawn("host", 0, || {
            let plan =
                FaultPlan::new(15).rule(FaultRule::new(FaultKind::MediaWrite, Trigger::Nth(1)));
            let drv = driver_on_faulty(SsdProfile::optane_p5800x(), 1, plan);
            let status = submit_and_wait(&drv, Bio::write(5, buf(5, 1), BioFlags::NONE));
            assert_eq!(status, Err(BioStatus::Media));
            let s = drv.controller().link().obs.metrics.snapshot();
            assert_eq!(s.counter("host_err.media_errors"), 1);
        });
        sim.run();
    }

    #[test]
    fn multi_queue_parallelism_scales_throughput() {
        fn run(cores: usize) -> u64 {
            let mut sim = Sim::new(cores + 1);
            let done = Arc::new(ccnvme_obs::Counter::new());
            let drv = Arc::new(Mutex::new(None::<Arc<NvmeDriver>>));
            let d2 = Arc::clone(&drv);
            let done2 = Arc::clone(&done);
            sim.spawn("setup", 0, move || {
                let d = Arc::new(driver_on(SsdProfile::optane_p5800x(), cores));
                *d2.lock() = Some(Arc::clone(&d));
                let mut handles = Vec::new();
                for c in 0..cores {
                    let d = Arc::clone(&d);
                    handles.push(ccnvme_sim::spawn(&format!("w{c}"), c, move || {
                        for i in 0..200u64 {
                            let bio = Bio::write(
                                (c as u64) << 32 | i,
                                Arc::new(Mutex::new(vec![0u8; 4096])),
                                BioFlags::NONE,
                            );
                            submit_and_wait(&*d, bio).expect("write");
                        }
                    }));
                }
                for h in handles {
                    h.join();
                }
                done2.add(ccnvme_sim::now());
            });
            sim.run();
            done.get()
        }
        let t1 = run(1);
        let t4 = run(4);
        // 4 cores × 200 serial writes each should take much less than
        // 4× the single-core time for 200 writes... i.e. near-parallel.
        assert!(t4 < t1 * 2, "t1={t1} t4={t4}");
    }
}
