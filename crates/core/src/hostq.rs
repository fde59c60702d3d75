//! What a host NVMe queue does under *either* protocol.
//!
//! ccNVMe is the NVMe host driver plus §4 (§4.5: tag bios with
//! `REQ_TX` / `REQ_TX_COMMIT` and a transaction ID, "everything else is
//! unchanged"), and this module is the "everything else": how a bio
//! becomes an [`NvmeCommand`] attempt, the error ladder an attempt climbs
//! (retry budget, watchdog ageing, terminal-status accounting), the
//! daemon pair that drives the ladder, and the per-queue trace and
//! latency recording. What differs between the drivers — the queue state
//! machine: out-of-order completion over a cid pool with
//! drain-and-recreate, against in-order transaction-unit pop over a
//! persistent ring with a host-memory retry queue and abort-in-place —
//! stays in [`crate::driver`] and [`crate::ccdriver`] (DESIGN.md §8).

use std::sync::Arc;

use ccnvme_block::{Bio, BioData, BioOp, BioStatus};
use ccnvme_obs::{EventKind, Histogram, Obs, TraceCtx, TraceEvent};
use ccnvme_runtime::{mpsc_channel, Ns, Receiver, Sender};
use ccnvme_ssd::{HostBuf, HostMemory, NvmeCommand, Opcode, Status, TxFlags};

use crate::errpolicy::{map_status, Age, ErrPolicy, HostErrStats, MAX_RETRIES};

/// One command and the state of its current submission attempt.
pub(crate) struct Attempt {
    /// The encoded command, kept for transparent resubmission.
    pub(crate) cmd: NvmeCommand,
    /// Host-memory registration of the payload (0 = none).
    pub(crate) token: u64,
    /// When this attempt was made device-visible (watchdog reference).
    pub(crate) submitted_at: Ns,
    /// Resubmissions performed so far.
    pub(crate) attempts: u32,
    /// When the watchdog last re-rang the doorbell for this attempt
    /// (0 = never; stage 1 of the timeout ladder). Kicks repeat every
    /// `kick_after` until the timeout: the kick MMIO is posted and may
    /// itself be lost.
    pub(crate) last_kick: Ns,
}

impl Attempt {
    /// Turns `bio` into a command and registers its payload. The command
    /// id is assigned by [`Attempt::start`], once the queue has a slot
    /// for it: registration stays ahead of the wait for a slot, so
    /// payload tokens — which are SQE bytes — number bios in arrival
    /// order.
    pub(crate) fn from_bio(hostmem: &HostMemory, bio: &Bio) -> Attempt {
        let opcode = match bio.op {
            BioOp::Flush => Opcode::Flush,
            BioOp::Write => Opcode::Write,
            BioOp::Read => Opcode::Read,
        };
        let token = match &bio.data {
            BioData::Src(buf) => hostmem.register(HostBuf::Src(Arc::clone(buf.shared()))),
            BioData::Dst(buf) => hostmem.register(HostBuf::Dst(Arc::clone(buf))),
            BioData::None => 0,
        };
        Attempt {
            cmd: NvmeCommand {
                opcode,
                cid: 0,
                nsid: 1,
                lba: bio.lba,
                nblocks: if opcode == Opcode::Flush {
                    0
                } else {
                    bio.nblocks
                },
                fua: bio.flags.fua,
                tx_id: bio.tx_id,
                tx_flags: TxFlags {
                    tx: bio.flags.tx,
                    tx_commit: bio.flags.tx_commit,
                },
                data_token: token,
                ctx: bio.ctx,
            },
            token,
            submitted_at: 0,
            attempts: 0,
            last_kick: 0,
        }
    }

    /// Stamps the first submission under command id `cid` and returns
    /// the command to write into the queue.
    pub(crate) fn start(&mut self, cid: u16) -> NvmeCommand {
        self.cmd.cid = cid;
        self.restart()
    }

    /// Stamps a resubmission and returns the command to write again.
    pub(crate) fn restart(&mut self) -> NvmeCommand {
        self.submitted_at = ccnvme_runtime::now();
        self.last_kick = 0;
        self.cmd.clone()
    }

    /// The retry-budget decision for a completion with `status`:
    /// `Some(backoff)` when it is a transient busy within budget — the
    /// attempt is charged and is to be resubmitted after `backoff` —
    /// `None` when `status` is terminal.
    pub(crate) fn on_busy(&mut self, status: Status) -> Option<Ns> {
        if status != Status::Busy || self.attempts >= MAX_RETRIES {
            return None;
        }
        self.attempts += 1;
        self.last_kick = 0;
        Some(ErrPolicy::backoff(self.attempts))
    }
}

/// A command scheduled for resubmission once its backoff elapses.
pub(crate) struct Retry<Q> {
    q: Arc<Q>,
    /// The command id the original submission carried.
    cid: u16,
    due: Ns,
}

/// Error-path state shared by a driver's completion callbacks and its
/// daemons.
pub(crate) struct ErrPath<Q> {
    policy: ErrPolicy,
    pub(crate) stats: HostErrStats,
    retry_tx: Sender<Retry<Q>>,
}

impl<Q: Send + Sync + 'static> ErrPath<Q> {
    /// The error path of one driver, its counters registered in `obs`,
    /// and the receiving end of its retry channel (for
    /// [`spawn_daemons`]).
    pub(crate) fn new(policy: ErrPolicy, obs: &Obs) -> (Self, Receiver<Retry<Q>>) {
        let (retry_tx, retry_rx) = mpsc_channel(None);
        let path = ErrPath {
            policy,
            stats: HostErrStats::registered(&obs.metrics),
            retry_tx,
        };
        (path, retry_rx)
    }

    /// Accounts a busy completion [`Attempt::on_busy`] granted a retry
    /// and hands the command to the retry daemon, due `backoff` from now.
    pub(crate) fn retry_after(&self, q: &Arc<Q>, cid: u16, backoff: Ns) {
        self.stats.busy_completions.inc();
        let _ = self.retry_tx.send(Retry {
            q: Arc::clone(q),
            cid,
            due: ccnvme_runtime::now() + backoff,
        });
    }

    /// Accounts a terminal completion status and maps it to what the
    /// bio is completed with. `Busy` is terminal only once
    /// [`Attempt::on_busy`] refused it: the retry budget ran out.
    pub(crate) fn terminal(&self, status: Status) -> BioStatus {
        let mapped = map_status(status);
        if mapped == BioStatus::Busy {
            self.stats.busy_completions.inc();
            self.stats.retries_exhausted.inc();
        }
        if mapped == BioStatus::Media {
            self.stats.media_errors.inc();
        }
        mapped
    }
}

/// Spawns a driver's error-path daemons on core 0: `{name}-wdog` runs
/// `watchdog` (a [`watchdog_daemon`] call), `{name}-errd` holds every
/// request from `retry_rx` until it is due and then hands its queue and
/// command id to `resubmit`.
pub(crate) fn spawn_daemons<Q: Send + Sync + 'static>(
    name: &str,
    retry_rx: Receiver<Retry<Q>>,
    watchdog: impl FnOnce() + Send + 'static,
    resubmit: impl FnMut(&Arc<Q>, u16) + Send + 'static,
) {
    ccnvme_runtime::spawn_daemon(&format!("{name}-wdog"), 0, watchdog);
    ccnvme_runtime::spawn_daemon(&format!("{name}-errd"), 0, move || {
        retry_daemon(retry_rx, resubmit)
    });
}

/// The retry daemon: holds each request from `rx` until its due
/// instant, then hands it to `resubmit`. Returns when every sender is
/// gone (the driver was dropped).
fn retry_daemon<Q>(rx: Receiver<Retry<Q>>, mut resubmit: impl FnMut(&Arc<Q>, u16)) {
    let mut pending: Vec<Retry<Q>> = Vec::new();
    loop {
        let now = ccnvme_runtime::now();
        let mut i = 0;
        while i < pending.len() {
            if pending[i].due <= now {
                let r = pending.swap_remove(i);
                resubmit(&r.q, r.cid);
            } else {
                i += 1;
            }
        }
        match pending.iter().map(|r| r.due).min() {
            None => match rx.recv() {
                Ok(req) => pending.push(req),
                Err(_) => return,
            },
            Some(next) => {
                let now = ccnvme_runtime::now();
                if next <= now {
                    continue;
                }
                if let Some(req) = rx.recv_timeout(next - now) {
                    pending.push(req);
                }
            }
        }
    }
}

/// The watchdog daemon: twice per `kick_after` (at most every
/// millisecond) it has `scan` age every in-flight attempt of each queue
/// with the classifier it is handed. `scan` deals with expired attempts
/// its driver's way and reports whether there were any; a queue with
/// none of those but an attempt due a kick gets its doorbell re-rung by
/// `rering`. Never returns (a daemon: torn down with its runtime).
pub(crate) fn watchdog_daemon<Q>(
    err: &ErrPath<Q>,
    queues: &[Arc<Q>],
    scan: impl Fn(&Arc<Q>, &mut dyn FnMut(&mut Attempt) -> Age) -> bool,
    rering: impl Fn(&Arc<Q>),
) -> ! {
    let policy = err.policy;
    let period = (policy.kick_after / 2).max(1_000_000);
    loop {
        ccnvme_runtime::delay(period);
        for q in queues {
            let now = ccnvme_runtime::now();
            let mut kick = false;
            let expired = scan(q, &mut |a| {
                let age = policy.age(now, a.submitted_at, &mut a.last_kick);
                kick |= age == Age::Kick;
                age
            });
            if !expired && kick {
                err.stats.doorbell_kicks.inc();
                rering(q);
            }
        }
    }
}

/// A queue's identity towards the observability hub: lifecycle events
/// carry its `qid`, completions feed its latency histogram.
pub(crate) struct QueueObs {
    pub(crate) qid: u16,
    /// The stack's observability hub (shared with the link/controller).
    pub(crate) hub: Arc<Obs>,
    /// Submit-to-complete latency of this queue's bios.
    complete_hist: Arc<Histogram>,
}

impl QueueObs {
    /// The handle of queue `qid`; `name` is its latency histogram's.
    pub(crate) fn new(hub: &Arc<Obs>, qid: u16, name: &str) -> QueueObs {
        QueueObs {
            qid,
            hub: Arc::clone(hub),
            complete_hist: hub.metrics.histogram(name),
        }
    }

    /// Records a lifecycle event of this queue, now; `persist: false`
    /// keeps it out of the flight recorder.
    pub(crate) fn event(
        &self,
        kind: EventKind,
        tx_id: u64,
        arg: u64,
        ctx: TraceCtx,
        persist: bool,
    ) {
        let ev = TraceEvent {
            at: ccnvme_runtime::now(),
            kind,
            qid: self.qid,
            tx_id,
            arg,
            ctx,
        };
        self.hub.trace.record(ev, persist);
    }

    /// Records the submit-to-complete latency of a bio completing now.
    pub(crate) fn completed(&self, submitted_at: Ns) {
        self.complete_hist
            .record(ccnvme_runtime::now().saturating_sub(submitted_at));
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use ccnvme_block::{submit_and_wait, BioFlags, BlockDevice};
    use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, OpMask, Trigger};
    use ccnvme_sim::Sim;
    use ccnvme_ssd::{CtrlConfig, NvmeController, SsdProfile};
    use parking_lot::Mutex;

    use super::*;
    use crate::{CcNvmeDriver, NvmeDriver};

    #[test]
    fn on_busy_grants_exactly_the_retry_budget_with_the_documented_backoff() {
        let hostmem = HostMemory::new();
        let mut a = Attempt::from_bio(&hostmem, &Bio::flush());
        assert_eq!(a.on_busy(Status::Success), None, "only busy is transient");
        assert_eq!(a.on_busy(Status::MediaWriteError), None);
        a.last_kick = 7;
        let granted: Vec<Ns> = std::iter::from_fn(|| a.on_busy(Status::Busy)).collect();
        let documented: Vec<Ns> = (1..=MAX_RETRIES).map(ErrPolicy::backoff).collect();
        assert_eq!(granted, documented);
        assert_eq!(granted[..3], [20_000, 40_000, 80_000]);
        assert_eq!((a.attempts, a.last_kick), (MAX_RETRIES, 0));
        assert_eq!(a.on_busy(Status::Busy), None, "budget spent: busy is final");
    }

    /// The third write command the device sees and the one after it —
    /// the third write's first retry — complete busy.
    fn busy_twice() -> CtrlConfig {
        let busy = |n| FaultRule::new(FaultKind::Busy, Trigger::Nth(n)).ops(OpMask::WRITES);
        let plan = FaultPlan::new(5).rule(busy(3)).rule(busy(4));
        let mut cfg =
            CtrlConfig::new(SsdProfile::optane_p5800x()).with_fault(Arc::new(plan.injector()));
        cfg.device_core = 1;
        cfg
    }

    fn four_writes(dev: &dyn BlockDevice) {
        for lba in 0..4u64 {
            let data = Arc::new(Mutex::new(vec![lba as u8; 4096]));
            submit_and_wait(dev, Bio::write(lba, data, BioFlags::NONE)).expect("write");
        }
    }

    #[test]
    fn both_drivers_account_the_same_busy_retries() {
        /// The `host_err.*` counters of the stack `drive` ran on.
        fn run(drive: fn(NvmeController)) -> BTreeMap<String, u64> {
            Sim::run_main(2, move || {
                let ctrl = NvmeController::new(busy_twice());
                let obs = Arc::clone(&ctrl.link().obs);
                drive(ctrl);
                let mut counters = obs.metrics.snapshot().counters;
                counters.retain(|name, _| name.starts_with("host_err."));
                counters
            })
        }
        let nvme = run(|ctrl| four_writes(&NvmeDriver::new(ctrl, 1)));
        let cc = run(|ctrl| four_writes(&CcNvmeDriver::new(ctrl, 1, 64)));
        assert_eq!(
            (
                nvme["host_err.busy_completions"],
                nvme["host_err.retries"],
                nvme["host_err.retries_exhausted"]
            ),
            (2, 2, 0)
        );
        assert_eq!(nvme.len(), 8, "every rung of the ladder is registered");
        assert_eq!(nvme, cc, "one error path, one set of books");
    }
}
