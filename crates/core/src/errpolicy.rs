//! Host-side error-handling policy and statistics.
//!
//! Both drivers share one recovery ladder, modelled on the Linux NVMe
//! host's `nvme_timeout`/requeue machinery:
//!
//! 1. **Transient busy** completions are retried transparently with
//!    capped exponential backoff ([`ErrPolicy::backoff`]), up to
//!    `MAX_RETRIES` times.
//! 2. A command that produces no completion is first *kicked*: after
//!    [`ErrPolicy::kick_after`] the watchdog re-rings the SQ tail
//!    doorbell, which recovers a dropped doorbell MMIO for free.
//! 3. A command still silent at [`ErrPolicy::timeout`] is aborted; the
//!    baseline driver drains and re-creates the whole hardware queue
//!    (the controller may have wedged), completing every aborted bio
//!    with [`ccnvme_block::BioStatus::Timeout`].
//!
//! Unrecoverable statuses (media, internal) are never retried — they
//! propagate as typed bio errors for the journal and file system to
//! handle. [`HostErrStats`] counts every step of the ladder in the
//! stack's metrics registry (`host_err.*`), so benches can report
//! error-path overhead.

use std::sync::Arc;

use ccnvme_block::BioStatus;
use ccnvme_obs::{Counter, Registry};
use ccnvme_runtime::Ns;
use ccnvme_ssd::Status;

/// Timeouts of the host error path.
#[derive(Debug, Clone, Copy)]
pub struct ErrPolicy {
    /// Age at which a silent command gets its doorbell re-rung.
    pub kick_after: Ns,
    /// Age at which a silent command is aborted (and, on the baseline
    /// driver, its queue drained and re-created).
    pub timeout: Ns,
}

impl Default for ErrPolicy {
    fn default() -> Self {
        // Generous relative to worst-case legitimate latency (a flush of
        // a large dirty cache runs ~1 ms; a saturated 256-deep queue
        // drains in well under 10 ms on every modelled profile), so the
        // watchdog never aborts a healthy command. Virtual time makes
        // long timeouts free.
        ErrPolicy {
            kick_after: 10_000_000, // 10 ms
            timeout: 50_000_000,    // 50 ms
        }
    }
}

/// Transparent resubmissions of a transiently-failing command.
pub(crate) const MAX_RETRIES: u32 = 6;
/// First retry backoff (20 µs); doubles per attempt.
const BACKOFF_BASE: Ns = 20_000;
/// Backoff ceiling (2 ms).
const BACKOFF_CAP: Ns = 2_000_000;

impl ErrPolicy {
    /// Backoff before retry number `attempt` (1-based), exponential with
    /// a cap.
    pub fn backoff(attempt: u32) -> Ns {
        let shift = attempt.saturating_sub(1).min(20);
        (BACKOFF_BASE << shift).min(BACKOFF_CAP)
    }
}

/// What the watchdog makes of one in-flight command's age.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Age {
    /// Younger than [`ErrPolicy::kick_after`], or kicked more recently
    /// than that: left alone.
    Fresh,
    /// Silent for `kick_after` since its submission and since its last
    /// kick: re-ring its doorbell.
    Kick,
    /// Silent for [`ErrPolicy::timeout`]: abort it.
    Expired,
}

impl ErrPolicy {
    /// Ages a command submitted at `submitted_at` against `now`; a
    /// [`Age::Kick`] verdict stamps `last_kick`. Kicks repeat every
    /// `kick_after` until the timeout: the kick MMIO is posted and may
    /// itself be dropped.
    pub(crate) fn age(&self, now: Ns, submitted_at: Ns, last_kick: &mut Ns) -> Age {
        let age = now.saturating_sub(submitted_at);
        if age >= self.timeout {
            Age::Expired
        } else if age >= self.kick_after && now.saturating_sub(*last_kick) >= self.kick_after {
            *last_kick = now;
            Age::Kick
        } else {
            Age::Fresh
        }
    }
}

/// Maps an NVMe completion status to the block-layer status delivered
/// with the bio. `Busy` only reaches a bio after the retry budget is
/// exhausted.
pub fn map_status(status: Status) -> BioStatus {
    match status {
        Status::Success => BioStatus::Ok,
        Status::InvalidField | Status::InternalError => BioStatus::Error,
        Status::MediaReadError | Status::MediaWriteError => BioStatus::Media,
        Status::Busy => BioStatus::Busy,
    }
}

/// Host error-path counters.
///
/// They live in the stack's metrics registry under `host_err.*` names
/// (see [`HostErrStats::registered`]), which is where harnesses read
/// them; the struct holds the handles the drivers increment.
#[derive(Debug, Default)]
pub struct HostErrStats {
    /// Transient busy completions observed.
    pub busy_completions: Arc<Counter>,
    /// Commands resubmitted after backoff.
    pub retries: Arc<Counter>,
    /// Commands whose retry budget ran out (failed up to the bio).
    pub retries_exhausted: Arc<Counter>,
    /// Watchdog doorbell re-rings (stage 1 of the timeout ladder).
    pub doorbell_kicks: Arc<Counter>,
    /// Commands aborted by the watchdog (stage 2).
    pub timeouts: Arc<Counter>,
    /// Hardware queues drained and re-created after aborts.
    pub queue_reinits: Arc<Counter>,
    /// Unrecoverable media errors delivered to bios.
    pub media_errors: Arc<Counter>,
    /// Whole transactions failed because one member failed (ccNVMe
    /// transaction-atomic error handling).
    pub tx_failures: Arc<Counter>,
}

impl HostErrStats {
    /// Creates counters registered in `reg` under `host_err.*` names.
    pub fn registered(reg: &Registry) -> Self {
        HostErrStats {
            busy_completions: reg.counter("host_err.busy_completions"),
            retries: reg.counter("host_err.retries"),
            retries_exhausted: reg.counter("host_err.retries_exhausted"),
            doorbell_kicks: reg.counter("host_err.doorbell_kicks"),
            timeouts: reg.counter("host_err.timeouts"),
            queue_reinits: reg.counter("host_err.queue_reinits"),
            media_errors: reg.counter("host_err.media_errors"),
            tx_failures: reg.counter("host_err.tx_failures"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        assert_eq!(ErrPolicy::backoff(1), BACKOFF_BASE);
        assert_eq!(ErrPolicy::backoff(2), BACKOFF_BASE * 2);
        assert_eq!(ErrPolicy::backoff(3), BACKOFF_BASE * 4);
        assert_eq!(ErrPolicy::backoff(30), BACKOFF_CAP);
    }

    #[test]
    fn age_kicks_once_per_kick_after_until_the_timeout() {
        let p = ErrPolicy::default();
        let mut last_kick = 0;
        assert_eq!(p.age(p.kick_after - 1, 0, &mut last_kick), Age::Fresh);
        assert_eq!(p.age(p.kick_after, 0, &mut last_kick), Age::Kick);
        assert_eq!(last_kick, p.kick_after);
        assert_eq!(p.age(p.kick_after + 1, 0, &mut last_kick), Age::Fresh);
        assert_eq!(p.age(2 * p.kick_after, 0, &mut last_kick), Age::Kick);
        assert_eq!(p.age(p.timeout, 0, &mut last_kick), Age::Expired);
    }

    #[test]
    fn status_mapping_is_typed() {
        assert_eq!(map_status(Status::Success), BioStatus::Ok);
        assert_eq!(map_status(Status::MediaReadError), BioStatus::Media);
        assert_eq!(map_status(Status::MediaWriteError), BioStatus::Media);
        assert_eq!(map_status(Status::Busy), BioStatus::Busy);
        assert_eq!(map_status(Status::InvalidField), BioStatus::Error);
        assert_eq!(map_status(Status::InternalError), BioStatus::Error);
    }
}
