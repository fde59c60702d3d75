//! Crash-consistency testing in the spirit of CrashMonkey (OSDI '18):
//! the methodology of the paper's §7.6 / Table 4, taken to its limit.
//!
//! One engine ([`sweep`]) runs a surface's script once on instrumented
//! devices, cuts the recorded persistence-event logs — at every event
//! prefix, at every n-th instant, or at N instants spread over the run
//! (the Table 4 campaign) — boots each cut's images into a fresh stack
//! and holds the recovered state to the surface's oracle. Three
//! surfaces plug in, each taking its script as data: the file system
//! under an [`FsScript`] ([`FsSurface`]), the ploc detectable
//! structures ([`PlocSurface`]) and the sharded 2PC cluster
//! ([`ClusterSurface`]).
//!
//! An [`FsScript`] is a list of steps, each a few file-system
//! operations on one core ending in an `fsync` ([`script`]). Every
//! crash image is remounted (journal recovery + ccNVMe
//! unfinished-window handling), must pass `FileSystem::check` (an
//! fsck), and is held to one rule: the recovered namespace equals the
//! model after the last persisted step, or after a later issued step,
//! skipping steps that failed before the cut.
//!
//! [`faults`] sweeps the same surface with a deterministic device-error
//! schedule armed on the recorded run.

pub mod cluster;
pub mod faults;
pub mod fs;
pub mod ploc;
pub mod script;
pub mod stack;
pub mod sweep;
pub mod workloads;

use std::collections::HashSet;

use ccnvme_sim::Ns;
use ccnvme_ssd::{CtrlConfig, DurableImage, NvmeController, SsdProfile};
use parking_lot::Mutex;

pub use cluster::ClusterSurface;
pub use faults::{run_fault_campaign, FaultCampaignConfig};
pub use fs::{fault_tallies, FsSurface};
pub use ploc::PlocSurface;
pub use script::{FsScript, Model, Namespace, Op};
pub use stack::{Stack, StackConfig};
pub use sweep::{sweep, CrashSurface, Cuts, RecrashSweep, SweepPlan, SweepReport};
pub use workloads::table4_workloads;

/// A bare Optane 905P controller with its daemons on `device_core`:
/// fresh, or restored from a crash image.
pub(crate) fn boot_ctrl(
    device_core: usize,
    image: Option<&DurableImage>,
    record_persistence: bool,
) -> NvmeController {
    let mut cfg = CtrlConfig::new(SsdProfile::optane_905p());
    cfg.device_core = device_core;
    cfg.record_persistence = record_persistence;
    let blank = DurableImage::blank(cfg.profile.pmr_size);
    NvmeController::from_image(cfg, image.unwrap_or(&blank))
}

/// The ack marks of a recorded run, each with the instant it was made.
#[derive(Default)]
pub struct OpLog {
    marks: Mutex<Vec<(u64, Ns)>>,
}

impl OpLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        OpLog::default()
    }

    /// Records mark `op` now.
    pub fn mark(&self, op: u64) {
        self.marks.lock().push((op, ccnvme_sim::now()));
    }

    /// Marks made strictly before `t`: a crash cut *just before* the
    /// event at `t` must not credit a mark made exactly at `t`.
    ///
    /// Marks arrive in virtual-time order (the simulation clock is
    /// monotone), so the completed set is the prefix up to the first
    /// mark at or past `t` — found by binary search rather than
    /// filtering the whole vector on every cut.
    pub fn persisted_before(&self, t: Ns) -> HashSet<u64> {
        let marks = self.marks.lock();
        debug_assert!(marks.windows(2).all(|w| w[0].1 <= w[1].1));
        let end = marks.partition_point(|&(_, m)| m < t);
        marks[..end].iter().map(|&(op, _)| op).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnvme_sim::Sim;

    #[test]
    fn persisted_before_returns_the_time_prefix() {
        let (log, times) = Sim::run_main(1, || {
            let log = OpLog::new();
            let mut times = Vec::new();
            for op in 0..10u64 {
                ccnvme_sim::delay(100);
                log.mark(op);
                times.push(ccnvme_sim::now());
            }
            (log, times)
        });
        // Up to and at the first mark: empty.
        assert!(log.persisted_before(times[0]).is_empty());
        // Just past mark k and up to mark k+1 (exclusive): ops 0..=k.
        for (k, &tk) in times.iter().enumerate() {
            let want: HashSet<u64> = (0..=k as u64).collect();
            assert_eq!(log.persisted_before(tk + 1), want, "after mark {k}");
            assert_eq!(log.persisted_before(tk + 100), want, "at mark {}", k + 1);
        }
        // Far past the end: everything.
        assert_eq!(log.persisted_before(Ns::MAX).len(), 10);
    }
}
