//! The file-system crash surface: an [`FsScript`] on a full stack
//! (device → driver → journal → MQFS / Ext4 variants).
//!
//! Every crash image is booted into a fresh stack, remounted (ccNVMe
//! window recovery + journal replay), fsck'd and held to the script's
//! step rule ([`FsScript::judge`]). On ccNVMe stacks the flight recorder
//! must also mount on every reachable image, and its per-transaction
//! verdicts must never contradict the §4.4 recovery scan (counter
//! `forensics_images`). The convergence witness is the media content
//! an fsck-clean recovery leaves behind — the PMR legitimately differs
//! across recoveries (the ring generation bumps on every probe).
//!
//! A fault plan in the stack config arms the recorded run only: every
//! crash image boots on healthy hardware. What the recorded run broke
//! of the script's live contract ([`FsScript::live`]) fails the sweep,
//! and a faulted sweep reports the run's [`fault_tallies`] as counters.

use std::{
    collections::{BTreeMap, HashSet},
    sync::Arc,
};

use ccnvme_fault::FaultCounters;
use ccnvme_obs::{hash::IntMap, MetricsSnapshot};
use ccnvme_ssd::{CrashMode, DurableImage, MediaBlock, PersistLog};
use mqfs::FileSystem;

use crate::script::{FsScript, Namespace, StepRun};
use crate::sweep::{CrashSurface, Domain, Judgement, Settled, SweepReport, Tape};
use crate::{Stack, StackConfig};

/// The fault tallies of a run on `fs`, from `m`, a snapshot of its
/// stack's registry: `fired` and `degraded` (0 or 1), and the host
/// error ladder's `retries`, `kicks` and `timeouts`. A faulted sweep
/// reports its recorded run's as counters; a script with a live error
/// contract judges its run on them.
pub fn fault_tallies(m: &MetricsSnapshot, fs: &FileSystem) -> BTreeMap<&'static str, u64> {
    let host_err = |name: &str| m.counter(&format!("host_err.{name}"));
    [
        ("fired", (FaultCounters::media_injections(m) > 0) as u64),
        ("degraded", fs.error_state().is_some() as u64),
        ("retries", host_err("retries")),
        ("kicks", host_err("doorbell_kicks")),
        ("timeouts", host_err("timeouts")),
    ]
    .into()
}

/// One script on one stack.
pub struct FsSurface {
    /// The script.
    pub script: FsScript,
    /// Stack under test (`record_persistence` is forced on internally
    /// for the instrumented passes; `fault` arms the recorded run only).
    pub stack: StackConfig,
}

impl FsSurface {
    /// The stack a crash image boots on: healthy hardware.
    fn healthy(&self, record: bool) -> StackConfig {
        StackConfig {
            fault: None,
            record_persistence: record,
            ..self.stack.clone()
        }
    }
}

/// What a recorded run of an [`FsSurface`] did.
pub struct FsRun {
    /// Each step's instants and outcome.
    pub steps: Vec<StepRun>,
    /// What the run broke of the live contract, and its fault tallies.
    pub report: SweepReport,
}

impl CrashSurface for FsSurface {
    type Script = FsRun;
    type Witness = IntMap<u64, MediaBlock>;

    fn name(&self) -> String {
        self.script.name.into()
    }

    fn cores(&self) -> usize {
        self.stack.sim_cores()
    }

    fn record(&self, tape: &mut Tape) -> FsRun {
        let (stack, fs) = Stack::format(&StackConfig {
            record_persistence: true,
            ..self.stack.clone()
        });
        let log = stack.controller().persist_log();
        tape.start(vec![Domain {
            log: log.expect("record_persistence was set"),
            geometry: stack.cc_driver().map(|d| d.layout().sanitizer_geometry()),
        }]);
        let steps = self.script.run(&fs, tape.marks());
        let failures = (self.script.live)(&self.script, &fs, &steps);
        let counters = match self.stack.fault {
            None => Default::default(),
            Some(_) => fault_tallies(&stack.metrics(), &fs),
        };
        let report = SweepReport {
            failures,
            counters,
            ..SweepReport::default()
        };
        FsRun { steps, report }
    }

    fn judge(&self, run: &FsRun, images: &[DurableImage], acked: &HashSet<u64>) -> Judgement {
        let mut problems = match Stack::recover(&self.healthy(false), &images[0]) {
            Ok((_stack, fs)) => {
                let mut problems = fs.check();
                let found = Namespace::observe(&fs);
                problems.extend(self.script.judge(&run.steps, acked, &found).err());
                problems
            }
            Err(e) => vec![format!("remount failed: {e}")],
        };
        let mut counters = Vec::new();
        if self.stack.uses_ccnvme() {
            match ccnvme::image_forensics(&images[0].pmr) {
                Ok(fx) => {
                    counters.push(("forensics_images", 1));
                    if !fx.contradictions.is_empty() {
                        problems.push(format!("forensics: {}", fx.contradictions.join("; ")));
                    }
                }
                Err(e) => problems.push(format!("blackbox mount failed: {e}")),
            }
        }
        Judgement {
            counters,
            ..Judgement::single(problems)
        }
    }

    fn settle(
        &self,
        images: &[DurableImage],
        record: bool,
    ) -> Result<Settled<Self::Witness>, String> {
        let (stack, fs) = Stack::recover(&self.healthy(record), &images[0])
            .map_err(|e| format!("remount failed: {e}"))?;
        // The recorded pass ends where the mount returns: an fsck would
        // let background journal work run on and lengthen the log it is
        // cut along. Every cut through it is fsck'd instead.
        if !record {
            let problems = fs.check();
            if !problems.is_empty() {
                return Err(format!("fsck after recovery: {}", problems.join("; ")));
            }
        }
        Ok(Settled {
            witness: stack.crash_snapshot(CrashMode::SETTLED).blocks,
            logs: stack.controller().persist_log().into_iter().collect(),
        })
    }

    fn finish(&self, run: &FsRun, _: &[Arc<PersistLog>], report: &mut SweepReport) {
        report.absorb("recorded run", run.report.clone());
    }
}
