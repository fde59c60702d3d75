//! The file-system crash surface: a [`CrashWorkload`] on a full stack
//! (device → driver → journal → MQFS / Ext4 variants).
//!
//! Every crash image is booted into a fresh stack, remounted (ccNVMe
//! window recovery + journal replay), fsck'd and checked against the
//! workload's durability oracle. On ccNVMe stacks the flight recorder
//! must also mount on every reachable image, and its per-transaction
//! verdicts must never contradict the §4.4 recovery scan (counter
//! `forensics_images`). The convergence witness is the media content
//! an fsck-clean recovery leaves behind — the PMR legitimately differs
//! across recoveries (the ring generation bumps on every probe).

use std::{
    collections::{HashMap, HashSet},
    sync::Arc,
};

use ccnvme_ssd::DurableImage;

use crate::sweep::{CrashSurface, Domain, Judgement, Settled, Tape};
use crate::{CrashWorkload, Stack, StackConfig, SETTLED};

/// One workload on one stack.
pub struct FsSurface {
    /// The script and its durability oracle.
    pub workload: Arc<dyn CrashWorkload>,
    /// Stack under test (`record_persistence` is forced on internally
    /// for the instrumented passes).
    pub stack: StackConfig,
}

impl FsSurface {
    fn stack(&self, record: bool) -> StackConfig {
        let mut cfg = self.stack.clone();
        cfg.record_persistence = record;
        cfg
    }
}

impl CrashSurface for FsSurface {
    type Script = ();
    type Witness = HashMap<u64, Vec<u8>>;

    fn name(&self) -> String {
        self.workload.name().into()
    }

    fn cores(&self) -> usize {
        self.stack.sim_cores()
    }

    fn record(&self, tape: &mut Tape) {
        let (stack, fs) = Stack::format(&self.stack(true));
        let log = stack.controller().persist_log();
        tape.start(vec![Domain {
            log: log.expect("record_persistence was set"),
            geometry: stack.cc_driver().map(|d| d.layout().sanitizer_geometry()),
        }]);
        self.workload.run(&fs, tape.marks());
    }

    fn judge(&self, _: &(), images: &[DurableImage], acked: &HashSet<u64>) -> Judgement {
        let mut problems = match Stack::recover(&self.stack(false), &images[0]) {
            Ok((_stack, fs)) => {
                let mut problems = fs.check();
                problems.extend(self.workload.verify(&fs, acked));
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
        let (stack, fs) = Stack::recover(&self.stack(record), &images[0])
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
            witness: stack.crash_snapshot(SETTLED).blocks,
            logs: stack.controller().persist_log().into_iter().collect(),
        })
    }
}
