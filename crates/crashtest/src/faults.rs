//! Fault campaigns: deterministic device-error schedules, each one a
//! crash sweep.
//!
//! Where a plain crash sweep varies only *when the power dies*, a fault
//! schedule also fixes *when the hardware misbehaves*: it arms exactly
//! one fault — a kind plus a virtual-time window start derived from the
//! campaign seed — on the recorded run of [`fault_campaign`], whose
//! live error contract judges the run itself. The run is then cut at
//! every n-th instant, through the fault window to the nothing-lost end
//! state, and every cut boots on healthy hardware: recovery never
//! replays a torn or failed transaction, the persist-order sanitizer
//! stays silent, and the flight recorder never contradicts recovery.

use ccnvme_fault::{FaultKind, FaultPlan, FaultRule, OpMask, Trigger};
use ccnvme_sim::{DetRng, Ns, Sim};

use crate::sweep::{CrashSurface, Tape};
use crate::workloads::{fault_campaign, FAULT_FILES};
use crate::{sweep, Cuts, FsSurface, StackConfig, SweepPlan, SweepReport};

/// Every schedule is cut at every `CUT_STRIDE`-th instant of its run.
const CUT_STRIDE: usize = 24;

/// Fault-campaign configuration.
#[derive(Clone)]
pub struct FaultCampaignConfig {
    /// Stack under test (fault plans are supplied by the campaign; a
    /// plan already present here is ignored).
    pub stack: StackConfig,
    /// Deterministic schedules per fault kind.
    pub schedules: usize,
    /// Campaign seed: fixes every window start and torn-DMA size.
    pub seed: u64,
}

fn plan_for(kind: FaultKind, seed: u64, from: Ns) -> FaultPlan {
    let mask = if kind == FaultKind::DoorbellDrop {
        OpMask::DOORBELLS
    } else {
        OpMask::WRITES
    };
    FaultPlan::new(seed).rule(
        FaultRule::new(
            kind,
            Trigger::TimeWindow {
                from,
                until: u64::MAX,
            },
        )
        .ops(mask)
        .max_hits(1),
    )
}

/// Runs `cfg.schedules` deterministic schedules of each kind in `kinds`
/// and returns one report per kind, the sum of its schedules' sweeps:
/// the counters `fired`, `degraded`, `retries`, `kicks` and `timeouts`
/// tally the recorded runs ([`crate::fault_tallies`]).
///
/// # Panics
///
/// If the healthy run that places the fault windows breaks its own
/// contract: no schedule would then mean anything.
pub fn run_fault_campaign(kinds: &[FaultKind], cfg: &FaultCampaignConfig) -> Vec<SweepReport> {
    let plan = SweepPlan {
        cuts: Cuts::EveryNthInstant(CUT_STRIDE),
        ..SweepPlan::every()
    };
    let surface = |fault| FsSurface {
        script: fault_campaign(),
        stack: StackConfig {
            fault,
            ..cfg.stack.clone()
        },
    };
    // A healthy run brackets the file steps' traffic, where the fault
    // windows are placed.
    let healthy = surface(None);
    let run = Sim::run_main(healthy.cores(), move || {
        healthy.record(&mut Tape::default())
    });
    assert!(
        run.report.failures.is_empty(),
        "fault campaign: healthy run: {:?}",
        run.report.failures
    );
    let (t_begin, t_end) = (run.steps[1].issued, run.steps[FAULT_FILES].ended);
    let mut reports = Vec::with_capacity(kinds.len());
    for (ki, &kind) in kinds.iter().enumerate() {
        let mut rep = SweepReport {
            surface: format!("fault_campaign.{kind:?}").to_lowercase(),
            ..SweepReport::default()
        };
        for i in 0..cfg.schedules {
            let mut rng = DetRng::derive(cfg.seed, (ki as u64) << 32 | i as u64);
            let from = rng.range(t_begin, t_end);
            let fault = plan_for(kind, rng.next_u64(), from);
            rep.absorb(
                &format!("schedule #{i}"),
                sweep(surface(Some(fault)), &plan),
            );
        }
        reports.push(rep);
    }
    reports
}
