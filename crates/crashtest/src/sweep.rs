//! The crash-sweep engine: one record → cut → boot → judge loop that
//! every crash surface in this crate plugs into (DESIGN.md §11.6).
//!
//! A [`CrashSurface`] supplies what genuinely differs between the file
//! system, the ploc structures and the 2PC cluster: its script and ack
//! marks, how to boot a set of crash images, its oracle, and what a
//! settled recovery looks like. The engine owns everything else:
//!
//! * running each closure in a fresh simulation;
//! * the single recorded pass — every durable-effecting event of every
//!   domain lands in a [`PersistLog`], every acknowledged guarantee in
//!   an [`OpLog`];
//! * the persist-order sanitizer pass over each recorded domain;
//! * cut enumeration per [`Cuts`], torn posted-write expansion per
//!   [`SweepPlan::torn_depth`], and materializing **one image set at a
//!   time** from the logs ([`walk`] is the only place that does);
//! * the crash-during-recovery convergence sweep per [`RecrashSweep`];
//! * failure capping, one [`SweepReport`], one `crashenum.*` metrics
//!   flattener.

use std::{
    collections::{BTreeMap, HashSet},
    sync::Arc,
};

use ccnvme_sim::{Ns, Sim};
use ccnvme_ssd::{CacheSurvival, CrashMode, DurableImage, PersistLog, SanitizerGeometry};

use crate::OpLog;

/// Failures described in a report; the rest are only counted out of
/// `states - clean`.
const FAILURE_CAP: usize = 8;

/// Where a sweep places its crash cuts on the recorded run.
///
/// A cut is one instant of virtual time: every domain's log is
/// truncated there, so per-domain prefixes never disagree about the
/// past (the simulation clock is shared), and exactly the marks made
/// before it are credited to the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cuts {
    /// Every event prefix of the script, all domains merged in
    /// durability order: `events + 1` cuts, the complete surface. A
    /// cut just before an event credits only marks made strictly
    /// earlier.
    Every,
    /// Every `n`-th distinct instant at which any domain gained an
    /// event during the script, plus the nothing-lost end state; the
    /// first and the final cut are always walked.
    EveryNthInstant(usize),
    /// `N` instants spread evenly over the script's run (§7.6 /
    /// Table 4). A cut at instant `t` keeps every event and credits
    /// every mark at or before `t`; on a device with a volatile cache,
    /// two cuts in three also keep a seeded random half of the blocks
    /// still cached, the third drops them all.
    Spread(usize),
}

/// How hard a sweep re-crashes recovery itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecrashSweep {
    /// No crash-during-recovery exploration.
    None,
    /// Sweep only the last cut's image (the nothing-lost state under
    /// [`Cuts::Every`]): every persistence event of its recovery
    /// becomes a second crash point. Bounded cost; the smoke tier.
    FinalImage,
    /// Sweep every explored image. Exhaustive; the deep tier.
    EveryImage,
}

/// The one plan every surface is swept under.
#[derive(Debug, Clone, Copy)]
pub struct SweepPlan {
    /// Where the crash cuts fall.
    pub cuts: Cuts,
    /// Maximum in-flight posted-write extensions explored per cut
    /// (0 = arrived writes only). PCIe posted writes arrive FIFO, so
    /// the legal torn sets of a domain collapse to prefix counts; with
    /// several domains the same count is tried on each at once.
    pub torn_depth: usize,
    /// Crash-during-recovery exploration policy.
    pub recrash: RecrashSweep,
}

impl SweepPlan {
    /// Every event prefix, arrived writes only, no re-crash.
    pub fn every() -> Self {
        SweepPlan {
            cuts: Cuts::Every,
            torn_depth: 0,
            recrash: RecrashSweep::None,
        }
    }
}

/// One recovery domain of a recorded run: a device whose durable state
/// is cut, imaged and booted as a unit.
pub struct Domain {
    /// The device's persistence-event log.
    pub log: Arc<PersistLog>,
    /// The driver's P-SQ/doorbell geometry for the persist-order
    /// sanitizer (`None` when no ccNVMe driver owns the PMR).
    pub geometry: Option<SanitizerGeometry>,
}

/// What the engine hands [`CrashSurface::record`]: the surface names
/// its instrumented domains when set-up is over, and marks each
/// guarantee as it is acknowledged.
#[derive(Default)]
pub struct Tape {
    marks: Arc<OpLog>,
    domains: Vec<Domain>,
    /// Per-domain event count when the script started (everything
    /// before is set-up, whose durability is unconditional).
    base: Vec<usize>,
    t0: Ns,
}

impl Tape {
    /// Set-up (mkfs, format, mount) is over and the script starts now:
    /// every later event of `domains` is part of the crash surface.
    pub fn start(&mut self, domains: Vec<Domain>) {
        self.base = domains.iter().map(|d| d.log.len()).collect();
        self.t0 = ccnvme_sim::now();
        self.domains = domains;
    }

    /// The ack marks of this run.
    pub fn marks(&self) -> &Arc<OpLog> {
        &self.marks
    }
}

/// A surface's verdict on one crash image set.
pub struct Judgement {
    /// Recovery schedules the image set was put through (1 unless the
    /// surface varies boot order).
    pub schedules: usize,
    /// Schedules that recovered to an oracle-clean state.
    pub clean: usize,
    /// What went wrong, one line per finding.
    pub problems: Vec<String>,
    /// Surface-specific coverage, summed over the sweep into
    /// [`SweepReport::counters`].
    pub counters: Vec<(&'static str, u64)>,
}

impl Judgement {
    /// One schedule: clean exactly when `problems` is empty.
    pub fn single(problems: Vec<String>) -> Self {
        Judgement {
            schedules: 1,
            clean: problems.is_empty() as usize,
            problems,
            counters: Vec::new(),
        }
    }
}

/// A recovery that ran to its end.
pub struct Settled<W> {
    /// What the recovery converged to.
    pub witness: W,
    /// Each domain's log of the recovery itself (recording passes
    /// only, else empty).
    pub logs: Vec<Arc<PersistLog>>,
}

/// What a crash surface supplies to [`sweep`]. Every method except
/// [`name`](Self::name), [`cores`](Self::cores) and
/// [`finish`](Self::finish) runs on the main thread of a fresh
/// simulation of [`cores`](Self::cores) cores.
pub trait CrashSurface: Send + Sync + 'static {
    /// What the recorded pass must remember for the oracle (per-op
    /// results, the transaction table).
    type Script: Send + Sync + 'static;
    /// What a settled recovery is compared by: every cut through a
    /// recovery must re-recover to an equal witness.
    type Witness: PartialEq + Send + 'static;

    /// Report label and `crashenum.<name>.*` metric key.
    fn name(&self) -> String;

    /// Simulated cores one boot of the surface needs.
    fn cores(&self) -> usize;

    /// Builds the instrumented domains, calls [`Tape::start`], runs the
    /// script and marks every acknowledged guarantee.
    fn record(&self, tape: &mut Tape) -> Self::Script;

    /// Boots `images` (one per domain), runs recovery and holds the
    /// result to the oracle; `acked` are the marks made before the cut.
    fn judge(
        &self,
        script: &Self::Script,
        images: &[DurableImage],
        acked: &HashSet<u64>,
    ) -> Judgement;

    /// Boots `images` — recording persistence when `record` — lets
    /// recovery settle and returns its witness, or why it could not.
    fn settle(
        &self,
        images: &[DurableImage],
        record: bool,
    ) -> Result<Settled<Self::Witness>, String>;

    /// Last word on a finished sweep: add coverage counters of the
    /// recorded pass, and fail a sweep that tested nothing.
    fn finish(&self, _script: &Self::Script, _logs: &[Arc<PersistLog>], _report: &mut SweepReport) {
    }
}

/// What a sweep found.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// The surface's [`name`](CrashSurface::name).
    pub surface: String,
    /// Durable-effecting events the script generated, over all domains.
    pub events: usize,
    /// Crash cuts walked.
    pub cuts: usize,
    /// Crash states explored (cuts × torn extensions × schedules).
    pub states: usize,
    /// States that recovered oracle-clean.
    pub clean: usize,
    /// Crash points injected into recovery itself (re-crash sweep).
    pub recovery_recrashes: usize,
    /// Persist-order sanitizer violations over every domain's recorded
    /// run: doorbell rings that exposed a P-SQ slot with no covering
    /// MMIO flush. Must be zero — the dynamic dual of the static
    /// `persist-order` lint gate.
    pub sanitizer_violations: usize,
    /// Surface-specific coverage (see each surface's docs).
    pub counters: BTreeMap<&'static str, u64>,
    /// Descriptions of the first few failures.
    pub failures: Vec<String>,
}

impl SweepReport {
    /// The surface counter `name` (0 when the surface never bumped it).
    pub fn count(&self, name: &str) -> usize {
        self.counters.get(name).copied().unwrap_or(0) as usize
    }

    /// Records a failure; only the first few are kept.
    pub fn fail(&mut self, what: String) {
        if self.failures.len() < FAILURE_CAP {
            self.failures.push(what);
        }
    }

    /// Adds the counts of `other` to this report and keeps its failures,
    /// each prefixed with `label`: one report over several sweeps.
    pub fn absorb(&mut self, label: &str, other: SweepReport) {
        self.events += other.events;
        self.cuts += other.cuts;
        self.states += other.states;
        self.clean += other.clean;
        self.recovery_recrashes += other.recovery_recrashes;
        self.sanitizer_violations += other.sanitizer_violations;
        for (name, n) in other.counters {
            *self.counters.entry(name).or_default() += n;
        }
        for failure in other.failures {
            self.fail(format!("{label}: {failure}"));
        }
    }

    /// Flattens the report into the machine-readable
    /// `ccnvme-metrics/v1` document the bench binaries emit:
    /// one `crashenum.<surface>.<field>` counter per field.
    pub fn metrics(&self) -> ccnvme_obs::MetricsSnapshot {
        let mut snap = ccnvme_obs::MetricsSnapshot::default();
        let fixed = [
            ("events", self.events),
            ("cuts", self.cuts),
            ("states", self.states),
            ("clean", self.clean),
            ("recovery_recrashes", self.recovery_recrashes),
            ("sanitizer_violations", self.sanitizer_violations),
            ("failures", self.failures.len()),
        ];
        let all = fixed
            .iter()
            .map(|&(k, v)| (k, v as u64))
            .chain(self.counters.iter().map(|(&k, &v)| (k, v)));
        for (field, v) in all {
            snap.counters
                .insert(format!("crashenum.{}.{field}", self.surface), v);
        }
        snap
    }
}

/// One crash cut: how much of each domain survived, and up to when
/// acks count.
struct Cut {
    /// Events of each domain that became durable before the cut.
    prefix: Vec<usize>,
    /// The crash instant: marks made and posted writes issued strictly
    /// before it count.
    before: Ns,
    /// What the power cut leaves; [`walk`] raises `torn` from 0 up to
    /// the plan's depth.
    mode: CrashMode,
    label: String,
}

impl Cuts {
    /// The cuts of this plan over a run whose domains' events became
    /// durable at `times` (sorted), whose script started at `t0` after
    /// `base[d]` set-up events on domain `d`, and ended at `t_end`.
    fn place(self, times: &[Vec<Ns>], base: &[usize], t0: Ns, t_end: Ns) -> Vec<Cut> {
        let mode = |cache| CrashMode { torn: 0, cache };
        let at_instant = |before: Ns, cache, label| Cut {
            prefix: times
                .iter()
                .map(|t| t.partition_point(|&at| at < before))
                .collect(),
            before,
            mode: mode(cache),
            label,
        };
        match self {
            Cuts::Every => {
                let mut merged: Vec<(Ns, usize)> = times
                    .iter()
                    .enumerate()
                    .flat_map(|(d, t)| t.iter().map(move |&at| (at, d)))
                    .collect();
                merged.sort_unstable();
                let first = base.iter().sum::<usize>();
                let mut prefix = vec![0; times.len()];
                for &(_, d) in &merged[..first] {
                    prefix[d] += 1;
                }
                let mut cuts = Vec::with_capacity(merged.len() - first + 1);
                for g in first..=merged.len() {
                    cuts.push(Cut {
                        prefix: prefix.clone(),
                        before: merged.get(g).map_or(Ns::MAX, |&(at, _)| at),
                        mode: mode(CacheSurvival::DropAll),
                        label: format!("prefix {g}"),
                    });
                    if let Some(&(_, d)) = merged.get(g) {
                        prefix[d] += 1;
                    }
                }
                cuts
            }
            Cuts::EveryNthInstant(n) => {
                let mut instants: Vec<Ns> = times
                    .iter()
                    .flatten()
                    .copied()
                    .filter(|&at| at >= t0)
                    .collect();
                instants.sort_unstable();
                instants.dedup();
                instants.push(Ns::MAX);
                let last = instants.len() - 1;
                instants
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i % n.max(1) == 0 || i == last)
                    .map(|(_, &t)| at_instant(t, CacheSurvival::DropAll, format!("cut@{t}")))
                    .collect()
            }
            Cuts::Spread(n) => (0..n as u64)
                .map(|i| {
                    // Strictly inside (t0, t_end).
                    let t = t0 + (t_end - t0) * (i + 1) / (n as u64 + 1);
                    let cache = if i % 3 == 0 {
                        CacheSurvival::DropAll
                    } else {
                        CacheSurvival::Subset {
                            seed: i,
                            keep_prob: 0.5,
                        }
                    };
                    at_instant(t + 1, cache, format!("crash #{i} at t={t}ns"))
                })
                .collect(),
        }
    }
}

/// Walks `cuts` (ascending) over `logs` with one forward cursor per
/// domain and hands `visit` each cut's image sets — the cut's index,
/// the torn extension, one [`DurableImage`] per domain — one set at a
/// time. The only place crash images are materialized.
fn walk(
    logs: &[Arc<PersistLog>],
    cuts: &[Cut],
    torn_depth: usize,
    mut visit: impl FnMut(usize, usize, Vec<DurableImage>),
) {
    let mut cursors: Vec<_> = logs.iter().map(|l| l.cursor()).collect();
    for (i, cut) in cuts.iter().enumerate() {
        for (cursor, &p) in cursors.iter_mut().zip(&cut.prefix) {
            cursor.advance_to(p);
        }
        let torn_cap = if torn_depth == 0 {
            0
        } else {
            let legal = cursors.iter().map(|c| c.max_torn(cut.before)).max();
            torn_depth.min(legal.unwrap_or(0))
        };
        for torn in 0..=torn_cap {
            let images = cursors
                .iter()
                .map(|c| c.image(cut.before, CrashMode { torn, ..cut.mode }))
                .collect();
            visit(i, torn, images);
        }
    }
}

/// Re-crashes the recovery of `images` at each of its own persistence
/// events: every cut must re-recover to the same witness as the
/// uninterrupted recovery.
fn recrash<S: CrashSurface>(
    surface: &Arc<S>,
    images: &Arc<Vec<DurableImage>>,
    report: &mut SweepReport,
) {
    let settle = |images: Arc<Vec<DurableImage>>, record| {
        let surface = Arc::clone(surface);
        Sim::run_main(surface.cores(), move || surface.settle(&images, record))
    };
    let reference = match settle(Arc::clone(images), true) {
        Ok(settled) => settled,
        Err(e) => return report.fail(format!("recrash sweep: instrumented recovery: {e}")),
    };
    let times: Vec<Vec<Ns>> = reference.logs.iter().map(|l| l.event_times()).collect();
    let cuts = Cuts::Every.place(&times, &vec![0; times.len()], 0, 0);
    let total = cuts.len() - 1;
    walk(&reference.logs, &cuts, 0, |p, _, cut_images| {
        report.recovery_recrashes += 1;
        match settle(Arc::new(cut_images), false) {
            Ok(again) if again.witness == reference.witness => {}
            Ok(_) => report.fail(format!(
                "recovery re-crashed at event {p}/{total} diverged from the \
                 uninterrupted recovery"
            )),
            Err(e) => report.fail(format!("recovery re-crashed at event {p}/{total}: {e}")),
        }
    });
}

/// Sweeps one surface under one plan: records the script once, walks
/// the plan's cuts, boots and judges every crash state, re-crashes
/// recovery per [`SweepPlan::recrash`]. A plan that walks no state
/// proved nothing, and fails.
pub fn sweep<S: CrashSurface>(surface: S, plan: &SweepPlan) -> SweepReport {
    let surface = Arc::new(surface);
    let cores = surface.cores();
    let (tape, script, t_end) = {
        let surface = Arc::clone(&surface);
        Sim::run_main(cores, move || {
            let mut tape = Tape::default();
            let script = surface.record(&mut tape);
            (tape, script, ccnvme_sim::now())
        })
    };
    let script = Arc::new(script);
    let logs: Vec<Arc<PersistLog>> = tape.domains.iter().map(|d| Arc::clone(&d.log)).collect();
    let mut report = SweepReport {
        surface: surface.name(),
        events: logs.iter().zip(&tape.base).map(|(l, b)| l.len() - b).sum(),
        ..SweepReport::default()
    };
    // The runtime cross-check of the static persist-order gate: replay
    // each domain's whole recorded execution (set-up included) through
    // the shadow machine before walking any crash states.
    for (d, domain) in tape.domains.iter().enumerate() {
        let Some(geometry) = &domain.geometry else {
            continue;
        };
        let violations = domain.log.sanitize(geometry);
        report.sanitizer_violations += violations.len();
        for v in violations {
            report.fail(format!("domain {d} persist-order sanitizer: {v}"));
        }
    }
    let times: Vec<Vec<Ns>> = logs.iter().map(|l| l.event_times()).collect();
    let cuts = plan.cuts.place(&times, &tape.base, tape.t0, t_end);
    report.cuts = cuts.len();
    walk(&logs, &cuts, plan.torn_depth, |i, torn, images| {
        let cut = &cuts[i];
        let images = Arc::new(images);
        let acked = tape.marks.persisted_before(cut.before);
        let judgement = {
            let (surface, script, images) = (
                Arc::clone(&surface),
                Arc::clone(&script),
                Arc::clone(&images),
            );
            Sim::run_main(cores, move || surface.judge(&script, &images, &acked))
        };
        report.states += judgement.schedules;
        report.clean += judgement.clean;
        for problem in judgement.problems {
            report.fail(format!("{} torn {torn}: {problem}", cut.label));
        }
        for (name, n) in judgement.counters {
            *report.counters.entry(name).or_default() += n;
        }
        let last = i + 1 == cuts.len() && torn == 0;
        if plan.recrash == RecrashSweep::EveryImage
            || (plan.recrash == RecrashSweep::FinalImage && last)
        {
            recrash(&surface, &images, &mut report);
        }
    });
    if report.states == 0 {
        report.fail("the plan walked no crash state".into());
    }
    surface.finish(&script, &logs, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnvme_ssd::PersistEventKind;
    use parking_lot::Mutex;

    /// Three posted one-byte PMR stores on a bare log: `(issued_at,
    /// at)` = (1, 10), (2, 30), (35, 50) — the second is in flight
    /// across the first's arrival, the third is issued after it.
    struct Toy {
        /// Problems every judged state reports.
        complaints: usize,
        /// PMR bytes 0..3 of every judged image.
        seen: Arc<Mutex<Vec<[u8; 3]>>>,
    }

    impl CrashSurface for Toy {
        type Script = ();
        type Witness = ();

        fn name(&self) -> String {
            "toy".into()
        }

        fn cores(&self) -> usize {
            1
        }

        fn record(&self, tape: &mut Tape) {
            let log = Arc::new(PersistLog::new(DurableImage::blank(8)));
            tape.start(vec![Domain {
                log: Arc::clone(&log),
                geometry: None,
            }]);
            for (off, (issued_at, at)) in [(1, 10), (2, 30), (35, 50)].into_iter().enumerate() {
                log.record(
                    at,
                    PersistEventKind::PmrWrite {
                        off: off as u64,
                        data: vec![1],
                        issued_at,
                    },
                );
            }
        }

        fn judge(&self, _: &(), images: &[DurableImage], _: &HashSet<u64>) -> Judgement {
            let pmr = images[0].pmr.read_vec(0, 3);
            self.seen.lock().push([pmr[0], pmr[1], pmr[2]]);
            Judgement::single(vec!["complaint".into(); self.complaints])
        }

        fn settle(&self, _: &[DurableImage], _: bool) -> Result<Settled<()>, String> {
            Ok(Settled {
                witness: (),
                logs: vec![Arc::new(PersistLog::new(DurableImage::blank(8)))],
            })
        }
    }

    fn toy(complaints: usize) -> (Toy, Arc<Mutex<Vec<[u8; 3]>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        (
            Toy {
                complaints,
                seen: Arc::clone(&seen),
            },
            seen,
        )
    }

    #[test]
    fn every_prefix_of_three_events_is_four_states() {
        let (surface, seen) = toy(0);
        let r = sweep(surface, &SweepPlan::every());
        assert_eq!((r.events, r.cuts, r.states, r.clean), (3, 4, 4, 4));
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(
            *seen.lock(),
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]],
            "one image per event prefix, in order"
        );
        assert_eq!(r.metrics().counters["crashenum.toy.states"], 4);
    }

    #[test]
    fn torn_depth_one_adds_exactly_the_legal_tails() {
        let (surface, seen) = toy(0);
        let plan = SweepPlan {
            torn_depth: 1,
            ..SweepPlan::every()
        };
        let r = sweep(surface, &plan);
        assert_eq!((r.cuts, r.states), (4, 7));
        assert_eq!(
            *seen.lock(),
            [
                // Crash at t=10: the first store is the next to arrive.
                [0, 0, 0],
                [1, 0, 0],
                // Crash at t=30: the second store was posted at t=2.
                [1, 0, 0],
                [1, 1, 0],
                // Crash at t=50: the third was posted at t=35.
                [1, 1, 0],
                [1, 1, 1],
                // Nothing left in flight after the last arrival.
                [1, 1, 1],
            ]
        );
    }

    #[test]
    fn failures_are_capped_and_recrash_counts_its_cuts() {
        let (surface, _) = toy(3);
        let plan = SweepPlan {
            recrash: RecrashSweep::FinalImage,
            ..SweepPlan::every()
        };
        let r = sweep(surface, &plan);
        assert_eq!((r.states, r.clean), (4, 0));
        assert_eq!(r.failures.len(), FAILURE_CAP, "12 complaints, 8 kept");
        assert!(r.failures[0].starts_with("prefix 0 torn 0: complaint"));
        // The toy's recovery logs nothing: its one prefix is one cut.
        assert_eq!(r.recovery_recrashes, 1);
    }

    #[test]
    fn a_plan_that_walks_no_state_fails() {
        let (surface, seen) = toy(0);
        let plan = SweepPlan {
            cuts: Cuts::Spread(0),
            ..SweepPlan::every()
        };
        let r = sweep(surface, &plan);
        assert_eq!((r.cuts, r.states, r.clean), (0, 0, 0));
        assert!(seen.lock().is_empty());
        assert_eq!(r.failures, ["the plan walked no crash state"]);
    }

    #[test]
    fn instants_dedup_and_stride_and_spread_stays_inside_the_run() {
        let times = vec![vec![5, 10, 10, 20], vec![10, 30]];
        let cuts = Cuts::EveryNthInstant(1).place(&times, &[1, 0], 10, 40);
        let got: Vec<_> = cuts.iter().map(|c| (c.before, c.prefix.clone())).collect();
        assert_eq!(
            got,
            [
                (10, vec![1, 0]),
                (20, vec![3, 1]),
                (30, vec![4, 1]),
                (Ns::MAX, vec![4, 2])
            ]
        );
        let strided = Cuts::EveryNthInstant(3).place(&times, &[1, 0], 10, 40);
        let got: Vec<_> = strided.iter().map(|c| c.before).collect();
        assert_eq!(got, [10, Ns::MAX], "first and final always walked");
        // Merged event prefixes: 6 events, 1 of them set-up.
        assert_eq!(Cuts::Every.place(&times, &[1, 0], 10, 40).len(), 6);
        // Two instants inside (10, 40): an event at t survives a cut at t.
        let spread = Cuts::Spread(2).place(&times, &[1, 0], 10, 40);
        let got: Vec<_> = spread
            .iter()
            .map(|c| (c.before, c.prefix.clone()))
            .collect();
        assert_eq!(got, [(21, vec![4, 1]), (31, vec![4, 2])]);
        assert_eq!(spread[0].mode.cache, CacheSurvival::DropAll);
        assert!(matches!(
            spread[1].mode.cache,
            CacheSurvival::Subset { seed: 1, .. }
        ));
    }
}
