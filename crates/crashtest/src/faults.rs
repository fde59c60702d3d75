//! Fault campaigns: deterministic device-error schedules composed with
//! crash points.
//!
//! Where a crash sweep ([`crate::sweep`]) varies *when the power
//! dies*, a fault campaign varies *when the hardware misbehaves*: each
//! schedule arms exactly one fault — a kind plus a virtual-time window
//! start derived from the campaign seed — runs a fixed file-system
//! script against it, and checks the end-to-end error contract:
//!
//! * **transient** faults (busy completions, dropped doorbells) are
//!   absorbed by the host's retry/kick ladder — every operation
//!   succeeds and nothing degrades;
//! * **unrecoverable** faults (media errors, torn DMA, stalls) fail the
//!   *whole* enclosing transaction, degrade the file system to
//!   read-only (reads keep working, mutations return `ReadOnly`), and
//! * after a crash-and-remount, recovery never replays a torn or failed
//!   transaction: surviving files are exactly the fully committed ones,
//!   byte-for-byte.

use ccnvme_fault::{FaultCounters, FaultKind, FaultPlan, FaultRule, OpMask, Trigger};
use ccnvme_obs::MetricsSnapshot;
use ccnvme_sim::{DetRng, Ns, Sim};
use ccnvme_ssd::{CrashMode, DurableImage};
use mqfs::{FileSystem, FsError};

use crate::{Stack, StackConfig};

/// Files the script creates and fsyncs, one transaction each.
const FILES: usize = 3;
/// Blocks written per file.
const FILE_BLOCKS: usize = 4;

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

/// Result of one fault kind's schedules.
#[derive(Debug, Clone)]
pub struct FaultKindReport {
    /// The fault kind exercised.
    pub kind: FaultKind,
    /// Schedules run.
    pub schedules: usize,
    /// Schedules in which the fault actually fired (a window opening
    /// after the last matching command never fires).
    pub fired: usize,
    /// Schedules that degraded the file system to read-only.
    pub degraded: usize,
    /// Transparent host retries summed across schedules.
    pub retries: u64,
    /// Watchdog doorbell kicks summed across schedules.
    pub kicks: u64,
    /// Host-declared command timeouts summed across schedules.
    pub timeouts: u64,
    /// Contract violations (first few, with schedule index).
    pub failures: Vec<String>,
}

/// What one schedule's instrumented run observed.
struct RunOutcome {
    /// Virtual times bracketing the script's transaction traffic.
    window: (Ns, Ns),
    /// Per-file fsync result.
    fsync_ok: Vec<bool>,
    /// Read-back of every successfully fsynced file matched.
    readback_ok: bool,
    /// Result of the post-script probe write+fsync.
    probe: Result<(), FsError>,
    /// `FileSystem::error_state` at the end of the script.
    degraded: bool,
    /// The degraded state was visible to fsck (`FileSystem::check`).
    fsck_saw_degradation: bool,
    /// Media and controller injections the device performed.
    fired: u64,
    /// The stack's metrics after the script (`host_err.*` is read).
    metrics: MetricsSnapshot,
    /// Power-cut image taken after the script.
    image: DurableImage,
}

fn pattern(k: usize) -> u8 {
    0xa0 + k as u8
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

/// Whether the first `len` bytes of script file `k` read back intact.
fn reads_back(fs: &FileSystem, ino: u64, k: usize, len: usize) -> bool {
    fs.read(ino, 0, len)
        .is_ok_and(|d| d.len() == len && d.iter().all(|b| *b == pattern(k)))
}

/// Runs the script once under `plan` (none = healthy hardware) and
/// captures the outcome plus a power-cut image for the recovery check.
fn run_schedule(cfg: &StackConfig, plan: Option<FaultPlan>, crash_seed: u64) -> RunOutcome {
    let mut scfg = cfg.clone();
    scfg.fault = plan;
    Sim::run_main(scfg.sim_cores(), move || {
        let (stack, fs) = Stack::format(&scfg);
        // Pre-window setup: must always succeed.
        fs.mkdir_path("/d").expect("mkdir");
        let dir = fs.resolve("/d").expect("resolve");
        fs.fsync(dir).expect("fsync dir");
        let begin = ccnvme_sim::now();
        let mut fsync_ok = Vec::with_capacity(FILES);
        for k in 0..FILES {
            let ok = (|| {
                let ino = fs.create_path(&format!("/d/f{k}"))?;
                fs.write(ino, 0, &vec![pattern(k); FILE_BLOCKS * 4096])?;
                fs.fsync(ino)
            })()
            .is_ok();
            fsync_ok.push(ok);
        }
        let window = (begin, ccnvme_sim::now());
        // Reads must keep working, degraded or not.
        let readback_ok = fsync_ok.iter().enumerate().all(|(k, ok)| {
            !ok || fs
                .resolve(&format!("/d/f{k}"))
                .is_ok_and(|ino| reads_back(&fs, ino, k, FILE_BLOCKS * 4096))
        });
        // Probe mutation: succeeds on a healthy stack, is rejected on a
        // degraded one.
        let probe = fs
            .resolve("/d/f0")
            .and_then(|ino| {
                fs.write(ino, 0, &vec![pattern(0); 4096])?;
                fs.fsync(ino)
            })
            .map(|_| ());
        let degraded = fs.error_state().is_some();
        let fsck_saw_degradation = fs
            .check()
            .iter()
            .any(|p| p.contains("degraded to read-only"));
        let image = stack.crash_snapshot(CrashMode {
            pmr_extra_prefix: 0,
            cache_keep_prob: 0.0,
            seed: crash_seed,
        });
        let metrics = stack.metrics();
        RunOutcome {
            window,
            fsync_ok,
            readback_ok,
            probe,
            degraded,
            fsck_saw_degradation,
            fired: FaultCounters::media_injections(&metrics),
            metrics,
            image,
        }
    })
}

/// Boots the crash image on healthy hardware and verifies the
/// all-or-none contract; returns violations.
fn verify_recovery(cfg: &StackConfig, outcome: &RunOutcome) -> Vec<String> {
    let mut rcfg = cfg.clone();
    rcfg.fault = None;
    let image = outcome.image.clone();
    let fsync_ok = outcome.fsync_ok.clone();
    let probe_ok = outcome.probe.is_ok();
    Sim::run_main(rcfg.sim_cores(), move || {
        let fs = match Stack::recover(&rcfg, &image) {
            Ok((_stack, fs)) => fs,
            Err(e) => return vec![format!("remount failed: {e}")],
        };
        let mut problems = fs.check();
        for (k, committed) in fsync_ok.iter().enumerate() {
            let path = format!("/d/f{k}");
            let ino = fs.resolve(&path).ok();
            if *committed && !(k == 0 && probe_ok) {
                // Durability: the fsync returned — the file must be
                // intact (file 0 is exempt when the probe rewrote it).
                if !ino.is_some_and(|ino| reads_back(&fs, ino, k, FILE_BLOCKS * 4096)) {
                    problems.push(format!("{path}: fsynced content lost or damaged"));
                }
            } else if let Some(ino) = ino {
                // All-or-none: a file whose transaction failed may be
                // absent or empty, but never torn.
                let (size, _, _) = fs.stat(ino);
                if size > 0 {
                    let len = (size as usize).min(FILE_BLOCKS * 4096);
                    if !reads_back(&fs, ino, k, len) {
                        problems.push(format!("{path}: failed tx replayed with torn content"));
                    }
                }
            }
        }
        problems
    })
}

/// Checks one schedule's outcome against the error contract for `kind`.
fn classify(kind: FaultKind, o: &RunOutcome) -> Vec<String> {
    let mut v = Vec::new();
    let all_ok = o.fsync_ok.iter().all(|b| *b);
    if o.fired == 0 || kind.is_transient() {
        // No injection, or one the host must absorb: fully transparent.
        if !all_ok {
            v.push("operation failed without an unrecoverable fault".into());
        }
        if o.degraded {
            v.push("degraded without an unrecoverable fault".into());
        }
        if o.probe.is_err() {
            v.push("probe mutation rejected on a healthy stack".into());
        }
        if o.fired > 0 && kind == FaultKind::Busy && o.metrics.counter("host_err.retries") == 0 {
            v.push("busy completion was not retried".into());
        }
        if o.fired > 0
            && kind == FaultKind::DoorbellDrop
            && o.metrics.counter("host_err.timeouts") > 0
        {
            v.push("dropped doorbell escalated to a timeout".into());
        }
    } else {
        // Unrecoverable: whole-tx failure + read-only degradation.
        if !o.degraded {
            v.push("unrecoverable fault did not degrade the file system".into());
        }
        if !o.fsck_saw_degradation {
            v.push("fsck does not report the degraded state".into());
        }
        match o.probe {
            Err(FsError::ReadOnly) | Err(FsError::Io) => {}
            Err(ref e) => v.push(format!("probe failed with unexpected error: {e}")),
            Ok(()) => v.push("probe mutation accepted on a degraded file system".into()),
        }
        match o.fsync_ok.iter().position(|b| !*b) {
            Some(first_fail) => {
                if o.fsync_ok[first_fail..].iter().any(|b| *b) {
                    v.push("mutation succeeded after read-only degradation".into());
                }
            }
            // Every script fsync preceded the window: the fault must
            // then have hit the probe's own transaction.
            None => {
                if o.probe.is_ok() {
                    v.push("unrecoverable fault fired but nothing failed".into());
                }
            }
        }
    }
    if !o.readback_ok {
        v.push("read of committed data failed".into());
    }
    v
}

/// Flattens campaign reports into a metrics snapshot so fault campaigns
/// emit the same machine-readable `ccnvme-metrics/v1` document as the
/// bench binaries: one `fault_campaign.<kind>.<field>` counter per
/// report field (violations = count of failed schedules recorded).
pub fn campaign_metrics(reports: &[FaultKindReport]) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for r in reports {
        let kind = format!("{:?}", r.kind).to_lowercase();
        let mut put = |field: &str, v: u64| {
            snap.counters
                .insert(format!("fault_campaign.{kind}.{field}"), v);
        };
        put("schedules", r.schedules as u64);
        put("fired", r.fired as u64);
        put("degraded", r.degraded as u64);
        put("retries", r.retries);
        put("kicks", r.kicks);
        put("timeouts", r.timeouts);
        put("violations", r.failures.len() as u64);
    }
    snap
}

/// Runs `cfg.schedules` deterministic schedules of each kind in `kinds`.
pub fn run_fault_campaign(kinds: &[FaultKind], cfg: &FaultCampaignConfig) -> Vec<FaultKindReport> {
    // A healthy run brackets the traffic the fault windows are placed in.
    let (t_begin, t_end) = run_schedule(&cfg.stack, None, 0).window;
    let mut reports = Vec::with_capacity(kinds.len());
    for (ki, &kind) in kinds.iter().enumerate() {
        let mut rep = FaultKindReport {
            kind,
            schedules: cfg.schedules,
            fired: 0,
            degraded: 0,
            retries: 0,
            kicks: 0,
            timeouts: 0,
            failures: Vec::new(),
        };
        for i in 0..cfg.schedules {
            let mut rng = DetRng::derive(cfg.seed, (ki as u64) << 32 | i as u64);
            let from = rng.range(t_begin, t_end);
            let plan = plan_for(kind, rng.next_u64(), from);
            let outcome = run_schedule(&cfg.stack, Some(plan), rng.next_u64());
            rep.fired += (outcome.fired > 0) as usize;
            rep.degraded += outcome.degraded as usize;
            let host_err = |name: &str| outcome.metrics.counter(&format!("host_err.{name}"));
            rep.retries += host_err("retries");
            rep.kicks += host_err("doorbell_kicks");
            rep.timeouts += host_err("timeouts");
            let mut problems = classify(kind, &outcome);
            problems.extend(verify_recovery(&cfg.stack, &outcome));
            if !problems.is_empty() && rep.failures.len() < 8 {
                rep.failures
                    .push(format!("schedule #{i}: {}", problems.join("; ")));
            }
        }
        reports.push(rep);
    }
    reports
}
