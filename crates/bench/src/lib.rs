//! Shared measurement harness for the figure/table reproduction
//! binaries.
//!
//! Every measurement builds a complete stack (controller → driver →
//! journal → file system) inside its own deterministic simulation, runs
//! a workload in virtual time and extracts throughput/latency/traffic.
//! Setting the environment variable `QUICK=1` shrinks every sweep for a
//! fast smoke run; the defaults match the paper's parameter ranges
//! (scaled operation counts — the shapes, not the absolute run lengths,
//! are what reproduce).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ccnvme_obs::MetricsSnapshot;
use ccnvme_runtime::{run_on, RuntimeKind};
use ccnvme_ssd::SsdProfile;
use ccnvme_workloads::{
    run_fillsync, run_fio, run_varmail, FillsyncConfig, FioConfig, SyncMode, VarmailConfig,
    WorkloadResult,
};
use mqfs::{FileSystem, FsVariant};

pub use ccnvme_crashtest::{Stack, StackConfig};

/// Returns whether quick (smoke) mode is requested.
pub fn quick() -> bool {
    std::env::var("QUICK").map(|v| v != "0").unwrap_or(false)
}

/// Scales an operation count down in quick mode.
pub fn scaled(n: u64) -> u64 {
    if quick() {
        (n / 10).max(4)
    } else {
        n
    }
}

/// One measured point of a file-system workload.
#[derive(Debug, Clone)]
pub struct FsPoint {
    /// Thousands of operations per second.
    pub kiops: f64,
    /// Payload throughput, MB/s.
    pub mbps: f64,
    /// Mean operation latency, microseconds.
    pub lat_us: f64,
    /// Latency standard deviation, microseconds.
    pub lat_stddev_us: f64,
    /// Device write-bandwidth utilization (block bytes over the link ÷
    /// sequential write bandwidth), percent.
    pub bw_util: f64,
}

impl FsPoint {
    fn from_result(res: &WorkloadResult, block_bytes: u64, profile: &SsdProfile) -> FsPoint {
        let secs = res.elapsed as f64 / 1e9;
        let bw = if secs > 0.0 {
            block_bytes as f64 / secs
        } else {
            0.0
        };
        FsPoint {
            kiops: res.kiops(),
            mbps: res.throughput_mbps(),
            lat_us: res.latency.mean / 1e3,
            lat_stddev_us: res.latency.stddev / 1e3,
            bw_util: 100.0 * bw / profile.seq_write_bw as f64,
        }
    }
}

/// Which workload a measurement runs.
#[derive(Debug, Clone)]
pub enum Workload {
    /// FIO append + sync.
    Fio {
        /// Worker threads.
        threads: usize,
        /// Bytes per append.
        write_size: u64,
        /// Operations per thread.
        ops: u64,
        /// Persistence primitive.
        sync: SyncMode,
    },
    /// Filebench Varmail.
    Varmail {
        /// Worker threads.
        threads: usize,
        /// Iterations per thread.
        iterations: u64,
    },
    /// RocksDB-style fillsync on the mini-KV store.
    Fillsync {
        /// Writer threads.
        threads: usize,
        /// Puts per thread.
        puts: u64,
    },
}

/// Builds the full stack for (variant, profile), runs `workload`, and
/// returns the measured point. The run's full metrics snapshot is
/// recorded in the process-wide collector (see [`record_run`]) under a
/// `run<NNN>.<variant>.<workload>` label, so a bench binary only has to
/// call [`write_metrics`] once at the end of `main`.
pub fn measure_fs(variant: FsVariant, profile: SsdProfile, workload: &Workload) -> FsPoint {
    measure(RuntimeKind::Sim, "", variant, profile, workload)
}

/// Like [`measure_fs`] but on an explicitly chosen execution substrate:
/// `RuntimeKind::Sim` gives the usual deterministic virtual-time run,
/// `RuntimeKind::Os` builds the same stack on real OS threads and
/// measures wall-clock time — the mode behind `runtime --runtime os`.
/// Runs are labelled `run<NNN>.<kind>.<variant>.<workload>` so the two
/// substrates stay distinct in the metrics document.
pub fn measure_fs_on(kind: RuntimeKind, variant: FsVariant, workload: &Workload) -> FsPoint {
    let profile = SsdProfile::optane_905p();
    measure(kind, &format!("{kind}."), variant, profile, workload)
}

fn measure(
    kind: RuntimeKind,
    label_prefix: &str,
    variant: FsVariant,
    profile: SsdProfile,
    workload: &Workload,
) -> FsPoint {
    let threads = match workload {
        Workload::Fio { threads, .. }
        | Workload::Varmail { threads, .. }
        | Workload::Fillsync { threads, .. } => *threads,
    };
    let w = match workload {
        Workload::Fio { .. } => "fio",
        Workload::Varmail { .. } => "varmail",
        Workload::Fillsync { .. } => "fillsync",
    };
    let label = format!("{label_prefix}{variant:?}.{w}").to_lowercase();
    let scfg = StackConfig::new(variant, profile.clone(), threads);
    let workload = workload.clone();
    let (point, snap) = run_on(kind, scfg.sim_cores(), move || {
        let (stack, fs) = Stack::format(&scfg);
        let t0 = stack.controller().link().traffic.snapshot();
        let res = run_workload(&fs, &workload);
        let t1 = stack.controller().link().traffic.snapshot();
        let point = FsPoint::from_result(&res, t1.since(&t0).block_bytes, &profile);
        (point, stack.metrics())
    });
    record_run_seq(&label, snap);
    point
}

// ---------------------------------------------------------------------------
// Metrics collection and export
// ---------------------------------------------------------------------------

static RUN_SEQ: AtomicUsize = AtomicUsize::new(0);
static RUNS: std::sync::Mutex<Vec<(String, MetricsSnapshot)>> = std::sync::Mutex::new(Vec::new());

/// Records one run's metrics snapshot under `label` for later export by
/// [`write_metrics`]. `measure_fs` calls this automatically; binaries
/// that build their own stacks call it with `stack.metrics()`.
pub fn record_run(label: &str, snap: MetricsSnapshot) {
    RUNS.lock().unwrap().push((label.to_string(), snap));
}

/// Like [`record_run`] but prefixes a process-wide `run<NNN>` sequence
/// number so repeated configurations stay distinct in the merged
/// document.
pub fn record_run_seq(label: &str, snap: MetricsSnapshot) {
    // ord: Relaxed — sequence uniqueness only; no other state rides
    // on this counter.
    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    record_run(&format!("run{seq:03}.{label}"), snap);
}

/// Merges every recorded run (each under its label prefix) into one
/// `ccnvme-metrics/v1` document and writes it to
/// `$METRICS_DIR/<bench>.json` (default `target/metrics/`). Prints the
/// path on success so scripts can pick it up; a write failure is
/// reported but never fails the bench run itself.
pub fn write_metrics(bench: &str) {
    let dir = std::env::var_os("METRICS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/metrics"));
    let mut doc = MetricsSnapshot::default();
    for (label, snap) in RUNS.lock().unwrap().iter() {
        doc.merge(snap.prefixed(label));
    }
    let path = dir.join(format!("{bench}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_json())) {
        Ok(()) => println!("[metrics] wrote {}", path.display()),
        Err(e) => eprintln!("[metrics] could not write {}: {e}", path.display()),
    }
}

fn run_workload(fs: &Arc<FileSystem>, w: &Workload) -> WorkloadResult {
    match w {
        Workload::Fio {
            threads,
            write_size,
            ops,
            sync,
        } => run_fio(
            fs,
            &FioConfig {
                threads: *threads,
                write_size: *write_size,
                ops_per_thread: *ops,
                sync: *sync,
            },
        ),
        Workload::Varmail {
            threads,
            iterations,
        } => run_varmail(
            fs,
            &VarmailConfig {
                threads: *threads,
                nfiles: 200,
                iterations: *iterations,
                ..Default::default()
            },
        ),
        Workload::Fillsync { threads, puts } => run_fillsync(
            fs,
            &FillsyncConfig {
                threads: *threads,
                puts_per_thread: *puts,
                ..Default::default()
            },
        ),
    }
}

// ---------------------------------------------------------------------------
// Output formatting
// ---------------------------------------------------------------------------

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints one row of right-aligned cells under a label.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<22}");
    for c in cells {
        print!(" {c:>11}");
    }
    println!();
}

/// Formats a float with one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float with zero decimals.
pub fn f0(v: f64) -> String {
    format!("{v:.0}")
}
