//! The repository's benchmark. `benchmark/run.sh` builds and starts it;
//! `benchmark/README.md` says what it measures and why.
//!
//! One run measures one workload: it repeats identical fixed-size
//! segments (fresh stack, set-up, closed-loop timed region) until
//! `--seconds` have passed, runs the output oracle on the first, and
//! prints one JSON object as the last line of standard output. With
//! `--trace 0` the metrics are the end-to-end ones, taken with tracing
//! off; with `--trace 1` every other segment records spans and the
//! ladder runs, and the metrics are the per-layer ones.

mod append;
mod catalog;
mod cluster;
mod host;
mod ladder;
mod layers;
mod mailmix;
mod segment;
mod span;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ccnvme_runtime::RuntimeKind;

use append::{AppendCfg, Persist};
use catalog::{unit_of, Better, END_TO_END, PER_LAYER, WORKLOADS};
use host::{Affinity, HostFacts, Rusage};
use ladder::Values;
use layers::LayerInput;
use segment::{median_over, Segment, SegmentOpts, Timed};

/// Fixed operation counts of one segment. They are constants, never
/// derived from the host: a timed region takes 1-3 s of host time on the
/// 2-core reference host, so a run holds several segments.
const FSYNC_1T: AppendCfg = AppendCfg {
    threads: 1,
    ops_per_thread: 3_000,
    persist: Persist::Fsync,
    runtime: RuntimeKind::Sim,
};
const FSYNC_8T: AppendCfg = AppendCfg {
    threads: 8,
    ops_per_thread: 375,
    persist: Persist::Fsync,
    runtime: RuntimeKind::Sim,
};
const FATOMIC_8T: AppendCfg = AppendCfg {
    threads: 8,
    ops_per_thread: 375,
    persist: Persist::Fdataatomic,
    runtime: RuntimeKind::Sim,
};
const MAILMIX_ITERATIONS: u64 = 250;
const CLUSTER_OPS_PER_CLIENT: u64 = 320;

/// Runs one segment of a workload.
type SegmentFn = fn(SegmentOpts) -> Segment;

/// A workload's catalog name and segment function, by name.
fn workload(name: &str) -> Option<(&'static str, SegmentFn)> {
    let segment: SegmentFn = match name {
        "fsync_1t" => |o| append::segment(FSYNC_1T, o),
        "fsync_8t" => |o| append::segment(FSYNC_8T, o),
        "fatomic_8t" => |o| append::segment(FATOMIC_8T, o),
        "mailmix_4t" => |o| mailmix::segment(MAILMIX_ITERATIONS, o),
        "cluster_2pc" => |o| cluster::segment(CLUSTER_OPS_PER_CLIENT, o),
        _ => return None,
    };
    let name = WORKLOADS.iter().find(|w| w.name == name)?.name;
    Some((name, segment))
}

/// Command-line options.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    shrink: u64,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    Run,
    List,
    Manifest,
    Selfcheck,
}

const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] \
[--trace [0|1]] [--quick] [--list] [--manifest] [--selfcheck]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        shrink: 1,
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if workload(&w).is_none() {
                    return Err(format!("unknown workload {w:?} (see --list)"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=60.0).contains(&args.seconds) {
                    return Err("--seconds must be within 0..=60".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => {
                args.shrink = 20;
                args.seconds = 0.0;
            }
            "--list" => args.mode = Mode::List,
            "--manifest" => args.mode = Mode::Manifest,
            "--selfcheck" => args.mode = Mode::Selfcheck,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // The bounds it checks belong to the end-to-end metrics.
    if args.mode == Mode::Selfcheck {
        args.trace = false;
    }
    Ok(args)
}

/// What one run of one workload found.
struct Outcome {
    workload: &'static str,
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: Values,
    segments: usize,
    pinned_cpu: Option<usize>,
}

fn fingerprints_equal(segs: &[&Timed]) -> bool {
    segs.windows(2)
        .all(|w| w[0].vt_fingerprint() == w[1].vt_fingerprint())
}

/// The end-to-end metrics: medians over a run's untraced segments.
fn end_to_end_values(plain: &[&Timed], peak_rss_mb: f64) -> Values {
    let over = |pick: fn(&Timed) -> f64| median_over(plain, pick);
    [
        ("setup_s", over(|t| t.setup_s)),
        ("vt_ops_per_s", over(Timed::vt_ops_per_s)),
        ("vt_lat_p50_us", over(|t| t.lat_us(0.5))),
        ("vt_lat_p99_us", over(|t| t.lat_us(0.99))),
        (
            "media_bytes_per_user_byte",
            over(Timed::media_bytes_per_user_byte),
        ),
        ("host_ops_per_s", over(Timed::host_ops_per_s)),
        ("host_ops_per_cpu_s", over(Timed::host_ops_per_cpu_s)),
        ("host_peak_rss_mb", peak_rss_mb),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .into()
}

/// Writes a traced segment's spans to `trace-<workload>.jsonl` and prints
/// how much of an operation was spent outside the calls it made.
fn write_trace(workload: &str, spans: &[span::Span]) {
    let out_dir =
        PathBuf::from(std::env::var("BENCH_OUT").unwrap_or_else(|_| "benchmark/out".to_string()));
    let path = out_dir.join(format!("trace-{workload}.jsonl"));
    match span::write_jsonl(&path, spans) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    let op_self = span::summarize(spans)
        .get("op.self")
        .copied()
        .unwrap_or_default();
    eprintln!(
        "span self time of an operation (the benchmark's own code): \
         {:.3} vt_us, {:.3} us host",
        op_self.vt_us_p50, op_self.host_us_p50
    );
}

/// Runs workload `name` for `args.seconds` and reduces its segments to
/// metrics.
fn run_workload(name: &str, args: &Args, affinity: &Affinity) -> Outcome {
    let (name, segment) = workload(name).expect("validated while parsing");
    // A simulation keeps exactly one of its threads runnable: one CPU.
    let pinned_cpu = affinity.pin_one();
    let opts = SegmentOpts {
        seed: args.seed,
        traced: false,
        oracle: false,
        shrink: args.shrink,
        idle: false,
    };
    let started = Instant::now();
    let mut segs = vec![segment(SegmentOpts {
        oracle: true,
        ..opts
    })];
    // Peak memory is read after the first segment and its oracle, a fixed
    // amount of work, not after however many segments the time allowed.
    let peak_rss_mb = Rusage::now().max_rss_kb as f64 / 1024.0;
    // Traced and untraced segments alternate, so both see the same host
    // conditions; a traced run holds at least one of each besides the
    // oracle segment.
    while started.elapsed().as_secs_f64() < args.seconds || (args.trace && segs.len() < 3) {
        let traced = args.trace && segs.len() % 2 == 1;
        segs.push(segment(SegmentOpts { traced, ..opts }));
    }

    let oracle = segs[0].oracle.as_ref().expect("the first segment ran it");
    eprintln!(
        "oracle: {} acknowledged operations checked, {} violations",
        oracle.checked,
        oracle.violations.len()
    );
    for v in oracle.violations.iter().take(10) {
        eprintln!("violation: {v}");
    }
    let mut attempted: u64 = segs.iter().map(|s| s.timed.ops).sum();
    let mut failed: u64 =
        segs.iter().map(|s| s.timed.failed).sum::<u64>() + oracle.violations.len() as u64;

    let (traced, plain): (Vec<&Timed>, Vec<&Timed>) = segs
        .iter()
        .map(|s| &s.timed)
        .partition(|t| !t.spans.is_empty());
    let metrics = if !args.trace {
        end_to_end_values(&plain, peak_rss_mb)
    } else {
        // Events of set-up and teardown alone, for the exact event count
        // of the timed operations.
        let idle_events = segment(SegmentOpts { idle: true, ..opts }).timed.events;
        // The oracle segment's teardown adds events: count, and compare
        // for repeatability, on the others.
        let counted = plain[1];
        let repeats: Vec<&Timed> = segs[1..].iter().map(|s| &s.timed).collect();
        let input = LayerInput {
            counted,
            idle_events,
            plain: &plain,
            traced: &traced,
            vt_repeat_exact: fingerprints_equal(&repeats),
            trace_vt_identical: fingerprints_equal(&[counted, traced[0]]),
        };
        let mut metrics = layers::workload_values(&input);
        metrics.insert(
            "bench.recover_vt_us".to_string(),
            oracle.vt_recover_ns as f64 / 1e3,
        );
        write_trace(name, &traced.last().expect("a traced run traces").spans);
        let ladder = ladder::run(args.seed, args.shrink, affinity);
        metrics.extend(ladder.values);
        attempted += ladder.attempted;
        failed += ladder.failed;
        metrics
    };
    Outcome {
        workload: name,
        traced: args.trace,
        attempted,
        failed,
        metrics,
        segments: segs.len(),
        pinned_cpu,
    }
}

/// The contract's result object, on one line.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v)| {
            assert!(v.is_finite(), "metric {name} is not a number");
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Checks that exactly the catalog's metrics for this kind of run are
/// present.
fn check_complete(o: &Outcome) {
    let expected: Vec<&str> = if o.traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|(m, _)| m.name).collect()
    };
    for name in &expected {
        assert!(
            o.metrics.contains_key(*name),
            "metric {name} was not measured"
        );
    }
    for name in o.metrics.keys() {
        assert!(
            expected.contains(&name.as_str()),
            "metric {name} is not in the catalog"
        );
    }
}

fn print_table(o: &Outcome, facts: &HostFacts, args: &Args) {
    eprintln!(
        "\n== {} == seed {} · {} segments · {} ops attempted, {} failed · {} · nproc {} · {} · {} · commit {}",
        o.workload,
        args.seed,
        o.segments,
        o.attempted,
        o.failed,
        match o.pinned_cpu {
            Some(cpu) => format!("pinned to cpu {cpu}"),
            None => "pinned:false".to_string(),
        },
        facts.nproc,
        facts.profile,
        facts.rustc,
        facts.commit
    );
    for (name, v) in &o.metrics {
        let paper = ladder::PAPER_REFS.iter().find(|p| p.name == name);
        match paper {
            Some(p) => eprintln!(
                "  {name:<34} {v:>16.4} {:<9} paper {} ({}), relative error {:+.1} %",
                unit_of(name),
                p.paper,
                p.source,
                (v - p.paper) / p.paper * 100.0
            ),
            None => match END_TO_END.iter().find(|(m, _)| m.name == name) {
                Some((m, bound)) => eprintln!(
                    "  {name:<34} {v:>16.4} {:<9} {} is better, bound {:.0} %",
                    m.unit,
                    m.better.word(),
                    bound * 100.0
                ),
                None => eprintln!("  {name:<34} {v:>16.4} {}", unit_of(name)),
            },
        }
    }
    if o.traced {
        eprintln!(
            "  (only the {} figures above carry a paper value; every other number is \
             unvalidated against hardware)",
            ladder::PAPER_REFS.len()
        );
    }
    if args.shrink > 1 {
        eprintln!(
            "  --quick: 1/{} operation counts, not for claims",
            args.shrink
        );
    }
}

/// Workloads whose simulated runs repeat exactly today; `mailmix_4t`
/// does not (concurrent create/unlink — see the README's findings).
const EXACT: &[&str] = &["fsync_1t", "fsync_8t", "fatomic_8t", "cluster_2pc"];

/// The value of metric `name` in a result line this program printed.
fn metric_value(result: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result[result.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// `--selfcheck`: two full sets of runs of this commit must agree within
/// the benchmark's own bounds, and exactly where the simulator is
/// deterministic.
fn selfcheck(first: &[ChildRun], second: &[ChildRun]) -> bool {
    let mut ok = true;
    for (a, b) in first.iter().zip(second) {
        for (m, bound) in END_TO_END {
            let value = |run: &ChildRun| {
                metric_value(&run.result, m.name).expect("a run prints every metric")
            };
            let (x, y) = (value(a), value(b));
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let exact = EXACT.contains(&a.workload)
                && (m.name.starts_with("vt_") || m.name == "media_bytes_per_user_byte");
            let pass = if exact { x == y } else { worse.abs() <= *bound };
            eprintln!(
                "  {:<12} {:<28} {x:>14.4} {y:>14.4} {:>+7.2} % (bound {:.0} %{}) {}",
                a.workload,
                m.name,
                worse * 100.0,
                bound * 100.0,
                if exact { ", must be equal" } else { "" },
                if pass { "ok" } else { "DISAGREE" }
            );
            ok &= pass;
        }
    }
    ok
}

/// One workload run in a process of its own.
struct ChildRun {
    workload: &'static str,
    /// The result line it printed.
    result: String,
    /// Whether it exited with success.
    ok: bool,
}

/// Runs every workload, each in a fresh process exactly as the driver
/// runs it, so peak memory, allocator state and CPU pinning start clean
/// for each. The children print their own tables.
fn run_all(args: &Args) -> Vec<ChildRun> {
    let exe = std::env::current_exe().expect("own path");
    WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == w.name))
        .map(|w| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if args.shrink > 1 {
                // After `--seconds`: it also sets them to 0.
                cmd.arg("--quick");
            }
            let out = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("start a run");
            let stdout = String::from_utf8_lossy(&out.stdout);
            ChildRun {
                workload: w.name,
                result: stdout.lines().last().unwrap_or("null").to_string(),
                ok: out.status.success(),
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::List => {
            print!("{}", catalog::listing());
            return ExitCode::SUCCESS;
        }
        Mode::Manifest => {
            print!("{}", catalog::manifest());
            return ExitCode::SUCCESS;
        }
        Mode::Run | Mode::Selfcheck => {}
    }
    let affinity = Affinity::read();
    let facts = HostFacts::gather(&affinity);
    let ok = if let (Some(name), Mode::Run) = (&args.workload, &args.mode) {
        // One workload: the contract's object.
        let o = run_workload(name, &args, &affinity);
        check_complete(&o);
        print_table(&o, &facts, &args);
        println!("{}", result_json(&o));
        o.failed == 0
    } else {
        // All of them: the host facts and one such object per workload
        // under its name, still a single JSON document on one line.
        let runs = run_all(&args);
        let mut ok = runs.iter().all(|r| r.ok);
        if args.mode == Mode::Selfcheck {
            let again = run_all(&args);
            ok &= again.iter().all(|r| r.ok);
            eprintln!("\n== selfcheck: first set vs second set ==");
            ok &= selfcheck(&runs, &again);
        }
        let mut parts = vec![format!(
            "\"host\": {{\"nproc\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \
             \"commit\": \"{}\", \"seed\": {}, \"seconds\": {}}}",
            facts.nproc, facts.rustc, facts.profile, facts.commit, args.seed, args.seconds
        )];
        parts.extend(
            runs.iter()
                .map(|r| format!("\"{}\": {}", r.workload, r.result)),
        );
        println!("{{{}}}", parts.join(", "));
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: an operation failed, an oracle was violated or two runs disagreed");
        ExitCode::FAILURE
    }
}
