//! What one measured segment of a workload produces, and the helpers
//! every workload shares: running a closure on either runtime, reading
//! a stack's counters from outside, and the benchmark's own generator.
//!
//! A segment is one complete pass: build a fresh stack, set it up, run a
//! fixed number of operations in a closed loop (each client issues its
//! next operation when the previous returns), tear down. A run repeats
//! identical segments until its time is used, so virtual-time results do
//! not depend on how fast the host is, while host-time results and
//! set-up time are medians over the repeats.

use std::sync::{Arc, Mutex};

use ccnvme_obs::{HistSnapshot, MetricsSnapshot};
use ccnvme_pcie::{PcieLink, TrafficSnapshot};
use ccnvme_runtime::RuntimeKind;
use ccnvme_sim::Sim;

use std::time::Instant;

use crate::host::{HostCost, HostTimer};
use crate::span::{Span, Tracer};
use crate::stats::{median, quantile};

/// The timed region of one segment.
#[derive(Debug)]
pub struct Timed {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that returned an error (the rest of that client's
    /// operations count as failed too: a closed loop cannot continue
    /// past a failure).
    pub failed: u64,
    /// Bytes handed to the write API.
    pub user_bytes: u64,
    /// Runtime-clock nanoseconds the region took (virtual on the
    /// simulator, wall clock on OS threads).
    pub vt_ns: u64,
    /// Per-operation latency on the runtime clock, ascending.
    pub lat_ns: Vec<u64>,
    /// Host wall time, CPU time and context switches of the region.
    pub host: HostCost,
    /// Host seconds from the segment's start to the region's start:
    /// build the stack, format, create and fill files, warm up.
    pub setup_s: f64,
    /// Events the simulation dispatched over the whole segment, set-up
    /// and teardown included (0 on OS threads).
    pub events: u64,
    /// Whether the file system ended the region degraded to read-only
    /// (always false where no file system runs).
    pub degraded: bool,
    /// Counter and histogram readings over the region.
    pub counts: Reading,
    /// Spans of a traced segment (empty otherwise).
    pub spans: Vec<Span>,
}

impl Timed {
    /// Operations per second on the runtime clock.
    pub fn vt_ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.vt_ns as f64 / 1e9)
    }

    /// Latency quantile on the runtime clock, microseconds.
    pub fn lat_us(&self, q: f64) -> f64 {
        quantile(&self.lat_ns, q) as f64 / 1e3
    }

    /// Operations per second of host wall time.
    pub fn host_ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.host.wall_ns as f64 / 1e9)
    }

    /// Operations per second of host CPU time (user + system, all
    /// threads): unlike wall time it does not count time the hypervisor
    /// gave to someone else.
    pub fn host_ops_per_cpu_s(&self) -> f64 {
        self.ops as f64 / (self.host.usage.cpu_us() as f64 / 1e6)
    }

    /// Bytes written to media per byte handed to the write API.
    pub fn media_bytes_per_user_byte(&self) -> f64 {
        self.counts.traffic(|t| t.block_bytes) as f64 / self.user_bytes as f64
    }

    /// Everything about the region that a deterministic simulation must
    /// reproduce exactly.
    pub fn vt_fingerprint(&self) -> (u64, u64, &[u64], u64, u64) {
        (
            self.ops,
            self.vt_ns,
            &self.lat_ns,
            self.events,
            self.counts.traffic(|t| t.block_bytes),
        )
    }
}

/// The median over `segments` of what `pick` reads from each.
pub fn median_over(segments: &[&Timed], pick: impl Fn(&Timed) -> f64) -> f64 {
    let values: Vec<f64> = segments.iter().map(|t| pick(t)).collect();
    median(&values)
}

/// What one client of a closed loop hands back.
pub struct ClientRun {
    /// Latency of each completed operation on the runtime clock.
    pub lat_ns: Vec<u64>,
    /// The client's spans (empty when untraced).
    pub spans: Vec<Span>,
    /// The failure that stopped the client, if one did.
    pub error: Option<String>,
}

/// Runs `ops` operations back to back — each issued the moment the
/// previous one returned — and times each on the runtime clock. The first
/// failure stops the client: what it would have done next depends on
/// what failed.
pub fn closed_loop(
    mut tr: Tracer,
    ops: u64,
    mut op: impl FnMut(u64, &mut Tracer) -> Result<(), String>,
) -> ClientRun {
    let mut lat_ns = Vec::with_capacity(ops as usize);
    let mut error = None;
    for i in 0..ops {
        tr.begin_op();
        let done = op(i, &mut tr);
        let lat = tr.end_op();
        if let Err(e) = done {
            error = Some(format!("operation {i}: {e}"));
            break;
        }
        lat_ns.push(lat);
    }
    ClientRun {
        lat_ns,
        spans: tr.finish(),
        error,
    }
}

/// The readings that bracket a timed region.
pub struct Region {
    probe: Probe,
    before: Reading,
    vt0: u64,
    timer: HostTimer,
    setup_s: f64,
}

impl Region {
    /// Ends set-up (which began at `segment_start`) and starts the timed
    /// region.
    pub fn begin(probe: Probe, segment_start: Instant) -> Region {
        Region {
            setup_s: segment_start.elapsed().as_secs_f64(),
            before: probe.read(),
            probe,
            vt0: ccnvme_runtime::now(),
            timer: HostTimer::start(),
        }
    }

    /// Ends the region once every client has returned. `ops` is what the
    /// clients were asked to do; what they did not complete has failed.
    pub fn end(self, ops: u64, user_bytes: u64, degraded: bool, clients: Vec<ClientRun>) -> Timed {
        let host = self.timer.stop();
        let vt_ns = ccnvme_runtime::now() - self.vt0;
        let counts = self.probe.read().since(&self.before);
        let mut lat_ns = Vec::new();
        let mut spans = Vec::new();
        for (c, client) in clients.into_iter().enumerate() {
            if let Some(e) = client.error {
                eprintln!("client {c} failed: {e}");
            }
            lat_ns.extend(client.lat_ns);
            spans.extend(client.spans);
        }
        lat_ns.sort_unstable();
        Timed {
            ops,
            failed: ops - lat_ns.len() as u64,
            user_bytes,
            vt_ns,
            lat_ns,
            host,
            setup_s: self.setup_s,
            events: 0,
            degraded,
            counts,
            spans,
        }
    }
}

/// What the output oracle found after a segment.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Virtual nanoseconds from powering the crash image up to
    /// recovered, mounted and checked (0 where no crash was taken).
    pub vt_recover_ns: u64,
    /// Acknowledged operations whose outcome was checked.
    pub checked: u64,
    /// Operations whose acknowledged outcome did not hold, and
    /// consistency-check findings. Empty means correct.
    pub violations: Vec<String>,
}

impl Oracle {
    /// Records one violation.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }
}

/// One segment's results.
#[derive(Debug)]
pub struct Segment {
    /// The timed region.
    pub timed: Timed,
    /// The oracle's findings, on the segments that ran it.
    pub oracle: Option<Oracle>,
}

/// How a segment is asked to run.
#[derive(Debug, Clone, Copy)]
pub struct SegmentOpts {
    /// Workload seed: payload bytes, mix sizes and choices, and cluster
    /// keys derive from it.
    pub seed: u64,
    /// Record spans around the benchmark's calls into the stack.
    pub traced: bool,
    /// Run the output oracle after the timed region.
    pub oracle: bool,
    /// Divide the fixed operation counts by this (1 for claims; `--quick`
    /// smoke runs use 20).
    pub shrink: u64,
    /// Make no timed operations at all: the segment's event count is
    /// then exactly what set-up and teardown cost, and subtracting it
    /// from a full segment's leaves the timed operations' events.
    pub idle: bool,
}

impl SegmentOpts {
    /// `count` scaled for this run, never below `floor`.
    pub fn scaled(&self, count: u64, floor: u64) -> u64 {
        if self.idle {
            0
        } else {
            (count / self.shrink).max(floor)
        }
    }
}

/// Runs `f` as the main thread of a fresh runtime with `cores` cores and
/// returns its result with the number of simulation events dispatched.
pub fn run_on<T, F>(kind: RuntimeKind, cores: usize, f: F) -> (T, u64)
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    match kind {
        RuntimeKind::Os => (ccnvme_runtime::run_on(kind, cores, f), 0),
        RuntimeKind::Sim => {
            let slot = Arc::new(Mutex::new(None));
            let mut sim = Sim::new(cores);
            let out = Arc::clone(&slot);
            sim.spawn("bench-main", 0, move || {
                let v = f();
                *out.lock().expect("result slot") = Some(v);
            });
            sim.run();
            let v = slot.lock().expect("result slot").take();
            (
                v.expect("the main simulated thread ran to completion"),
                sim.events_processed(),
            )
        }
    }
}

/// [`run_on`] for the simulator.
pub fn run_sim<T, F>(cores: usize, f: F) -> (T, u64)
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    run_on(RuntimeKind::Sim, cores, f)
}

/// The counters of one or more stacks, read from outside through the
/// registry every layer above a PCIe link registers into.
#[derive(Clone)]
pub struct Probe(pub Vec<Arc<PcieLink>>);

impl Probe {
    /// Reads every stack now.
    pub fn read(&self) -> Reading {
        Reading {
            traffic: self.0.iter().map(|l| l.traffic.snapshot()).collect(),
            stacks: self.0.iter().map(|l| l.obs.metrics.snapshot()).collect(),
        }
    }
}

/// One reading (or the difference of two) of a [`Probe`].
#[derive(Debug, Default)]
pub struct Reading {
    /// Each stack's PCIe traffic.
    traffic: Vec<TrafficSnapshot>,
    /// Each stack's registry snapshot.
    pub stacks: Vec<MetricsSnapshot>,
}

impl Reading {
    /// What accrued between `earlier` and `self`. Histograms keep the
    /// later distribution (set-up samples included) with the window's
    /// count and mean, as `MetricsSnapshot::since` defines.
    pub fn since(&self, earlier: &Reading) -> Reading {
        Reading {
            traffic: self
                .traffic
                .iter()
                .zip(&earlier.traffic)
                .map(|(now, then)| now.since(then))
                .collect(),
            stacks: self
                .stacks
                .iter()
                .zip(&earlier.stacks)
                .map(|(now, then)| now.since(then))
                .collect(),
        }
    }

    /// A PCIe traffic figure summed over the stacks.
    pub fn traffic(&self, pick: fn(&TrafficSnapshot) -> u64) -> u64 {
        self.traffic.iter().map(pick).sum()
    }

    /// A counter summed over the stacks.
    pub fn counter(&self, name: &str) -> u64 {
        self.stacks.iter().map(|s| s.counter(name)).sum()
    }

    /// A gauge summed over the stacks.
    pub fn gauge(&self, name: &str) -> i64 {
        self.stacks.iter().map(|s| s.gauge(name)).sum()
    }

    /// Histograms of every stack whose name starts with `prefix` and
    /// ends with `suffix` and that hold samples.
    fn hists<'a>(
        &'a self,
        prefix: &'a str,
        suffix: &'a str,
    ) -> impl Iterator<Item = &'a HistSnapshot> {
        self.stacks
            .iter()
            .flat_map(|s| s.histograms.iter())
            .filter(move |(name, h)| {
                name.starts_with(prefix) && name.ends_with(suffix) && h.summary.count > 0
            })
            .map(|(_, h)| h)
    }

    /// A statistic of the matching histograms, weighted by their sample
    /// counts (the registry exports summaries, not buckets, so several
    /// queues or stacks cannot be merged exactly; with one populated
    /// histogram this is that histogram's own value). 0 without samples.
    pub fn hist_stat(&self, prefix: &str, suffix: &str, pick: fn(&HistSnapshot) -> f64) -> f64 {
        let (mut weighted, mut count) = (0.0, 0u64);
        for h in self.hists(prefix, suffix) {
            weighted += pick(h) * h.summary.count as f64;
            count += h.summary.count;
        }
        if count == 0 {
            0.0
        } else {
            weighted / count as f64
        }
    }
}

/// The benchmark's own generator (SplitMix64): inputs stay the same when
/// the repository's generators are edited.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of `seed` (one per worker, plus set-up streams).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, bound)` (`bound` > 0; the modulo bias is
    /// below 2^-40 for the bounds used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_reproducible_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut buf = [0u8; 13];
        Rng::new(1, 1).fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
