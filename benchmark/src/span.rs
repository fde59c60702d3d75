//! Spans recorded by the benchmark around its own calls into a layer's
//! public functions (spans inside the program are a later issue).
//!
//! Each worker owns a [`Tracer`]; an operation is one root span `op`
//! whose children are the calls it made, all sharing the root's
//! `op_id`. Spans stay in memory until the run ends. Reading the clocks
//! costs no virtual time, so a traced run must reproduce the untraced
//! run's virtual-time numbers exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::quantile;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation the span belongs to (unique per run: thread and
    /// sequence number).
    pub op_id: u64,
    /// The span that caused this one: `None` for the operation's root.
    pub parent: Option<&'static str>,
    /// `op` for a root, `<layer>.<function>` for a call.
    pub name: &'static str,
    /// Runtime clock at entry, nanoseconds.
    pub vt_start: u64,
    /// Runtime clock at exit, nanoseconds.
    pub vt_end: u64,
    /// Host clock at entry, nanoseconds since the run's epoch.
    pub host_start_ns: u64,
    /// Host clock at exit.
    pub host_end_ns: u64,
}

/// Name of every operation's root span.
pub const ROOT: &str = "op";

/// Per-worker span recorder and operation stopwatch.
pub struct Tracer {
    spans: Option<Vec<Span>>,
    /// Names of the spans currently open, outermost first.
    open: Vec<&'static str>,
    epoch: Instant,
    thread: u64,
    seq: u64,
    op_vt0: u64,
    op_host0: u64,
}

impl Tracer {
    /// A recorder for worker `thread`; records spans only when `traced`.
    pub fn new(traced: bool, epoch: Instant, thread: usize) -> Tracer {
        Tracer {
            spans: traced.then(Vec::new),
            open: Vec::new(),
            epoch,
            thread: thread as u64,
            seq: 0,
            op_vt0: 0,
            op_host0: 0,
        }
    }

    fn host_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&mut self, name: &'static str, vt_start: u64, host_start_ns: u64) {
        let span = Span {
            op_id: self.thread << 32 | self.seq,
            parent: self.open.last().copied(),
            name,
            vt_start,
            vt_end: ccnvme_runtime::now(),
            host_start_ns,
            host_end_ns: self.host_ns(),
        };
        self.spans.as_mut().expect("recording").push(span);
    }

    /// Starts the next operation.
    pub fn begin_op(&mut self) {
        self.seq += 1;
        self.op_vt0 = ccnvme_runtime::now();
        if self.spans.is_some() {
            self.op_host0 = self.host_ns();
            self.open.push(ROOT);
        }
    }

    /// Ends the operation; returns its latency on the runtime clock.
    pub fn end_op(&mut self) -> u64 {
        if self.spans.is_some() {
            self.open.pop();
            self.record(ROOT, self.op_vt0, self.op_host0);
        }
        ccnvme_runtime::now() - self.op_vt0
    }

    /// Runs `f`, one call into a layer's public function, inside a span
    /// whose parent is the span open around it. Untraced, it only runs
    /// `f`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if self.spans.is_none() {
            return f(self);
        }
        let (vt_start, host_start_ns) = (ccnvme_runtime::now(), self.host_ns());
        self.open.push(name);
        let out = f(self);
        self.open.pop();
        self.record(name, vt_start, host_start_ns);
        out
    }

    /// The recorded spans (empty when untraced).
    pub fn finish(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Median durations of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    /// Median duration on the runtime clock, microseconds.
    pub vt_us_p50: f64,
    /// Mean duration on the runtime clock, microseconds.
    pub vt_us_mean: f64,
    /// Median duration on the host clock, microseconds.
    pub host_us_p50: f64,
}

fn stat(mut vt: Vec<u64>, mut host: Vec<u64>) -> SpanStat {
    vt.sort_unstable();
    host.sort_unstable();
    SpanStat {
        vt_us_p50: quantile(&vt, 0.5) as f64 / 1e3,
        vt_us_mean: vt.iter().sum::<u64>() as f64 / vt.len().max(1) as f64 / 1e3,
        host_us_p50: quantile(&host, 0.5) as f64 / 1e3,
    }
}

/// Per-name span statistics, plus `op.self`: each operation's duration
/// minus the part its direct child spans cover (time spent in the
/// benchmark's own code).
pub fn summarize(spans: &[Span]) -> BTreeMap<String, SpanStat> {
    let mut by_name: BTreeMap<&str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    let mut cover: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let (vt, host) = (s.vt_end - s.vt_start, s.host_end_ns - s.host_start_ns);
        let e = by_name.entry(s.name).or_default();
        e.0.push(vt);
        e.1.push(host);
        if s.parent == Some(ROOT) {
            let c = cover.entry(s.op_id).or_default();
            c.0 += vt;
            c.1 += host;
        }
    }
    let mut out: BTreeMap<String, SpanStat> = by_name
        .into_iter()
        .map(|(name, (vt, host))| (name.to_string(), stat(vt, host)))
        .collect();
    let (self_vt, self_host) = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| {
            let (cv, ch) = cover.get(&s.op_id).copied().unwrap_or_default();
            (
                (s.vt_end - s.vt_start).saturating_sub(cv),
                (s.host_end_ns - s.host_start_ns).saturating_sub(ch),
            )
        })
        .unzip();
    out.insert(format!("{ROOT}.self"), stat(self_vt, self_host));
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = match s.parent {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        };
        writeln!(
            w,
            "{{\"op_id\":{},\"name\":\"{}\",\"parent\":{},\"vt_start\":{},\"vt_end\":{},\
             \"host_start_ns\":{},\"host_end_ns\":{}}}",
            s.op_id, s.name, parent, s.vt_start, s.vt_end, s.host_start_ns, s.host_end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op_id: u64, parent: Option<&'static str>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            op_id,
            parent,
            name,
            vt_start: a,
            vt_end: b,
            host_start_ns: a * 10,
            host_end_ns: b * 10,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, Some(ROOT), "mqfs.write", 1_000, 3_000),
            span(1, Some(ROOT), "mqfs.fsync", 3_000, 9_000),
            span(1, None, ROOT, 0, 10_000),
        ];
        let s = summarize(&spans);
        assert_eq!(s["op"].vt_us_p50, 10.0);
        assert_eq!(s["mqfs.fsync"].vt_us_p50, 6.0);
        assert_eq!(s["op.self"].vt_us_p50, 2.0);
        assert_eq!(s["op.self"].host_us_p50, 20.0);
    }
}
