//! The per-layer metrics a workload's own segments give: counts and
//! histogram readings over the timed region (read from outside, through
//! the registries the layers already fill) and the spans the benchmark
//! recorded around its calls. The ladder supplies the rest.

use ccnvme_obs::HistSnapshot;
use ccnvme_pcie::TrafficSnapshot;
use ccnvme_ssd::SsdProfile;

use crate::cluster::{COMMIT_CROSS, COMMIT_SINGLE};
use crate::ladder::Values;
use crate::segment::{median_over, Timed};
use crate::span::summarize;

fn p50(h: &HistSnapshot) -> f64 {
    h.summary.p50 as f64
}

fn p99(h: &HistSnapshot) -> f64 {
    h.summary.p99 as f64
}

fn mean(h: &HistSnapshot) -> f64 {
    h.summary.mean
}

/// What the segments of one run offer the per-layer metrics.
pub struct LayerInput<'a> {
    /// A full, untraced, oracle-free segment: the source of every count
    /// and histogram reading.
    pub counted: &'a Timed,
    /// Events of the same segment with no timed operations.
    pub idle_events: u64,
    /// The untraced segments.
    pub plain: &'a [&'a Timed],
    /// The traced segments.
    pub traced: &'a [&'a Timed],
    /// Whether every oracle-free segment reproduced the others exactly.
    pub vt_repeat_exact: bool,
    /// Whether a traced segment reproduced an untraced one exactly.
    pub trace_vt_identical: bool,
}

/// The workload-scoped per-layer metrics.
pub fn workload_values(input: &LayerInput) -> Values {
    let t = input.counted;
    let c = &t.counts;
    let ops = t.ops as f64;
    let per_op = |n: u64| n as f64 / ops;
    let mut out = Values::new();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };

    // Events and context switches of the timed operations alone.
    let timed_events = t.events.saturating_sub(input.idle_events) as f64;
    put("sim.events_per_op", timed_events / ops);
    put(
        "sim.host_ns_per_event",
        median_over(input.plain, |h| h.host.wall_ns as f64 / timed_events),
    );
    put(
        "sim.ctx_switches_per_event",
        median_over(input.plain, |h| {
            h.host.usage.ctx_switches as f64 / timed_events
        }),
    );
    put(
        "sim.sys_cpu_share",
        median_over(input.plain, |h| {
            h.host.usage.sys_us as f64 / h.host.usage.cpu_us().max(1) as f64
        }),
    );
    put("sim.vt_repeat_exact", input.vt_repeat_exact as u64 as f64);

    type Pick = fn(&TrafficSnapshot) -> u64;
    let traffic: [(&str, Pick); 9] = [
        ("pcie.mmio_per_op", TrafficSnapshot::table1_mmio),
        ("pcie.mmio_flushes_per_op", |t| t.mmio_flushes),
        ("pcie.doorbells_per_op", |t| t.mmio_doorbells),
        ("pcie.mmio_reads_per_op", |t| t.mmio_reads),
        ("pcie.mmio_store_bytes_per_op", |t| t.mmio_store_bytes),
        ("pcie.dma_queue_per_op", |t| t.dma_queue),
        ("pcie.irqs_per_op", |t| t.irqs),
        ("pcie.block_ios_per_op", |t| t.block_ios),
        ("pcie.block_bytes_per_op", |t| t.block_bytes),
    ];
    for (name, pick) in traffic {
        put(name, per_op(c.traffic(pick)));
    }
    let (block_ios, block_bytes) = (c.traffic(|t| t.block_ios), c.traffic(|t| t.block_bytes));
    put(
        "pcie.mmio_flush_vt_ns_p50",
        c.hist_stat("pcie.mmio_flush_ns", "", p50),
    );

    put(
        "ssd.service_vt_ns_p50",
        c.hist_stat("ssd.service_ns", "", p50),
    );
    put(
        "ssd.service_vt_ns_p99",
        c.hist_stat("ssd.service_ns", "", p99),
    );
    // Block bytes over virtual seconds over the sequential write
    // bandwidth of every device in the run.
    let devices = c.stacks.len().max(1) as f64;
    let write_bw = SsdProfile::optane_905p().seq_write_bw as f64 * devices;
    put(
        "ssd.bw_util",
        block_bytes as f64 / (t.vt_ns as f64 / 1e9) / write_bw,
    );

    put(
        "core.complete_vt_ns_p50",
        c.hist_stat("ccnvme.q", ".complete_ns", p50),
    );
    put(
        "core.complete_vt_ns_p99",
        c.hist_stat("ccnvme.q", ".complete_ns", p99),
    );
    put("core.retries", c.counter("host_err.retries") as f64);
    put("core.timeouts", c.counter("host_err.timeouts") as f64);
    put("core.tx_failures", c.counter("host_err.tx_failures") as f64);

    let commits = c.counter("journal.mq.commits");
    put("journal.commits_per_op", per_op(commits));
    put(
        "journal.blocks_per_tx",
        if commits == 0 {
            0.0
        } else {
            block_ios as f64 / commits as f64
        },
    );
    put(
        "journal.commit_vt_ns_p50",
        c.hist_stat("journal.mq.commit_ns", "", p50),
    );
    put(
        "journal.commit_vt_ns_p99",
        c.hist_stat("journal.mq.commit_ns", "", p99),
    );
    put(
        "journal.checkpoints_per_kop",
        per_op(c.counter("journal.mq.checkpoints")) * 1e3,
    );
    put(
        "journal.checkpoint_vt_ns_mean",
        c.hist_stat("journal.mq.checkpoint_ns", "", mean),
    );

    let spans = summarize(&input.traced[0].spans);
    let span_vt = |name: &str| spans.get(name).map_or(0.0, |s| s.vt_us_p50);
    let span_host = |name: &str| spans.get(name).map_or(0.0, |s| s.host_us_p50);
    for call in ["write", "fsync", "fatomic", "create", "unlink", "read"] {
        let span = format!("mqfs.{call}");
        put(&format!("mqfs.{call}_vt_us_p50"), span_vt(&span));
        put(&format!("mqfs.{call}_host_us_p50"), span_host(&span));
    }
    put(
        "mqfs.fsync_vt_ns_p99",
        c.hist_stat("mqfs.fsync_ns", "", p99),
    );
    put("mqfs.degraded", t.degraded as u64 as f64);

    put(
        "fabric.capsules_per_op",
        per_op(c.counter("fabric.capsules")),
    );
    put(
        "fabric.credit_stalls_per_kop",
        per_op(c.counter("fabric.credit_stalls")) * 1e3,
    );
    put(
        "fabric.replayed_commits",
        c.counter("fabric.replayed_commits") as f64,
    );
    put(
        "fabric.reconnects",
        (c.counter("fabric.reconnects") + c.counter("fabric.client_reconnects")) as f64,
    );

    put(
        "cluster.prepares_per_op",
        per_op(c.counter("cluster.prepares")),
    );
    put(
        "cluster.decisions_per_op",
        per_op(c.counter("cluster.decisions")),
    );
    put("cluster.aborts", c.counter("cluster.aborts") as f64);
    put("cluster.in_doubt", c.gauge("cluster.in_doubt") as f64);
    put("cluster.single_vt_us_p50", span_vt(COMMIT_SINGLE));
    put("cluster.cross_vt_us_p50", span_vt(COMMIT_CROSS));

    let plain = median_over(input.plain, Timed::host_ops_per_s);
    let traced = median_over(input.traced, Timed::host_ops_per_s);
    put("bench.trace_overhead_pct", (plain - traced) / plain * 100.0);
    put(
        "bench.trace_vt_identical",
        input.trace_vt_identical as u64 as f64,
    );
    out
}
