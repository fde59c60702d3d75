//! The benchmark's fixed vocabulary: its workloads, its end-to-end
//! metrics with their regression bounds, and its per-layer metrics.
//! `BENCHMARK.json` is generated from these tables (`--manifest`) and a
//! test keeps the two identical.
//!
//! Units name their clock: `vt_us`, `vt_ns` and `ops/vt_s` are virtual
//! time — what the modelled hardware would take, exact for a given seed
//! on the deterministic workloads — while `s`, `us`, `ns` and `ops/s`
//! are host time, what the simulator or the OS runtime cost here.

/// How long one run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The manifest's word.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// A workload's name and the reason it exists.
pub struct WorkloadInfo {
    /// Name on the command line and in results.
    pub name: &'static str,
    /// Why it was chosen: what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "fsync_1t",
        why: "sim, 1 thread of 4 KB append+fsync: every layer from mqfs to ssd sits serially on one op, so a layer's self time maps 1:1 onto vt_lat_p50_us",
    },
    WorkloadInfo {
        name: "fsync_8t",
        why: "sim, 8 threads of the same op: the Fig. 11(c) plateau set by shared locks, journal areas and device bandwidth; a serial-path saving shows on fsync_1t and not here",
    },
    WorkloadInfo {
        name: "fatomic_8t",
        why: "sim, 8 threads of 4 KB append+fdataatomic: atomicity without durability, so submission CPU and journal back-pressure dominate instead of device latency",
    },
    WorkloadInfo {
        name: "mailmix_4t",
        why: "sim, 4 threads of a Varmail-style mix in one shared directory: metadata-heavy, reads beside writes; catches an append+fsync gain paid for by metadata ops or reads",
    },
    WorkloadInfo {
        name: "cluster_2pc",
        why: "sim, 8 clients on 4 shards + coordinator, 1-in-8 commits cross-shard: fabric+cluster+core+ssd do all the work, mqfs and journal none (their bypass workload)",
    },
];

/// A metric's name, unit and direction.
pub struct Metric {
    /// Metric name; a per-layer metric is `<layer>.<metric>`, the layer a
    /// crate's short name.
    pub name: &'static str,
    /// Unit (see the module docs for the clock each names).
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn metric(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// The end-to-end metrics — what a user of the system would see — each
/// with its bound: the share of the parent's median by which it may worsen
/// before a change counts as a regression. `failed_op_ratio` is not among them because a
/// metric may never be 0: failures travel in the result's `failed` and
/// `attempted` keys, and any failure makes the run incorrect. Recovery
/// time is the per-layer `bench.recover_vt_us`: it is one constant on four
/// workloads and two-valued over seeds on `mailmix_4t` (73.7 ms on 35 of
/// 40 seeds, 105.4 ms on 5), which no bound on a spread of ten can hold.
/// The bounds are three times the largest spread measured over ten seeds
/// on any workload (`baseline.json`), capped at the contract's 0.25.
pub const END_TO_END: &[(Metric, f64)] = &[
    (metric("setup_s", "s", Lower), 0.25),
    (metric("vt_ops_per_s", "ops/vt_s", Higher), 0.08),
    (metric("vt_lat_p50_us", "vt_us", Lower), 0.1),
    (metric("vt_lat_p99_us", "vt_us", Lower), 0.25),
    (metric("media_bytes_per_user_byte", "B/B", Lower), 0.05),
    (metric("host_ops_per_s", "ops/s", Higher), 0.25),
    (metric("host_ops_per_cpu_s", "ops/cpu_s", Higher), 0.25),
    (metric("host_peak_rss_mb", "MB", Lower), 0.25),
];

/// The per-layer metrics, each measured from outside its layer; they have
/// no bounds. Counts and histogram readings are taken over
/// the workload's timed region; `rung_*`, `self_*`, `atomic_rung_*`,
/// `fig14_*`, `mmio_per_tx_*`, `runtime.*`, `ploc.*`, `sim.handoff_*`
/// and `sim.boot_*` come from the ladder and do not depend on the
/// workload (`runtime.os_fsync_*`: MQFS on `OsRuntime`, two real threads
/// of 4 KB append + `fsync`, the best of three passes). A value of 0 on a span or count means the workload never
/// makes that call.
pub const PER_LAYER: &[Metric] = &[
    metric("sim.events_per_op", "count", Lower),
    metric("sim.host_ns_per_event", "ns", Lower),
    metric("sim.ctx_switches_per_event", "count", Lower),
    metric("sim.sys_cpu_share", "ratio", Lower),
    metric("sim.handoff_host_ns", "ns", Lower),
    metric("sim.boot_host_us", "us", Lower),
    metric("sim.vt_repeat_exact", "bool", Higher),
    metric("runtime.os_chan_host_ns_per_msg", "ns", Lower),
    metric("runtime.mutex_sim_host_ns", "ns", Lower),
    metric("runtime.mutex_os_host_ns", "ns", Lower),
    metric("runtime.os_delay_overshoot_ns", "ns", Lower),
    metric("runtime.os_fsync_host_ops_per_s", "ops/s", Higher),
    metric("runtime.os_fsync_host_ops_per_cpu_s", "ops/cpu_s", Higher),
    metric("pcie.mmio_per_op", "count", Lower),
    metric("pcie.mmio_flushes_per_op", "count", Lower),
    metric("pcie.doorbells_per_op", "count", Lower),
    metric("pcie.mmio_reads_per_op", "count", Lower),
    metric("pcie.mmio_store_bytes_per_op", "B", Lower),
    metric("pcie.dma_queue_per_op", "count", Lower),
    metric("pcie.irqs_per_op", "count", Lower),
    metric("pcie.block_ios_per_op", "count", Lower),
    metric("pcie.block_bytes_per_op", "B", Lower),
    metric("pcie.mmio_flush_vt_ns_p50", "vt_ns", Lower),
    metric("pcie.rung_vt_us", "vt_us", Lower),
    metric("pcie.rung_host_us", "us", Lower),
    metric("pcie.rung_events", "count", Lower),
    metric("pcie.mmio_per_tx_durable", "count", Lower),
    metric("pcie.mmio_per_tx_atomic", "count", Lower),
    metric("pcie.persist_mmio_ratio_64b", "ratio", Lower),
    metric("ssd.service_vt_ns_p50", "vt_ns", Lower),
    metric("ssd.service_vt_ns_p99", "vt_ns", Lower),
    metric("ssd.bw_util", "ratio", Higher),
    metric("ssd.rung_vt_us", "vt_us", Lower),
    metric("ssd.rung_host_us", "us", Lower),
    metric("ssd.rung_events", "count", Lower),
    metric("core.complete_vt_ns_p50", "vt_ns", Lower),
    metric("core.complete_vt_ns_p99", "vt_ns", Lower),
    metric("core.retries", "count", Lower),
    metric("core.timeouts", "count", Lower),
    metric("core.tx_failures", "count", Lower),
    metric("core.atomic_rung_vt_us", "vt_us", Lower),
    metric("core.rung_vt_us", "vt_us", Lower),
    metric("core.rung_host_us", "us", Lower),
    metric("core.rung_events", "count", Lower),
    metric("core.self_vt_us", "vt_us", Lower),
    metric("core.self_host_us", "us", Lower),
    metric("journal.commits_per_op", "count", Lower),
    metric("journal.blocks_per_tx", "count", Lower),
    metric("journal.commit_vt_ns_p50", "vt_ns", Lower),
    metric("journal.commit_vt_ns_p99", "vt_ns", Lower),
    metric("journal.checkpoints_per_kop", "count", Lower),
    metric("journal.checkpoint_vt_ns_mean", "vt_ns", Lower),
    metric("journal.atomic_rung_vt_us", "vt_us", Lower),
    metric("journal.rung_vt_us", "vt_us", Lower),
    metric("journal.rung_host_us", "us", Lower),
    metric("journal.rung_events", "count", Lower),
    metric("journal.self_vt_us", "vt_us", Lower),
    metric("journal.self_host_us", "us", Lower),
    metric("journal.rung_blocks_per_tx", "count", Lower),
    metric("journal.fig14_blocks_per_tx", "count", Lower),
    metric("mqfs.write_vt_us_p50", "vt_us", Lower),
    metric("mqfs.write_host_us_p50", "us", Lower),
    metric("mqfs.fsync_vt_us_p50", "vt_us", Lower),
    metric("mqfs.fsync_host_us_p50", "us", Lower),
    metric("mqfs.fatomic_vt_us_p50", "vt_us", Lower),
    metric("mqfs.fatomic_host_us_p50", "us", Lower),
    metric("mqfs.create_vt_us_p50", "vt_us", Lower),
    metric("mqfs.create_host_us_p50", "us", Lower),
    metric("mqfs.unlink_vt_us_p50", "vt_us", Lower),
    metric("mqfs.unlink_host_us_p50", "us", Lower),
    metric("mqfs.read_vt_us_p50", "vt_us", Lower),
    metric("mqfs.read_host_us_p50", "us", Lower),
    metric("mqfs.fsync_vt_ns_p99", "vt_ns", Lower),
    metric("mqfs.degraded", "bool", Lower),
    metric("mqfs.atomic_rung_vt_us", "vt_us", Lower),
    metric("mqfs.rung_vt_us", "vt_us", Lower),
    metric("mqfs.rung_host_us", "us", Lower),
    metric("mqfs.rung_events", "count", Lower),
    metric("mqfs.self_vt_us", "vt_us", Lower),
    metric("mqfs.self_host_us", "us", Lower),
    metric("mqfs.fig14_fsync_vt_us", "vt_us", Lower),
    metric("mqfs.fig14_fatomic_vt_us", "vt_us", Lower),
    metric("fabric.capsules_per_op", "count", Lower),
    metric("fabric.credit_stalls_per_kop", "count", Lower),
    metric("fabric.replayed_commits", "count", Lower),
    metric("fabric.reconnects", "count", Lower),
    metric("fabric.rung_vt_us", "vt_us", Lower),
    metric("fabric.rung_host_us", "us", Lower),
    metric("fabric.rung_events", "count", Lower),
    metric("fabric.self_vt_us", "vt_us", Lower),
    metric("fabric.self_host_us", "us", Lower),
    metric("cluster.prepares_per_op", "count", Lower),
    metric("cluster.decisions_per_op", "count", Lower),
    metric("cluster.aborts", "count", Lower),
    metric("cluster.in_doubt", "count", Lower),
    metric("cluster.single_vt_us_p50", "vt_us", Lower),
    metric("cluster.cross_vt_us_p50", "vt_us", Lower),
    metric("cluster.cross_rung_vt_us", "vt_us", Lower),
    metric("cluster.rung_vt_us", "vt_us", Lower),
    metric("cluster.rung_host_us", "us", Lower),
    metric("cluster.rung_events", "count", Lower),
    metric("cluster.self_vt_us", "vt_us", Lower),
    metric("cluster.self_host_us", "us", Lower),
    metric("ploc.op_vt_ns_p50", "vt_ns", Lower),
    metric("ploc.flushes_per_op", "count", Lower),
    metric("ploc.nonposted_reads_per_op", "count", Lower),
    metric("ploc.cas_retries_per_kop", "count", Lower),
    metric("ploc.helps", "count", Lower),
    metric("ploc.recover_vt_us", "vt_us", Lower),
    metric("ploc.rung_vt_us", "vt_us", Lower),
    metric("ploc.rung_host_us", "us", Lower),
    metric("ploc.rung_events", "count", Lower),
    metric("bench.recover_vt_us", "vt_us", Lower),
    metric("bench.trace_overhead_pct", "%", Lower),
    metric("bench.trace_vt_identical", "bool", Higher),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let entry = |m: &Metric, bound: Option<f64>| {
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{}}}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.word()),
            bound.map_or(String::new(), |b| format!(", \"bound\": {b}"))
        )
    };
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(m, bound)| entry(m, Some(*bound)))
        .collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|m| entry(m, None)).collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// The unit of metric `name`.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
        .unit
}

/// The `--list` table: every metric's name, unit, direction and bound.
pub fn listing() -> String {
    let mut out = String::from("workloads\n");
    for w in WORKLOADS {
        out += &format!("  {:<14} {}\n", w.name, w.why);
    }
    out += "\nend-to-end metrics (reported with --trace 0)\n";
    for (m, bound) in END_TO_END {
        out += &format!(
            "  {:<28} {:<9} {:<7} bound {:>4.1} %\n",
            m.name,
            m.unit,
            m.better.word(),
            bound * 100.0
        );
    }
    out += "\nper-layer metrics (reported with --trace 1; no bounds)\n";
    for m in PER_LAYER {
        out += &format!("  {:<34} {:<7} {}\n", m.name, m.unit, m.better.word());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with: benchmark/run.sh --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn the_tables_obey_the_contract_limits() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|(m, _)| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| ok_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!(END_TO_END
            .iter()
            .all(|(m, bound)| ok_unit(m.unit) && *bound > 0.0 && *bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!(manifest().len() <= 64 * 1024);
    }
}
