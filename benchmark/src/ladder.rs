//! The ladder: the same single-threaded operation entered at each
//! layer's public function, so a layer's self time is its rung minus the
//! rung beneath (mqfs → journal → core → ssd; fabric → mqfs; cluster →
//! core). It also holds the micro-measurements of the two substrates and
//! the handful of numbers the paper states, measured the paper's way.
//!
//! Every rung runs a fixed number of operations in its own simulation on
//! the Optane 905P profile; its virtual-time results and event counts
//! are exact. The ladder does not depend on the workload, and only its
//! `OsRuntime` pass uses the seed (for payload bytes).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ccnvme::{CcNvmeDriver, NvmeDriver, PmrLayout};
use ccnvme_block::{submit_and_wait, Bio, BioBuf, BioFlags, BioWaiter, BlockDevice};
use ccnvme_crashtest::Stack;
use ccnvme_fabric::{
    Backend, ClientCfg, ClientStats, FabricClient, FabricConfig, FabricTarget, SyncKind,
};
use ccnvme_pcie::{mmio::RegionKind, MmioRegion, PcieLink};
use ccnvme_ploc::{PlocConfig, PlocOp, PlocService};
use ccnvme_runtime::{RtMutex, RuntimeKind};
use ccnvme_ssd::{CrashMode, CtrlConfig, NvmeController, SsdProfile};
use mqfs_journal::{AreaSpec, Durability, Journal, MqJournal, TxBlock, TxDescriptor};
use parking_lot::Mutex;

use crate::append::{self, mqfs_stack, AppendCfg, Persist, BLOCK};
use crate::cluster;
use crate::host::Affinity;
use crate::segment::{run_on, run_sim, Probe, Reading, SegmentOpts};
use crate::span::{summarize, SpanStat, Tracer};
use crate::stats::median;

/// Timed operations per rung (`--quick` divides it).
const RUNG_OPS: u64 = 400;
/// Untimed operations before them.
const WARM_OPS: u64 = 16;
/// Simulated cores of a one-client stack: host, device, journald.
const CORES: usize = 3;
/// Span name of a rung's timed operation.
const OP: &str = "rung";
/// Span name of the part of an operation up to its atomicity point.
const ATOMIC: &str = "atomic";

/// Metric name → value.
pub type Values = BTreeMap<String, f64>;

/// A number the paper states, measured here the paper's way.
pub struct PaperRef {
    /// Metric name.
    pub name: &'static str,
    /// The paper's figure.
    pub paper: f64,
    /// Where the paper gives it.
    pub source: &'static str,
}

/// The paper references the ladder measures. Everything else the
/// benchmark reports is unvalidated against hardware.
pub const PAPER_REFS: &[PaperRef] = &[
    PaperRef {
        name: "mqfs.fig14_fsync_vt_us",
        paper: 22.4,
        source: "Fig. 14, MQFS fsync",
    },
    PaperRef {
        name: "mqfs.fig14_fatomic_vt_us",
        paper: 11.3,
        source: "Fig. 14, MQFS fatomic",
    },
    PaperRef {
        name: "journal.fig14_blocks_per_tx",
        paper: 4.0,
        source: "Fig. 14, blocks written per fsync",
    },
    PaperRef {
        name: "pcie.mmio_per_tx_durable",
        paper: 4.0,
        source: "Table 1, MQFS/ccNVMe MMIO",
    },
    PaperRef {
        name: "pcie.mmio_per_tx_atomic",
        paper: 2.0,
        source: "Table 1, MQFS-A/ccNVMe MMIO",
    },
    PaperRef {
        name: "pcie.persist_mmio_ratio_64b",
        paper: 2.5,
        source: "Fig. 5, write+sync vs write at 64 B",
    },
];

/// One measured rung.
struct Rung {
    op: SpanStat,
    atomic: Option<SpanStat>,
    events_per_op: f64,
    counts: Reading,
    ops: u64,
}

impl Rung {
    fn per_op(&self, count: u64) -> f64 {
        count as f64 / self.ops as f64
    }
}

/// Runs `body` twice in fresh simulations — with no timed operations and
/// with `ops` — so the events of the timed operations alone are the
/// exact difference. `body(ops, tracer)` sets its stack up, warms it,
/// then makes `ops` timed operations, each inside a span named `op`, and
/// returns the counters of the timed part.
fn rung<F>(cores: usize, ops: u64, op: &'static str, body: F) -> Rung
where
    F: Fn(u64, &mut Tracer) -> Reading + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let pass = |n: u64| {
        let body = Arc::clone(&body);
        run_sim(cores, move || {
            let mut tr = Tracer::new(true, Instant::now(), 0);
            let counts = body(n, &mut tr);
            (tr.finish(), counts)
        })
    };
    let (_, idle_events) = pass(0);
    let ((spans, counts), events) = pass(ops);
    let stats = summarize(&spans);
    Rung {
        op: stats.get(op).copied().unwrap_or_default(),
        atomic: stats.get(ATOMIC).copied(),
        events_per_op: (events - idle_events) as f64 / ops as f64,
        counts,
        ops,
    }
}

/// Runs `op(i)` `WARM_OPS` times untimed, then `ops` times timed;
/// returns the counters of the timed part.
fn drive(
    probe: &Probe,
    ops: u64,
    tr: &mut Tracer,
    mut op: impl FnMut(u64, &mut Tracer),
) -> Reading {
    let mut quiet = Tracer::new(false, Instant::now(), 0);
    for i in 0..WARM_OPS {
        op(i, &mut quiet);
    }
    let before = probe.read();
    for i in WARM_OPS..WARM_OPS + ops {
        op(i, tr);
    }
    probe.read().since(&before)
}

fn ctrl_config(device_core: usize) -> CtrlConfig {
    let mut cc = CtrlConfig::new(SsdProfile::optane_905p());
    cc.device_core = device_core;
    cc
}

fn device(device_core: usize) -> NvmeController {
    NvmeController::new(ctrl_config(device_core))
}

fn block_buf(tag: u64) -> BioBuf {
    let mut b = vec![0x5au8; BLOCK as usize];
    b[..8].copy_from_slice(&tag.to_le_bytes());
    Arc::new(Mutex::new(b))
}

/// `pcie`: one 64-byte store to the PMR plus the flush that makes it
/// persistent — or, with `flush` off, the posted store alone (Fig. 5's
/// comparison).
fn pcie_rung(ops: u64, flush: bool) -> Rung {
    rung(1, ops, OP, move |n, tr| {
        let link = Arc::new(PcieLink::new(SsdProfile::optane_905p().link_bw));
        let pmr = MmioRegion::new("pmr", RegionKind::Pmr, 2 << 20, Arc::clone(&link));
        let data = [0xa5u8; 64];
        drive(&Probe(vec![link]), n, tr, |i, tr| {
            tr.call(OP, |_| {
                pmr.write(i * 64 % (1 << 20), &data);
                if flush {
                    pmr.flush();
                }
            })
        })
    })
}

/// `ssd`: one 4 KB FUA write through the classic NVMe driver.
fn ssd_rung(ops: u64) -> Rung {
    rung(CORES, ops, OP, |n, tr| {
        let drv = NvmeDriver::new(device(1), CORES);
        let fua = BioFlags {
            fua: true,
            ..BioFlags::NONE
        };
        drive(&Probe(vec![drv.controller().link()]), n, tr, |i, tr| {
            tr.call(OP, |_| {
                let st = submit_and_wait(&drv, Bio::write(1_000 + i, block_buf(i), fua));
                assert!(st.is_ok(), "ssd rung write: {st:?}");
            })
        })
    })
}

/// `core`: one ccNVMe transaction of `blocks` 4 KB members
/// (`REQ_TX` … `REQ_TX_COMMIT`), submitted and waited for. The atomic
/// point is the return of the last submit (two persistent MMIOs done).
fn core_rung(ops: u64, blocks: u64) -> Rung {
    rung(CORES, ops, OP, move |n, tr| {
        let (drv, _) = CcNvmeDriver::probe(device(1), CORES as u16, 256);
        drive(&Probe(vec![drv.controller().link()]), n, tr, |i, tr| {
            tr.call(OP, |tr| {
                let tx_id = drv.alloc_tx_id();
                let waiter = BioWaiter::new();
                tr.call(ATOMIC, |_| {
                    for j in 0..blocks {
                        let flags = if j + 1 == blocks {
                            BioFlags::TX_COMMIT
                        } else {
                            BioFlags::TX
                        };
                        let lba = 1_000 + (i * blocks + j) % 100_000;
                        let mut bio = Bio::write(lba, block_buf(i), flags).with_tx_id(tx_id);
                        waiter.attach(&mut bio);
                        drv.submit_bio(bio);
                    }
                });
                waiter.wait().expect("core rung transaction");
            })
        })
    })
}

/// `journal`: one `MqJournal::commit_tx` of one ordered data block and
/// `meta` journaled blocks on a ccNVMe device.
fn journal_rung(ops: u64, meta: u64, durability: Durability) -> Rung {
    const JOURNAL_START: u64 = 1_024;
    const JOURNAL_LEN: u64 = 4_096;
    const HORIZON_LBA: u64 = 8;
    const META_HOME: u64 = 16;
    const DATA_HOME: u64 = 100_000;
    rung(CORES, ops, OP, move |n, tr| {
        let (drv, _) = CcNvmeDriver::probe(device(1), CORES as u16, 256);
        let probe = Probe(vec![drv.controller().link()]);
        let journal = MqJournal::new(
            Arc::new(drv),
            AreaSpec::split(JOURNAL_START, JOURNAL_LEN, 1),
            HORIZON_LBA,
        );
        drive(&probe, n, tr, |i, tr| {
            let mut tx = TxDescriptor::new(journal.alloc_tx_id());
            tx.data.push(TxBlock {
                final_lba: DATA_HOME + i,
                buf: block_buf(i),
            });
            // The same few metadata blocks every time, as an appending
            // file rewrites its inode, bitmap and index blocks.
            for m in 0..meta {
                tx.meta.push(TxBlock {
                    final_lba: META_HOME + m,
                    buf: block_buf(i),
                });
            }
            tr.call(OP, |_| {
                journal
                    .commit_tx(tx, durability)
                    .expect("journal rung commit")
            })
        })
    })
}

/// `mqfs`: one 4 KB append plus `fsync` (or `fdataatomic`) on MQFS.
fn mqfs_rung(ops: u64, atomic: bool) -> Rung {
    rung(CORES, ops, OP, move |n, tr| {
        let (stack, fs) = Stack::format(&mqfs_stack(1));
        let ino = fs.create_path("/rung").expect("create");
        let data = vec![0x5au8; BLOCK as usize];
        drive(&Probe(vec![stack.controller().link()]), n, tr, |i, tr| {
            tr.call(OP, |_| {
                fs.write(ino, i * BLOCK, &data).expect("append");
                if atomic {
                    fs.fdataatomic(ino).expect("fdataatomic");
                } else {
                    fs.fsync(ino).expect("fsync");
                }
            })
        })
    })
}

/// The Fig. 14 operation: create a file, write 4 KB, sync it. The span
/// covers the sync call alone, as the figure does.
fn fig14_rung(ops: u64, atomic: bool) -> Rung {
    rung(CORES, ops, OP, move |n, tr| {
        let (stack, fs) = Stack::format(&mqfs_stack(1));
        let data = vec![0x14u8; BLOCK as usize];
        drive(&Probe(vec![stack.controller().link()]), n, tr, |i, tr| {
            let ino = fs.create_path(&format!("/f{i}")).expect("create");
            fs.write(ino, 0, &data).expect("write");
            tr.call(OP, |_| {
                if atomic {
                    fs.fatomic(ino).expect("fatomic");
                } else {
                    fs.fsync(ino).expect("fsync");
                }
            })
        })
    })
}

/// Table 1's measurement: the MMIOs of one transaction of four dirty
/// 4 KB pages, counted at the sync call's return.
fn table1_mmio(atomic: bool) -> f64 {
    const PAGES: usize = 4;
    let (mmio, _) = run_sim(CORES, move || {
        let (stack, fs) = Stack::format(&mqfs_stack(1));
        let ino = fs.create_path("/t").expect("create");
        fs.write(ino, 0, &vec![1u8; PAGES * BLOCK as usize])
            .expect("write");
        fs.fsync(ino).expect("fsync");
        fs.write(ino, 0, &vec![2u8; PAGES * BLOCK as usize])
            .expect("write");
        let link = stack.controller().link();
        let before = link.traffic.snapshot();
        if atomic {
            fs.fdataatomic(ino).expect("fdataatomic");
        } else {
            fs.fsync(ino).expect("fsync");
        }
        link.traffic.snapshot().since(&before).table1_mmio()
    });
    mmio as f64
}

/// `fabric`: the mqfs rung's operation issued by a fabric client over a
/// loopback connection to a target serving the file system.
fn fabric_rung(ops: u64) -> Rung {
    rung(CORES, ops, OP, move |n, tr| {
        let (stack, fs) = Stack::format(&mqfs_stack(1));
        let target = FabricTarget::new(Backend::Fs(fs), FabricConfig::new(1));
        let cfg = ClientCfg {
            stats: ClientStats::registered(&stack.obs().metrics),
            ..ClientCfg::default()
        };
        let mut client =
            FabricClient::connect(1, target.loopback_connector(1), cfg).expect("fabric connect");
        let ino = client.create("/rung").expect("create");
        let data = vec![0x5au8; BLOCK as usize];
        let counts = drive(&Probe(vec![stack.controller().link()]), n, tr, |i, tr| {
            tr.call(OP, |_| {
                client.write(ino, i * BLOCK, &data).expect("remote append");
                client.sync(ino, SyncKind::Fsync).expect("remote fsync");
            })
        });
        client.bye();
        counts
    })
}

/// `cluster`: one commit through `ClusterClient::commit` on the
/// workload's cluster, single-shard or spanning two shards (the span the
/// workload records around that call).
fn cluster_rung(ops: u64, cross: bool) -> Rung {
    let span = if cross {
        cluster::COMMIT_CROSS
    } else {
        cluster::COMMIT_SINGLE
    };
    rung(cluster::sim_cores(), ops, span, move |n, tr| {
        let domains = cluster::boot_all();
        let probe = cluster::probe(&domains);
        let mut cm = cluster::Committer::new(&domains, 0, 1);
        let before = probe.read();
        for i in 0..n {
            cm.commit(tr, i, i, cross).expect("cluster rung commit");
        }
        probe.read().since(&before)
    })
}

/// `ploc`: detectable enqueue and dequeue alternating on the PMR, one
/// client — then four clients at once for the contention counters, an
/// adversarial crash snapshot mid-run, and the mount that settles it.
fn ploc_rungs(ops: u64, out: &mut Values) {
    const CLIENTS: u16 = 4;
    let app_base = PmrLayout::new(1, 16).app_region_off();
    let cfg = |clients| PlocConfig {
        clients,
        pool: 512,
        buckets: 64,
    };
    let queue_op = |i: u64| {
        if i.is_multiple_of(2) {
            PlocOp::Enqueue(i)
        } else {
            PlocOp::Dequeue
        }
    };
    let r = rung(2, ops, OP, move |n, tr| {
        let ctrl = device(1);
        let link = ctrl.link();
        let svc = PlocService::format(ctrl.pmr(), app_base, cfg(1), Arc::clone(&link.obs));
        drive(&Probe(vec![link]), n, tr, |i, tr| {
            tr.call(OP, |_| {
                svc.op(0, i as u32 + 1, queue_op(i)).expect("ploc op");
            })
        })
    });
    rung_values("ploc", &r, out);
    out.insert("ploc.op_vt_ns_p50".into(), r.op.vt_us_p50 * 1e3);
    out.insert(
        "ploc.flushes_per_op".into(),
        r.per_op(r.counts.traffic(|t| t.mmio_flushes)),
    );
    out.insert(
        "ploc.nonposted_reads_per_op".into(),
        r.per_op(r.counts.traffic(|t| t.mmio_reads)),
    );

    let per_client = (ops / CLIENTS as u64).max(8);
    let ((retries, helps, image), _) = run_sim(CLIENTS as usize + 2, move || {
        let ctrl = Arc::new(device(CLIENTS as usize));
        let obs = Arc::clone(&ctrl.link().obs);
        let svc = PlocService::format(ctrl.pmr(), app_base, cfg(CLIENTS), Arc::clone(&obs));
        let crasher = {
            let ctrl = Arc::clone(&ctrl);
            ccnvme_runtime::spawn("ploc-crasher", CLIENTS as usize + 1, move || {
                ccnvme_runtime::delay(per_client * 700);
                ctrl.crash_snapshot(CrashMode::adversarial(1))
            })
        };
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let svc = Arc::clone(&svc);
                ccnvme_runtime::spawn(&format!("ploc-{c}"), c as usize, move || {
                    for i in 0..per_client {
                        svc.op(c, i as u32 + 1, queue_op(i + c as u64))
                            .expect("ploc op");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        let snap = obs.metrics.snapshot();
        (
            snap.counter("ploc.cas_retries"),
            snap.counter("ploc.helps"),
            crasher.join(),
        )
    });
    let total = (per_client * CLIENTS as u64) as f64;
    out.insert(
        "ploc.cas_retries_per_kop".into(),
        retries as f64 * 1e3 / total,
    );
    out.insert("ploc.helps".into(), helps as f64);
    let (recover_ns, _) = run_sim(2, move || {
        let ctrl = NvmeController::from_image(ctrl_config(1), &image);
        let obs = Arc::clone(&ctrl.link().obs);
        let svc = PlocService::mount(ctrl.pmr(), app_base, obs).expect("formatted region mounts");
        for c in 0..CLIENTS {
            svc.recover(c).expect("client in range");
        }
        ccnvme_runtime::now()
    });
    out.insert("ploc.recover_vt_us".into(), recover_ns as f64 / 1e3);
}

fn rung_values(layer: &str, r: &Rung, out: &mut Values) {
    out.insert(format!("{layer}.rung_vt_us"), r.op.vt_us_p50);
    out.insert(format!("{layer}.rung_host_us"), r.op.host_us_p50);
    out.insert(format!("{layer}.rung_events"), r.events_per_op);
}

fn self_values(layer: &str, r: &Rung, beneath: &Rung, out: &mut Values) {
    out.insert(
        format!("{layer}.self_vt_us"),
        r.op.vt_us_p50 - beneath.op.vt_us_p50,
    );
    out.insert(
        format!("{layer}.self_host_us"),
        r.op.host_us_p50 - beneath.op.host_us_p50,
    );
}

/// Host nanoseconds per event when two simulated threads alternate
/// `delay(1)`: the cost of one hand-off through the kernel.
fn sim_handoff_host_ns(events: u64) -> f64 {
    let t0 = Instant::now();
    let (_, dispatched) = run_sim(2, move || {
        let other = ccnvme_runtime::spawn("handoff", 1, move || {
            for _ in 0..events / 2 {
                ccnvme_runtime::delay(1);
            }
        });
        for _ in 0..events / 2 {
            ccnvme_runtime::delay(1);
        }
        other.join();
    });
    t0.elapsed().as_nanos() as f64 / dispatched as f64
}

/// Host microseconds to build a simulation, run eight trivial threads
/// and tear it down (median of nine).
fn sim_boot_host_us() -> f64 {
    let boots: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            run_sim(8, || {
                let hs: Vec<_> = (1..8)
                    .map(|c| ccnvme_runtime::spawn("trivial", c, || ()))
                    .collect();
                for h in hs {
                    h.join();
                }
            });
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&boots)
}

/// Host nanoseconds per uncontended `RtMutex` lock + unlock.
fn mutex_host_ns(kind: RuntimeKind, iters: u64) -> f64 {
    let (ns, _) = run_on(kind, 1, move || {
        let m = RtMutex::new(0u64);
        let t0 = Instant::now();
        for _ in 0..iters {
            *std::hint::black_box(&m).lock() += 1;
        }
        assert_eq!(*m.lock(), iters);
        t0.elapsed().as_nanos() as f64 / iters as f64
    });
    ns
}

/// Host nanoseconds per message through the OS runtime's channel, one
/// producer and one consumer thread.
fn os_chan_host_ns_per_msg(msgs: u64) -> f64 {
    let (ns, _) = run_on(RuntimeKind::Os, 2, move || {
        let (tx, rx) = ccnvme_runtime::mpsc_channel::<u64>(Some(64));
        let t0 = Instant::now();
        let consumer = ccnvme_runtime::spawn("chan-consumer", 1, move || {
            let mut sum = 0u64;
            for _ in 0..msgs {
                sum += rx.recv().expect("producer alive");
            }
            sum
        });
        for i in 0..msgs {
            assert!(tx.send(i).is_ok(), "consumer alive");
        }
        assert_eq!(consumer.join(), msgs * (msgs - 1) / 2);
        t0.elapsed().as_nanos() as f64 / msgs as f64
    });
    ns
}

/// Median host nanoseconds by which the OS runtime's `delay(10 µs)`
/// overshoots.
fn os_delay_overshoot_ns(iters: u64) -> f64 {
    const ASKED_NS: u64 = 10_000;
    let (over, _) = run_on(RuntimeKind::Os, 1, move || {
        let samples: Vec<f64> = (0..iters)
            .map(|_| {
                let t0 = Instant::now();
                ccnvme_runtime::delay(ASKED_NS);
                t0.elapsed().as_nanos() as f64 - ASKED_NS as f64
            })
            .collect();
        median(&samples)
    });
    over
}

/// MQFS on `OsRuntime`: two real threads of 4 KB append + `fsync`, the
/// second substrate, where the simulation kernel does nothing and a
/// runtime or lock-hold change shows. Three passes; the fastest counts
/// (on two CPUs the spin-waiting device threads and the clients compete,
/// and whatever else the host runs only ever slows a pass down).
fn os_fsync(seed: u64, shrink: u64, ladder: &mut Ladder) {
    const OS_FSYNC_2T: AppendCfg = AppendCfg {
        threads: 2,
        ops_per_thread: 2_500,
        persist: Persist::Fsync,
        runtime: RuntimeKind::Os,
    };
    let (mut best_rate, mut best_cpu) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        let seg = append::segment(
            OS_FSYNC_2T,
            SegmentOpts {
                seed,
                traced: false,
                oracle: true,
                shrink,
                idle: false,
            },
        );
        let oracle = seg.oracle.expect("asked for");
        for v in oracle.violations.iter().take(10) {
            eprintln!("violation (OsRuntime pass): {v}");
        }
        ladder.attempted += seg.timed.ops;
        ladder.failed += seg.timed.failed + oracle.violations.len() as u64;
        best_rate = best_rate.max(seg.timed.host_ops_per_s());
        best_cpu = best_cpu.max(seg.timed.host_ops_per_cpu_s());
    }
    let mut put = |name: &str, v| ladder.values.insert(name.to_string(), v);
    put("runtime.os_fsync_host_ops_per_s", best_rate);
    put("runtime.os_fsync_host_ops_per_cpu_s", best_cpu);
}

/// What the ladder measured.
#[derive(Default)]
pub struct Ladder {
    /// Metric name → value.
    pub values: Values,
    /// Operations of the `OsRuntime` passes, whose outputs are checked.
    pub attempted: u64,
    /// Those that failed or whose acknowledged outcome did not hold.
    pub failed: u64,
}

/// Runs the whole ladder. The simulator rungs run pinned to one CPU as
/// the workloads do; the OS-runtime measurements need their threads on
/// different CPUs and run unpinned, last.
pub fn run(seed: u64, shrink: u64, affinity: &Affinity) -> Ladder {
    let ops = (RUNG_OPS / shrink).max(20);
    let mut ladder = Ladder::default();
    let out = &mut ladder.values;

    let pcie = pcie_rung(ops, true);
    let pcie_plain = pcie_rung(ops, false);
    rung_values("pcie", &pcie, out);
    out.insert(
        "pcie.persist_mmio_ratio_64b".into(),
        pcie.op.vt_us_mean / pcie_plain.op.vt_us_mean,
    );
    out.insert("pcie.mmio_per_tx_durable".into(), table1_mmio(false));
    out.insert("pcie.mmio_per_tx_atomic".into(), table1_mmio(true));

    // The mqfs rung fixes the transaction the rungs beneath replay: as
    // many blocks per transaction as one append + fsync writes.
    let mqfs = mqfs_rung(ops, false);
    let blocks = mqfs
        .per_op(mqfs.counts.traffic(|t| t.block_ios))
        .round()
        .max(2.0) as u64;
    // A journal commit of one data block and no metadata writes the data
    // block plus the journal's own blocks; what remains of `blocks` is
    // journaled metadata.
    let bare = journal_rung(ops.min(50), 0, Durability::Durable);
    let own = bare.per_op(bare.counts.traffic(|t| t.block_ios)).round() as u64;
    let meta = blocks.saturating_sub(own);
    let journal = journal_rung(ops, meta, Durability::Durable);
    let core = core_rung(ops, blocks);
    let ssd = ssd_rung(ops);
    let fabric = fabric_rung(ops);
    let cluster_single = cluster_rung(ops, false);
    let cluster_cross = cluster_rung(ops, true);

    for (layer, r) in [
        ("ssd", &ssd),
        ("core", &core),
        ("journal", &journal),
        ("mqfs", &mqfs),
        ("fabric", &fabric),
        ("cluster", &cluster_single),
    ] {
        rung_values(layer, r, out);
    }
    self_values("core", &core, &ssd, out);
    self_values("journal", &journal, &core, out);
    self_values("mqfs", &mqfs, &journal, out);
    self_values("fabric", &fabric, &mqfs, out);
    self_values("cluster", &cluster_single, &core, out);
    out.insert("journal.rung_blocks_per_tx".into(), blocks as f64);
    out.insert(
        "cluster.cross_rung_vt_us".into(),
        cluster_cross.op.vt_us_p50,
    );

    let atomic = |r: &Rung| r.atomic.map(|a| a.vt_us_p50).unwrap_or(r.op.vt_us_p50);
    out.insert("core.atomic_rung_vt_us".into(), atomic(&core));
    out.insert(
        "journal.atomic_rung_vt_us".into(),
        atomic(&journal_rung(ops, meta, Durability::Atomic)),
    );
    out.insert(
        "mqfs.atomic_rung_vt_us".into(),
        atomic(&mqfs_rung(ops, true)),
    );
    let fig14 = fig14_rung(ops / 2, false);
    out.insert("mqfs.fig14_fsync_vt_us".into(), fig14.op.vt_us_mean);
    out.insert(
        "journal.fig14_blocks_per_tx".into(),
        fig14.per_op(fig14.counts.traffic(|t| t.block_ios)),
    );
    out.insert(
        "mqfs.fig14_fatomic_vt_us".into(),
        fig14_rung(ops / 2, true).op.vt_us_mean,
    );

    ploc_rungs(ops, out);

    out.insert(
        "sim.handoff_host_ns".into(),
        sim_handoff_host_ns(40_000 / shrink),
    );
    out.insert("sim.boot_host_us".into(), sim_boot_host_us());
    let iters = 200_000 / shrink;
    out.insert(
        "runtime.mutex_sim_host_ns".into(),
        mutex_host_ns(RuntimeKind::Sim, iters),
    );
    affinity.unpin();
    out.insert(
        "runtime.mutex_os_host_ns".into(),
        mutex_host_ns(RuntimeKind::Os, iters),
    );
    out.insert(
        "runtime.os_chan_host_ns_per_msg".into(),
        os_chan_host_ns_per_msg(iters),
    );
    out.insert(
        "runtime.os_delay_overshoot_ns".into(),
        os_delay_overshoot_ns(2_000 / shrink),
    );
    os_fsync(seed, shrink, &mut ladder);
    ladder
}
