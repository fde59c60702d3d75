//! Table 3 — Raw device performance of the three simulated SSD
//! profiles: sequential bandwidth, random 4 KB IOPS and QD1 latency,
//! measured through the baseline NVMe driver.

use std::sync::Arc;

use ccnvme::NvmeDriver;
use ccnvme_bench::{f0, f1, header, row, scaled};
use ccnvme_block::{submit_and_wait, Bio, BioBuf, BioFlags, BioWaiter, BlockDevice};
use ccnvme_sim::{DetRng, Sim};
use ccnvme_ssd::{CtrlConfig, NvmeController, SsdProfile};

struct RawPoint {
    seq_write_mbps: f64,
    seq_read_mbps: f64,
    rand_write_kiops: f64,
    rand_read_kiops: f64,
    write_lat_us: f64,
    read_lat_us: f64,
}

fn buf(blocks: usize) -> BioBuf {
    Arc::new(parking_lot::Mutex::new(vec![0x3cu8; blocks * 4096]))
}

const RAND_THREADS: usize = 4;

fn measure(profile: SsdProfile) -> RawPoint {
    Sim::run_main(RAND_THREADS + 1, move || {
        let mut cfg = CtrlConfig::new(profile);
        cfg.device_core = RAND_THREADS;
        let drv = Arc::new(NvmeDriver::new(NvmeController::new(cfg), RAND_THREADS));

        // Sequential: large (128 KB) writes/reads at queue depth 16.
        let seq = |write: bool| -> f64 {
            let n = scaled(256);
            let t0 = ccnvme_sim::now();
            let waiter = BioWaiter::new();
            for i in 0..n {
                let mut bio = if write {
                    Bio::write(i * 32, buf(32), BioFlags::NONE)
                } else {
                    Bio::read(i * 32, buf(32))
                };
                waiter.attach(&mut bio);
                drv.submit_bio(bio);
                if i % 16 == 15 {
                    let _ = waiter.wait();
                }
            }
            let _ = waiter.wait();
            let elapsed = ccnvme_sim::now() - t0;
            (n * 32 * 4096) as f64 / 1e6 / (elapsed as f64 / 1e9)
        };
        let seq_write_mbps = seq(true);
        let seq_read_mbps = seq(false);

        // Random 4 KB: several jobs at queue depth 16 each (fio-style).
        let rand = |write: bool| -> f64 {
            let per_thread = scaled(1_500);
            let t0 = ccnvme_sim::now();
            let mut handles = Vec::new();
            for t in 0..RAND_THREADS {
                let drv = Arc::clone(&drv);
                handles.push(ccnvme_sim::spawn(&format!("rand-{t}"), t, move || {
                    let mut rng = DetRng::derive(5, t as u64);
                    let waiter = BioWaiter::new();
                    for i in 0..per_thread {
                        let lba = rng.below(1 << 20);
                        let mut bio = if write {
                            Bio::write(lba, buf(1), BioFlags::NONE)
                        } else {
                            Bio::read(lba, buf(1))
                        };
                        waiter.attach(&mut bio);
                        drv.submit_bio(bio);
                        if i % 16 == 15 {
                            let _ = waiter.wait();
                        }
                    }
                    let _ = waiter.wait();
                }));
            }
            for h in handles {
                h.join();
            }
            let elapsed = ccnvme_sim::now() - t0;
            (RAND_THREADS as u64 * per_thread) as f64 / (elapsed as f64 / 1e9) / 1e3
        };
        let rand_write_kiops = rand(true);
        let rand_read_kiops = rand(false);

        // QD1 latency.
        let lat = |write: bool| -> f64 {
            let n = scaled(200);
            let t0 = ccnvme_sim::now();
            for i in 0..n {
                let bio = if write {
                    Bio::write(i, buf(1), BioFlags::NONE)
                } else {
                    Bio::read(i, buf(1))
                };
                submit_and_wait(&*drv, bio).expect("table3 I/O");
            }
            (ccnvme_sim::now() - t0) as f64 / n as f64 / 1e3
        };
        let write_lat_us = lat(true);
        let read_lat_us = lat(false);
        RawPoint {
            seq_write_mbps,
            seq_read_mbps,
            rand_write_kiops,
            rand_read_kiops,
            write_lat_us,
            read_lat_us,
        }
    })
}

fn main() {
    header("Table 3 — raw device performance through the NVMe driver");
    row(
        "profile",
        &[
            "seqR MB/s",
            "seqW MB/s",
            "randR K",
            "randW K",
            "latR us",
            "latW us",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>(),
    );
    for profile in SsdProfile::all() {
        let name = profile.name;
        let spec = profile.clone();
        let p = measure(profile);
        row(
            name,
            &[
                f0(p.seq_read_mbps),
                f0(p.seq_write_mbps),
                f1(p.rand_read_kiops),
                f1(p.rand_write_kiops),
                f1(p.read_lat_us),
                f1(p.write_lat_us),
            ],
        );
        row(
            "  (spec)",
            &[
                f0(spec.seq_read_bw as f64 / 1e6),
                f0(spec.seq_write_bw as f64 / 1e6),
                f1(spec.rand_read_iops as f64 / 1e3),
                f1(spec.rand_write_iops as f64 / 1e3),
                format!("~{}", spec.read_lat / 1000 + 4),
                format!("~{}", spec.write_lat / 1000 + 4),
            ],
        );
    }
    println!();
    println!(
        "Latency spec adds ~4 us of stack overhead (submission path, \
         DMA, IRQ) on top of the device latency — matching the paper's \
         through-the-kernel numbers (e.g. P5800X: 8/9 us)."
    );
    ccnvme_bench::write_metrics("table3");
}
