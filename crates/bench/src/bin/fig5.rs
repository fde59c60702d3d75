//! Figure 5 — PMR performance: latency and bandwidth of MMIO `write`,
//! `read` and `write+sync` (persistent MMIO) vs access size, one thread
//! sequentially accessing a 2 MB PMR window.

use std::sync::Arc;

use ccnvme_bench::{f1, header, row};
use ccnvme_pcie::{mmio::RegionKind, MmioRegion, PcieLink};
use ccnvme_sim::Sim;

#[derive(Clone, Copy)]
enum Op {
    Write,
    WriteSync,
    Read,
}

/// Returns (mean latency ns, bandwidth MB/s) for `op` at `size` bytes.
fn measure(op: Op, size: u64) -> (f64, f64) {
    Sim::run_main(1, move || {
        let link = Arc::new(PcieLink::new(3_300_000_000));
        let region = MmioRegion::new("pmr", RegionKind::Pmr, 2 << 20, link);
        let data = vec![0xa5u8; size as usize];
        let window: u64 = 2 << 20;
        let iters: u64 = (1024u64).min(window / size.max(64)).max(16);
        // Warm-up to fill the posted pipeline.
        region.write(0, &data);
        region.flush();
        let t0 = ccnvme_sim::now();
        for i in 0..iters {
            let off = (i * size) % (window - size);
            match op {
                Op::Write => region.write(off, &data),
                Op::WriteSync => {
                    region.write(off, &data);
                    region.flush();
                }
                Op::Read => {
                    let _ = region.read(off, size);
                }
            }
        }
        let elapsed = ccnvme_sim::now() - t0;
        let lat = elapsed as f64 / iters as f64;
        let bw = (size * iters) as f64 / (elapsed as f64 / 1e9) / 1e6;
        (lat, bw)
    })
}

fn main() {
    let sizes: Vec<u64> = vec![16, 64, 256, 1024, 4096, 16_384, 65_536];
    let labels: Vec<String> = sizes
        .iter()
        .map(|s| {
            if *s >= 1024 {
                format!("{}K", s / 1024)
            } else {
                format!("{s}B")
            }
        })
        .collect();

    header("Figure 5 (left) — MMIO latency (ns) vs size");
    row("size", &labels);
    let mut bw_rows = Vec::new();
    for (name, op) in [
        ("write+sync", Op::WriteSync),
        ("read", Op::Read),
        ("write", Op::Write),
    ] {
        let mut lat_cells = Vec::new();
        let mut bw_cells = Vec::new();
        for &s in &sizes {
            let (lat, bw) = measure(op, s);
            lat_cells.push(f1(lat));
            bw_cells.push(f1(bw));
        }
        row(name, &lat_cells);
        bw_rows.push((name, bw_cells));
    }
    header("Figure 5 (right) — MMIO bandwidth (MB/s) vs size");
    row("size", &labels);
    for (name, cells) in bw_rows {
        row(name, &cells);
    }

    // The paper's headline ratio.
    let (w64, _) = measure(Op::Write, 64);
    let (p64, _) = measure(Op::WriteSync, 64);
    println!();
    println!(
        "persistent/plain latency ratio at 64 B: {:.2}x (paper: ~2.5x); \
         persistent and plain writes converge beyond ~512 B as link drain \
         time dominates both.",
        p64 / w64
    );
    ccnvme_bench::write_metrics("fig5");
}
