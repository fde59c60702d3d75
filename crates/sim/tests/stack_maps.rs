//! No stack mapping outlives its `Sim`, and inside one `Sim` the stacks
//! of finished threads are recycled. Alone in its own test binary: the
//! process's stack count is only meaningful when no other test runs
//! beside it.
#![cfg(target_os = "linux")]

use std::panic::{catch_unwind, AssertUnwindSafe};

use ccnvme_sim::{cpu, delay, spawn, spawn_daemon, Sim};

/// A simulated thread's stack, as `crates/sim/src/fiber.rs` maps it.
const STACK_BYTES: u64 = 2 << 20;
const GUARD_BYTES: u64 = 4096;

/// The stacks mapped in this process: an inaccessible guard page directly
/// below at least [`STACK_BYTES`] of anonymous read-write memory (more when
/// an anonymous neighbour above merged into it). The rest of
/// `/proc/self/maps` — the allocator's chunks and arenas, which come and
/// go with its own heuristics — is not counted.
fn stacks() -> usize {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs is mounted");
    // (start, end, permissions, anonymous) per mapping, in address order.
    let regions: Vec<(u64, u64, &str, bool)> = maps
        .lines()
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let (start, end) = fields[0].split_once('-').expect("start-end");
            let hex = |s| u64::from_str_radix(s, 16).expect("hex address");
            (hex(start), hex(end), fields[1], fields.len() == 5)
        })
        .collect();
    regions
        .windows(2)
        .filter(|w| {
            let ((g_start, g_end, g_perm, g_anon), (s_start, s_end, s_perm, s_anon)) = (w[0], w[1]);
            g_anon
                && s_anon
                && g_perm == "---p"
                && g_end - g_start == GUARD_BYTES
                && s_perm == "rw-p"
                && s_start == g_end
                && s_end - s_start >= STACK_BYTES
        })
        .count()
}

fn boot(boot: u64) {
    let fail = boot % 4 == 3;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Sim::run_main(4, move || {
            for d in 0..8u64 {
                spawn_daemon(&format!("d{d}"), 1 + (d as usize % 3), move || loop {
                    delay(100 + d);
                });
            }
            // A worker that finishes early, and one still suspended
            // mid-`delay` when `main` panics.
            let early = spawn("early", 1, || cpu(10));
            spawn("late", 2, || delay(10_000));
            early.join();
            cpu(1_000);
            assert!(!fail, "boot {boot} fails on purpose");
            boot
        })
    }));
    match outcome {
        Ok(v) => assert!(!fail && v == boot),
        Err(p) => {
            let msg = p.downcast_ref::<String>().expect("assert! message");
            assert!(fail && msg.contains("fails on purpose"), "{msg}");
        }
    }
}

#[test]
fn no_stack_mapping_outlives_its_sim() {
    let before = stacks();
    (0..200).for_each(boot);
    assert_eq!(stacks(), before, "a simulated thread's stack leaked");

    // One after another, 10 000 threads need two stacks between them.
    let during = Sim::run_main(2, || {
        for i in 0..10_000u64 {
            assert_eq!(spawn("w", 1, move || i).join(), i);
        }
        stacks()
    });
    assert!(
        during <= before + 2,
        "{before} stacks before, {during} with one thread alive after 10 000"
    );
    assert_eq!(stacks(), before);
}
