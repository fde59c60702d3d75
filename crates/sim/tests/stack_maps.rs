//! No stack mapping outlives its `Sim`, and inside one `Sim` the stacks
//! of finished threads are recycled. Alone in its own test binary: the
//! process's mapping count is only meaningful when no other test runs
//! beside it.
#![cfg(target_os = "linux")]

use std::panic::{catch_unwind, AssertUnwindSafe};

use ccnvme_sim::{cpu, delay, spawn, spawn_daemon, Sim};

/// Lines of `/proc/self/maps`: every mapped stack is one (and its guard
/// page another).
fn mappings() -> usize {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs is mounted");
    maps.lines().count()
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
    // The allocator's own mappings settle during the first boots.
    (0..8).for_each(boot);
    let before = mappings();
    (0..200).for_each(boot);
    assert_eq!(mappings(), before, "a simulated thread's stack leaked");

    // One after another, 10 000 threads need two stacks between them.
    let during = Sim::run_main(2, || {
        for i in 0..10_000u64 {
            assert_eq!(spawn("w", 1, move || i).join(), i);
        }
        mappings()
    });
    assert!(
        during <= before + 8,
        "{before} mappings before, {during} with one thread alive after 10 000"
    );
    assert_eq!(mappings(), before);
}
