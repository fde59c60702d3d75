//! Every OS thread a simulation starts is joined before `Sim::run`
//! returns or unwinds. Alone in its own test binary: the process's
//! thread count is only meaningful when no other test runs beside it.
#![cfg(target_os = "linux")]

use std::panic::{catch_unwind, AssertUnwindSafe};

use ccnvme_sim::{cpu, delay, spawn, spawn_daemon, Sim};

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("/proc/self/status has a Threads: line");
    line.trim().parse().expect("Threads: is a number")
}

#[test]
fn no_os_thread_outlives_its_sim() {
    let before = os_threads();
    for boot in 0..200u64 {
        let fail = boot % 4 == 3;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Sim::run_main(4, move || {
                for d in 0..8u64 {
                    spawn_daemon(&format!("d{d}"), 1 + (d as usize % 3), move || loop {
                        delay(100 + d);
                    });
                }
                // A worker that finishes early, and one still parked
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
    // `join` returns when a thread's stack is released; the kernel drops
    // it from the thread group a moment later.
    let mut after = os_threads();
    for _ in 0..2_000 {
        if after == before {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        after = os_threads();
    }
    assert_eq!(after, before, "simulated threads leaked");
}
