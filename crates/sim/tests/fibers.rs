//! What the hand-written context switch must keep: registers and stacks
//! across hand-offs, the guard page below each stack, and unwinding and
//! backtraces that start on a fiber's stack.
#![cfg(unix)]

use std::{
    backtrace::{Backtrace, BacktraceStatus},
    hint::black_box,
    os::unix::process::ExitStatusExt,
    panic::{catch_unwind, AssertUnwindSafe},
    process::{Command, Output},
};

use ccnvme_sim::{delay, Sim};

/// Folds `depth` levels of recursion, a kilobyte of stack each, into an
/// integer and a float, handing the OS thread away every 64 levels on
/// the way down and again on the way up. Returns the lowest stack
/// address it reached with the two results.
fn fold(depth: u64, int: u64, float: f64) -> (usize, u64, f64) {
    let mut pad = [0u8; 1024];
    pad[(depth % 1024) as usize] = depth as u8;
    black_box(&mut pad);
    if depth == 0 {
        return (pad.as_ptr() as usize, int, float);
    }
    let int = int.rotate_left(7) ^ depth.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let float = float * 1.000_001 + depth as f64;
    let hand_off = depth.is_multiple_of(64);
    if hand_off {
        delay(1);
    }
    let (low, int, float) = fold(depth - 1, int, float);
    if hand_off {
        delay(1);
    }
    let tag = u64::from(pad[(depth % 1024) as usize]);
    (low, int.wrapping_add(tag), float + tag as f64)
}

/// Runs `fibers` threads that fold at once and returns each one's result.
fn fold_on(fibers: u64) -> Vec<(u64, f64)> {
    Sim::run_main(8, move || {
        let handles: Vec<_> = (0..fibers)
            .map(|i| {
                ccnvme_sim::spawn("fold", i as usize % 8, move || {
                    let top = black_box(0u8);
                    let (low, int, float) = fold(1_100 + i, i, i as f64);
                    let used = &top as *const u8 as usize - low;
                    assert!(used >= 1 << 20, "only {used} bytes of stack used");
                    (int, float)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
}

#[test]
fn registers_and_stacks_survive_interleaving() {
    let together = fold_on(8);
    for (i, got) in together.iter().enumerate() {
        // The same thread, with nobody to hand off to.
        let alone = fold_on(i as u64 + 1)[i];
        assert_eq!(got.0, alone.0, "thread {i}, integer fold");
        assert_eq!(got.1.to_bits(), alone.1.to_bits(), "thread {i}, float fold");
    }
}

/// Runs one `#[ignore]`d test of this binary in a process of its own.
fn rerun(test: &str) -> Output {
    Command::new(std::env::current_exe().expect("the test binary's own path"))
        .args([
            test,
            "--exact",
            "--ignored",
            "--test-threads=1",
            "--nocapture",
        ])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("the test binary runs")
}

#[allow(unconditional_recursion)]
fn recurse_without_bound(n: u64) -> u64 {
    let pad = black_box([n; 32]);
    recurse_without_bound(n + 1) + pad[(n % 32) as usize]
}

#[test]
#[ignore = "dies on purpose: run by stack_overflow_hits_the_guard_page"]
fn child_overflows_its_stack() {
    Sim::run_main(2, || {
        // A neighbour, so that the stack below this thread's is in use.
        ccnvme_sim::spawn_daemon("neighbour", 1, || loop {
            delay(1);
        });
        delay(10);
        black_box(recurse_without_bound(0));
    });
}

#[test]
fn stack_overflow_hits_the_guard_page() {
    let out = rerun("child_overflows_its_stack");
    assert_eq!(
        out.status.signal(),
        Some(11),
        "expected death by SIGSEGV, got {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_backtrace_taken_on_a_fiber_ends() {
    let trace = Sim::run_main(1, || {
        delay(1);
        Backtrace::force_capture()
    });
    assert_eq!(trace.status(), BacktraceStatus::Captured);
    let text = trace.to_string();
    assert!(text.contains("fiber_main"), "{text}");
}

#[test]
#[ignore = "needs RUST_BACKTRACE=1: run by a_panic_on_a_fiber_is_reraised_from_run"]
fn child_panics_on_a_fiber() {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        Sim::run_main(2, || {
            ccnvme_sim::spawn("bystander", 1, || delay(1_000));
            delay(10);
            std::panic::panic_any(4242u32);
        })
    }));
    let payload = caught.expect_err("the panic comes out of `run`");
    assert_eq!(payload.downcast_ref::<u32>(), Some(&4242));
}

#[test]
fn a_panic_on_a_fiber_is_reraised_from_run() {
    let out = rerun("child_panics_on_a_fiber");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{:?}\n{stdout}\n{stderr}", out.status);
    assert!(stdout.contains("1 passed"), "{stdout}");
    // Fibers share the OS thread's name: the hook says who panicked.
    assert!(
        stderr.contains(r#"simulated thread "main" on core 0 at t=10 ns"#),
        "{stderr}"
    );
}
