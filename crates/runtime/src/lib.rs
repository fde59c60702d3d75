//! Pluggable execution runtime for the ccNVMe/MQFS stack.
//!
//! Every layer of the reproduction was originally welded to
//! `ccnvme-sim`'s single-threaded discrete-event clock. This crate is
//! the seam that un-welds them: the same protocol code (drivers,
//! journal, file system, fabric handlers, workloads) now calls the
//! ambient functions and primitives defined here, and those dispatch to
//! one of two substrates ([`RuntimeKind`]; a harness picks one by
//! entering through [`run_on`]):
//!
//! * **`Sim`** — the deterministic kernel (`ccnvme_sim::Sim`). Inside a
//!   simulated thread every call delegates 1:1 to `ccnvme_sim`, so
//!   virtual-time semantics, event ordering and the crash-surface
//!   enumerator's state counts are byte-identical to the pre-seam code.
//!   Crashtest, enumeration and loom stay on this substrate.
//! * **[`OsRuntime`]** — wall-clock `Instant`, real `std::thread`
//!   spawns and std sync. `cpu()` becomes a no-op (real work takes real
//!   time), `delay()` really waits, and N workload threads genuinely
//!   run in parallel on N cores — the substrate for true multi-core
//!   scaling measurements (`bench --runtime os`).
//!
//! # Dispatch model
//!
//! Rather than threading a generic runtime parameter through every
//! struct in seven crates (or naming the substrates by a trait that only
//! this crate would call), the runtime is *ambient*: free functions
//! ([`now`], [`cpu`], [`delay`], [`spawn`], [`spawn_daemon`], ...)
//! check whether the calling thread is a simulated thread
//! (`ccnvme_sim::in_sim()`) and fall back to the OS context installed
//! by [`OsRuntime`] otherwise. The two primitives that park
//! ([`RtMutex`], [`RtCondvar`]) bind their backend at construction
//! from the same ambient mode, defaulting to the sim backend when
//! constructed outside any runtime — preserving the long-standing
//! pattern of building a stack on the test's main thread and running it
//! inside a `Sim`. [`RtRwLock`] and [`mpsc_channel`] are written once
//! over those two and have no backend of their own.
//!
//! # Teardown
//!
//! The sim kernel force-unwinds parked daemons with a `SimShutdown`
//! panic token. The OS backend mirrors this: every blocking wait is
//! sliced (a few milliseconds per slice) and re-checks the runtime's
//! shutdown flag, unwinding the daemon with an `RtShutdown` token that
//! the spawn wrapper catches. [`OsRuntime::run`] joins every daemon
//! before returning, so no thread outlives its runtime.

#![warn(missing_docs)]

mod api;
mod chan;
mod os;
mod sync;

pub use api::{cpu, current_core, delay, in_sim, now, spawn, spawn_daemon, JoinHandle};
pub use chan::{mpsc_channel, Receiver, RecvError, Sender};
pub use os::OsRuntime;
pub use sync::{
    RtCondvar, RtMutex, RtMutexGuard, RtRwLock, RtRwReadGuard, RtRwWriteGuard, WaitTimeoutResult,
};

// Re-exported so runtime-ported code can take its time units and the
// deterministic RNG from one place.
pub use ccnvme_sim::{DetRng, Ns, MS, SEC, US};

/// Which execution substrate [`run_on`] runs a closure on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Deterministic virtual time on the discrete-event kernel.
    Sim,
    /// Wall-clock time on real OS threads.
    Os,
}

impl std::str::FromStr for RuntimeKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(RuntimeKind::Sim),
            "os" => Ok(RuntimeKind::Os),
            other => Err(format!(
                "unknown runtime {other:?} (expected `sim` or `os`)"
            )),
        }
    }
}

impl std::fmt::Display for RuntimeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeKind::Sim => write!(f, "sim"),
            RuntimeKind::Os => write!(f, "os"),
        }
    }
}

/// Runs `f` as the main thread (core 0) of a fresh runtime of the given
/// kind to completion, then tears the runtime down — daemons are
/// unwound and joined — and returns `f`'s result: the entry point of
/// every harness, `--runtime sim|os` flag or not. `cores` bounds thread
/// placement on the sim backend and must be positive; on the OS backend
/// threads are placed by the OS scheduler.
pub fn run_on<T, F>(kind: RuntimeKind, cores: usize, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    match kind {
        RuntimeKind::Sim => ccnvme_sim::Sim::run_main(cores, f),
        RuntimeKind::Os => OsRuntime::default().run(f),
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sim_runtime_is_virtual_time() {
        let elapsed = run_on(RuntimeKind::Sim, 2, || {
            let t0 = now();
            delay(1_000_000);
            now() - t0
        });
        assert_eq!(elapsed, 1_000_000);
    }

    #[test]
    fn os_runtime_spawns_real_threads() {
        let ids = run_on(RuntimeKind::Os, 4, || {
            let me = std::thread::current().id();
            let h = spawn("worker", 1, move || {
                assert_ne!(std::thread::current().id(), me);
                current_core()
            });
            h.join()
        });
        assert_eq!(ids, 1);
    }

    #[test]
    fn os_runtime_wall_clock_advances() {
        run_on(RuntimeKind::Os, 1, || {
            let t0 = now();
            delay(2_000_000); // 2 ms real sleep.
            assert!(now() - t0 >= 2_000_000);
        });
    }

    #[test]
    fn os_cpu_is_a_noop() {
        run_on(RuntimeKind::Os, 1, || {
            let t0 = std::time::Instant::now();
            cpu(10 * SEC); // Would be 10 wall seconds if it slept.
            assert!(t0.elapsed() < std::time::Duration::from_secs(1));
        });
    }

    #[test]
    fn os_daemon_is_torn_down_at_shutdown() {
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let h2 = Arc::clone(&hits);
        run_on(RuntimeKind::Os, 1, move || {
            spawn_daemon("ticker", 0, move || loop {
                // ord: Relaxed — test-only counter, no ordering needed.
                h2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                delay(500_000);
            });
            delay(5_000_000);
        });
        // The daemon ran while the main thread slept and was then
        // unwound and joined; reaching this line at all is the test.
        assert!(hits.load(std::sync::atomic::Ordering::Relaxed) > 0);
    }

    #[test]
    fn run_on_dispatches_both_kinds() {
        assert_eq!(run_on(RuntimeKind::Sim, 1, || 7u32), 7);
        assert_eq!(run_on(RuntimeKind::Os, 1, || 7u32), 7);
    }

    #[test]
    fn runtime_kind_parses() {
        assert_eq!("sim".parse::<RuntimeKind>().unwrap(), RuntimeKind::Sim);
        assert_eq!("os".parse::<RuntimeKind>().unwrap(), RuntimeKind::Os);
        assert!("tokio".parse::<RuntimeKind>().is_err());
    }
}
