//! The ambient runtime API: free functions that dispatch on the
//! calling thread's substrate.
//!
//! A thread is *simulated* if `ccnvme_sim::in_sim()` (in which case
//! every call delegates 1:1 to the sim kernel — semantics and event
//! ordering identical to calling `ccnvme_sim` directly), *OS-backed*
//! if an [`crate::OsRuntime`] context is installed, and bare otherwise
//! (where only the operations that are meaningful without a runtime
//! work, matching the sim kernel's own rules).

use ccnvme_sim::Ns;

use crate::os;

/// Returns whether the caller is a simulated thread. OS-backed and
/// bare threads return `false`.
pub fn in_sim() -> bool {
    ccnvme_sim::in_sim()
}

/// Current time in nanoseconds: virtual time on the sim backend, time
/// since the process's first runtime call on the OS backend.
pub fn now() -> Ns {
    ccnvme_sim::try_now().unwrap_or_else(os::os_now)
}

/// Models `ns` of CPU work. On the sim backend this advances the
/// virtual clock and contends for the thread's simulated core; on the
/// OS backend it is a no-op — real work already takes real time, and
/// charging modeled costs on top would double-count.
pub fn cpu(ns: Ns) {
    if ccnvme_sim::in_sim() {
        ccnvme_sim::cpu(ns);
    }
}

/// Waits `ns` nanoseconds without occupying a core: virtual-time delay
/// on the sim backend, a real (spin-or-sleep) wait on the OS backend.
pub fn delay(ns: Ns) {
    if ccnvme_sim::in_sim() {
        ccnvme_sim::delay(ns);
    } else {
        os::os_delay(ns);
    }
}

/// Returns the core the current thread is pinned to (sim) or was
/// spawned on (OS, advisory). Bare threads report core 0, so per-core
/// resource selection (hardware queues, journal areas) stays in range.
pub fn current_core() -> usize {
    if ccnvme_sim::in_sim() {
        ccnvme_sim::current_core()
    } else {
        os::os_ctx().map_or(0, |ctx| ctx.core)
    }
}

/// Handle to a thread spawned through [`spawn`]; `join` blocks in the
/// backend's notion of time and returns the closure's result.
pub struct JoinHandle<T> {
    inner: JoinInner<T>,
}

enum JoinInner<T> {
    Sim(ccnvme_sim::SimJoinHandle<T>),
    Os(std::thread::JoinHandle<T>),
}

impl<T> JoinHandle<T> {
    /// Blocks until the thread finishes and returns its result. A
    /// panic in an OS-backed thread is re-raised here (on the sim
    /// backend the kernel re-raises it from `Sim::run` instead).
    pub fn join(self) -> T {
        match self.inner {
            JoinInner::Sim(h) => h.join(),
            JoinInner::Os(h) => match h.join() {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            },
        }
    }
}

/// Spawns a joinable thread on the calling thread's runtime, placed on
/// `core` (binding on the sim backend, advisory on the OS backend).
///
/// # Panics
///
/// Panics on a bare thread — spawning requires a runtime.
pub fn spawn<T, F>(name: &str, core: usize, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    if ccnvme_sim::in_sim() {
        JoinHandle {
            inner: JoinInner::Sim(ccnvme_sim::spawn(name, core, f)),
        }
    } else {
        let ctx =
            os::os_ctx().expect("spawn requires a runtime: call from inside a Sim or an OsRuntime");
        JoinHandle {
            inner: JoinInner::Os(os::os_spawn(&ctx, name, core, f)),
        }
    }
}

/// Spawns a daemon thread: the runtime may end while it is blocked, at
/// which point the daemon is unwound (sim: `SimShutdown`, OS:
/// `RtShutdown` via sliced waits) and joined by the runtime.
///
/// # Panics
///
/// Panics on a bare thread — spawning requires a runtime.
pub fn spawn_daemon<F>(name: &str, core: usize, f: F)
where
    F: FnOnce() + Send + 'static,
{
    if ccnvme_sim::in_sim() {
        ccnvme_sim::spawn_daemon(name, core, f);
    } else {
        let ctx = os::os_ctx()
            .expect("spawn_daemon requires a runtime: call from inside a Sim or an OsRuntime");
        os::os_spawn_daemon(&ctx, name, core, f);
    }
}
