//! The wall-clock OS-thread backend.
//!
//! An [`OsRuntime`] owns a shared shutdown flag and the join handles of
//! every daemon spawned through it. Threads carry an `OsCtx` in a
//! thread-local (installed by the spawn wrappers and propagated to
//! children), which is how the ambient API in [`crate::api`] finds the
//! runtime without any generic plumbing.
//!
//! Teardown mirrors the sim kernel's `SimShutdown` unwind: every
//! blocking primitive in this crate slices its waits and calls
//! [`check_shutdown`], which throws an [`RtShutdown`] token once the
//! runtime's flag is set; the daemon wrapper catches the token and the
//! runtime joins the thread.

use std::{
    cell::RefCell,
    panic::{self, AssertUnwindSafe},
    sync::atomic::{AtomicBool, Ordering},
    sync::{Arc, OnceLock},
    time::{Duration, Instant},
};

use ccnvme_sim::Ns;

/// Token thrown through an OS daemon's stack to unwind it at shutdown —
/// the wall-clock twin of the sim kernel's `SimShutdown`.
pub(crate) struct RtShutdown;

/// Installs (once per process) a panic hook that silences the expected
/// [`RtShutdown`] unwinds used to tear down daemon threads.
fn install_quiet_shutdown_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<RtShutdown>().is_none() {
                default(info);
            }
        }));
    });
}

/// How long one slice of a blocking wait lasts before the primitive
/// re-checks the shutdown flag. Bounds daemon teardown latency.
pub(crate) const SHUTDOWN_SLICE: Duration = Duration::from_millis(2);

/// Delays at or below this many nanoseconds spin instead of sleeping:
/// OS sleep granularity would otherwise inflate modeled device
/// latencies (hundreds of ns) by two orders of magnitude.
const SPIN_MAX_NS: Ns = 50_000;

/// State shared by a runtime and every thread it spawned.
pub(crate) struct OsShared {
    /// Set once by [`OsRuntime::shutdown`]; sliced waits poll it.
    shutdown: AtomicBool,
    /// Join handles of spawned daemons, drained at shutdown.
    daemons: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// First non-shutdown panic from a daemon, re-raised at shutdown
    /// (the sim kernel re-raises daemon panics from `Sim::run` the same
    /// way).
    panic: parking_lot::Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Per-thread handle to the runtime: the shared state plus the core the
/// thread was spawned on (advisory on this backend — used for per-core
/// queue/journal-area selection, not CPU pinning).
#[derive(Clone)]
pub(crate) struct OsCtx {
    pub(crate) shared: Arc<OsShared>,
    pub(crate) core: usize,
}

thread_local! {
    static OS_CTX: RefCell<Option<OsCtx>> = const { RefCell::new(None) };
}

/// Returns the calling thread's OS runtime context, if it has one.
pub(crate) fn os_ctx() -> Option<OsCtx> {
    OS_CTX.with(|c| c.borrow().clone())
}

/// Returns whether the calling thread runs under an [`OsRuntime`].
pub(crate) fn in_os() -> bool {
    OS_CTX.with(|c| c.borrow().is_some())
}

/// Unwinds the calling thread with [`RtShutdown`] if its runtime has
/// begun shutdown. Called from every sliced wait; a no-op on threads
/// without an OS context.
pub(crate) fn check_shutdown() {
    let requested = OS_CTX.with(|c| {
        c.borrow()
            .as_ref()
            // ord: Acquire — pairs with the Release store in
            // `shutdown()`; a thread observing the flag must also
            // observe everything the shutting-down thread published.
            .is_some_and(|ctx| ctx.shared.shutdown.load(Ordering::Acquire))
    });
    if requested {
        panic::panic_any(RtShutdown);
    }
}

/// Process-wide epoch for the wall-clock `now()`: nanoseconds since the
/// first runtime call in this process.
pub(crate) fn os_now() -> Ns {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as Ns
}

/// Wall-clock `delay`: spins for sub-50 µs waits (modeled device
/// latencies), otherwise sleeps in shutdown-checked slices.
pub(crate) fn os_delay(ns: Ns) {
    if ns == 0 {
        std::thread::yield_now();
        return;
    }
    let deadline = Instant::now() + Duration::from_nanos(ns);
    if ns <= SPIN_MAX_NS {
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
        return;
    }
    loop {
        check_shutdown();
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(SHUTDOWN_SLICE));
    }
}

/// Spawns a joinable thread carrying `ctx`'s runtime with `core`
/// installed as its (advisory) core.
pub(crate) fn os_spawn<T, F>(
    ctx: &OsCtx,
    name: &str,
    core: usize,
    f: F,
) -> std::thread::JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let child = OsCtx {
        shared: Arc::clone(&ctx.shared),
        core,
    };
    std::thread::Builder::new()
        .name(format!("rt:{name}"))
        .spawn(move || {
            OS_CTX.with(|c| *c.borrow_mut() = Some(child));
            f()
        })
        .expect("failed to spawn OS thread")
}

/// Spawns a daemon: registered with the runtime, unwound with
/// [`RtShutdown`] at shutdown, joined by [`OsRuntime::run`].
pub(crate) fn os_spawn_daemon<F>(ctx: &OsCtx, name: &str, core: usize, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let shared = Arc::clone(&ctx.shared);
    let child = OsCtx {
        shared: Arc::clone(&ctx.shared),
        core,
    };
    let handle = std::thread::Builder::new()
        .name(format!("rt:{name}"))
        .spawn(move || {
            let shared = Arc::clone(&child.shared);
            OS_CTX.with(|c| *c.borrow_mut() = Some(child));
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                if !payload.is::<RtShutdown>() {
                    let mut slot = shared.panic.lock();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
        })
        .expect("failed to spawn OS daemon thread");
    shared.daemons.lock().push(handle);
}

/// The wall-clock backend: real `std::thread`s, `Instant`-based time,
/// std sync underneath the `Rt*` primitives.
pub struct OsRuntime {
    shared: Arc<OsShared>,
}

impl Default for OsRuntime {
    /// A runtime with no threads yet. There is no core count: threads
    /// are placed by the OS scheduler.
    fn default() -> Self {
        install_quiet_shutdown_hook();
        OsRuntime {
            shared: Arc::new(OsShared {
                shutdown: AtomicBool::new(false),
                daemons: parking_lot::Mutex::new(Vec::new()),
                panic: parking_lot::Mutex::new(None),
            }),
        }
    }
}

impl OsRuntime {
    /// Requests shutdown and joins every daemon. Re-raises the first
    /// non-shutdown daemon panic, mirroring `Sim::run`.
    pub fn shutdown(&self) {
        // ord: Release — pairs with the Acquire load in
        // `check_shutdown`; publishes all pre-shutdown writes to the
        // daemons that observe the flag.
        self.shared.shutdown.store(true, Ordering::Release);
        // Daemons may themselves spawn daemons; drain until stable.
        loop {
            let pending: Vec<_> = self.shared.daemons.lock().drain(..).collect();
            if pending.is_empty() {
                break;
            }
            for h in pending {
                let _ = h.join();
            }
        }
        if let Some(p) = self.shared.panic.lock().take() {
            panic::resume_unwind(p);
        }
    }
}

impl OsRuntime {
    /// Runs `f` as the runtime's main thread to completion, then tears
    /// the runtime down — daemons are unwound and joined — and returns
    /// `f`'s result.
    pub fn run<T, F>(self, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let ctx = OsCtx {
            shared: Arc::clone(&self.shared),
            core: 0,
        };
        let h = os_spawn(&ctx, "rt-main", 0, f);
        let result = h.join();
        self.shutdown();
        match result {
            Ok(v) => v,
            Err(p) => panic::resume_unwind(p),
        }
    }
}

impl Drop for OsRuntime {
    fn drop(&mut self) {
        // Make sure no daemon outlives the runtime even if `run` was
        // never called or panicked mid-way. A second shutdown is a
        // cheap no-op (flag already set, daemon list already drained).
        //
        // ord: Relaxed — only avoids re-running shutdown; the Release
        // store inside `shutdown()` provides the publication.
        if !self.shared.shutdown.load(Ordering::Relaxed) {
            // Swallow a re-raised daemon panic during drop (dropping
            // while unwinding must not double-panic); `run` already
            // re-raises it on the normal path.
            let _ = panic::catch_unwind(AssertUnwindSafe(|| self.shutdown()));
        }
    }
}
