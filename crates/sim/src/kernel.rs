//! The discrete-event kernel and simulated-thread runtime.
//!
//! One OS thread backs each simulated thread, and the simulation
//! dispatches its own events: there is no scheduler thread. A thread that
//! yields (advancing the clock, blocking on a primitive from
//! [`crate::sync`], or exiting) pops the earliest live event from the
//! binary heap itself, under the one [`KState`] lock. If that event is its
//! own it simply keeps running — no parker is touched; otherwise it
//! unparks the owning thread directly and parks, one wake per
//! cross-thread event. The caller of [`Sim::run`] only starts the first
//! event's thread and sleeps until the run is over.
//!
//! Two invariants carry the design:
//!
//! * **One runnable thread.** Exactly one simulated thread is between
//!   "dispatched" and "yielded" at any instant, and only that thread
//!   dispatches, so event order is the heap's `(time, seq)` and all
//!   simulation-visible state is free of data races by construction. The
//!   internal mutexes exist to satisfy Rust's `Send`/`Sync` rules and to
//!   publish that state from one OS thread to the next; they are never
//!   held across a hand-off.
//! * **The wake token is never lost.** A hand-off unparks its target
//!   *before* the yielding thread parks, so the target may run — and
//!   dispatch the yielder again — before the yielder sleeps; [`Parker`]
//!   remembers an unpark that precedes its park.
//!
//! Both are model-checked by the `loom_` tests below (`--features loom`
//! swaps the primitives in [`shim`] for the vendored model checker's).

use std::{
    cell::RefCell,
    cmp::Reverse,
    collections::BinaryHeap,
    panic::{self, AssertUnwindSafe},
    sync::Arc,
};

#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use self::shim::{spawn_os, Condvar, Mutex, MutexGuard, OsJoinHandle};
use crate::time::Ns;

/// The blocking primitives under the kernel, as one indirection so the
/// `loom` feature can swap them for the vendored model checker's (the
/// `ccnvme-runtime` convention: a cargo feature instead of `--cfg loom`).
/// Both sides have the `parking_lot` calling convention.
#[cfg(not(feature = "loom"))]
mod shim {
    pub(super) use parking_lot::{Condvar, Mutex, MutexGuard};

    pub(super) type OsJoinHandle = std::thread::JoinHandle<()>;

    /// Starts the OS thread backing a simulated thread.
    pub(super) fn spawn_os(name: String, f: impl FnOnce() + Send + 'static) -> OsJoinHandle {
        std::thread::Builder::new()
            .name(name)
            .spawn(f)
            .expect("failed to spawn OS thread backing a simulated thread")
    }
}

#[cfg(feature = "loom")]
mod shim {
    use std::ops::{Deref, DerefMut};

    const UNPOISONED: &str = "loom mutex cannot be poisoned";

    pub(super) struct Mutex<T>(loom::sync::Mutex<T>);

    impl<T> Mutex<T> {
        pub(super) fn new(v: T) -> Self {
            Mutex(loom::sync::Mutex::new(v))
        }

        pub(super) fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard(Some(self.0.lock().expect(UNPOISONED)))
        }
    }

    /// The inner `Option` lets [`Condvar::wait`] hand the loom guard over
    /// by value; it is `Some` at every other moment.
    pub(super) struct MutexGuard<'a, T>(Option<loom::sync::MutexGuard<'a, T>>);

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.0.as_ref().expect("guard vacated")
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.0.as_mut().expect("guard vacated")
        }
    }

    pub(super) struct Condvar(loom::sync::Condvar);

    impl Condvar {
        pub(super) fn new() -> Self {
            Condvar(loom::sync::Condvar::new())
        }

        pub(super) fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let g = guard.0.take().expect("guard vacated");
            guard.0 = Some(self.0.wait(g).expect(UNPOISONED));
        }

        pub(super) fn notify_one(&self) {
            self.0.notify_one();
        }
    }

    pub(super) type OsJoinHandle = loom::thread::JoinHandle<()>;

    pub(super) fn spawn_os(_name: String, f: impl FnOnce() + Send + 'static) -> OsJoinHandle {
        loom::thread::spawn(f)
    }
}

/// Identifier of a simulated thread, unique within one [`Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub usize);

/// Why a blocked thread resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeReason {
    /// Another thread called [`Kernel::wake`].
    Notified,
    /// The block timed out (the timeout event fired first).
    TimedOut,
}

/// Token thrown through a daemon thread's stack to unwind it at shutdown.
struct SimShutdown;

/// Installs (once per process) a panic hook that silences the expected
/// [`SimShutdown`] unwinds used to tear down daemon threads.
fn install_quiet_shutdown_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimShutdown>().is_none() {
                default(info);
            }
        }));
    });
}

/// A park/unpark flag with no token loss: an unpark delivered before the
/// park is remembered.
struct Parker {
    flag: Mutex<bool>,
    cv: Condvar,
    /// Calls to [`Parker::park`] / [`Parker::unpark`], for the tests that
    /// pin "the self path never parks" and "the runner is woken once".
    #[cfg(test)]
    parks: AtomicU64,
    #[cfg(test)]
    unparks: AtomicU64,
}

impl Parker {
    fn new() -> Self {
        Parker {
            flag: Mutex::new(false),
            cv: Condvar::new(),
            #[cfg(test)]
            parks: Default::default(),
            #[cfg(test)]
            unparks: Default::default(),
        }
    }

    fn park(&self) {
        #[cfg(test)]
        self.parks.fetch_add(1, Relaxed);
        let mut flag = self.flag.lock();
        while !*flag {
            self.cv.wait(&mut flag);
        }
        *flag = false;
    }

    /// Sets the token and wakes the parked thread, if any. The flag lock
    /// is released *before* the notify: a thread woken while the waker
    /// still held it would block a second time on its way out of `wait`.
    /// No wake is lost by that — a parker that has not seen the token yet
    /// is either before its `lock` (and will see it) or inside `wait`.
    fn unpark(&self) {
        #[cfg(test)]
        self.unparks.fetch_add(1, Relaxed);
        *self.flag.lock() = true;
        self.cv.notify_one();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    /// Has a pending event in the heap.
    Ready,
    /// Currently executing; every other thread is parked.
    Running,
    /// Waiting on a primitive; no event, unless a timeout is armed.
    Blocked,
    /// Done; never dispatched again.
    Finished,
}

struct ThreadSlot {
    name: String,
    core: usize,
    daemon: bool,
    parker: Arc<Parker>,
    state: ThreadState,
    /// Sequence number of the single event that may dispatch this thread.
    /// Any popped event with a different sequence is stale and dropped.
    expected_seq: u64,
    wake_reason: WakeReason,
    os_handle: Option<OsJoinHandle>,
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: Ns,
    seq: u64,
    tid: usize,
}

struct KState {
    now: Ns,
    seq: u64,
    heap: BinaryHeap<Reverse<Event>>,
    threads: Vec<ThreadSlot>,
    /// Per-core `busy_until` timestamps for CPU-contention accounting.
    cores: Vec<Ns>,
    /// Unfinished non-daemon threads.
    live: usize,
    shutdown: bool,
    events_processed: u64,
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
}

pub(crate) struct Kernel {
    st: Mutex<KState>,
    /// Where the caller of [`Sim::run`] sleeps while the threads run.
    runner: Arc<Parker>,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Kernel>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> (Arc<Kernel>, usize) {
    CTX.with(|c| {
        c.borrow()
            .clone()
            .expect("this operation must be called from inside a simulated thread")
    })
}

impl Kernel {
    fn new(cores: usize) -> Self {
        Kernel {
            st: Mutex::new(KState {
                now: 0,
                seq: 0,
                heap: BinaryHeap::new(),
                threads: Vec::new(),
                cores: vec![0; cores],
                live: 0,
                shutdown: false,
                events_processed: 0,
                panic_payload: None,
            }),
            runner: Arc::new(Parker::new()),
        }
    }

    /// Pushes a dispatch event for `tid` at `time`, superseding any other
    /// pending event for that thread.
    fn schedule(st: &mut KState, time: Ns, tid: usize) {
        let seq = st.seq;
        st.seq += 1;
        st.threads[tid].expected_seq = seq;
        st.heap.push(Reverse(Event { time, seq, tid }));
    }

    /// The one dispatch step, run by whichever thread just stopped
    /// running (`me`; `None` for the caller of [`Sim::run`]): pops the
    /// earliest live event, advances the clock to it and marks its owner
    /// running. Returns whom the caller must unpark — the owner, or the
    /// runner when the run is over — and `None` when the event is the
    /// caller's own and it simply keeps running.
    fn dispatch(&self, st: &mut KState, me: Option<usize>) -> Option<Arc<Parker>> {
        if st.panic_payload.is_some() || st.live == 0 {
            // Daemon threads may still have pending wakeups; they are
            // torn down by `shutdown_all`.
            return Some(Arc::clone(&self.runner));
        }
        while let Some(Reverse(ev)) = st.heap.pop() {
            let slot = &mut st.threads[ev.tid];
            if slot.state == ThreadState::Finished || slot.expected_seq != ev.seq {
                continue; // Stale event.
            }
            slot.state = ThreadState::Running;
            let owner = (me != Some(ev.tid)).then(|| Arc::clone(&slot.parker));
            debug_assert!(ev.time >= st.now, "time went backwards");
            st.now = ev.time;
            st.events_processed += 1;
            return owner;
        }
        // Live threads are blocked with no pending event: a deadlock,
        // which `Sim::run` raises on its caller's thread.
        Some(Arc::clone(&self.runner))
    }

    /// Gives up the CPU: dispatches the next event and, unless it is the
    /// caller's own, hands over and parks until dispatched again. The
    /// caller must already have arranged its wakeup (heap event or
    /// waitlist registration) under the `st` lock it passes in.
    fn yield_current(&self, mut st: MutexGuard<'_, KState>, tid: usize) {
        let Some(next) = self.dispatch(&mut st, Some(tid)) else {
            return;
        };
        let parker = Arc::clone(&st.threads[tid].parker);
        drop(st);
        next.unpark();
        parker.park();
        if self.st.lock().shutdown {
            // Unwind this thread's stack; the runner catches the token.
            panic::panic_any(SimShutdown);
        }
    }

    /// Models `ns` of CPU work on the current thread's core, serializing
    /// with other work on the same core.
    fn cpu_current(&self, tid: usize, ns: Ns) {
        let mut st = self.st.lock();
        let core = st.threads[tid].core;
        let start = st.now.max(st.cores[core]);
        let end = start + ns;
        st.cores[core] = end;
        Self::schedule(&mut st, end, tid);
        st.threads[tid].state = ThreadState::Ready;
        self.yield_current(st, tid);
    }

    /// Advances the current thread's clock by `ns` without occupying a core.
    fn delay_current(&self, tid: usize, ns: Ns) {
        let mut st = self.st.lock();
        let when = st.now + ns;
        Self::schedule(&mut st, when, tid);
        st.threads[tid].state = ThreadState::Ready;
        self.yield_current(st, tid);
    }

    /// Blocks the current thread until [`Kernel::wake`] is called for it.
    pub(crate) fn block_current(&self) {
        let (_, tid) = ctx();
        let mut st = self.st.lock();
        let slot = &mut st.threads[tid];
        slot.state = ThreadState::Blocked;
        slot.wake_reason = WakeReason::TimedOut;
        self.yield_current(st, tid);
    }

    /// Blocks the current thread until woken or until `ns` virtual time
    /// elapses, whichever happens first.
    pub(crate) fn block_current_timeout(&self, ns: Ns) -> WakeReason {
        let (_, tid) = ctx();
        let mut st = self.st.lock();
        let when = st.now + ns;
        Self::schedule(&mut st, when, tid);
        let slot = &mut st.threads[tid];
        slot.state = ThreadState::Blocked;
        slot.wake_reason = WakeReason::TimedOut;
        self.yield_current(st, tid);
        let st = self.st.lock();
        st.threads[tid].wake_reason
    }

    /// Wakes `tid` if it is blocked; a no-op otherwise. Idempotent.
    pub(crate) fn wake(&self, tid: usize) {
        let mut st = self.st.lock();
        if st.threads[tid].state == ThreadState::Blocked {
            let now = st.now;
            Self::schedule(&mut st, now, tid);
            let slot = &mut st.threads[tid];
            slot.state = ThreadState::Ready;
            slot.wake_reason = WakeReason::Notified;
        }
    }

    /// Last act of a simulated thread's OS thread: marks it finished and
    /// dispatches the next event on its way out.
    fn exit_current(&self, tid: usize) {
        let mut st = self.st.lock();
        st.threads[tid].state = ThreadState::Finished;
        if st.shutdown {
            return; // Unwound by `shutdown_all`: nothing left to dispatch.
        }
        if !st.threads[tid].daemon {
            st.live -= 1;
        }
        let next = self.dispatch(&mut st, Some(tid));
        drop(st);
        next.expect("a finished thread owns no live event").unpark();
    }

    /// Starts the first event's thread and sleeps until the run is over.
    /// Returns the deadlock report if that is how it ended.
    fn run_to_stop(&self) -> Option<String> {
        let first = self.dispatch(&mut self.st.lock(), None);
        // With nothing to run this is the runner's own parker, and the
        // park below returns at once.
        first.expect("the runner owns no event").unpark();
        self.runner.park();
        let st = self.st.lock();
        if st.panic_payload.is_some() || st.live == 0 {
            return None;
        }
        let blocked: Vec<&str> = st
            .threads
            .iter()
            .filter(|t| t.state == ThreadState::Blocked && !t.daemon)
            .map(|t| t.name.as_str())
            .collect();
        Some(format!(
            "simulation deadlock at t={} ns: {} live thread(s) blocked \
             with no pending event: {:?}",
            st.now, st.live, blocked
        ))
    }

    /// Unwinds every unfinished thread and joins every OS thread.
    fn shutdown_all(&self) {
        let pending: Vec<(Arc<Parker>, OsJoinHandle)> = {
            let mut st = self.st.lock();
            st.shutdown = true;
            st.threads
                .iter_mut()
                .filter_map(|slot| Some((Arc::clone(&slot.parker), slot.os_handle.take()?)))
                .collect()
        };
        for (parker, handle) in pending {
            // A finished thread never parks again: the token is unused.
            parker.unpark();
            let _ = handle.join();
        }
    }
}

/// Shared completion state behind a [`SimJoinHandle`].
struct JoinState<T> {
    result: Option<T>,
    finished: bool,
    waiters: Vec<usize>,
}

/// Handle to a spawned simulated thread; `join` blocks in virtual time.
pub struct SimJoinHandle<T> {
    kernel: Arc<Kernel>,
    st: Arc<Mutex<JoinState<T>>>,
    tid: ThreadId,
}

impl<T> SimJoinHandle<T> {
    /// Returns the simulated thread's id.
    pub fn id(&self) -> ThreadId {
        self.tid
    }

    /// Returns whether the thread has finished.
    pub fn is_finished(&self) -> bool {
        self.st.lock().finished
    }

    /// Blocks (in virtual time) until the thread finishes and returns its
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if called from outside the simulation.
    pub fn join(self) -> T {
        let (kernel, me) = ctx();
        debug_assert!(
            Arc::ptr_eq(&kernel, &self.kernel),
            "join across simulations"
        );
        loop {
            {
                let mut js = self.st.lock();
                if js.finished {
                    return js.result.take().expect("join result already taken");
                }
                js.waiters.push(me);
            }
            kernel.block_current();
        }
    }
}

fn spawn_inner<T, F>(
    kernel: &Arc<Kernel>,
    name: &str,
    core: usize,
    daemon: bool,
    f: F,
) -> SimJoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let join_st = Arc::new(Mutex::new(JoinState {
        result: None,
        finished: false,
        waiters: Vec::new(),
    }));
    let parker = Arc::new(Parker::new());
    let tid = {
        let mut st = kernel.st.lock();
        assert!(
            core < st.cores.len(),
            "core {} out of range ({} cores configured)",
            core,
            st.cores.len()
        );
        let tid = st.threads.len();
        st.threads.push(ThreadSlot {
            name: name.to_string(),
            core,
            daemon,
            parker: Arc::clone(&parker),
            state: ThreadState::Ready,
            expected_seq: 0,
            wake_reason: WakeReason::TimedOut,
            os_handle: None,
        });
        if !daemon {
            st.live += 1;
        }
        let now = st.now;
        Kernel::schedule(&mut st, now, tid);
        tid
    };

    let k2 = Arc::clone(kernel);
    let js2 = Arc::clone(&join_st);
    let handle = spawn_os(format!("sim:{name}"), move || {
        CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&k2), tid)));
        parker.park();
        if !k2.st.lock().shutdown {
            let outcome = panic::catch_unwind(AssertUnwindSafe(f));
            match outcome {
                Ok(value) => {
                    let waiters: Vec<usize> = {
                        let mut js = js2.lock();
                        js.result = Some(value);
                        js.finished = true;
                        std::mem::take(&mut js.waiters)
                    };
                    for w in waiters {
                        k2.wake(w);
                    }
                }
                Err(payload) => {
                    if !payload.is::<SimShutdown>() {
                        let mut st = k2.st.lock();
                        if st.panic_payload.is_none() {
                            st.panic_payload = Some(payload);
                        }
                    }
                    js2.lock().finished = true;
                }
            }
        }
        k2.exit_current(tid);
    });
    kernel.st.lock().threads[tid].os_handle = Some(handle);
    SimJoinHandle {
        kernel: Arc::clone(kernel),
        st: join_st,
        tid: ThreadId(tid),
    }
}

/// A discrete-event simulation instance.
///
/// Construct with [`Sim::new`], seed initial threads with [`Sim::spawn`],
/// then drive everything to completion with [`Sim::run`].
pub struct Sim {
    kernel: Arc<Kernel>,
    ran: bool,
}

impl Sim {
    /// Creates a simulation with `cores` simulated CPU cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "a simulation needs at least one core");
        install_quiet_shutdown_hook();
        Sim {
            kernel: Arc::new(Kernel::new(cores)),
            ran: false,
        }
    }

    /// Spawns a simulated thread pinned to `core`, runnable at time zero.
    pub fn spawn<T, F>(&self, name: &str, core: usize, f: F) -> SimJoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        spawn_inner(&self.kernel, name, core, false, f)
    }

    /// Spawns a daemon thread: the simulation may end while it is blocked.
    pub fn spawn_daemon<T, F>(&self, name: &str, core: usize, f: F) -> SimJoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        spawn_inner(&self.kernel, name, core, true, f)
    }

    /// Runs the simulation until every non-daemon thread finishes, then
    /// tears down daemon threads. Returns the final virtual time.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a simulated thread, and panics on deadlock
    /// (live threads blocked with no pending event).
    pub fn run(&mut self) -> Ns {
        assert!(!self.ran, "a Sim can only be run once");
        self.ran = true;
        let deadlock = self.kernel.run_to_stop();
        self.kernel.shutdown_all();
        let (now, payload) = {
            let mut st = self.kernel.st.lock();
            (st.now, st.panic_payload.take())
        };
        if let Some(p) = payload {
            panic::resume_unwind(p);
        }
        if let Some(report) = deadlock {
            panic!("{report}");
        }
        now
    }

    /// Runs `f` as the main thread (core 0) of a fresh simulation with
    /// `cores` simulated cores, drives the simulation to completion and
    /// returns `f`'s value — the whole "new, spawn, run, take the
    /// result" idiom in one call.
    ///
    /// # Panics
    ///
    /// As [`Sim::new`] and [`Sim::run`].
    pub fn run_main<T, F>(cores: usize, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let out = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&out);
        let mut sim = Sim::new(cores);
        sim.spawn("main", 0, move || *slot.lock() = Some(f()));
        sim.run();
        let value = out.lock().take();
        value.expect("the main closure ran to completion")
    }

    /// Returns the current virtual time (final time, after [`Sim::run`]).
    pub fn now(&self) -> Ns {
        self.kernel.st.lock().now
    }

    /// Returns the number of events the simulation has dispatched.
    pub fn events_processed(&self) -> u64 {
        self.kernel.st.lock().events_processed
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Make sure no OS threads outlive the simulation even if `run`
        // was never called or panicked mid-way.
        self.kernel.shutdown_all();
    }
}

// ---------------------------------------------------------------------------
// Free functions usable from inside simulated threads.
// ---------------------------------------------------------------------------

/// Returns whether the caller is a simulated thread.
pub fn in_sim() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Returns the current virtual time in nanoseconds.
pub fn now() -> Ns {
    let (kernel, _) = ctx();
    let st = kernel.st.lock();
    st.now
}

/// Spends `ns` of CPU time on the current thread's core, contending with
/// other threads pinned to the same core.
pub fn cpu(ns: Ns) {
    let (kernel, tid) = ctx();
    kernel.cpu_current(tid, ns);
}

/// Waits `ns` of virtual time without occupying a core (I/O latency,
/// link propagation, timer sleep).
pub fn delay(ns: Ns) {
    let (kernel, tid) = ctx();
    kernel.delay_current(tid, ns);
}

/// Yields to any other thread runnable at the current instant.
pub fn yield_now() {
    let (kernel, tid) = ctx();
    kernel.delay_current(tid, 0);
}

/// Spawns a simulated thread from inside the simulation.
pub fn spawn<T, F>(name: &str, core: usize, f: F) -> SimJoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (kernel, _) = ctx();
    spawn_inner(&kernel, name, core, false, f)
}

/// Spawns a daemon thread from inside the simulation.
pub fn spawn_daemon<T, F>(name: &str, core: usize, f: F) -> SimJoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (kernel, _) = ctx();
    spawn_inner(&kernel, name, core, true, f)
}

/// Returns the simulated core the current thread is pinned to.
pub fn current_core() -> usize {
    let (kernel, tid) = ctx();
    let st = kernel.st.lock();
    st.threads[tid].core
}

// Crate-internal access for the sync primitives.
pub(crate) fn current() -> (Arc<Kernel>, usize) {
    ctx()
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn single_thread_clock() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            assert_eq!(now(), 0);
            cpu(100);
            assert_eq!(now(), 100);
            delay(50);
            assert_eq!(now(), 150);
        });
        assert_eq!(sim.run(), 150);
    }

    #[test]
    fn core_contention_serializes_cpu_work() {
        let mut sim = Sim::new(1);
        sim.spawn("a", 0, || cpu(100));
        sim.spawn("b", 0, || {
            cpu(100);
            // Both threads share core 0, so the second 100 ns of work can
            // only finish at 200 ns.
            assert_eq!(now(), 200);
        });
        assert_eq!(sim.run(), 200);
    }

    #[test]
    fn separate_cores_run_in_parallel() {
        let mut sim = Sim::new(2);
        sim.spawn("a", 0, || cpu(100));
        sim.spawn("b", 1, || {
            cpu(100);
            assert_eq!(now(), 100);
        });
        assert_eq!(sim.run(), 100);
    }

    #[test]
    fn delay_does_not_occupy_core() {
        let mut sim = Sim::new(1);
        sim.spawn("a", 0, || delay(1_000));
        sim.spawn("b", 0, || {
            cpu(100);
            assert_eq!(now(), 100);
        });
        sim.run();
    }

    #[test]
    fn join_returns_value_and_blocks() {
        let mut sim = Sim::new(2);
        sim.spawn("main", 0, || {
            let h = spawn("w", 1, || {
                delay(500);
                7u32
            });
            assert_eq!(h.join(), 7);
            assert_eq!(now(), 500);
        });
        sim.run();
    }

    #[test]
    fn join_already_finished_thread() {
        let mut sim = Sim::new(2);
        sim.spawn("main", 0, || {
            let h = spawn("w", 1, || 3u8);
            delay(1_000);
            assert_eq!(h.join(), 3);
        });
        sim.run();
    }

    #[test]
    fn daemon_does_not_keep_sim_alive() {
        let mut sim = Sim::new(1);
        sim.spawn_daemon("d", 0, || loop {
            delay(1_000_000);
        });
        sim.spawn("main", 0, || cpu(10));
        // Terminates despite the daemon's infinite loop.
        sim.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panic_propagates_to_run() {
        let mut sim = Sim::new(1);
        sim.spawn("main", 0, || panic!("boom"));
        sim.run();
    }

    #[test]
    fn deterministic_interleaving() {
        fn once() -> Vec<u64> {
            let log = std::sync::Arc::new(Mutex::new(Vec::new()));
            let mut sim = Sim::new(4);
            for i in 0..4u64 {
                let log = Arc::clone(&log);
                sim.spawn(&format!("t{i}"), i as usize, move || {
                    for _ in 0..3 {
                        cpu(10 + i);
                        log.lock().push(i * 1000 + now());
                    }
                });
            }
            sim.run();
            let v = log.lock().clone();
            v
        }
        assert_eq!(once(), once());
    }

    #[test]
    fn nested_spawn_from_sim_thread() {
        let mut sim = Sim::new(3);
        sim.spawn("main", 0, || {
            let h1 = spawn("c1", 1, || {
                let h2 = spawn("c2", 2, || {
                    cpu(5);
                    2u64
                });
                h2.join() + 1
            });
            assert_eq!(h1.join(), 3);
        });
        sim.run();
    }

    #[test]
    fn yield_now_lets_same_time_threads_run() {
        let mut sim = Sim::new(2);
        let hit = Arc::new(Mutex::new(false));
        let hit2 = Arc::clone(&hit);
        sim.spawn("setter", 1, move || {
            *hit2.lock() = true;
        });
        sim.spawn("checker", 0, move || {
            yield_now();
            assert!(*hit.lock());
        });
        sim.run();
    }

    #[test]
    fn events_counter_increases() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            for _ in 0..10 {
                cpu(1);
            }
        });
        sim.run();
        assert!(sim.events_processed() >= 10);
    }

    #[test]
    fn same_instant_threads_run_in_spawn_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(3);
        // Spawned out of core order on purpose: the tie-break is the
        // event's sequence number, nothing else.
        for (i, core) in [(0usize, 2usize), (1, 0), (2, 1)] {
            let log = Arc::clone(&log);
            sim.spawn(&format!("t{i}"), core, move || {
                log.lock().push((now(), i));
                delay(10);
                log.lock().push((now(), i));
            });
        }
        sim.run();
        let expect: Vec<(Ns, usize)> = vec![(0, 0), (0, 1), (0, 2), (10, 0), (10, 1), (10, 2)];
        assert_eq!(*log.lock(), expect);
    }

    #[test]
    fn own_next_event_is_taken_without_parking() {
        let mut sim = Sim::new(1);
        let h = sim.spawn("t", 0, || {
            for _ in 0..10_000 {
                cpu(1);
            }
        });
        assert_eq!(sim.run(), 10_000);
        // One dispatch starts the thread, one per `cpu` call.
        assert_eq!(sim.events_processed(), 10_001);
        let st = sim.kernel.st.lock();
        // The thread parked once, waiting to be started; the runner
        // parked once and was woken once.
        assert_eq!(st.threads[h.id().0].parker.parks.load(Relaxed), 1);
        assert_eq!(sim.kernel.runner.parks.load(Relaxed), 1);
        assert_eq!(sim.kernel.runner.unparks.load(Relaxed), 1);
    }

    #[test]
    fn deadlock_found_by_a_simulated_thread_is_raised_from_run() {
        let mut sim = Sim::new(2);
        sim.spawn_daemon("d", 1, || loop {
            ctx().0.block_current();
        });
        sim.spawn("stuck", 0, || {
            cpu(5);
            // Nobody will ever wake this thread, and it is the one that
            // finds the heap empty.
            ctx().0.block_current();
        });
        // `catch_unwind` on this thread: the panic comes out of `run`
        // itself, not out of a simulated thread's OS thread.
        let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run())).unwrap_err();
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some(
                "simulation deadlock at t=5 ns: 1 live thread(s) blocked \
                 with no pending event: [\"stuck\"]"
            )
        );
    }

    #[test]
    fn concurrent_sims_share_nothing() {
        // Both simulations are provably mid-run at once: a thread of each
        // meets the other at a host barrier half-way through.
        let meet = Arc::new(std::sync::Barrier::new(2));
        let hosts: Vec<_> = [3u64, 7]
            .into_iter()
            .map(|step| {
                let meet = Arc::clone(&meet);
                std::thread::spawn(move || {
                    let mut sim = Sim::new(2);
                    sim.spawn_daemon("tick", 1, || loop {
                        delay(1);
                    });
                    sim.spawn("t", 0, move || {
                        for i in 0..1_000 {
                            if i == 500 {
                                meet.wait();
                            }
                            cpu(step);
                        }
                    });
                    let end = sim.run();
                    let runner = &sim.kernel.runner;
                    (
                        end,
                        sim.events_processed(),
                        runner.parks.load(Relaxed),
                        runner.unparks.load(Relaxed),
                    )
                })
            })
            .collect();
        let got: Vec<_> = hosts.into_iter().map(|h| h.join().unwrap()).collect();
        // Each clock is its own thread's work; each event count is that
        // plus the daemon's ticks before the end (the tick due at the
        // final instant was scheduled after the thread's last event, so
        // sorts behind it), plus the two first dispatches.
        assert_eq!(got[0], (3_000, 1_000 + 2_999 + 2, 1, 1));
        assert_eq!(got[1], (7_000, 1_000 + 6_999 + 2, 1, 1));
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod prop_tests {
    use std::sync::Arc;

    use parking_lot::Mutex;
    use proptest::prelude::*;

    use super::*;
    use crate::sync::SimMutex;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Any mix of cpu/delay/lock operations across threads produces
        /// the same trace twice — the determinism the whole evaluation
        /// rests on.
        #[test]
        fn arbitrary_schedules_are_deterministic(
            script in proptest::collection::vec((0usize..4, 0u8..3, 1u64..200), 4..40),
        ) {
            fn run(script: &[(usize, u8, u64)]) -> Vec<u64> {
                let trace = Arc::new(Mutex::new(Vec::new()));
                let shared = Arc::new(SimMutex::new(0u64));
                let mut sim = Sim::new(4);
                for t in 0..4usize {
                    let ops: Vec<(u8, u64)> = script
                        .iter()
                        .filter(|(tid, _, _)| *tid == t)
                        .map(|(_, op, n)| (*op, *n))
                        .collect();
                    let trace = Arc::clone(&trace);
                    let shared = Arc::clone(&shared);
                    sim.spawn(&format!("t{t}"), t, move || {
                        for (op, n) in ops {
                            match op {
                                0 => cpu(n),
                                1 => delay(n),
                                _ => {
                                    let mut g = shared.lock();
                                    cpu(n);
                                    *g += n;
                                }
                            }
                            trace.lock().push(t as u64 * 1_000_000 + now());
                        }
                    });
                }
                sim.run();
                let v = trace.lock().clone();
                v
            }
            prop_assert_eq!(run(&script), run(&script));
        }
    }
}

// The loom tier: every interleaving of the hand-off's OS-level steps —
// the `st` lock, the parker's flag lock, its condvar — for small runs of
// the real kernel. Run with:
//   cargo test -p ccnvme-sim --features loom --lib loom_
#[cfg(all(test, feature = "loom"))]
mod loom_tests {
    use loom::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    use super::*;

    /// Asserts, from inside a simulated thread, that it is the only one
    /// between "dispatched" and "yielded".
    fn assert_alone(running: &AtomicUsize) {
        assert_eq!(running.fetch_add(1, SeqCst), 0, "two threads ran at once");
        let (kernel, me) = ctx();
        let st = kernel.st.lock();
        let is_running = |t: &ThreadSlot| t.state == ThreadState::Running;
        assert!(is_running(&st.threads[me]));
        assert_eq!(st.threads.iter().filter(|t| is_running(t)).count(), 1);
        drop(st);
        running.fetch_sub(1, SeqCst);
    }

    #[test]
    fn loom_unpark_before_park_is_not_lost() {
        loom::model(|| {
            let parker = Arc::new(Parker::new());
            let waker = {
                let parker = Arc::clone(&parker);
                loom::thread::spawn(move || parker.unpark())
            };
            // Deadlocks (and loom reports it) in any schedule that loses
            // the token, whichever side gets there first.
            parker.park();
            waker.join().expect("waker finished");
            assert!(!*parker.flag.lock(), "the token is consumed by the park");
        });
    }

    #[test]
    fn loom_handoff_runs_one_thread_at_a_time_and_wakes_the_runner_once() {
        loom::model(|| {
            let running = Arc::new(AtomicUsize::new(0));
            let mut sim = Sim::new(2);
            for core in 0..2 {
                let running = Arc::clone(&running);
                sim.spawn("t", core, move || {
                    // Both threads are due at the same instants, so every
                    // `cpu` is a cross-thread hand-off whose target may
                    // dispatch the yielder back before it has parked.
                    for _ in 0..2 {
                        assert_alone(&running);
                        cpu(10);
                    }
                    assert_alone(&running);
                });
            }
            assert_eq!(sim.run(), 20);
            assert_eq!(sim.events_processed(), 6);
            assert_eq!(sim.kernel.runner.unparks.load(Relaxed), 1);
        });
    }

    #[test]
    fn loom_block_wake_and_exit_dispatch_across_three_threads() {
        loom::model(|| {
            let running = Arc::new(AtomicUsize::new(0));
            let mut sim = Sim::new(2);
            let r = Arc::clone(&running);
            sim.spawn_daemon("daemon", 1, move || loop {
                assert_alone(&r);
                delay(7);
            });
            let r = Arc::clone(&running);
            sim.spawn("main", 0, move || {
                let r2 = Arc::clone(&r);
                let worker = spawn("worker", 1, move || {
                    assert_alone(&r2);
                    delay(5);
                    3u8
                });
                // Blocks; the worker's exit wakes it and dispatches it
                // from a thread that is on its way out.
                assert_eq!(worker.join(), 3);
                assert_alone(&r);
            });
            assert_eq!(sim.run(), 5);
            assert_eq!(sim.kernel.runner.unparks.load(Relaxed), 1);
        });
    }
}
