//! The discrete-event scheduler and simulated-thread runtime.
//!
//! One OS thread backs each simulated thread, but the scheduler guarantees
//! that at most one simulated thread executes at a time. Control transfers
//! through park/unpark handoffs: the scheduler pops the earliest event from
//! a binary heap, unparks the owning thread and parks itself; the thread
//! runs until it yields (advancing the clock, or blocking on a primitive
//! from [`crate::sync`]) and then unparks the scheduler.
//!
//! Because execution is serialized, all simulation-visible state is free
//! of data races by construction; the internal `parking_lot` mutexes exist
//! only to satisfy Rust's `Send`/`Sync` rules and are never contended for
//! longer than a handoff.

use std::{
    cell::RefCell,
    cmp::Reverse,
    collections::BinaryHeap,
    panic::{self, AssertUnwindSafe},
    sync::Arc,
};

use parking_lot::{Condvar, Mutex};

use crate::time::Ns;

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
}

impl Parker {
    fn new() -> Self {
        Parker {
            flag: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn park(&self) {
        let mut flag = self.flag.lock();
        while !*flag {
            self.cv.wait(&mut flag);
        }
        *flag = false;
    }

    fn unpark(&self) {
        let mut flag = self.flag.lock();
        *flag = true;
        self.cv.notify_one();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    /// Has a pending event in the heap.
    Ready,
    /// Currently executing (the scheduler is parked).
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
    os_handle: Option<std::thread::JoinHandle<()>>,
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
    sched_parker: Parker,
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
            sched_parker: Parker::new(),
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

    /// Parks the current thread until the scheduler dispatches it again.
    /// The caller must already have arranged the wakeup (heap event or
    /// waitlist registration).
    fn yield_current(self: &Arc<Self>, tid: usize) {
        let parker = {
            let st = self.st.lock();
            Arc::clone(&st.threads[tid].parker)
        };
        self.sched_parker.unpark();
        parker.park();
        if self.st.lock().shutdown {
            // Unwind this thread's stack; the runner catches the token.
            panic::panic_any(SimShutdown);
        }
    }

    /// Models `ns` of CPU work on the current thread's core, serializing
    /// with other work on the same core.
    fn cpu_current(self: &Arc<Self>, tid: usize, ns: Ns) {
        {
            let mut st = self.st.lock();
            let core = st.threads[tid].core;
            let start = st.now.max(st.cores[core]);
            let end = start + ns;
            st.cores[core] = end;
            Self::schedule(&mut st, end, tid);
            st.threads[tid].state = ThreadState::Ready;
        }
        self.yield_current(tid);
    }

    /// Advances the current thread's clock by `ns` without occupying a core.
    fn delay_current(self: &Arc<Self>, tid: usize, ns: Ns) {
        {
            let mut st = self.st.lock();
            let when = st.now + ns;
            Self::schedule(&mut st, when, tid);
            st.threads[tid].state = ThreadState::Ready;
        }
        self.yield_current(tid);
    }

    /// Blocks the current thread until [`Kernel::wake`] is called for it.
    pub(crate) fn block_current(self: &Arc<Self>) {
        let (_, tid) = ctx();
        {
            let mut st = self.st.lock();
            let slot = &mut st.threads[tid];
            slot.state = ThreadState::Blocked;
            slot.wake_reason = WakeReason::TimedOut;
        }
        self.yield_current(tid);
    }

    /// Blocks the current thread until woken or until `ns` virtual time
    /// elapses, whichever happens first.
    pub(crate) fn block_current_timeout(self: &Arc<Self>, ns: Ns) -> WakeReason {
        let (_, tid) = ctx();
        {
            let mut st = self.st.lock();
            let when = st.now + ns;
            Self::schedule(&mut st, when, tid);
            let slot = &mut st.threads[tid];
            slot.state = ThreadState::Blocked;
            slot.wake_reason = WakeReason::TimedOut;
        }
        self.yield_current(tid);
        let st = self.st.lock();
        st.threads[tid].wake_reason
    }

    /// Wakes `tid` if it is blocked; a no-op otherwise. Idempotent.
    pub(crate) fn wake(self: &Arc<Self>, tid: usize) {
        let mut st = self.st.lock();
        if st.threads[tid].state == ThreadState::Blocked {
            let now = st.now;
            Self::schedule(&mut st, now, tid);
            let slot = &mut st.threads[tid];
            slot.state = ThreadState::Ready;
            slot.wake_reason = WakeReason::Notified;
        }
    }

    /// Scheduler loop: dispatch events until no live (non-daemon) thread
    /// remains or a simulated thread panics.
    fn dispatch_loop(self: &Arc<Self>) {
        loop {
            let parker = {
                let mut st = self.st.lock();
                if st.panic_payload.is_some() || st.live == 0 {
                    // Done: every non-daemon thread finished (daemon
                    // threads may still have pending wakeups; they are
                    // torn down by `shutdown_all`), or a thread panicked.
                    return;
                }
                let tid = loop {
                    match st.heap.pop() {
                        Some(Reverse(ev)) => {
                            let slot = &st.threads[ev.tid];
                            if slot.state == ThreadState::Finished || slot.expected_seq != ev.seq {
                                continue; // Stale event.
                            }
                            debug_assert!(ev.time >= st.now, "time went backwards");
                            st.now = ev.time;
                            st.events_processed += 1;
                            st.threads[ev.tid].state = ThreadState::Running;
                            break ev.tid;
                        }
                        None => {
                            let blocked: Vec<&str> = st
                                .threads
                                .iter()
                                .filter(|t| t.state == ThreadState::Blocked && !t.daemon)
                                .map(|t| t.name.as_str())
                                .collect();
                            panic!(
                                "simulation deadlock at t={} ns: {} live thread(s) blocked \
                                 with no pending event: {:?}",
                                st.now, st.live, blocked
                            );
                        }
                    }
                };
                Arc::clone(&st.threads[tid].parker)
            };
            parker.unpark();
            self.sched_parker.park();
        }
    }

    /// Unwinds every unfinished thread and joins its OS thread.
    fn shutdown_all(self: &Arc<Self>) {
        let pending: Vec<(Arc<Parker>, std::thread::JoinHandle<()>)> = {
            let mut st = self.st.lock();
            st.shutdown = true;
            let mut v = Vec::new();
            for slot in st.threads.iter_mut() {
                if slot.state != ThreadState::Finished {
                    if let Some(h) = slot.os_handle.take() {
                        v.push((Arc::clone(&slot.parker), h));
                    }
                }
            }
            v
        };
        for (parker, handle) in pending {
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
    let thread_name = name.to_string();
    let handle = std::thread::Builder::new()
        .name(format!("sim:{thread_name}"))
        .spawn(move || {
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
            // Mark finished and hand control back to the scheduler.
            {
                let mut st = k2.st.lock();
                let slot = &mut st.threads[tid];
                if slot.state != ThreadState::Finished {
                    slot.state = ThreadState::Finished;
                    if !slot.daemon && !st.shutdown {
                        st.live -= 1;
                    }
                }
            }
            k2.sched_parker.unpark();
        })
        .expect("failed to spawn OS thread backing a simulated thread");
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
        self.kernel.dispatch_loop();
        self.kernel.shutdown_all();
        let (now, payload) = {
            let mut st = self.kernel.st.lock();
            (st.now, st.panic_payload.take())
        };
        if let Some(p) = payload {
            panic::resume_unwind(p);
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

    /// Returns the number of events the scheduler has dispatched.
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

#[cfg(test)]
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
}

#[cfg(test)]
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
