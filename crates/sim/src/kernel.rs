//! The discrete-event kernel and simulated-thread runtime.
//!
//! Every simulated thread is a stackful fiber ([`crate::fiber`]) on the
//! OS thread that called [`Sim::run`], and the simulation dispatches its
//! own events: there is no scheduler. A thread that yields (advancing the
//! clock, blocking on a primitive from [`crate::sync`], or exiting) pops
//! the earliest live event from the binary heap itself, under the one
//! [`KState`] lock, and advances the clock to it. If that event is its own it simply keeps running;
//! otherwise [`Kernel::switch_to`] swaps registers with the owning
//! thread's stack — the one hand-off, no system call. The caller of
//! [`Sim::run`] switches to the first event's thread and is switched back
//! to when the run is over.
//!
//! **One runnable context.** There is one OS thread, so exactly one
//! simulated thread is between "dispatched" and "yielded" at any instant:
//! event order is the heap's `(time, seq)` and all simulation-visible
//! state is free of data races by construction. The internal mutexes
//! exist to satisfy Rust's `Send`/`Sync` rules — a [`Sim`] may be built on
//! one OS thread and run on another — and are never held across a
//! hand-off. What is per OS thread and has to follow the simulated thread
//! instead is swapped at the hand-off: [`CTX`] and the two [`ambient`]
//! words.
//!
//! **What a thread pays for asking.** The two things model code reads all
//! the time are outside the lock: the clock is one atomic word on
//! [`Kernel`] that only [`Kernel::dispatch`] writes, so [`now`] is a
//! thread-local lookup and a load, and a thread reaches its kernel
//! through a borrow of [`CTX`] ([`ctx`]) rather than a clone of the
//! `Arc` in it.

use std::{
    cell::{Cell, RefCell},
    cmp::Reverse,
    collections::BinaryHeap,
    panic::{self, AssertUnwindSafe},
    sync::{
        atomic::{AtomicBool, AtomicU64, Ordering},
        Arc,
    },
};

use parking_lot::{Mutex, MutexGuard};

use crate::{
    fiber::{self, Stack},
    time::Ns,
};

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
/// [`SimShutdown`] unwinds used to tear down daemon threads, and says
/// which simulated thread a real panic came from: fibers share the OS
/// thread's name.
fn install_quiet_shutdown_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimShutdown>().is_none() {
                with_current(|kernel, tid| {
                    // `try_lock`: a panic under the state lock must not
                    // hang the report of itself.
                    if let Some(st) = kernel.st.try_lock() {
                        let slot = &st.threads[tid];
                        eprintln!(
                            "simulated thread {:?} on core {} at t={} ns",
                            slot.name,
                            slot.core,
                            kernel.clock()
                        );
                    }
                });
                default(info);
            }
        }));
    });
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    /// Has a pending event in the heap.
    Ready,
    /// Currently executing; every other thread is suspended.
    Running,
    /// Waiting on a primitive; no event, unless a timeout is armed.
    Blocked,
    /// Done; never dispatched again.
    Finished,
}

/// Whom a hand-off resumes, or suspends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Next {
    Thread(usize),
    /// The caller of [`Sim::run`].
    Runner,
}

struct ThreadSlot {
    name: String,
    core: usize,
    daemon: bool,
    state: ThreadState,
    /// Sequence number of the single event that may dispatch this thread.
    /// Any popped event with a different sequence is stale and dropped.
    expected_seq: u64,
    wake_reason: WakeReason,
    /// What the thread runs; its first dispatch takes it.
    body: Option<Box<dyn FnOnce() + Send>>,
    /// Mapped at the first dispatch, given up when the thread finishes.
    stack: Option<Stack>,
    /// Where [`fiber::switch`] left the suspended thread's stack pointer.
    /// Boxed: the switch stores it after the state lock is gone, when
    /// `threads` may have moved.
    sp: Box<Cell<usize>>,
    /// The thread's [`ambient`] words while it is suspended.
    ambient: [u64; 2],
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: Ns,
    seq: u64,
    tid: usize,
}

struct KState {
    seq: u64,
    heap: BinaryHeap<Reverse<Event>>,
    threads: Vec<ThreadSlot>,
    /// Per-core `busy_until` timestamps for CPU-contention accounting.
    cores: Vec<Ns>,
    /// Unfinished non-daemon threads.
    live: usize,
    events_processed: u64,
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
    /// The caller of [`Sim::run`] while threads run: its stack pointer
    /// and its [`ambient`] words.
    runner_sp: Cell<usize>,
    runner_ambient: [u64; 2],
    /// The stack of the thread that finished last. It was still standing
    /// on it when it switched away, so the *next* hand-off recycles it.
    zombie: Option<Stack>,
    /// Stacks of finished threads, for the next first dispatch; unmapped
    /// at shutdown.
    free: Vec<Stack>,
    #[cfg(test)]
    switches: u64,
}

pub(crate) struct Kernel {
    /// The virtual clock: the time of the event dispatched last. Only
    /// [`Kernel::dispatch`] writes it, under the `st` lock; [`now`] reads
    /// it without.
    now: AtomicU64,
    /// Set by [`Kernel::shutdown_all`]: a thread resumed from now on is
    /// resumed to unwind.
    shutdown: AtomicBool,
    st: Mutex<KState>,
}

thread_local! {
    /// The kernel running on this OS thread, who of it is executing and
    /// on which core (a thread's core is fixed at spawn; the runner's
    /// reads 0): installed by [`Kernel::as_runner`], retargeted at every
    /// hand-off.
    static CTX: RefCell<Option<(Arc<Kernel>, Next, usize)>> = const { RefCell::new(None) };
    static AMBIENT: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
}

/// Runs `f` on the running simulation and the calling thread's id in it;
/// `None` when the caller is not a simulated thread. `f` must not hand
/// off: the context stays borrowed while it runs.
const NOT_IN_SIM: &str = "this operation must be called from inside a simulated thread";

fn with_current<R>(f: impl FnOnce(&Arc<Kernel>, usize) -> R) -> Option<R> {
    CTX.with(|c| match &*c.borrow() {
        Some((kernel, Next::Thread(tid), _)) => Some(f(kernel, *tid)),
        _ => None,
    })
}

/// The running simulation, borrowed, and the calling thread's id in it.
/// The borrow is for the caller's own use while it runs (hand-offs
/// included) and must not be kept anywhere that outlives the thread.
pub(crate) fn ctx<'a>() -> (&'a Kernel, usize) {
    let (kernel, tid) = with_current(|kernel, tid| (Arc::as_ptr(kernel), tid)).expect(NOT_IN_SIM);
    // SAFETY: the caller is a simulated thread, and one executes only
    // inside `as_runner`, whose frame on the runner's stack holds an `Arc`
    // of this kernel in `CTX` (in `outer`, while a nested simulation has
    // `CTX`) until every thread is finished or unwound — the liveness
    // `switch_to` relies on for `save`. A suspended thread does not run,
    // and a finished one never again, so no use of the borrow is later.
    (unsafe { &*kernel }, tid)
}

/// The running simulation, to keep: what a spawned thread's handle holds.
fn current_kernel() -> Arc<Kernel> {
    with_current(|kernel, _| Arc::clone(kernel)).expect(NOT_IN_SIM)
}

/// The calling simulated thread's id; `None` on any other thread.
pub(crate) fn current_tid() -> Option<usize> {
    with_current(|_, tid| tid)
}

/// Wakes `tid` of the simulation the caller runs in. Outside one nobody
/// can run — `tid` is left over from a simulation that is over — and this
/// does nothing.
pub(crate) fn wake(tid: usize) {
    with_current(|kernel, _| kernel.wake(tid));
}

fn set_current(who: Next, core: usize) {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let ctx = c.as_mut().expect("a run is in progress");
        (ctx.1, ctx.2) = (who, core);
    });
}

/// Entry point of every fiber: runs the thread's body, then leaves for good.
extern "sysv64" fn fiber_main(tid: usize) -> ! {
    let (kernel, _) = ctx();
    let body = kernel.st.lock().threads[tid].body.take();
    body.expect("a thread is started once")();
    kernel.exit_current(tid)
}

impl Kernel {
    fn new(cores: usize) -> Self {
        Kernel {
            now: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            st: Mutex::new(KState {
                seq: 0,
                heap: BinaryHeap::new(),
                threads: Vec::new(),
                cores: vec![0; cores],
                live: 0,
                events_processed: 0,
                panic_payload: None,
                runner_sp: Cell::new(0),
                runner_ambient: [0; 2],
                zombie: None,
                free: Vec::new(),
                #[cfg(test)]
                switches: 0,
            }),
        }
    }

    /// The virtual clock.
    fn clock(&self) -> Ns {
        // ord: Relaxed — written (`dispatch`) and read on the one OS
        // thread that runs the simulation; a reader on another thread
        // (`Sim::now` after `run`) got the `Sim` through something that
        // orders it after the run.
        self.now.load(Ordering::Relaxed)
    }

    /// Pushes a dispatch event for `tid` at `time`, superseding any other
    /// pending event for that thread.
    fn schedule(st: &mut KState, time: Ns, tid: usize) {
        let seq = st.seq;
        st.seq += 1;
        st.threads[tid].expected_seq = seq;
        st.heap.push(Reverse(Event { time, seq, tid }));
    }

    /// The one dispatch step, run by whoever just stopped running: pops
    /// the earliest live event, advances the clock to it and marks its
    /// owner running. Returns whom to resume — the owner, which may be
    /// the caller itself, or the runner when the run is over.
    fn dispatch(&self, st: &mut KState) -> Next {
        if st.panic_payload.is_some() || st.live == 0 {
            // Daemon threads may still have pending wakeups; they are
            // torn down by `shutdown_all`.
            return Next::Runner;
        }
        while let Some(Reverse(ev)) = st.heap.pop() {
            let slot = &mut st.threads[ev.tid];
            if slot.state == ThreadState::Finished || slot.expected_seq != ev.seq {
                continue; // Stale event.
            }
            slot.state = ThreadState::Running;
            debug_assert!(ev.time >= self.clock(), "time went backwards");
            // ord: Relaxed — see `clock`.
            self.now.store(ev.time, Ordering::Relaxed);
            st.events_processed += 1;
            return Next::Thread(ev.tid);
        }
        // Live threads are blocked with no pending event: a deadlock,
        // which `Sim::run` raises on its caller's thread.
        Next::Runner
    }

    /// The one hand-off: suspends `me`, which is executing this, and
    /// resumes `next`; returns when something hands back to `me`. Takes
    /// the state lock the caller decided `next` under and gives it up
    /// before the switch. Nothing a stack owns is live across it: a
    /// finishing thread's is never resumed.
    fn switch_to(&self, mut st: MutexGuard<'_, KState>, me: Next, next: Next) {
        let (save, to, core) = {
            let st = &mut *st;
            #[cfg(test)]
            {
                st.switches += 1;
            }
            st.free.extend(st.zombie.take());
            let save = match me {
                Next::Runner => {
                    st.runner_ambient = AMBIENT.get();
                    st.runner_sp.as_ptr()
                }
                Next::Thread(tid) => {
                    let slot = &mut st.threads[tid];
                    slot.ambient = AMBIENT.get();
                    if slot.state == ThreadState::Finished {
                        st.zombie = slot.stack.take();
                    }
                    slot.sp.as_ptr()
                }
            };
            let (to, ambient, core) = match next {
                Next::Runner => (st.runner_sp.get(), st.runner_ambient, 0),
                Next::Thread(tid) => {
                    let slot = &mut st.threads[tid];
                    if slot.stack.is_none() {
                        let mut stack = st.free.pop().unwrap_or_else(Stack::new);
                        slot.sp.set(fiber::prepare(&mut stack, fiber_main, tid));
                        slot.stack = Some(stack);
                    }
                    (slot.sp.get(), slot.ambient, slot.core)
                }
            };
            AMBIENT.set(ambient);
            (save, to, core)
        };
        drop(st);
        set_current(next, core);
        // SAFETY: `to` is the stack pointer of a suspended context that
        // nobody else resumes: `prepare`d just above, or stored by the
        // `switch` that suspended `next`, which has not run since (only
        // the executing context gets here, and it resumes one target).
        // That context's stack is mapped: a stack leaves its slot only
        // when its thread is finished, and neither `dispatch` nor
        // `shutdown_all` names a finished thread. `save` points into the
        // `Sim`'s kernel, which the frame of `Sim::run` or `drop` on the
        // runner's stack keeps alive across every hand-off, and nothing
        // locks `st` again before the store. A thread starts and is
        // resumed only inside `Sim::run`, which happens once: a context
        // never continues on another OS thread than it started on.
        unsafe { fiber::switch(save, to) }
    }

    /// Gives up the CPU: dispatches the next event and, unless it is the
    /// caller's own, hands over until dispatched again. The caller must
    /// already have arranged its wakeup (heap event or waitlist
    /// registration) under the `st` lock it passes in.
    fn yield_current(&self, mut st: MutexGuard<'_, KState>, tid: usize) {
        let next = self.dispatch(&mut st);
        if next == Next::Thread(tid) {
            return;
        }
        self.switch_to(st, Next::Thread(tid), next);
        // ord: Relaxed — set by the runner on this OS thread, before the
        // hand-off that got here.
        if self.shutdown.load(Ordering::Relaxed) {
            // Unwind this thread's stack; its body catches the token.
            panic::panic_any(SimShutdown);
        }
    }

    /// Models `ns` of CPU work on the current thread's core, serializing
    /// with other work on the same core.
    fn cpu_current(&self, tid: usize, ns: Ns) {
        let mut st = self.st.lock();
        let core = st.threads[tid].core;
        let start = self.clock().max(st.cores[core]);
        let end = start + ns;
        st.cores[core] = end;
        Self::schedule(&mut st, end, tid);
        st.threads[tid].state = ThreadState::Ready;
        self.yield_current(st, tid);
    }

    /// Advances the current thread's clock by `ns` without occupying a core.
    fn delay_current(&self, tid: usize, ns: Ns) {
        let mut st = self.st.lock();
        Self::schedule(&mut st, self.clock() + ns, tid);
        st.threads[tid].state = ThreadState::Ready;
        self.yield_current(st, tid);
    }

    /// Blocks the current thread, `tid`, until [`Kernel::wake`] is called
    /// for it.
    pub(crate) fn block_current(&self, tid: usize) {
        let mut st = self.st.lock();
        let slot = &mut st.threads[tid];
        slot.state = ThreadState::Blocked;
        slot.wake_reason = WakeReason::TimedOut;
        self.yield_current(st, tid);
    }

    /// Blocks the current thread, `tid`, until woken or until `ns` virtual
    /// time elapses, whichever happens first.
    pub(crate) fn block_current_timeout(&self, tid: usize, ns: Ns) -> WakeReason {
        let mut st = self.st.lock();
        Self::schedule(&mut st, self.clock() + ns, tid);
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
            Self::schedule(&mut st, self.clock(), tid);
            let slot = &mut st.threads[tid];
            slot.state = ThreadState::Ready;
            slot.wake_reason = WakeReason::Notified;
        }
    }

    /// Last act of a simulated thread: marks it finished and hands off
    /// to the next event's owner.
    fn exit_current(&self, tid: usize) -> ! {
        let mut st = self.st.lock();
        st.threads[tid].state = ThreadState::Finished;
        // ord: Relaxed — set by the runner on this OS thread.
        let next = if self.shutdown.load(Ordering::Relaxed) {
            Next::Runner // Unwound by `shutdown_all`, which goes on.
        } else {
            if !st.threads[tid].daemon {
                st.live -= 1;
            }
            self.dispatch(&mut st)
        };
        self.switch_to(st, Next::Thread(tid), next);
        unreachable!("a finished thread is never resumed")
    }

    /// Runs `f` — the runner's side of a run — with this kernel as the
    /// OS thread's current one; the caller's own context is back after.
    fn as_runner<R>(self: &Arc<Self>, f: impl FnOnce(&Kernel) -> R) -> R {
        let outer = CTX.replace(Some((Arc::clone(self), Next::Runner, 0)));
        let out = f(self);
        CTX.set(outer);
        out
    }

    /// Runs the threads until the run is over. Returns the deadlock
    /// report if that is how it ended.
    fn run_to_stop(&self) -> Option<String> {
        let mut st = self.st.lock();
        let first = self.dispatch(&mut st);
        if first != Next::Runner {
            self.switch_to(st, Next::Runner, first);
            st = self.st.lock();
        }
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
            self.clock(),
            st.live,
            blocked
        ))
    }

    /// Ends every unfinished thread, one at a time in spawn order, and
    /// unmaps the stacks.
    fn shutdown_all(&self) {
        // ord: Relaxed — read by the threads resumed below, on this OS
        // thread.
        self.shutdown.store(true, Ordering::Relaxed);
        for tid in 0.. {
            let mut st = self.st.lock();
            let Some(slot) = st.threads.get_mut(tid) else {
                break;
            };
            if slot.state == ThreadState::Finished {
                continue;
            }
            if slot.stack.is_some() {
                // Suspended inside its body: resumed, it unwinds with
                // `SimShutdown`, which runs its destructors. One of them
                // yielding does not get it a second turn.
                self.switch_to(st, Next::Runner, Next::Thread(tid));
                self.st.lock().threads[tid].state = ThreadState::Finished;
            } else {
                // Never started. Its captures are dropped as the thread
                // they were handed to, which is where their destructors
                // (a `Sender`'s wake-up of its receiver) expect to run.
                slot.state = ThreadState::Finished;
                let (body, core) = (slot.body.take(), slot.core);
                drop(st);
                set_current(Next::Thread(tid), core);
                drop(body);
                set_current(Next::Runner, 0);
            }
        }
        let mut st = self.st.lock();
        st.zombie = None;
        st.free.clear();
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
}

impl<T> SimJoinHandle<T> {
    /// Blocks (in virtual time) until the thread finishes and returns its
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if called from outside the simulation.
    pub fn join(self) -> T {
        let (kernel, me) = ctx();
        debug_assert!(
            std::ptr::eq(kernel, &*self.kernel),
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
            kernel.block_current(me);
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
    let js2 = Arc::clone(&join_st);
    // Runs as the thread, so the kernel it reports to is the current one.
    let body = move || match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => {
            let waiters: Vec<usize> = {
                let mut js = js2.lock();
                js.result = Some(value);
                js.finished = true;
                std::mem::take(&mut js.waiters)
            };
            let (kernel, _) = ctx();
            for w in waiters {
                kernel.wake(w);
            }
        }
        Err(payload) => {
            if !payload.is::<SimShutdown>() {
                let (kernel, _) = ctx();
                let mut st = kernel.st.lock();
                if st.panic_payload.is_none() {
                    st.panic_payload = Some(payload);
                }
            }
            js2.lock().finished = true;
        }
    };
    {
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
            state: ThreadState::Ready,
            expected_seq: 0,
            wake_reason: WakeReason::TimedOut,
            body: Some(Box::new(body)),
            stack: None,
            sp: Box::default(),
            ambient: [0; 2],
        });
        if !daemon {
            st.live += 1;
        }
        Kernel::schedule(&mut st, kernel.clock(), tid);
    }
    SimJoinHandle {
        kernel: Arc::clone(kernel),
        st: join_st,
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
        let deadlock = self.kernel.as_runner(|kernel| {
            let deadlock = kernel.run_to_stop();
            kernel.shutdown_all();
            deadlock
        });
        let payload = self.kernel.st.lock().panic_payload.take();
        if let Some(p) = payload {
            panic::resume_unwind(p);
        }
        if let Some(report) = deadlock {
            panic!("{report}");
        }
        self.now()
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
        self.kernel.clock()
    }

    /// Returns the number of events the simulation has dispatched.
    pub fn events_processed(&self) -> u64 {
        self.kernel.st.lock().events_processed
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Nothing of a simulation that was never run is left behind.
        self.kernel.as_runner(Kernel::shutdown_all);
    }
}

// ---------------------------------------------------------------------------
// Free functions usable from inside simulated threads.
// ---------------------------------------------------------------------------

/// Returns whether the caller is a simulated thread.
pub fn in_sim() -> bool {
    current_tid().is_some()
}

/// Two words that belong to the calling thread and follow it: each
/// simulated thread has its own (zero until set), as has each OS thread
/// outside a simulation. The kernel does not interpret them.
pub fn ambient() -> [u64; 2] {
    AMBIENT.get()
}

/// Replaces the calling thread's [`ambient`] words, returning the old ones.
pub fn set_ambient(words: [u64; 2]) -> [u64; 2] {
    AMBIENT.replace(words)
}

/// Returns the current virtual time in nanoseconds.
pub fn now() -> Ns {
    try_now().expect(NOT_IN_SIM)
}

/// [`now`] on a simulated thread, `None` on any other: [`in_sim`] and
/// [`now`] in one lookup.
pub fn try_now() -> Option<Ns> {
    with_current(|kernel, _| kernel.clock())
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

/// Spawns a simulated thread from inside the simulation.
pub fn spawn<T, F>(name: &str, core: usize, f: F) -> SimJoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    spawn_inner(&current_kernel(), name, core, false, f)
}

/// Spawns a daemon thread from inside the simulation.
pub fn spawn_daemon<T, F>(name: &str, core: usize, f: F) -> SimJoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    spawn_inner(&current_kernel(), name, core, true, f)
}

/// Returns the simulated core the current thread is pinned to.
pub fn current_core() -> usize {
    CTX.with(|c| match &*c.borrow() {
        Some((_, Next::Thread(_), core)) => *core,
        _ => panic!("{NOT_IN_SIM}"),
    })
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

    /// The core travels with the thread across hand-offs, whoever ran
    /// in between, and whether it started at a spawn or a resume.
    #[test]
    fn current_core_is_the_spawn_core_across_hand_offs() {
        let mut sim = Sim::new(3);
        for core in [2, 0, 1] {
            sim.spawn("t", core, move || {
                assert_eq!(current_core(), core);
                cpu(10);
                assert_eq!(current_core(), core);
                let child = spawn("child", (core + 1) % 3, current_core);
                delay(5);
                assert_eq!(current_core(), core);
                assert_eq!(child.join(), (core + 1) % 3);
            });
        }
        sim.run();
    }

    #[test]
    fn now_is_the_dispatch_clock_however_time_advanced() {
        use crate::sync::{SimCondvar, SimMutex};
        let mut sim = Sim::new(2);
        sim.spawn("main", 0, || {
            cpu(7);
            assert_eq!(now(), 7);
            delay(3);
            assert_eq!(now(), 10);
            // A thread spawned inside starts at its parent's instant, and
            // block + wake resumes the parent at the waker's.
            let child = spawn("child", 1, || {
                assert_eq!(now(), 10);
                delay(15);
                now()
            });
            assert_eq!(child.join(), 25);
            assert_eq!(now(), 25);
            let (mx, cv) = (SimMutex::new(()), SimCondvar::new());
            let (_g, res) = cv.wait_timeout(mx.lock(), 100);
            assert!(res.timed_out());
            assert_eq!((now(), try_now()), (125, Some(125)));
        });
        assert_eq!(sim.now(), 0);
        assert_eq!(sim.run(), 125);
        assert_eq!(sim.now(), 125);
        assert_eq!(try_now(), None);
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
        sim.spawn("t", 0, || {
            for _ in 0..10_000 {
                cpu(1);
            }
        });
        assert_eq!(sim.run(), 10_000);
        // One dispatch starts the thread, one per `cpu` call.
        assert_eq!(sim.events_processed(), 10_001);
        // The runner switched to the thread and the thread, finished,
        // back: nothing in between.
        assert_eq!(sim.kernel.st.lock().switches, 2);
    }

    #[test]
    fn deadlock_found_by_a_simulated_thread_is_raised_from_run() {
        let mut sim = Sim::new(2);
        sim.spawn_daemon("d", 1, || loop {
            let (kernel, me) = ctx();
            kernel.block_current(me);
        });
        sim.spawn("stuck", 0, || {
            cpu(5);
            // Nobody will ever wake this thread, and it is the one that
            // finds the heap empty.
            let (kernel, me) = ctx();
            kernel.block_current(me);
        });
        // `catch_unwind` around `run`: the panic comes out of `run`
        // itself, not out of a simulated thread's stack.
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
                    let switches = sim.kernel.st.lock().switches;
                    (end, sim.events_processed(), switches)
                })
            })
            .collect();
        let got: Vec<_> = hosts.into_iter().map(|h| h.join().unwrap()).collect();
        // Each clock is its own thread's work; each event count is that
        // plus the daemon's ticks before the end (the tick due at the
        // final instant was scheduled after the thread's last event, so
        // sorts behind it), plus the two first dispatches. Each `cpu` is
        // a hand-off to the daemon and one back, whatever the daemon
        // ticks in between; add the two first ones, the last one to the
        // runner, and shutdown's visit to the daemon and back.
        assert_eq!(got[0], (3_000, 1_000 + 2_999 + 2, 2 * 1_000 + 5));
        assert_eq!(got[1], (7_000, 1_000 + 6_999 + 2, 2 * 1_000 + 5));
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
