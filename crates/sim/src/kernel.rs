//! The discrete-event kernel and simulated-thread runtime.
//!
//! Every simulated thread is a stackful fiber ([`crate::fiber`]) on the
//! OS thread that called [`Sim::run`], and the simulation dispatches its
//! own events: there is no scheduler. A thread that yields (advancing the
//! clock, blocking on a primitive from [`crate::sync`], or exiting) pops
//! the earliest live event from the binary heap itself, in the kernel's
//! one [`KState`], and advances the clock to it. If that event is its own it simply keeps running;
//! otherwise [`Kernel::switch_to`] swaps registers with the owning
//! thread's stack — the one hand-off, no system call. The caller of
//! [`Sim::run`] switches to the first event's thread and is switched back
//! to when the run is over.
//!
//! **One runnable context.** There is one OS thread, so exactly one
//! simulated thread is between "dispatched" and "yielded" at any instant:
//! event order is the heap's `(time, seq)` and all simulation-visible
//! state is free of data races by construction. The kernel's state is
//! therefore not behind a lock but in a [`RefCell`]: a [`Sim`] may be
//! built on one OS thread and run on another (it is `Send`), but never
//! shared between two (it is not `Sync`), and a running kernel is reached
//! only from the OS thread running it (see [`ctx`]). The borrow is never
//! held across a hand-off; a re-entrant one panics, as relocking a held
//! lock would deadlock. What is per OS thread and has to follow the
//! simulated thread instead is swapped at the hand-off: [`CTX`] and the
//! two [`ambient`] words.
//!
//! The kernel also keeps every [`crate::SimCondvar`]'s wait list, by the
//! condvar's id: a thread waits on one condvar at a time, so each list is
//! threaded through the waiting threads' slots and costs no allocation.
//!
//! **What a thread pays for asking.** [`now`] is a thread-local lookup
//! and a read of the clock, which only [`Kernel::dispatch`] writes, and a
//! thread reaches its kernel through the pointer in [`CTX`] ([`ctx`]):
//! no lock, no reference count.

use std::{
    cell::{Cell, RefCell, RefMut},
    cmp::Reverse,
    collections::{hash_map::Entry, BinaryHeap, HashMap},
    hash::{BuildHasherDefault, Hasher},
    panic::{self, AssertUnwindSafe},
    sync::Arc,
};

use parking_lot::Mutex;

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
                    // `try_borrow`: a panic while the state is borrowed
                    // must not turn the report of itself into a second.
                    if let Ok(st) = kernel.st.try_borrow() {
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
    /// Boxed: the switch stores it after the state borrow is gone, when
    /// `threads` may have moved.
    sp: Box<Cell<usize>>,
    /// The thread's [`ambient`] words while it is suspended.
    ambient: [u64; 2],
    /// The thread queued behind this one on the condvar it waits on
    /// ([`NIL`] at the tail); meaningless while it waits on none.
    cv_next: usize,
}

/// The end of a condvar's wait list.
const NIL: usize = usize::MAX;

/// The first and last thread waiting on one condvar.
#[derive(Clone, Copy)]
struct WaitList {
    head: usize,
    tail: usize,
}

/// Hashes a condvar id with one multiply: the ids are distinct integers
/// drawn from a counter, and the map indexes by the low bits.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("condvar ids hash as one u64")
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
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
    /// Each [`crate::SimCondvar`] somebody waits on, by its id; the list
    /// runs through [`ThreadSlot::cv_next`].
    waits: HashMap<u64, WaitList, BuildHasherDefault<IdHasher>>,
    #[cfg(test)]
    switches: u64,
}

pub(crate) struct Kernel {
    /// The virtual clock: the time of the event dispatched last. Only
    /// [`Kernel::dispatch`] writes it; [`now`] reads it without borrowing
    /// `st`.
    now: Cell<Ns>,
    /// Set by [`Kernel::shutdown_all`]: a thread resumed from now on is
    /// resumed to unwind.
    shutdown: Cell<bool>,
    st: RefCell<KState>,
}

thread_local! {
    /// The kernel running on this OS thread, who of it is executing and
    /// on which core (a thread's core is fixed at spawn; the runner's
    /// reads 0): installed by [`Kernel::as_runner`], retargeted at every
    /// hand-off.
    static CTX: Cell<Option<(*const Kernel, Next, usize)>> = const { Cell::new(None) };
    static AMBIENT: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
}

const NOT_IN_SIM: &str = "this operation must be called from inside a simulated thread";

/// The running simulation and the calling thread's id in it; `None`
/// when the caller is not a simulated thread.
///
/// The reference is for the caller's own use while it runs (hand-offs
/// included) and must not be kept anywhere that outlives the thread.
pub(crate) fn current<'a>() -> Option<(&'a Kernel, usize)> {
    match CTX.get() {
        Some((kernel, Next::Thread(tid), _)) => {
            // SAFETY: `CTX` names a kernel only inside `as_runner`, which
            // `Sim::run` and `Sim::drop` call with the `Sim` exclusively
            // borrowed and its boxed kernel at a fixed address; `CTX` is
            // restored before `as_runner` returns. A simulated thread runs
            // only in there, on the OS thread that called it: so while the
            // caller runs, the kernel is alive (the liveness `switch_to`
            // relies on for `save`) and no other OS thread can reach it —
            // a `Sim` is `!Sync`, nobody else holds `&Sim` or `&mut Sim`,
            // and handles keep no reference to the kernel. Shared access
            // from this one OS thread is what `Kernel`'s `Cell`s and
            // `RefCell` are for. A suspended thread does not run, and a
            // finished one never again, so no use of the reference is
            // later.
            Some((unsafe { &*kernel }, tid))
        }
        _ => None,
    }
}

fn with_current<R>(f: impl FnOnce(&Kernel, usize) -> R) -> Option<R> {
    current().map(|(kernel, tid)| f(kernel, tid))
}

/// The running simulation, borrowed, and the calling thread's id in it.
pub(crate) fn ctx<'a>() -> (&'a Kernel, usize) {
    current().expect(NOT_IN_SIM)
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
    let (kernel, _, _) = CTX.get().expect("a run is in progress");
    CTX.set(Some((kernel, who, core)));
}

/// Entry point of every fiber: runs the thread's body, then leaves for good.
extern "sysv64" fn fiber_main(tid: usize) -> ! {
    let (kernel, _) = ctx();
    let body = kernel.state().threads[tid].body.take();
    body.expect("a thread is started once")();
    kernel.exit_current(tid)
}

impl Kernel {
    fn new(cores: usize) -> Self {
        Kernel {
            now: Cell::new(0),
            shutdown: Cell::new(false),
            st: RefCell::new(KState {
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
                waits: HashMap::default(),
                #[cfg(test)]
                switches: 0,
            }),
        }
    }

    /// The kernel's state, borrowed until the guard drops.
    ///
    /// # Panics
    ///
    /// Panics if it is borrowed already: the caller re-entered the kernel.
    fn state(&self) -> RefMut<'_, KState> {
        self.st
            .try_borrow_mut()
            .expect("kernel state borrowed twice: the kernel was re-entered")
    }

    /// The virtual clock.
    fn clock(&self) -> Ns {
        self.now.get()
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
            self.now.set(ev.time);
            st.events_processed += 1;
            return Next::Thread(ev.tid);
        }
        // Live threads are blocked with no pending event: a deadlock,
        // which `Sim::run` raises on its caller's thread.
        Next::Runner
    }

    /// The one hand-off: suspends `me`, which is executing this, and
    /// resumes `next`; returns when something hands back to `me`. Takes
    /// the state borrow the caller decided `next` under and gives it up
    /// before the switch. Nothing a stack owns is live across it: a
    /// finishing thread's is never resumed.
    fn switch_to(&self, mut st: RefMut<'_, KState>, me: Next, next: Next) {
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
        // borrows `st` again before the store. A thread starts and is
        // resumed only inside `Sim::run`, which happens once: a context
        // never continues on another OS thread than it started on.
        unsafe { fiber::switch(save, to) }
    }

    /// Gives up the CPU: dispatches the next event and, unless it is the
    /// caller's own, hands over until dispatched again. The caller must
    /// already have arranged its wakeup (heap event or waitlist
    /// registration) in the `st` borrow it passes in.
    fn yield_current(&self, mut st: RefMut<'_, KState>, tid: usize) {
        let next = self.dispatch(&mut st);
        if next == Next::Thread(tid) {
            return;
        }
        self.switch_to(st, Next::Thread(tid), next);
        // Set by the runner before the hand-off that got here.
        if self.shutdown.get() {
            // Unwind this thread's stack; its body catches the token.
            panic::panic_any(SimShutdown);
        }
    }

    /// Models `ns` of CPU work on the current thread's core, serializing
    /// with other work on the same core.
    fn cpu_current(&self, tid: usize, ns: Ns) {
        let mut st = self.state();
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
        let mut st = self.state();
        Self::schedule(&mut st, self.clock() + ns, tid);
        st.threads[tid].state = ThreadState::Ready;
        self.yield_current(st, tid);
    }

    /// Blocks the current thread, `tid`, until [`Kernel::wake`] is called
    /// for it.
    pub(crate) fn block_current(&self, tid: usize) {
        let mut st = self.state();
        let slot = &mut st.threads[tid];
        slot.state = ThreadState::Blocked;
        slot.wake_reason = WakeReason::TimedOut;
        self.yield_current(st, tid);
    }

    /// Blocks the current thread, `tid`, until woken or until `ns` virtual
    /// time elapses, whichever happens first.
    pub(crate) fn block_current_timeout(&self, tid: usize, ns: Ns) -> WakeReason {
        let mut st = self.state();
        Self::schedule(&mut st, self.clock() + ns, tid);
        let slot = &mut st.threads[tid];
        slot.state = ThreadState::Blocked;
        slot.wake_reason = WakeReason::TimedOut;
        self.yield_current(st, tid);
        let st = self.state();
        st.threads[tid].wake_reason
    }

    /// Wakes `tid` if it is blocked; a no-op otherwise. Idempotent.
    pub(crate) fn wake(&self, tid: usize) {
        self.wake_in(&mut self.state(), tid);
    }

    fn wake_in(&self, st: &mut KState, tid: usize) {
        if st.threads[tid].state == ThreadState::Blocked {
            Self::schedule(st, self.clock(), tid);
            let slot = &mut st.threads[tid];
            slot.state = ThreadState::Ready;
            slot.wake_reason = WakeReason::Notified;
        }
    }

    /// Queues `tid` at the tail of condvar `cv`'s wait list.
    pub(crate) fn cv_enqueue(&self, cv: u64, tid: usize) {
        let mut st = self.state();
        let st = &mut *st;
        st.threads[tid].cv_next = NIL;
        match st.waits.entry(cv) {
            Entry::Occupied(mut e) => {
                let list = e.get_mut();
                st.threads[list.tail].cv_next = tid;
                list.tail = tid;
            }
            Entry::Vacant(e) => {
                e.insert(WaitList {
                    head: tid,
                    tail: tid,
                });
            }
        }
    }

    /// Takes the longest waiter off `cv`'s wait list and wakes it;
    /// whether there was one.
    pub(crate) fn cv_notify_one(&self, cv: u64) -> bool {
        let mut st = self.state();
        let st = &mut *st;
        let Entry::Occupied(mut e) = st.waits.entry(cv) else {
            return false;
        };
        let head = e.get().head;
        if head == e.get().tail {
            e.remove();
        } else {
            e.get_mut().head = st.threads[head].cv_next;
        }
        self.wake_in(st, head);
        true
    }

    /// Empties `cv`'s wait list, waking the threads on it longest waiter
    /// first; how many there were.
    pub(crate) fn cv_notify_all(&self, cv: u64) -> usize {
        let mut st = self.state();
        let st = &mut *st;
        let Some(list) = st.waits.remove(&cv) else {
            return 0;
        };
        let (mut tid, mut woken) = (list.head, 1);
        loop {
            let next = st.threads[tid].cv_next;
            self.wake_in(st, tid);
            if tid == list.tail {
                return woken;
            }
            (tid, woken) = (next, woken + 1);
        }
    }

    /// Takes `tid` off `cv`'s wait list; whether it was on it.
    pub(crate) fn cv_remove(&self, cv: u64, tid: usize) -> bool {
        let mut st = self.state();
        let st = &mut *st;
        let Entry::Occupied(mut e) = st.waits.entry(cv) else {
            return false;
        };
        let list = e.get_mut();
        let (mut prev, mut at) = (NIL, list.head);
        while at != tid {
            if at == list.tail {
                return false;
            }
            (prev, at) = (at, st.threads[at].cv_next);
        }
        let next = st.threads[tid].cv_next;
        if prev == NIL && list.tail == tid {
            e.remove();
        } else if prev == NIL {
            list.head = next;
        } else {
            st.threads[prev].cv_next = next;
            if list.tail == tid {
                list.tail = prev;
            }
        }
        true
    }

    /// Last act of a simulated thread: marks it finished and hands off
    /// to the next event's owner.
    fn exit_current(&self, tid: usize) -> ! {
        let mut st = self.state();
        st.threads[tid].state = ThreadState::Finished;
        let next = if self.shutdown.get() {
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
    fn as_runner<R>(&self, f: impl FnOnce(&Kernel) -> R) -> R {
        let outer = CTX.replace(Some((self as *const Kernel, Next::Runner, 0)));
        let out = f(self);
        CTX.set(outer);
        out
    }

    /// Runs the threads until the run is over. Returns the deadlock
    /// report if that is how it ended.
    fn run_to_stop(&self) -> Option<String> {
        let mut st = self.state();
        let first = self.dispatch(&mut st);
        if first != Next::Runner {
            self.switch_to(st, Next::Runner, first);
            st = self.state();
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
        // Read by the threads resumed below.
        self.shutdown.set(true);
        for tid in 0.. {
            let mut st = self.state();
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
                self.state().threads[tid].state = ThreadState::Finished;
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
        let mut st = self.state();
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
    /// The address of the thread's kernel, to tell a join across
    /// simulations; never dereferenced.
    kernel: usize,
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
        debug_assert_eq!(
            kernel as *const Kernel as usize, self.kernel,
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
    kernel: &Kernel,
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
                let mut st = kernel.state();
                if st.panic_payload.is_none() {
                    st.panic_payload = Some(payload);
                }
            }
            js2.lock().finished = true;
        }
    };
    {
        let mut st = kernel.state();
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
            cv_next: NIL,
        });
        if !daemon {
            st.live += 1;
        }
        Kernel::schedule(&mut st, kernel.clock(), tid);
    }
    SimJoinHandle {
        kernel: kernel as *const Kernel as usize,
        st: join_st,
    }
}

/// A discrete-event simulation instance.
///
/// Construct with [`Sim::new`], seed initial threads with [`Sim::spawn`],
/// then drive everything to completion with [`Sim::run`].
///
/// A `Sim` may move to another OS thread but is never shared between
/// two: its kernel's state is not behind a lock (see the module docs).
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<ccnvme_sim::Sim>();
/// ```
pub struct Sim {
    /// Boxed: a running simulation reaches it through a pointer in
    /// [`CTX`], so it must not move while `Sim` does.
    kernel: Box<Kernel>,
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
            kernel: Box::new(Kernel::new(cores)),
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
        let payload = self.kernel.state().panic_payload.take();
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
        self.kernel.state().events_processed
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
    spawn_inner(ctx().0, name, core, false, f)
}

/// Spawns a daemon thread from inside the simulation.
pub fn spawn_daemon<T, F>(name: &str, core: usize, f: F) -> SimJoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    spawn_inner(ctx().0, name, core, true, f)
}

/// Returns the simulated core the current thread is pinned to.
pub fn current_core() -> usize {
    match CTX.get() {
        Some((_, Next::Thread(_), core)) => core,
        _ => panic!("{NOT_IN_SIM}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The two `bare_state_*` tests boot no `Sim`, so they cross no fiber
    // switch and miri can run them (`scripts/check.sh`, deep tier).

    #[test]
    #[should_panic(expected = "re-entered")]
    fn bare_state_borrowed_twice_panics() {
        let kernel = Kernel::new(1);
        let _st = kernel.state();
        let _again = kernel.state();
    }

    #[test]
    fn bare_state_guard_drop_releases_the_borrow() {
        let kernel = Kernel::new(2);
        kernel.state().live = 3;
        let st = kernel.state();
        assert_eq!((st.live, st.cores.len()), (3, 2));
        drop(st);
        assert!(kernel.st.try_borrow_mut().is_ok());
    }

    /// A `Sim` moves between OS threads; the doctest on [`Sim`] pins that
    /// it is not shared between them.
    #[test]
    fn sim_is_send() {
        fn moves<T: Send>() {}
        moves::<Sim>();
    }

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
        assert_eq!(sim.kernel.state().switches, 2);
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
                    let switches = sim.kernel.state().switches;
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
