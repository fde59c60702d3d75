//! Simulation-aware synchronization primitives.
//!
//! Simulated threads must never block on ordinary OS primitives across a
//! scheduling point — the kernel would believe the thread is still
//! running and the simulation would deadlock in real time. [`SimMutex`]
//! and [`SimCondvar`] block in *virtual* time instead, parking the
//! simulated thread through the kernel and waking it with a scheduled
//! event. They are the only code that parks: every other blocking
//! primitive (rwlock, channel) is written once, over a mutex and a
//! condvar, in `ccnvme-runtime`.
//!
//! Both rely on the kernel's guarantee that at most one simulated thread
//! executes at a time, which makes their internal critical sections
//! race-free and leaves nothing to wait for on the host. A [`SimMutex`]
//! keeps its queue behind a `parking_lot` mutex, which only satisfies
//! `Send`/`Sync`, and one nobody waits for never touches it: taking and
//! releasing it is one compare-exchange on its state word each. A
//! [`SimCondvar`] is an id and a count: its wait list is the kernel's,
//! threaded through the waiting threads, so waiting allocates nothing and
//! takes no lock, and one nobody waits on is notified with one load.
//!
//! **Outside a simulation** (a bare thread: no [`crate::Sim`] is running
//! on it) nothing can park and nothing is parked, so there is one rule: a
//! free mutex may be taken and released, a held one panics, and a notify
//! or unlock that finds a waiter — a thread of a simulation that is over —
//! wakes nobody. This is what lets a structure built over these
//! primitives be inspected or dropped after `run` returned.

use std::{
    cell::UnsafeCell,
    collections::VecDeque,
    fmt,
    ops::{Deref, DerefMut},
    sync::atomic::{AtomicU64, AtomicUsize, Ordering},
};

use parking_lot::Mutex;

use crate::{
    kernel::{self, WakeReason},
    time::Ns,
};

// ---------------------------------------------------------------------------
// SimMutex
// ---------------------------------------------------------------------------

/// The owner recorded for a holder that is not a simulated thread.
const BARE: usize = usize::MAX >> 2;

/// Set in the state word while `waiters` is not empty.
const QUEUED: usize = 1;

/// The state word of a mutex `owner` holds and nobody waits for.
const fn held_by(owner: usize) -> usize {
    (owner + 1) << 1
}

/// A mutual-exclusion lock that blocks in virtual time.
///
/// Unlike [`std::sync::Mutex`], a `SimMutex` may be held across scheduling
/// points ([`crate::cpu`], [`crate::delay`], waiting on a [`SimCondvar`],
/// ...); contending threads park in the simulation and resume
/// deterministically, with FIFO handoff.
pub struct SimMutex<T: ?Sized> {
    /// `0` when free, else `held_by(owner)`, with [`QUEUED`] or-ed in
    /// while somebody waits. Free ↔ held is a compare-exchange; every
    /// change that involves a waiter is made under the `waiters` lock.
    state: AtomicUsize,
    waiters: Mutex<VecDeque<usize>>,
    data: UnsafeCell<T>,
}

// SAFETY: `SimMutex` provides mutual exclusion for `data`: only the lock
// owner creates a guard, and `state` names one owner at a time — it
// leaves `0` by a compare-exchange only (also for a bare thread, which is
// what holds it to "a free one or none"), and an owner is replaced only by
// itself, by `0` or by the longest waiter. Those are real atomics with
// acquire/release pairs, so this holds on any mix of OS threads, beside
// the kernel letting one simulated thread run at any real-time instant.
unsafe impl<T: ?Sized + Send> Send for SimMutex<T> {}
// SAFETY: See the `Send` justification; `&SimMutex` only allows access to
// `data` through the ownership-checked guard.
unsafe impl<T: ?Sized + Send> Sync for SimMutex<T> {}

impl<T> SimMutex<T> {
    /// Creates a new unlocked mutex holding `value`.
    pub fn new(value: T) -> Self {
        SimMutex {
            state: AtomicUsize::new(0),
            waiters: Mutex::new(VecDeque::new()),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex and returns the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> SimMutex<T> {
    /// Moves the state word from `from` to `to`; says what it held if
    /// not `from`.
    fn swing(&self, from: usize, to: usize, success: Ordering) -> Result<usize, usize> {
        // ord: Relaxed on failure — nothing is learnt from it but whom
        // to wait for; `success` is the caller's.
        let failure = Ordering::Relaxed;
        self.state.compare_exchange(from, to, success, failure)
    }

    /// Acquires the lock, parking the simulated thread if it is held.
    ///
    /// # Panics
    ///
    /// Panics on self-deadlock (relocking a mutex the caller already owns)
    /// and when the mutex is held and the caller is not a simulated
    /// thread (see the module docs).
    pub fn lock(&self) -> SimMutexGuard<'_, T> {
        let me = kernel::current_tid().unwrap_or(BARE);
        // ord: Acquire — pairs with the Release that freed the mutex, so
        // the last holder's writes to `data` are visible.
        if let Err(seen) = self.swing(0, held_by(me), Ordering::Acquire) {
            self.lock_contended(me, seen);
        }
        SimMutexGuard { mx: self }
    }

    /// Acquires the lock if it is free; never parks.
    pub fn try_lock(&self) -> Option<SimMutexGuard<'_, T>> {
        let me = kernel::current_tid().unwrap_or(BARE);
        // ord: Acquire — as in `lock`.
        let took = self.swing(0, held_by(me), Ordering::Acquire).is_ok();
        took.then_some(SimMutexGuard { mx: self })
    }

    /// The rest of [`SimMutex::lock`] when the mutex was not free: queues
    /// behind the holder seen in `seen` and parks until handed the lock.
    #[cold]
    fn lock_contended(&self, me: usize, mut seen: usize) {
        assert!(
            me != BARE,
            "SimMutex locked from outside a simulation while held: \
             a bare thread cannot park, it may only take a free mutex"
        );
        assert!(
            seen & !QUEUED != held_by(me),
            "SimMutex self-deadlock: thread relocked a held mutex"
        );
        {
            let mut waiters = self.waiters.lock();
            // Under the queue's lock: a holder that finds `QUEUED` set
            // finds this thread in the queue. One that is not simulated
            // (see the module docs) may have let go in between.
            loop {
                let (want, queue) = match seen {
                    0 => (held_by(me), false),
                    held => (held | QUEUED, true),
                };
                // ord: Acquire — as in `lock` when the mutex turned out
                // free; publishing `QUEUED` orders nothing, the queue has
                // its own lock.
                match self.swing(seen, want, Ordering::Acquire) {
                    Ok(_) if queue => {
                        waiters.push_back(me);
                        break;
                    }
                    Ok(_) => return,
                    Err(now) => seen = now,
                }
            }
        }
        let (kernel, _) = kernel::ctx();
        // ord: Acquire — pairs with the Release store of the hand-off in
        // `unlock_contended`. Any other wake-up (a stale condvar entry)
        // finds another owner and parks again.
        while self.state.load(Ordering::Acquire) & !QUEUED != held_by(me) {
            kernel.block_current(me);
        }
    }

    /// Returns a mutable reference to the data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    fn unlock(&self) {
        // ord: Relaxed — the holder reads back its own word; only
        // `QUEUED` can have been added to it.
        let held = self.state.load(Ordering::Relaxed);
        // ord: Release — publishes the critical section to the next
        // `lock`; a failure means a waiter queued just now.
        if held & QUEUED != 0 || self.swing(held, 0, Ordering::Release).is_err() {
            self.unlock_contended();
        }
    }

    /// Direct hand-off to the longest waiter: the mutex stays locked.
    #[cold]
    fn unlock_contended(&self) {
        let next = {
            let mut waiters = self.waiters.lock();
            let next = waiters.pop_front().expect("QUEUED means a waiter");
            let queued = if waiters.is_empty() { 0 } else { QUEUED };
            // ord: Release — publishes the critical section to `next`,
            // whose Acquire load in `lock_contended` sees itself as owner.
            self.state.store(held_by(next) | queued, Ordering::Release);
            next
        };
        kernel::wake(next);
    }
}

impl<T: Default> Default for SimMutex<T> {
    fn default() -> Self {
        SimMutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for SimMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimMutex").finish_non_exhaustive()
    }
}

/// RAII guard for a [`SimMutex`]; releases the lock on drop.
pub struct SimMutexGuard<'a, T: ?Sized> {
    mx: &'a SimMutex<T>,
}

impl<T: ?Sized> Deref for SimMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: The guard witnesses exclusive ownership of the lock, and
        // the kernel serializes simulated-thread execution.
        unsafe { &*self.mx.data.get() }
    }
}

impl<T: ?Sized> DerefMut for SimMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: Same as `Deref`: exclusive ownership via the lock.
        unsafe { &mut *self.mx.data.get() }
    }
}

impl<T: ?Sized> Drop for SimMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mx.unlock();
    }
}

// ---------------------------------------------------------------------------
// SimCondvar
// ---------------------------------------------------------------------------

/// Result of [`SimCondvar::wait_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Returns whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable that parks simulated threads in virtual time.
pub struct SimCondvar {
    /// Names this condvar's wait list in the kernel.
    id: u64,
    /// Threads on that list, counted up by a waiter as it queues and
    /// down by whoever takes it off: a notify that finds nobody queued
    /// asks the kernel nothing. A simulation that ends with a waiter
    /// queued leaves the count above zero, which costs the next notify
    /// a look at its list, nothing else.
    queued: AtomicUsize,
}

/// The next [`SimCondvar`] id.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

impl SimCondvar {
    /// Creates a condition variable with no waiters.
    pub fn new() -> Self {
        SimCondvar {
            // ord: Relaxed — only uniqueness matters.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            queued: AtomicUsize::new(0),
        }
    }

    /// Counts `n` waiters taken off the wait list.
    fn dequeued(&self, n: usize) {
        // ord: Relaxed — brings the count back to what the kernel's list
        // holds; see `park` for what orders it.
        self.queued.fetch_sub(n, Ordering::Relaxed);
    }

    /// Whether a notify has anyone to wake.
    fn any_queued(&self) -> bool {
        // ord: Relaxed — see `park`.
        self.queued.load(Ordering::Relaxed) > 0
    }

    /// Queues the calling thread, releases `guard` and parks; returns
    /// why the thread resumed.
    fn park<T: ?Sized>(&self, guard: SimMutexGuard<'_, T>, timeout: Option<Ns>) -> WakeReason {
        let (kernel, me) = kernel::ctx();
        kernel.cv_enqueue(self.id, me);
        // ord: Relaxed — a waiter queues before it releases the `SimMutex`
        // whose holder later notifies, so the mutex orders this update
        // before that notifier's load.
        self.queued.fetch_add(1, Ordering::Relaxed);
        drop(guard);
        match timeout {
            None => {
                kernel.block_current(me);
                WakeReason::Notified
            }
            Some(ns) => {
                let reason = kernel.block_current_timeout(me, ns);
                // The notifier did not pick this thread; deregister so
                // a later notify is not wasted on it.
                if reason == WakeReason::TimedOut && kernel.cv_remove(self.id, me) {
                    self.dequeued(1);
                }
                reason
            }
        }
    }

    /// Atomically releases `guard` and parks until notified, then
    /// re-acquires the mutex.
    pub fn wait<'a, T: ?Sized>(&self, guard: SimMutexGuard<'a, T>) -> SimMutexGuard<'a, T> {
        let mx = guard.mx;
        self.park(guard, None);
        mx.lock()
    }

    /// Like [`SimCondvar::wait`], but resumes after at most `timeout`
    /// nanoseconds of virtual time.
    pub fn wait_timeout<'a, T: ?Sized>(
        &self,
        guard: SimMutexGuard<'a, T>,
        timeout: Ns,
    ) -> (SimMutexGuard<'a, T>, WaitTimeoutResult) {
        let mx = guard.mx;
        let timed_out = self.park(guard, Some(timeout)) == WakeReason::TimedOut;
        (mx.lock(), WaitTimeoutResult { timed_out })
    }

    /// Wakes one waiting thread, if any.
    pub fn notify_one(&self) {
        if self.any_queued() && kernel::current().is_some_and(|(k, _)| k.cv_notify_one(self.id)) {
            self.dequeued(1);
        }
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        if !self.any_queued() {
            return;
        }
        if let Some((kernel, _)) = kernel::current() {
            self.dequeued(kernel.cv_notify_all(self.id));
        }
    }
}

impl Default for SimCondvar {
    fn default() -> Self {
        SimCondvar::new()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::kernel::{cpu, delay, now, Sim};

    #[test]
    fn mutex_excludes_concurrent_holders() {
        let mut sim = Sim::new(2);
        let mx = Arc::new(SimMutex::new(0u64));
        let m1 = Arc::clone(&mx);
        sim.spawn("a", 0, move || {
            let mut g = m1.lock();
            delay(100);
            *g += 1;
        });
        let m2 = Arc::clone(&mx);
        sim.spawn("b", 1, move || {
            delay(10); // Let `a` grab the lock first.
            let mut g = m2.lock();
            // `a` held the lock across a 100 ns delay; we only get it after.
            assert!(now() >= 100);
            *g += 1;
        });
        sim.run();
        // Read on the bare thread: the mutex is free once `run` returned.
        assert_eq!(*mx.lock(), 2);
    }

    #[test]
    fn mutex_fifo_handoff() {
        let mut sim = Sim::new(4);
        let mx = Arc::new(SimMutex::new(Vec::<usize>::new()));
        let order = Arc::new(Mutex::new(Vec::new()));
        let m0 = Arc::clone(&mx);
        sim.spawn("holder", 0, move || {
            let _g = m0.lock();
            delay(1_000);
        });
        // Queued out of spawn and core order: the hand-off follows the
        // queue, nothing else.
        for (i, at) in [(1usize, 30u64), (2, 10), (3, 20)] {
            let mx = Arc::clone(&mx);
            let order = Arc::clone(&order);
            sim.spawn(&format!("w{i}"), i, move || {
                delay(at);
                let _g = mx.lock();
                order.lock().push((i, now()));
            });
        }
        sim.run();
        assert_eq!(*order.lock(), vec![(2, 1_000), (3, 1_000), (1, 1_000)]);
        // The last hand-off found the queue empty and said so in the
        // state word: the mutex is free, also for a bare thread.
        drop(mx.lock());
        assert_eq!(mx.state.load(Ordering::Relaxed), 0);
    }

    /// Runs `body` as the one non-daemon thread of a two-core simulation
    /// beside `other` on core 1; returns the events dispatched.
    fn events(body: impl FnOnce() + Send + 'static, other: impl FnOnce() + Send + 'static) -> u64 {
        let mut sim = Sim::new(2);
        sim.spawn("body", 0, body);
        sim.spawn("other", 1, other);
        sim.run();
        sim.events_processed()
    }

    #[test]
    fn uncontended_lock_costs_no_event_and_a_contended_one_a_wake() {
        let base = events(|| delay(100), || delay(10));
        // The two first dispatches and one per `delay`.
        assert_eq!(base, 4);
        let mx = Arc::new(SimMutex::new(0u64));
        let (m0, m1) = (Arc::clone(&mx), Arc::clone(&mx));
        let uncontended = events(
            move || {
                for _ in 0..1_000 {
                    *m0.lock() += 1;
                }
                delay(100);
            },
            move || {
                delay(10);
                *m1.lock() += 1;
            },
        );
        assert_eq!(uncontended, base);
        let (m0, m1) = (Arc::clone(&mx), Arc::clone(&mx));
        let contended = events(
            move || {
                let _g = m0.lock();
                delay(100);
            },
            move || {
                delay(10);
                *m1.lock() += 1; // Parks at 10, handed the lock at 100.
                assert_eq!(now(), 100);
            },
        );
        // Parking dispatches nothing new (the holder's `delay` was going
        // to be dispatched anyway); the hand-off's wake is one event.
        assert_eq!(contended, base + 1);
        assert_eq!(*mx.lock(), 1_002);
    }

    #[test]
    #[should_panic(expected = "self-deadlock")]
    fn mutex_self_deadlock_detected() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let mx = SimMutex::new(());
            let _g = mx.lock();
            let _g2 = mx.lock();
        });
        sim.run();
    }

    #[test]
    fn condvar_wait_notify() {
        let mut sim = Sim::new(2);
        let pair = Arc::new((SimMutex::new(false), SimCondvar::new()));
        let p1 = Arc::clone(&pair);
        sim.spawn("waiter", 0, move || {
            let (mx, cv) = &*p1;
            let mut g = mx.lock();
            while !*g {
                g = cv.wait(g);
            }
            assert_eq!(now(), 500);
        });
        let p2 = Arc::clone(&pair);
        sim.spawn("setter", 1, move || {
            delay(500);
            let (mx, cv) = &*p2;
            *mx.lock() = true;
            cv.notify_one();
        });
        sim.run();
    }

    #[test]
    fn condvar_wait_timeout_expires() {
        let mut sim = Sim::new(1);
        sim.spawn("t", 0, || {
            let mx = SimMutex::new(());
            let cv = SimCondvar::new();
            let g = mx.lock();
            let (_g, res) = cv.wait_timeout(g, 1_000);
            assert!(res.timed_out());
            assert_eq!(now(), 1_000);
        });
        sim.run();
    }

    #[test]
    fn condvar_timeout_does_not_eat_notifications() {
        // A timed-out waiter must deregister so a later notify_one wakes a
        // live waiter, not a ghost.
        let mut sim = Sim::new(3);
        let pair = Arc::new((SimMutex::new(0u32), SimCondvar::new()));
        let p1 = Arc::clone(&pair);
        sim.spawn("timed", 0, move || {
            let (mx, cv) = &*p1;
            let g = mx.lock();
            let (_g, res) = cv.wait_timeout(g, 100);
            assert!(res.timed_out());
        });
        let p2 = Arc::clone(&pair);
        sim.spawn("waiter", 1, move || {
            let (mx, cv) = &*p2;
            let mut g = mx.lock();
            while *g == 0 {
                g = cv.wait(g);
            }
        });
        let p3 = Arc::clone(&pair);
        sim.spawn("notifier", 2, move || {
            delay(500); // After the timeout fired.
            let (mx, cv) = &*p3;
            *mx.lock() = 1;
            cv.notify_one();
        });
        sim.run(); // Would deadlock-panic if the notification were lost.
    }

    #[test]
    fn mutex_held_across_cpu_work() {
        let mut sim = Sim::new(2);
        let mx = Arc::new(SimMutex::new(Vec::<u64>::new()));
        for i in 0..2usize {
            let mx = Arc::clone(&mx);
            sim.spawn(&format!("t{i}"), i, move || {
                let mut g = mx.lock();
                cpu(100);
                g.push(now());
            });
        }
        sim.run();
        // Critical sections are serialized even though cores differ.
        let v = mx.lock();
        assert_eq!(v.len(), 2);
        assert!(v[1] >= v[0] + 100);
    }

    // The two `bare_mutex_*` tests boot no `Sim`, so they cross no fiber
    // switch and miri can run them (`scripts/check.sh`, deep tier).

    #[test]
    #[should_panic(expected = "outside a simulation while held")]
    fn bare_mutex_held_panics() {
        let mx = SimMutex::new(());
        let _g = mx.lock();
        let _g2 = mx.lock();
    }

    #[test]
    fn bare_mutex_lock_write_unlock_relock_into_inner() {
        let mut mx = SimMutex::new(vec![1u8]);
        mx.lock().push(2);
        {
            let mut g = mx.lock();
            g.push(3);
            assert_eq!(*g, [1, 2, 3]);
        }
        mx.get_mut().push(4);
        assert_eq!(mx.into_inner(), [1, 2, 3, 4]);
    }

    #[test]
    fn bare_thread_notify_after_the_run_wakes_nobody() {
        // A daemon is still parked on the condvar when the run ends; its
        // entry in the wait list outlives it.
        let pair = Arc::new((SimMutex::new(()), SimCondvar::new()));
        let p = Arc::clone(&pair);
        let mut sim = Sim::new(1);
        sim.spawn_daemon("parked", 0, move || {
            let (mx, cv) = &*p;
            let _g = cv.wait(mx.lock());
        });
        sim.spawn("main", 0, || delay(10));
        sim.run();
        pair.1.notify_all();
        drop(pair.0.lock());
    }
}
