//! Simulation-aware synchronization primitives.
//!
//! Simulated threads must never block on ordinary OS primitives across a
//! scheduling point — the kernel would believe the thread is still
//! running and the simulation would deadlock in real time. The types here
//! ([`SimMutex`], [`SimCondvar`], [`SimRwLock`] and the
//! [`mpsc_channel`] pair) block in *virtual* time instead, parking the
//! simulated thread through the kernel and waking it with a scheduled
//! event.
//!
//! All of these rely on the kernel's guarantee that at most one simulated
//! thread executes at a time, which makes their internal critical sections
//! race-free; the `parking_lot` mutexes inside only satisfy `Send`/`Sync`.

use std::{
    cell::UnsafeCell,
    collections::VecDeque,
    fmt,
    ops::{Deref, DerefMut},
};

use parking_lot::Mutex;

use crate::{
    kernel::{self, WakeReason},
    time::Ns,
};

// ---------------------------------------------------------------------------
// SimMutex
// ---------------------------------------------------------------------------

struct MxState {
    locked: bool,
    owner: usize,
    waiters: VecDeque<usize>,
}

/// A mutual-exclusion lock that blocks in virtual time.
///
/// Unlike [`std::sync::Mutex`], a `SimMutex` may be held across scheduling
/// points ([`crate::cpu`], [`crate::delay`], waiting on a [`SimCondvar`],
/// ...); contending threads park in the simulation and resume
/// deterministically, with FIFO handoff.
pub struct SimMutex<T: ?Sized> {
    st: Mutex<MxState>,
    data: UnsafeCell<T>,
}

// SAFETY: `SimMutex` provides mutual exclusion for `data`: only the lock
// owner creates a guard, and the simulation kernel serializes execution so
// at most one simulated thread touches `data` at any real-time instant.
unsafe impl<T: ?Sized + Send> Send for SimMutex<T> {}
// SAFETY: See the `Send` justification; `&SimMutex` only allows access to
// `data` through the ownership-checked guard.
unsafe impl<T: ?Sized + Send> Sync for SimMutex<T> {}

impl<T> SimMutex<T> {
    /// Creates a new unlocked mutex holding `value`.
    pub fn new(value: T) -> Self {
        SimMutex {
            st: Mutex::new(MxState {
                locked: false,
                owner: 0,
                waiters: VecDeque::new(),
            }),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex and returns the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> SimMutex<T> {
    /// Acquires the lock, parking the simulated thread if it is held.
    ///
    /// # Panics
    ///
    /// Panics on self-deadlock (relocking a mutex the caller already owns)
    /// and when called from outside the simulation.
    pub fn lock(&self) -> SimMutexGuard<'_, T> {
        let (kernel, me) = kernel::current();
        {
            let mut st = self.st.lock();
            if !st.locked {
                st.locked = true;
                st.owner = me;
                return SimMutexGuard { mx: self };
            }
            assert!(
                st.owner != me,
                "SimMutex self-deadlock: thread relocked a held mutex"
            );
            st.waiters.push_back(me);
        }
        loop {
            kernel.block_current();
            let st = self.st.lock();
            if st.locked && st.owner == me {
                return SimMutexGuard { mx: self };
            }
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<SimMutexGuard<'_, T>> {
        let (_, me) = kernel::current();
        let mut st = self.st.lock();
        if !st.locked {
            st.locked = true;
            st.owner = me;
            Some(SimMutexGuard { mx: self })
        } else {
            None
        }
    }

    /// Returns a mutable reference to the data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    fn unlock(&self) {
        let next = {
            let mut st = self.st.lock();
            match st.waiters.pop_front() {
                Some(next) => {
                    st.owner = next; // Direct handoff; stays locked.
                    Some(next)
                }
                None => {
                    st.locked = false;
                    None
                }
            }
        };
        if let Some(next) = next {
            let (kernel, _) = kernel::current();
            kernel.wake(next);
        }
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
    waiters: Mutex<VecDeque<usize>>,
}

impl SimCondvar {
    /// Creates a condition variable with no waiters.
    pub fn new() -> Self {
        SimCondvar {
            waiters: Mutex::new(VecDeque::new()),
        }
    }

    /// Atomically releases `guard` and parks until notified, then
    /// re-acquires the mutex.
    pub fn wait<'a, T: ?Sized>(&self, guard: SimMutexGuard<'a, T>) -> SimMutexGuard<'a, T> {
        let (kernel, me) = kernel::current();
        let mx = guard.mx;
        self.waiters.lock().push_back(me);
        drop(guard);
        kernel.block_current();
        mx.lock()
    }

    /// Like [`SimCondvar::wait`], but resumes after at most `timeout`
    /// nanoseconds of virtual time.
    pub fn wait_timeout<'a, T: ?Sized>(
        &self,
        guard: SimMutexGuard<'a, T>,
        timeout: Ns,
    ) -> (SimMutexGuard<'a, T>, WaitTimeoutResult) {
        let (kernel, me) = kernel::current();
        let mx = guard.mx;
        self.waiters.lock().push_back(me);
        drop(guard);
        let reason = kernel.block_current_timeout(timeout);
        let timed_out = reason == WakeReason::TimedOut;
        if timed_out {
            // The notifier did not pick this thread; deregister so a later
            // notify is not wasted on it.
            self.waiters.lock().retain(|&w| w != me);
        }
        (mx.lock(), WaitTimeoutResult { timed_out })
    }

    /// Wakes one waiting thread, if any.
    pub fn notify_one(&self) {
        let next = self.waiters.lock().pop_front();
        if let Some(next) = next {
            let (kernel, _) = kernel::current();
            kernel.wake(next);
        }
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        let drained: Vec<usize> = self.waiters.lock().drain(..).collect();
        if !drained.is_empty() {
            let (kernel, _) = kernel::current();
            for w in drained {
                kernel.wake(w);
            }
        }
    }
}

impl Default for SimCondvar {
    fn default() -> Self {
        SimCondvar::new()
    }
}

// ---------------------------------------------------------------------------
// SimRwLock
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RwCount {
    readers: usize,
    writer: bool,
}

/// A readers-writer lock that blocks in virtual time.
///
/// Acquisition is not writer-preferring: a waiting writer does not block
/// new readers, so sustained reader traffic can delay it. The workspace
/// uses writers only for short, frequent critical sections (e.g. the
/// fsync capture barrier) where the reader side always drains.
pub struct SimRwLock<T: ?Sized> {
    st: SimMutex<RwCount>,
    cv: SimCondvar,
    data: UnsafeCell<T>,
}

// SAFETY: Reader/writer accounting in `st` enforces the aliasing rules
// (any number of readers XOR one writer), and the kernel serializes
// execution so no physical data race can occur.
unsafe impl<T: ?Sized + Send> Send for SimRwLock<T> {}
// SAFETY: See `Send`; shared access hands out `&T` only under a read guard.
unsafe impl<T: ?Sized + Send + Sync> Sync for SimRwLock<T> {}

impl<T> SimRwLock<T> {
    /// Creates an unlocked lock holding `value`.
    pub fn new(value: T) -> Self {
        SimRwLock {
            st: SimMutex::new(RwCount::default()),
            cv: SimCondvar::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock and returns the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> SimRwLock<T> {
    /// Acquires shared (read) access.
    pub fn read(&self) -> SimRwReadGuard<'_, T> {
        let mut st = self.st.lock();
        while st.writer {
            st = self.cv.wait(st);
        }
        st.readers += 1;
        drop(st);
        SimRwReadGuard { lock: self }
    }

    /// Acquires exclusive (write) access.
    pub fn write(&self) -> SimRwWriteGuard<'_, T> {
        let mut st = self.st.lock();
        while st.writer || st.readers > 0 {
            st = self.cv.wait(st);
        }
        st.writer = true;
        drop(st);
        SimRwWriteGuard { lock: self }
    }

    /// Returns a mutable reference to the data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

/// Shared-access guard for [`SimRwLock`].
pub struct SimRwReadGuard<'a, T: ?Sized> {
    lock: &'a SimRwLock<T>,
}

impl<T: ?Sized> Deref for SimRwReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: A positive reader count excludes writers.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for SimRwReadGuard<'_, T> {
    fn drop(&mut self) {
        let mut st = self.lock.st.lock();
        st.readers -= 1;
        if st.readers == 0 {
            drop(st);
            self.lock.cv.notify_all();
        }
    }
}

/// Exclusive-access guard for [`SimRwLock`].
pub struct SimRwWriteGuard<'a, T: ?Sized> {
    lock: &'a SimRwLock<T>,
}

impl<T: ?Sized> Deref for SimRwWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: The writer flag excludes all other access.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for SimRwWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: The writer flag excludes all other access.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for SimRwWriteGuard<'_, T> {
    fn drop(&mut self) {
        {
            let mut st = self.lock.st.lock();
            st.writer = false;
        }
        self.lock.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// MPSC channel
// ---------------------------------------------------------------------------

struct ChanState<T> {
    buf: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receiver_alive: bool,
    recv_waiter: Option<usize>,
    send_waiters: VecDeque<usize>,
}

struct ChanInner<T> {
    st: Mutex<ChanState<T>>,
}

/// Error returned by [`Receiver::recv`] once the channel is empty and all
/// senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty, disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Sending half of a simulation channel; cloneable.
pub struct Sender<T> {
    inner: std::sync::Arc<ChanInner<T>>,
}

/// Receiving half of a simulation channel.
pub struct Receiver<T> {
    inner: std::sync::Arc<ChanInner<T>>,
}

/// Creates a multi-producer single-consumer channel.
///
/// `cap = None` makes the channel unbounded; `Some(n)` makes senders block
/// (in virtual time) once `n` messages are queued.
pub fn mpsc_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let inner = std::sync::Arc::new(ChanInner {
        st: Mutex::new(ChanState {
            buf: VecDeque::new(),
            cap,
            senders: 1,
            receiver_alive: true,
            recv_waiter: None,
            send_waiters: VecDeque::new(),
        }),
    });
    (
        Sender {
            inner: std::sync::Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Sends `value`, blocking in virtual time while a bounded channel is
    /// full. Returns `Err(value)` if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), T> {
        let (kernel, me) = kernel::current();
        loop {
            let wake_recv = {
                let mut st = self.inner.st.lock();
                if !st.receiver_alive {
                    return Err(value);
                }
                if st.cap.is_none_or(|c| st.buf.len() < c) {
                    st.buf.push_back(value);
                    st.recv_waiter.take()
                } else {
                    st.send_waiters.push_back(me);
                    drop(st);
                    kernel.block_current();
                    continue;
                }
            };
            if let Some(w) = wake_recv {
                kernel.wake(w);
            }
            return Ok(());
        }
    }

    /// Sends without blocking; returns the value back if the channel is
    /// full or disconnected.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        let wake_recv = {
            let mut st = self.inner.st.lock();
            if !st.receiver_alive || st.cap.is_some_and(|c| st.buf.len() >= c) {
                return Err(value);
            }
            st.buf.push_back(value);
            st.recv_waiter.take()
        };
        if let Some(w) = wake_recv {
            let (kernel, _) = kernel::current();
            kernel.wake(w);
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.st.lock().senders += 1;
        Sender {
            inner: std::sync::Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let wake = {
            let mut st = self.inner.st.lock();
            st.senders -= 1;
            if st.senders == 0 {
                st.recv_waiter.take()
            } else {
                None
            }
        };
        if let Some(w) = wake {
            if kernel::in_sim() {
                let (kernel, _) = kernel::current();
                kernel.wake(w);
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Receives the next message, blocking in virtual time while the
    /// channel is empty. Returns [`RecvError`] once empty and disconnected.
    pub fn recv(&self) -> Result<T, RecvError> {
        let (kernel, me) = kernel::current();
        loop {
            let (value, wake_sender) = {
                let mut st = self.inner.st.lock();
                match st.buf.pop_front() {
                    Some(v) => (Some(v), st.send_waiters.pop_front()),
                    None => {
                        if st.senders == 0 {
                            return Err(RecvError);
                        }
                        debug_assert!(st.recv_waiter.is_none(), "multiple receivers");
                        st.recv_waiter = Some(me);
                        (None, None)
                    }
                }
            };
            if let Some(v) = value {
                if let Some(w) = wake_sender {
                    kernel.wake(w);
                }
                return Ok(v);
            }
            kernel.block_current();
        }
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Option<T> {
        let (value, wake_sender) = {
            let mut st = self.inner.st.lock();
            match st.buf.pop_front() {
                Some(v) => (Some(v), st.send_waiters.pop_front()),
                None => (None, None),
            }
        };
        if let Some(w) = wake_sender {
            let (kernel, _) = kernel::current();
            kernel.wake(w);
        }
        value
    }

    /// Receives with a virtual-time timeout; `None` on timeout or
    /// disconnect-while-empty.
    pub fn recv_timeout(&self, timeout: Ns) -> Option<T> {
        let (kernel, me) = kernel::current();
        let deadline = crate::kernel::now() + timeout;
        loop {
            let (value, wake_sender) = {
                let mut st = self.inner.st.lock();
                match st.buf.pop_front() {
                    Some(v) => (Some(v), st.send_waiters.pop_front()),
                    None => {
                        if st.senders == 0 {
                            return None;
                        }
                        st.recv_waiter = Some(me);
                        (None, None)
                    }
                }
            };
            if let Some(v) = value {
                if let Some(w) = wake_sender {
                    kernel.wake(w);
                }
                return Some(v);
            }
            let now = crate::kernel::now();
            if now >= deadline {
                self.inner.st.lock().recv_waiter = None;
                return None;
            }
            let reason = kernel.block_current_timeout(deadline - now);
            if reason == WakeReason::TimedOut {
                self.inner.st.lock().recv_waiter = None;
                return None;
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let waiters: Vec<usize> = {
            let mut st = self.inner.st.lock();
            st.receiver_alive = false;
            st.send_waiters.drain(..).collect()
        };
        if !waiters.is_empty() && kernel::in_sim() {
            let (kernel, _) = kernel::current();
            for w in waiters {
                kernel.wake(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::kernel::{cpu, delay, now, spawn, Sim};

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
        assert_eq!(mx.lock_unchecked(), 2);
    }

    impl<T: Copy> SimMutex<T> {
        /// Test-only: read the value from outside the simulation.
        fn lock_unchecked(&self) -> T {
            // SAFETY: Called after `run`, when no simulated thread exists.
            unsafe { *self.data.get() }
        }
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
        for i in 1..4usize {
            let mx = Arc::clone(&mx);
            let order = Arc::clone(&order);
            sim.spawn(&format!("w{i}"), i, move || {
                delay(i as u64 * 10); // Queue in a known order.
                let _g = mx.lock();
                order.lock().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.lock(), vec![1, 2, 3]);
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
    fn rwlock_parallel_readers_exclusive_writer() {
        let mut sim = Sim::new(3);
        let rw = Arc::new(SimRwLock::new(7u32));
        let r1 = Arc::clone(&rw);
        sim.spawn("r1", 0, move || {
            let g = r1.read();
            assert_eq!(*g, 7);
            delay(100);
        });
        let r2 = Arc::clone(&rw);
        sim.spawn("r2", 1, move || {
            let g = r2.read();
            assert_eq!(*g, 7);
            delay(100);
        });
        let w = Arc::clone(&rw);
        sim.spawn("w", 2, move || {
            delay(10);
            let mut g = w.write();
            // Writer only proceeds once both readers released at t=100.
            assert!(now() >= 100);
            *g = 9;
        });
        sim.run();
    }

    #[test]
    fn channel_send_recv() {
        let mut sim = Sim::new(2);
        let (tx, rx) = mpsc_channel::<u32>(None);
        sim.spawn("producer", 0, move || {
            for i in 0..10 {
                cpu(5);
                tx.send(i).unwrap();
            }
        });
        sim.spawn("consumer", 1, move || {
            for i in 0..10 {
                assert_eq!(rx.recv().unwrap(), i);
            }
            assert!(rx.recv().is_err()); // Sender dropped.
        });
        sim.run();
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let mut sim = Sim::new(2);
        let (tx, rx) = mpsc_channel::<u32>(Some(1));
        sim.spawn("producer", 0, move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap(); // Blocks until the consumer drains one.
            assert!(now() >= 1_000);
        });
        sim.spawn("consumer", 1, move || {
            delay(1_000);
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
        });
        sim.run();
    }

    #[test]
    fn recv_timeout_times_out() {
        let mut sim = Sim::new(1);
        let (tx, rx) = mpsc_channel::<u32>(None);
        sim.spawn("t", 0, move || {
            assert_eq!(rx.recv_timeout(500), None);
            assert_eq!(now(), 500);
            drop(tx);
        });
        sim.run();
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let mut sim = Sim::new(1);
        let (tx, rx) = mpsc_channel::<u32>(None);
        sim.spawn("t", 0, move || {
            drop(rx);
            assert_eq!(tx.send(1), Err(1));
        });
        sim.run();
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
        let v = mx.lock_unchecked_vec();
        assert_eq!(v.len(), 2);
        assert!(v[1] >= v[0] + 100);
    }

    impl SimMutex<Vec<u64>> {
        fn lock_unchecked_vec(&self) -> Vec<u64> {
            // SAFETY: Called after `run`, no simulated threads exist.
            unsafe { (*self.data.get()).clone() }
        }
    }

    #[test]
    fn spawn_inside_holds_channel_graph() {
        let mut sim = Sim::new(3);
        sim.spawn("root", 0, || {
            let (tx, rx) = mpsc_channel::<u64>(None);
            for i in 0..2u64 {
                let tx = tx.clone();
                spawn(&format!("w{i}"), (i + 1) as usize, move || {
                    cpu(10 * (i + 1));
                    tx.send(i).unwrap();
                });
            }
            drop(tx);
            let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
            got.sort_unstable();
            assert_eq!(got, vec![0, 1]);
        });
        sim.run();
    }
}
