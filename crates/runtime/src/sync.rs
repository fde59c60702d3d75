//! The two substrate-specific blocking primitives, and the rwlock
//! written once over them.
//!
//! Only *parking* differs per substrate, so [`RtMutex`] and
//! [`RtCondvar`] are the whole `Sim | Os` seam: each binds its backend
//! at construction from the ambient mode — sim-backed when constructed
//! on a simulated thread (or on a bare thread, preserving the
//! construct-outside/run-inside-`Sim` pattern used throughout the
//! tests; `ccnvme_sim::sync` says what a bare thread may do with one),
//! OS-backed when constructed on an [`crate::OsRuntime`] thread.
//! Everything else that blocks — [`RtRwLock`] here, the channel in
//! [`crate::chan`] — is generic code over the pair.
//!
//! Sim-backed variants delegate 1:1 to `SimMutex` / `SimCondvar`: what
//! the generic code costs in virtual time is the `Kernel::schedule`
//! calls those two make, nothing else. OS-backed variants sit on
//! `std::sync` (on the vendored loom model checker under
//! `--features loom`, so the `loom_*` tests interleave the generic
//! code itself); their indefinite condvar waits are sliced so a parked
//! daemon notices runtime shutdown, which also means they may wake
//! *spuriously* — callers must (and do) wait in predicate loops, the
//! standard condvar discipline.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError};
use std::time::{Duration, Instant};

use ccnvme_sim::{Ns, SimCondvar, SimMutex, SimMutexGuard};

use crate::os;

/// What the `Os` arms are made of: `std::sync`, or the model checker's
/// scheduler-aware twins (a cargo feature instead of `--cfg loom`,
/// following the `ccnvme-obs` convention).
mod shim {
    #[cfg(feature = "loom")]
    pub(super) use loom::sync::{Condvar, Mutex, MutexGuard};
    #[cfg(not(feature = "loom"))]
    pub(super) use std::sync::{Condvar, Mutex, MutexGuard};

    use std::time::Duration;

    /// Releases the guard and waits for a notification or for `slice`
    /// to pass, then re-acquires; returns whether it was the latter.
    #[cfg(not(feature = "loom"))]
    pub(super) fn wait_slice<'a, T>(
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
        slice: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (guard, res) = cv
            .wait_timeout(guard, slice)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (guard, res.timed_out())
    }

    /// A model has no clock and no shutdown to slice for: the waiter
    /// genuinely parks (the explorer never spins it through scheduling
    /// points) and only a notify wakes it.
    #[cfg(feature = "loom")]
    pub(super) fn wait_slice<'a, T>(
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
        _slice: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let guard = cv.wait(guard).expect("loom mutex cannot be poisoned");
        (guard, false)
    }
}

fn construct_os_backed() -> bool {
    // Sim wins if both could apply (a simulated thread can never also
    // carry an OS context, but the check order documents the intent).
    // A loom model's threads carry neither and are what the model is
    // there to check: the `Os` arm.
    cfg!(feature = "loom") || (!ccnvme_sim::in_sim() && os::in_os())
}

// ---------------------------------------------------------------------------
// RtMutex
// ---------------------------------------------------------------------------

/// A mutual-exclusion lock that blocks in the backend's notion of
/// time. The sim variant may be held across scheduling points exactly
/// like `SimMutex`; the OS variant is a plain `std::sync::Mutex` with
/// poison recovery (a panicking holder is already a bug the stack
/// surfaces elsewhere).
pub struct RtMutex<T> {
    inner: MxInner<T>,
}

enum MxInner<T> {
    Sim(SimMutex<T>),
    Os(shim::Mutex<T>),
}

impl<T> RtMutex<T> {
    /// Creates a new unlocked mutex bound to the ambient backend.
    pub fn new(value: T) -> Self {
        let inner = if construct_os_backed() {
            MxInner::Os(shim::Mutex::new(value))
        } else {
            MxInner::Sim(SimMutex::new(value))
        };
        RtMutex { inner }
    }

    /// Acquires the lock, blocking until it is free.
    pub fn lock(&self) -> RtMutexGuard<'_, T> {
        match &self.inner {
            MxInner::Sim(m) => RtMutexGuard {
                inner: GuardInner::Sim(m.lock()),
            },
            MxInner::Os(m) => RtMutexGuard {
                inner: GuardInner::Os(m.lock().unwrap_or_else(PoisonError::into_inner)),
            },
        }
    }

    /// Acquires the lock if it is free; never blocks.
    pub fn try_lock(&self) -> Option<RtMutexGuard<'_, T>> {
        let inner = match &self.inner {
            MxInner::Sim(m) => GuardInner::Sim(m.try_lock()?),
            MxInner::Os(m) => GuardInner::Os(match m.try_lock() {
                Ok(g) => g,
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                Err(TryLockError::WouldBlock) => return None,
            }),
        };
        Some(RtMutexGuard { inner })
    }

    /// Returns a mutable reference to the data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        match &mut self.inner {
            MxInner::Sim(m) => m.get_mut(),
            MxInner::Os(m) => m.get_mut().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Consumes the mutex and returns the inner value.
    pub fn into_inner(self) -> T {
        match self.inner {
            MxInner::Sim(m) => m.into_inner(),
            MxInner::Os(m) => m.into_inner().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl<T: Default> Default for RtMutex<T> {
    fn default() -> Self {
        RtMutex::new(T::default())
    }
}

impl<T> std::fmt::Debug for RtMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtMutex").finish_non_exhaustive()
    }
}

/// RAII guard for an [`RtMutex`]; releases the lock on drop.
pub struct RtMutexGuard<'a, T> {
    inner: GuardInner<'a, T>,
}

enum GuardInner<'a, T> {
    Sim(SimMutexGuard<'a, T>),
    Os(shim::MutexGuard<'a, T>),
}

impl<T> Deref for RtMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.inner {
            GuardInner::Sim(g) => g,
            GuardInner::Os(g) => g,
        }
    }
}

impl<T> DerefMut for RtMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            GuardInner::Sim(g) => g,
            GuardInner::Os(g) => g,
        }
    }
}

// ---------------------------------------------------------------------------
// RtCondvar
// ---------------------------------------------------------------------------

/// Result of [`RtCondvar::wait_timeout`].
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

/// A condition variable bound to the ambient backend at construction.
/// Must be used with an [`RtMutex`] of the same backend (guaranteed
/// when both are constructed together, the universal pattern here).
pub struct RtCondvar {
    inner: CvInner,
}

enum CvInner {
    Sim(SimCondvar),
    Os(shim::Condvar),
}

impl RtCondvar {
    /// Creates a condition variable with no waiters.
    pub fn new() -> Self {
        let inner = if construct_os_backed() {
            CvInner::Os(shim::Condvar::new())
        } else {
            CvInner::Sim(SimCondvar::new())
        };
        RtCondvar { inner }
    }

    /// Atomically releases `guard` and parks until notified, then
    /// re-acquires the mutex. The OS backend slices the wait (so a
    /// parked daemon notices shutdown) and may therefore return
    /// spuriously — always wait in a predicate loop.
    pub fn wait<'a, T>(&self, guard: RtMutexGuard<'a, T>) -> RtMutexGuard<'a, T> {
        match (&self.inner, guard.inner) {
            (CvInner::Sim(cv), GuardInner::Sim(g)) => RtMutexGuard {
                inner: GuardInner::Sim(cv.wait(g)),
            },
            (CvInner::Os(cv), GuardInner::Os(g)) => {
                let (g, _timed_out) = shim::wait_slice(cv, g, os::SHUTDOWN_SLICE);
                os::check_shutdown();
                RtMutexGuard {
                    inner: GuardInner::Os(g),
                }
            }
            _ => panic!("RtCondvar used with an RtMutex of a different runtime backend"),
        }
    }

    /// Like [`RtCondvar::wait`], but gives up after at most `timeout`
    /// nanoseconds of the backend's time.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: RtMutexGuard<'a, T>,
        timeout: Ns,
    ) -> (RtMutexGuard<'a, T>, WaitTimeoutResult) {
        match (&self.inner, guard.inner) {
            (CvInner::Sim(cv), GuardInner::Sim(g)) => {
                let (g, res) = cv.wait_timeout(g, timeout);
                (
                    RtMutexGuard {
                        inner: GuardInner::Sim(g),
                    },
                    WaitTimeoutResult {
                        timed_out: res.timed_out(),
                    },
                )
            }
            (CvInner::Os(cv), GuardInner::Os(mut g)) => {
                let deadline = Instant::now() + Duration::from_nanos(timeout);
                loop {
                    let now = Instant::now();
                    if now >= deadline {
                        return (
                            RtMutexGuard {
                                inner: GuardInner::Os(g),
                            },
                            WaitTimeoutResult { timed_out: true },
                        );
                    }
                    let slice = (deadline - now).min(os::SHUTDOWN_SLICE);
                    let (g2, timed_out) = shim::wait_slice(cv, g, slice);
                    g = g2;
                    os::check_shutdown();
                    if !timed_out {
                        return (
                            RtMutexGuard {
                                inner: GuardInner::Os(g),
                            },
                            WaitTimeoutResult { timed_out: false },
                        );
                    }
                }
            }
            _ => panic!("RtCondvar used with an RtMutex of a different runtime backend"),
        }
    }

    /// Wakes one waiting thread, if any.
    pub fn notify_one(&self) {
        match &self.inner {
            CvInner::Sim(cv) => cv.notify_one(),
            CvInner::Os(cv) => cv.notify_one(),
        }
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        match &self.inner {
            CvInner::Sim(cv) => cv.notify_all(),
            CvInner::Os(cv) => cv.notify_all(),
        }
    }
}

impl Default for RtCondvar {
    fn default() -> Self {
        RtCondvar::new()
    }
}

impl std::fmt::Debug for RtCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtCondvar").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// RtRwLock
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RwCount {
    readers: usize,
    writer: bool,
}

/// A readers-writer lock over an [`RtMutex`] and an [`RtCondvar`]: the
/// same reader count and writer flag, so the same hand-off order, on
/// both substrates.
///
/// Acquisition is not writer-preferring: a waiting writer does not block
/// new readers, so sustained reader traffic can delay it. The workspace
/// uses writers only for short, frequent critical sections (the fsync
/// capture barrier) where the reader side always drains.
pub struct RtRwLock<T> {
    st: RtMutex<RwCount>,
    cv: RtCondvar,
    data: UnsafeCell<T>,
}

// SAFETY: `data` is reached only through a guard, and a guard exists
// only while `st` — updated under its mutex, whose lock and unlock
// order the accesses of successive holders on real threads — counts it:
// any number of readers XOR one writer. Moving the lock moves `T`.
unsafe impl<T: Send> Send for RtRwLock<T> {}
// SAFETY: See `Send`. Threads sharing the lock share `&T` under read
// guards (`T: Sync`) and take turns at `&mut T` under the write guard
// (`T: Send`).
unsafe impl<T: Send + Sync> Sync for RtRwLock<T> {}

impl<T> RtRwLock<T> {
    /// Creates an unlocked lock holding `value`.
    pub fn new(value: T) -> Self {
        RtRwLock {
            st: RtMutex::new(RwCount::default()),
            cv: RtCondvar::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires shared (read) access.
    pub fn read(&self) -> RtRwReadGuard<'_, T> {
        let mut st = self.st.lock();
        while st.writer {
            st = self.cv.wait(st);
        }
        st.readers += 1;
        RtRwReadGuard { lock: self }
    }

    /// Acquires exclusive (write) access.
    pub fn write(&self) -> RtRwWriteGuard<'_, T> {
        let mut st = self.st.lock();
        while st.writer || st.readers > 0 {
            st = self.cv.wait(st);
        }
        st.writer = true;
        RtRwWriteGuard { lock: self }
    }

    /// Returns a mutable reference to the data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T> std::fmt::Debug for RtRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtRwLock").finish_non_exhaustive()
    }
}

/// Shared-access guard for [`RtRwLock`].
pub struct RtRwReadGuard<'a, T> {
    lock: &'a RtRwLock<T>,
}

impl<T> Deref for RtRwReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: This guard is counted in `readers`, and no writer sets
        // its flag while the count is positive.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for RtRwReadGuard<'_, T> {
    fn drop(&mut self) {
        let mut st = self.lock.st.lock();
        st.readers -= 1;
        if st.readers == 0 {
            drop(st);
            self.lock.cv.notify_all();
        }
    }
}

/// Exclusive-access guard for [`RtRwLock`].
pub struct RtRwWriteGuard<'a, T> {
    lock: &'a RtRwLock<T>,
}

impl<T> Deref for RtRwWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: The writer flag is this guard's: no reader is counted
        // and no second writer gets past it until the guard drops.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for RtRwWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: As `deref`; `&mut self` makes this the guard's only
        // live borrow of the data.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for RtRwWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.st.lock().writer = false;
        self.lock.cv.notify_all();
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{run_on, RuntimeKind};

    #[test]
    fn sim_backed_mutex_outside_sim_then_inside() {
        // The historic pattern: construct on the test thread, use
        // inside the simulation.
        let mx = Arc::new(RtMutex::new(0u64));
        let m2 = Arc::clone(&mx);
        let mut sim = ccnvme_sim::Sim::new(2);
        sim.spawn("t", 0, move || {
            *m2.lock() += 1;
        });
        sim.run();
        let mx = Arc::try_unwrap(mx).expect("sole owner after run");
        assert_eq!(mx.into_inner(), 1);
    }

    #[test]
    fn os_backed_condvar_wait_notify() {
        run_on(RuntimeKind::Os, 2, || {
            let pair = Arc::new((RtMutex::new(false), RtCondvar::new()));
            let p2 = Arc::clone(&pair);
            let h = crate::spawn("waiter", 1, move || {
                let (mx, cv) = &*p2;
                let mut g = mx.lock();
                while !*g {
                    g = cv.wait(g);
                }
            });
            crate::delay(1_000_000);
            let (mx, cv) = &*pair;
            *mx.lock() = true;
            cv.notify_one();
            h.join();
        });
    }

    #[test]
    fn os_backed_condvar_wait_timeout_expires() {
        run_on(RuntimeKind::Os, 1, || {
            let mx = RtMutex::new(());
            let cv = RtCondvar::new();
            let g = mx.lock();
            let (_g, res) = cv.wait_timeout(g, 3_000_000);
            assert!(res.timed_out());
        });
    }

    #[test]
    fn rwlock_parallel_readers_exclusive_writer() {
        run_on(RuntimeKind::Sim, 3, || {
            let rw = Arc::new(RtRwLock::new(7u32));
            let readers: Vec<_> = (0..2)
                .map(|i| {
                    let rw = Arc::clone(&rw);
                    crate::spawn(&format!("r{i}"), i, move || {
                        let g = rw.read();
                        assert_eq!(*g, 7);
                        crate::delay(100);
                        // Both readers were in at t=0: neither waited.
                        assert_eq!(crate::now(), 100);
                    })
                })
                .collect();
            let w = Arc::clone(&rw);
            let writer = crate::spawn("w", 2, move || {
                crate::delay(10);
                let mut g = w.write();
                // Writer only proceeds once both readers released at t=100.
                assert!(crate::now() >= 100);
                *g = 9;
            });
            readers.into_iter().for_each(|h| h.join());
            writer.join();
            assert_eq!(*rw.read(), 9);
        });
    }

    #[test]
    fn os_backed_rwlock_read_write() {
        run_on(RuntimeKind::Os, 2, || {
            let rw = Arc::new(RtRwLock::new(7u32));
            {
                let r = rw.read();
                assert_eq!(*r, 7);
            }
            *rw.write() = 9;
            assert_eq!(*rw.read(), 9);
        });
    }
}

// The loom tier for the rwlock, as `chan::loom_tests` for the channel.
#[cfg(all(test, feature = "loom"))]
mod loom_tests {
    use std::sync::Arc;

    use super::*;

    /// The writer updates the pair one half at a time and a reader reads
    /// it one half at a time, so any overlap shows as halves that differ;
    /// and every thread parks on the one condvar, so a lost wake-up is a
    /// deadlock the explorer reports.
    #[test]
    fn loom_rwlock_writer_excludes_readers_and_loses_no_wakeup() {
        loom::model(|| {
            let rw = Arc::new(RtRwLock::new((0u32, 0u32)));
            let mut threads: Vec<_> = (0..2)
                .map(|_| {
                    let rw = Arc::clone(&rw);
                    loom::thread::spawn(move || {
                        let g = rw.read();
                        let first = g.0;
                        loom::thread::yield_now();
                        assert_eq!(first, g.1, "a reader overlapped the writer");
                    })
                })
                .collect();
            let w = Arc::clone(&rw);
            threads.push(loom::thread::spawn(move || {
                let mut g = w.write();
                g.0 += 1;
                loom::thread::yield_now();
                g.1 += 1;
            }));
            for t in threads {
                t.join().unwrap();
            }
            assert_eq!(*rw.read(), (1, 1));
        });
    }
}
