//! Runtime-dispatched synchronization primitives.
//!
//! Each primitive binds its backend at construction from the ambient
//! mode: sim-backed when constructed on a simulated thread (or on a
//! bare thread, preserving the construct-outside/run-inside-`Sim`
//! pattern used throughout the tests), OS-backed when constructed on
//! an [`crate::OsRuntime`] thread.
//!
//! Sim-backed variants delegate 1:1 to `ccnvme_sim`'s primitives, so
//! virtual-time behavior is byte-identical to the pre-runtime code.
//! OS-backed variants sit on `std::sync`; their indefinite condvar
//! waits are sliced so a parked daemon notices runtime shutdown, which
//! also means they may wake *spuriously* — callers must (and do) wait
//! in predicate loops, the standard condvar discipline.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use ccnvme_sim::{Ns, SimCondvar, SimMutex, SimMutexGuard, SimRwLock};

use crate::os;

fn construct_os_backed() -> bool {
    // Sim wins if both could apply (a simulated thread can never also
    // carry an OS context, but the check order documents the intent).
    !ccnvme_sim::in_sim() && os::in_os()
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
    Os(std::sync::Mutex<T>),
}

impl<T> RtMutex<T> {
    /// Creates a new unlocked mutex bound to the ambient backend.
    pub fn new(value: T) -> Self {
        let inner = if construct_os_backed() {
            MxInner::Os(std::sync::Mutex::new(value))
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

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<RtMutexGuard<'_, T>> {
        match &self.inner {
            MxInner::Sim(m) => m.try_lock().map(|g| RtMutexGuard {
                inner: GuardInner::Sim(g),
            }),
            MxInner::Os(m) => match m.try_lock() {
                Ok(g) => Some(RtMutexGuard {
                    inner: GuardInner::Os(g),
                }),
                Err(std::sync::TryLockError::Poisoned(p)) => Some(RtMutexGuard {
                    inner: GuardInner::Os(p.into_inner()),
                }),
                Err(std::sync::TryLockError::WouldBlock) => None,
            },
        }
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
    Os(std::sync::MutexGuard<'a, T>),
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
    Os(std::sync::Condvar),
}

impl RtCondvar {
    /// Creates a condition variable with no waiters.
    pub fn new() -> Self {
        let inner = if construct_os_backed() {
            CvInner::Os(std::sync::Condvar::new())
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
                let (g, _res) = cv
                    .wait_timeout(g, os::SHUTDOWN_SLICE)
                    .unwrap_or_else(PoisonError::into_inner);
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
                    let (g2, res) = cv
                        .wait_timeout(g, slice)
                        .unwrap_or_else(PoisonError::into_inner);
                    g = g2;
                    os::check_shutdown();
                    if !res.timed_out() {
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

/// A readers-writer lock bound to the ambient backend at construction.
/// Like `SimRwLock`, acquisition is not writer-preferring on the sim
/// backend; the std backend follows the platform policy.
pub struct RtRwLock<T> {
    inner: RwInner<T>,
}

enum RwInner<T> {
    Sim(SimRwLock<T>),
    Os(std::sync::RwLock<T>),
}

impl<T> RtRwLock<T> {
    /// Creates an unlocked lock holding `value`.
    pub fn new(value: T) -> Self {
        let inner = if construct_os_backed() {
            RwInner::Os(std::sync::RwLock::new(value))
        } else {
            RwInner::Sim(SimRwLock::new(value))
        };
        RtRwLock { inner }
    }

    /// Acquires shared (read) access.
    pub fn read(&self) -> RtRwReadGuard<'_, T> {
        match &self.inner {
            RwInner::Sim(l) => RtRwReadGuard {
                inner: ReadInner::Sim(l.read()),
            },
            RwInner::Os(l) => RtRwReadGuard {
                inner: ReadInner::Os(l.read().unwrap_or_else(PoisonError::into_inner)),
            },
        }
    }

    /// Acquires exclusive (write) access.
    pub fn write(&self) -> RtRwWriteGuard<'_, T> {
        match &self.inner {
            RwInner::Sim(l) => RtRwWriteGuard {
                inner: WriteInner::Sim(l.write()),
            },
            RwInner::Os(l) => RtRwWriteGuard {
                inner: WriteInner::Os(l.write().unwrap_or_else(PoisonError::into_inner)),
            },
        }
    }

    /// Returns a mutable reference to the data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        match &mut self.inner {
            RwInner::Sim(l) => l.get_mut(),
            RwInner::Os(l) => l.get_mut().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl<T> std::fmt::Debug for RtRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtRwLock").finish_non_exhaustive()
    }
}

/// Shared-access guard for [`RtRwLock`].
pub struct RtRwReadGuard<'a, T> {
    inner: ReadInner<'a, T>,
}

enum ReadInner<'a, T> {
    Sim(ccnvme_sim::sync::SimRwReadGuard<'a, T>),
    Os(std::sync::RwLockReadGuard<'a, T>),
}

impl<T> Deref for RtRwReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.inner {
            ReadInner::Sim(g) => g,
            ReadInner::Os(g) => g,
        }
    }
}

/// Exclusive-access guard for [`RtRwLock`].
pub struct RtRwWriteGuard<'a, T> {
    inner: WriteInner<'a, T>,
}

enum WriteInner<'a, T> {
    Sim(ccnvme_sim::sync::SimRwWriteGuard<'a, T>),
    Os(std::sync::RwLockWriteGuard<'a, T>),
}

impl<T> Deref for RtRwWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.inner {
            WriteInner::Sim(g) => g,
            WriteInner::Os(g) => g,
        }
    }
}

impl<T> DerefMut for RtRwWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            WriteInner::Sim(g) => g,
            WriteInner::Os(g) => g,
        }
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
