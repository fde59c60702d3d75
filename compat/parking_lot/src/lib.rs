//! Offline drop-in subset of `parking_lot`, backed by `std::sync`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the tiny slice of the `parking_lot` API it actually uses:
//! [`Mutex`] (lock returns the guard directly, no poisoning) and
//! [`Condvar`] (whose `wait` takes `&mut MutexGuard`). Poisoned std
//! locks are transparently recovered — panicking while holding a lock
//! is already a bug the simulation surfaces elsewhere.
//!
//! With the off-by-default `census` feature, [`Mutex::lock`] counts its
//! acquisitions by call site and prints one `lockprof <count> <site>`
//! line per site to stderr when the process exits
//! (`scripts/lockprof.sh`).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// A mutual-exclusion lock with the `parking_lot` calling convention:
/// `lock()` returns the guard directly instead of a `Result`.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex and returns the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking the calling thread until it is free.
    #[cfg_attr(feature = "census", track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "census")]
        census::count(std::panic::Location::caller());
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// RAII guard for [`Mutex`]; the lock is released on drop.
///
/// The inner `Option` exists so [`Condvar::wait`] can temporarily take
/// the std guard out while parked; it is `Some` at every other moment.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard vacated")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard vacated")
    }
}

/// A condition variable with the `parking_lot` signature: `wait` takes
/// `&mut MutexGuard` and re-acquires the lock before returning.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable with no waiters.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard's lock and parks until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard vacated");
        guard.inner = Some(self.inner.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    /// Wakes one waiting thread, if any.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

/// Lock acquisitions by call site, printed at process exit.
#[cfg(feature = "census")]
mod census {
    use std::{
        collections::HashMap,
        io::Write,
        panic::Location,
        sync::{Mutex, Once, PoisonError},
    };

    type Sites = HashMap<&'static Location<'static>, u64>;

    static SITES: Mutex<Option<Sites>> = Mutex::new(None);

    extern "C" {
        fn atexit(f: extern "C" fn()) -> std::ffi::c_int;
    }

    pub(crate) fn count(site: &'static Location<'static>) {
        static REPORT_AT_EXIT: Once = Once::new();
        // SAFETY: `report` is a plain `extern "C" fn()` that stays valid
        // for the life of the process, as `atexit` requires.
        REPORT_AT_EXIT.call_once(|| unsafe {
            atexit(report);
        });
        let mut sites = SITES.lock().unwrap_or_else(PoisonError::into_inner);
        *sites
            .get_or_insert_with(HashMap::new)
            .entry(site)
            .or_insert(0) += 1;
    }

    /// Runs from `atexit`, when thread-locals are gone: touches only the
    /// static table and stderr.
    extern "C" fn report() {
        let sites = SITES.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = std::io::stderr().lock();
        for (site, n) in sites.iter().flatten() {
            let _ = writeln!(out, "lockprof {n} {site}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_wait_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (mx, cv) = &*p2;
            let mut g = mx.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let (mx, cv) = &*pair;
        *mx.lock() = true;
        cv.notify_one();
        t.join().unwrap();
    }
}
