//! Sync-primitive indirection for loom model checking.
//!
//! The hot structures of this crate (the metric atomics, the
//! `TraceRing` lock, the registry map lock) import their
//! primitives from here instead of `std::sync`/`parking_lot`. In a
//! normal build the re-exports are zero-cost aliases; under
//! `--features loom` they resolve to the model checker's
//! scheduler-aware types, so the `loom_*` tests can exhaustively
//! explore interleavings of `record`/`snapshot`/`counter`. This is the
//! cargo-feature equivalent of upstream loom's `--cfg loom` convention
//! (a feature is used instead so no RUSTFLAGS plumbing is needed).

#[cfg(not(feature = "loom"))]
pub(crate) use parking_lot::Mutex;
#[cfg(not(feature = "loom"))]
pub(crate) use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

#[cfg(feature = "loom")]
pub(crate) use loom::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// `loom::sync::Mutex` adapted to the `parking_lot` locking signature
/// (`lock()` returns the guard directly) so call sites stay identical
/// in both builds. Poisoning cannot be observed: a panicking holder
/// poisons the whole loom execution before anyone re-locks.
#[cfg(feature = "loom")]
pub(crate) struct Mutex<T>(loom::sync::Mutex<T>);

#[cfg(feature = "loom")]
impl<T> Mutex<T> {
    pub(crate) fn new(v: T) -> Self {
        Mutex(loom::sync::Mutex::new(v))
    }

    pub(crate) fn lock(&self) -> loom::sync::MutexGuard<'_, T> {
        self.0.lock().expect("loom mutex cannot be poisoned")
    }
}

#[cfg(feature = "loom")]
impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

#[cfg(feature = "loom")]
impl<T> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}
