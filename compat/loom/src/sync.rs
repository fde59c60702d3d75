//! Scheduler-aware synchronization primitives: `std::sync`-shaped
//! types whose every operation is a loom scheduling point.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

use crate::rt;

/// Scheduler-aware atomics. `Ordering` is re-exported from std for
/// signature compatibility; the explorer models every op as `SeqCst`
/// (see the crate docs for why that is the deliberate simplification).
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::UnsafeCell;
    use crate::rt;

    macro_rules! loom_atomic_int {
        ($name:ident, $ty:ty) => {
            /// Loom-checked atomic integer; each op is a scheduling
            /// point, after which the access runs while holding the
            /// execution baton.
            #[derive(Debug, Default)]
            pub struct $name {
                v: UnsafeCell<$ty>,
            }

            // SAFETY: all access to `v` happens between scheduling
            // points, i.e. while the calling thread holds the
            // execution baton — the engine serializes loom threads,
            // so no two threads ever touch `v` concurrently.
            unsafe impl Send for $name {}
            // SAFETY: as above — baton serialization makes shared
            // references to the cell data-race free.
            unsafe impl Sync for $name {}

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub fn new(v: $ty) -> Self {
                    Self {
                        v: UnsafeCell::new(v),
                    }
                }

                fn with<R>(&self, f: impl FnOnce(&mut $ty) -> R) -> R {
                    rt::switch();
                    // SAFETY: we hold the execution baton until the
                    // next scheduling point; no other loom thread can
                    // run, so the raw access cannot race.
                    f(unsafe { &mut *self.v.get() })
                }

                /// Atomic load.
                pub fn load(&self, _: Ordering) -> $ty {
                    self.with(|v| *v)
                }

                /// Atomic store.
                pub fn store(&self, val: $ty, _: Ordering) {
                    self.with(|v| *v = val)
                }

                /// Atomic swap, returning the previous value.
                pub fn swap(&self, val: $ty, _: Ordering) -> $ty {
                    self.with(|v| std::mem::replace(v, val))
                }

                /// Atomic wrapping add, returning the previous value.
                pub fn fetch_add(&self, d: $ty, _: Ordering) -> $ty {
                    self.with(|v| {
                        let old = *v;
                        *v = v.wrapping_add(d);
                        old
                    })
                }

                /// Atomic wrapping subtract, returning the previous value.
                pub fn fetch_sub(&self, d: $ty, _: Ordering) -> $ty {
                    self.with(|v| {
                        let old = *v;
                        *v = v.wrapping_sub(d);
                        old
                    })
                }

                /// Atomic maximum, returning the previous value.
                pub fn fetch_max(&self, val: $ty, _: Ordering) -> $ty {
                    self.with(|v| {
                        let old = *v;
                        *v = old.max(val);
                        old
                    })
                }

                /// Atomic minimum, returning the previous value.
                pub fn fetch_min(&self, val: $ty, _: Ordering) -> $ty {
                    self.with(|v| {
                        let old = *v;
                        *v = old.min(val);
                        old
                    })
                }

                /// Atomic compare-exchange.
                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    _: Ordering,
                    _: Ordering,
                ) -> Result<$ty, $ty> {
                    self.with(|v| {
                        if *v == current {
                            *v = new;
                            Ok(current)
                        } else {
                            Err(*v)
                        }
                    })
                }

                /// Like `compare_exchange`; this model never fails
                /// spuriously (spurious failure is permitted, not
                /// required, by the real API).
                pub fn compare_exchange_weak(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.compare_exchange(current, new, success, failure)
                }

                /// Consumes the atomic, returning the inner value.
                pub fn into_inner(self) -> $ty {
                    self.v.into_inner()
                }
            }
        };
    }

    loom_atomic_int!(AtomicI64, i64);
    loom_atomic_int!(AtomicU32, u32);
    loom_atomic_int!(AtomicU64, u64);
    loom_atomic_int!(AtomicUsize, usize);

    /// Loom-checked atomic boolean; each op is a scheduling point.
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        v: UnsafeCell<bool>,
    }

    // SAFETY: baton serialization (see the integer atomics above).
    unsafe impl Send for AtomicBool {}
    // SAFETY: baton serialization (see the integer atomics above).
    unsafe impl Sync for AtomicBool {}

    impl AtomicBool {
        /// Creates a new atomic with the given initial value.
        pub fn new(v: bool) -> Self {
            Self {
                v: UnsafeCell::new(v),
            }
        }

        fn with<R>(&self, f: impl FnOnce(&mut bool) -> R) -> R {
            rt::switch();
            // SAFETY: baton held until the next scheduling point.
            f(unsafe { &mut *self.v.get() })
        }

        /// Atomic load.
        pub fn load(&self, _: Ordering) -> bool {
            self.with(|v| *v)
        }

        /// Atomic store.
        pub fn store(&self, val: bool, _: Ordering) {
            self.with(|v| *v = val)
        }

        /// Atomic swap, returning the previous value.
        pub fn swap(&self, val: bool, _: Ordering) -> bool {
            self.with(|v| std::mem::replace(v, val))
        }

        /// Atomic compare-exchange.
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            _: Ordering,
            _: Ordering,
        ) -> Result<bool, bool> {
            self.with(|v| {
                if *v == current {
                    *v = new;
                    Ok(current)
                } else {
                    Err(*v)
                }
            })
        }

        /// Consumes the atomic, returning the inner value.
        pub fn into_inner(self) -> bool {
            self.v.into_inner()
        }
    }
}

/// A loom-checked mutex with the `std::sync::Mutex` lock signature
/// (always returns `Ok`; a panicking holder poisons the whole loom
/// execution instead of just the lock).
#[derive(Debug, Default)]
pub struct Mutex<T> {
    /// Lazily assigned so `Mutex::new` stays usable in `const`-ish
    /// contexts outside the model; read/written only while holding the
    /// execution baton.
    id: UnsafeCell<Option<usize>>,
    data: UnsafeCell<T>,
}

// SAFETY: `id` and `data` are only touched while the accessing thread
// holds the execution baton (after `rt::switch()`), and `data`
// additionally only while `id` is registered as held in the engine —
// loom threads are serialized, so there is no concurrent access.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: as above — baton + lock-hold discipline serialize access.
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex.
    pub fn new(data: T) -> Self {
        Self {
            id: UnsafeCell::new(None),
            data: UnsafeCell::new(data),
        }
    }

    /// Acquires the lock, blocking (in model time) until available.
    pub fn lock(&self) -> std::sync::LockResult<MutexGuard<'_, T>> {
        rt::switch();
        // SAFETY: baton held (we are between scheduling points), so
        // the lazy id cell cannot be accessed concurrently.
        let id = unsafe {
            let slot = &mut *self.id.get();
            *slot.get_or_insert_with(rt::alloc_lock_id)
        };
        while !rt::try_acquire(id) {
            rt::block_on_mutex(id);
        }
        Ok(MutexGuard { m: self, id })
    }

    /// Acquires the lock if it is free; a scheduling point like `lock`,
    /// but never blocks.
    pub fn try_lock(&self) -> std::sync::TryLockResult<MutexGuard<'_, T>> {
        rt::switch();
        // SAFETY: as in `lock`: the baton is held.
        let id = unsafe {
            let slot = &mut *self.id.get();
            *slot.get_or_insert_with(rt::alloc_lock_id)
        };
        if rt::try_acquire(id) {
            Ok(MutexGuard { m: self, id })
        } else {
            Err(std::sync::TryLockError::WouldBlock)
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> std::sync::LockResult<T> {
        Ok(self.data.into_inner())
    }

    /// Returns a mutable reference to the data; `&mut self` proves no
    /// guard is alive.
    pub fn get_mut(&mut self) -> std::sync::LockResult<&mut T> {
        Ok(self.data.get_mut())
    }
}

/// RAII guard for [`Mutex`]; releasing is not a scheduling point.
pub struct MutexGuard<'a, T> {
    m: &'a Mutex<T>,
    id: usize,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the engine records this lock as held by this thread;
        // every other contender parks until `release`, so the access
        // is exclusive.
        unsafe { &*self.m.data.get() }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive by the lock-hold argument on `deref`.
        unsafe { &mut *self.m.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        rt::release(self.id);
    }
}

/// `Arc` re-export: plain `std::sync::Arc` is already deterministic
/// under the engine (refcount ops never branch an execution).
/// Scheduler-aware condition variable. `wait` releases the guard's
/// mutex and parks *atomically in the engine* (one state-lock critical
/// section), so the lost-wakeup window between unlock and sleep that a
/// naive release-then-poll shim would have does not exist here. There
/// are no spurious wakeups: a parked thread only becomes runnable via
/// `notify_one` / `notify_all` — callers should still loop on their
/// predicate, as with any condvar.
#[derive(Debug, Default)]
pub struct Condvar {
    /// Lazily assigned, same discipline as [`Mutex::id`].
    id: UnsafeCell<Option<usize>>,
}

// SAFETY: `id` is only touched while the accessing thread holds the
// execution baton (inside `wait`/`notify_*`, each of which passes a
// scheduling point first) — loom threads are serialized, so there is
// no concurrent access.
unsafe impl Send for Condvar {}
// SAFETY: as above — baton discipline serializes access to the cell.
unsafe impl Sync for Condvar {}

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        Self {
            id: UnsafeCell::new(None),
        }
    }

    fn cv_id(&self) -> usize {
        // SAFETY: baton held (callers pass a scheduling point before
        // calling), so the lazy id cell cannot be accessed
        // concurrently.
        unsafe {
            let slot = &mut *self.id.get();
            *slot.get_or_insert_with(rt::alloc_lock_id)
        }
    }

    /// Releases `guard`'s mutex and parks until notified, then
    /// re-acquires the mutex and returns a fresh guard.
    pub fn wait<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
    ) -> std::sync::LockResult<MutexGuard<'a, T>> {
        rt::switch();
        let m = guard.m;
        let id = guard.id;
        // The engine releases the lock inside `condvar_wait`'s single
        // critical section; skipping the guard's Drop keeps release
        // and park atomic.
        std::mem::forget(guard);
        rt::condvar_wait(self.cv_id(), id);
        Ok(MutexGuard { m, id })
    }

    /// Wakes one parked waiter, if any (a lost signal otherwise).
    pub fn notify_one(&self) {
        rt::switch();
        rt::condvar_notify(self.cv_id(), false);
    }

    /// Wakes every parked waiter.
    pub fn notify_all(&self) {
        rt::switch();
        rt::condvar_notify(self.cv_id(), true);
    }
}

pub use std::sync::Arc;
