//! Deterministic discrete-event simulation kernel.
//!
//! This crate provides the virtual-time substrate on which the whole
//! ccNVMe/MQFS reproduction runs. The host machine may have a single CPU,
//! yet the paper's experiments need up to 24 application threads, per-core
//! NVMe hardware queues, device-side command processing and interrupt
//! delivery — all with nanosecond-level cost accounting. A discrete-event
//! simulator with a virtual clock gives us that, deterministically.
//!
//! # Execution model
//!
//! * Every *simulated thread* is a fiber — its own stack, no OS thread of
//!   its own — on the OS thread that called [`Sim::run`], so **exactly
//!   one simulated thread executes at any instant**. Whenever the running
//!   thread advances the clock or blocks it dispatches the earliest
//!   pending event itself: it keeps running if the event is its own, and
//!   otherwise switches to the owning thread's stack (see [`kernel`]).
//!   Simulated state is therefore free of data races by construction.
//!   What `std` keeps per OS thread is shared by all of them; the two
//!   [`ambient`] words are what follows a simulated thread instead.
//! * Time is virtual, in nanoseconds ([`Ns`]). Threads spend time
//!   explicitly: [`cpu`] models CPU work (and contends for the thread's
//!   simulated core), [`delay`] models pure waiting (I/O latency, link
//!   propagation) that occupies no core.
//! * Blocking must go through the two sim-aware primitives in [`sync`],
//!   [`SimMutex`] and [`SimCondvar`], or what `ccnvme-runtime` builds over
//!   them (rwlock, channel). Blocking on a plain [`std::sync::Mutex`]
//!   across a yield would deadlock the simulation.
//! * Runs are fully deterministic: ties in the event heap are broken by a
//!   monotone sequence number, so the same program and seed always produce
//!   the same interleaving and the same final clock.
//!
//! # Quick example
//!
//! ```
//! use ccnvme_sim::{Sim, spawn, cpu, delay, now};
//!
//! let mut sim = Sim::new(4); // 4 simulated cores
//! sim.spawn("main", 0, || {
//!     cpu(1_000);          // 1 us of CPU work on core 0
//!     let h = spawn("worker", 1, || {
//!         delay(5_000);    // 5 us of I/O wait
//!         42u64
//!     });
//!     assert_eq!(h.join(), 42);
//!     assert_eq!(now(), 6_000);
//! });
//! sim.run();
//! ```

mod fiber;
pub mod kernel;
pub mod rng;
pub mod sync;
pub mod time;

pub use kernel::{
    ambient, cpu, current_core, delay, in_sim, now, set_ambient, spawn, spawn_daemon, try_now, Sim,
    SimJoinHandle,
};
pub use rng::DetRng;
pub use sync::{SimCondvar, SimMutex, SimMutexGuard, WaitTimeoutResult};
pub use time::{Ns, MS, SEC, US};
