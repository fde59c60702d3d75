//! Host-side measurement: CPU time, context switches, peak memory and
//! CPU pinning, through three libc calls declared here (std links libc
//! already; no libc crate is vendored).

use std::time::Instant;

/// Words in the CPU masks passed to the affinity calls (1 024 CPUs).
const MASK_WORDS: usize = 16;
type CpuMask = [u64; MASK_WORDS];

/// The three libc calls, where their Linux 64-bit layouts apply.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use super::{CpuMask, Rusage, MASK_WORDS};

    #[repr(C)]
    #[derive(Default, Clone, Copy)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage`: two `timeval`s and fourteen `long`s.
    #[repr(C)]
    #[derive(Default)]
    struct RawRusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        unused: [i64; 11],
        nvcsw: i64,
        nivcsw: i64,
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }

    pub fn rusage() -> Option<Rusage> {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` of the layout
        // Linux documents for 64-bit targets, and RUSAGE_SELF (0) is a
        // valid `who`.
        if unsafe { getrusage(0, &mut raw) } != 0 {
            return None;
        }
        let us = |t: Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
        Some(Rusage {
            user_us: us(raw.utime),
            sys_us: us(raw.stime),
            ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
            max_rss_kb: raw.maxrss as u64,
        })
    }

    pub fn affinity() -> Option<CpuMask> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: the mask is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set_affinity(mask: &CpuMask) -> bool {
        // SAFETY: the mask is a live buffer of exactly the byte length
        // passed; pid 0 names the calling thread, and threads spawned
        // afterwards inherit its mask.
        unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
    }
}

/// Elsewhere nothing is measured and nothing is pinned.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    use super::{CpuMask, Rusage};

    pub fn rusage() -> Option<Rusage> {
        None
    }

    pub fn affinity() -> Option<CpuMask> {
        None
    }

    pub fn set_affinity(_: &CpuMask) -> bool {
        false
    }
}

/// A reading of the process's cumulative resource use (all threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    /// User CPU time, microseconds.
    pub user_us: u64,
    /// System CPU time, microseconds.
    pub sys_us: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set size, kilobytes.
    pub max_rss_kb: u64,
}

impl Rusage {
    /// Reads the counters now. All zero where `getrusage` is not
    /// available.
    pub fn now() -> Rusage {
        sys::rusage().unwrap_or_default()
    }

    /// Resource use accrued since `earlier`.
    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            max_rss_kb: self.max_rss_kb,
        }
    }

    /// User plus system CPU time, microseconds.
    pub fn cpu_us(&self) -> u64 {
        self.user_us + self.sys_us
    }
}

/// Host wall time and resource use of one measured region.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCost {
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// CPU time and context switches over the region.
    pub usage: Rusage,
}

/// A running stopwatch over wall time and `getrusage`.
pub struct HostTimer {
    t0: Instant,
    r0: Rusage,
}

impl HostTimer {
    /// Starts measuring.
    pub fn start() -> HostTimer {
        HostTimer {
            r0: Rusage::now(),
            t0: Instant::now(),
        }
    }

    /// Cost since [`HostTimer::start`].
    pub fn stop(&self) -> HostCost {
        let wall_ns = self.t0.elapsed().as_nanos() as u64;
        HostCost {
            wall_ns,
            usage: Rusage::now().since(&self.r0),
        }
    }
}

/// The CPU set the process started with; restores it on request.
pub struct Affinity {
    original: CpuMask,
    /// CPUs the process may run on (empty when the set cannot be read:
    /// pinning then reports failure).
    pub allowed: Vec<usize>,
}

impl Affinity {
    /// Reads the current affinity mask.
    pub fn read() -> Affinity {
        let original = sys::affinity().unwrap_or([0; MASK_WORDS]);
        let allowed = (0..MASK_WORDS * 64)
            .filter(|c| original[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        Affinity { original, allowed }
    }

    /// Pins the calling thread — and every thread it spawns from now on
    /// — to the highest-numbered allowed CPU (interrupts and other
    /// tenants gather on CPU 0). Returns the CPU, or `None` when pinning
    /// is not possible.
    ///
    /// A simulation keeps exactly one of its parked OS threads runnable;
    /// spread over several CPUs every hand-off becomes a cross-CPU
    /// wake-up, which measured 3.5x slower and far noisier than one CPU.
    pub fn pin_one(&self) -> Option<usize> {
        let cpu = *self.allowed.last()?;
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        sys::set_affinity(&mask).then_some(cpu)
    }

    /// Restores the CPU set the process started with.
    pub fn unpin(&self) {
        if !self.allowed.is_empty() {
            sys::set_affinity(&self.original);
        }
    }
}

/// Facts about the host and build, written beside every result.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// CPUs the process may use.
    pub nproc: usize,
    /// `rustc --version`, as exported by `run.sh`.
    pub rustc: String,
    /// Cargo profile the binary was built with.
    pub profile: &'static str,
    /// Git commit of the checkout, as exported by `run.sh`.
    pub commit: String,
}

impl HostFacts {
    /// Gathers the facts (`BENCH_RUSTC` / `BENCH_COMMIT` come from
    /// `run.sh`; "unknown" when the binary is started by hand).
    pub fn gather(aff: &Affinity) -> HostFacts {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
        HostFacts {
            nproc: aff.allowed.len().max(1),
            rustc: env("BENCH_RUSTC"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: env("BENCH_COMMIT"),
        }
    }
}
