//! The heap allocations of the operation path, counted: a 4 KB append
//! followed by `fsync` or `fatomic` on MQFS over ccNVMe.
//!
//! This binary's global allocator counts the allocations (`alloc`,
//! `alloc_zeroed`, `realloc`) made on the calling OS thread. A simulation
//! runs every simulated thread — the file system's callers, the device's
//! workers, the completion path — as a fiber on the OS thread that called
//! `Sim::run`, so that count is the whole stack's.

use std::{
    alloc::{GlobalAlloc, Layout, System},
    cell::Cell,
};

use ccnvme_repro::crashtest::{Stack, StackConfig};
use ccnvme_repro::sim::Sim;
use ccnvme_repro::ssd::SsdProfile;
use mqfs::FsVariant;

/// Allocations per append+sync measured on this stack (30.05, in a debug
/// build), plus 10 %. The page cache sharing its pages with the
/// transaction, inline byte ranges, posted writes without a copy each and
/// the waiter as a bio's completion brought it down from 55.
const BUDGET_PER_OP: f64 = 30.05 * 1.1;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation while the thread's locals are torn down
    // is not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count beside it touches a thread-local `Cell` that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: passed on to the system allocator under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    // SAFETY: passed on to the system allocator under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    // SAFETY: passed on to the system allocator under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: passed on to the system allocator under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn append_and_sync_stay_within_the_allocation_budget() {
    let cfg = StackConfig::new(FsVariant::Mqfs, SsdProfile::optane_905p(), 1);
    let per_op = Sim::run_main(cfg.sim_cores(), move || {
        let (_stack, fs) = Stack::format(&cfg);
        let ino = fs.create_path("/log").expect("create");
        let append = |i: u64, atomic: bool| {
            fs.write(ino, i * 4096, &[i as u8; 4096]).expect("write");
            if atomic {
                fs.fatomic(ino).expect("fatomic");
            } else {
                fs.fsync(ino).expect("fsync");
            }
        };
        // Warm up: the caches, the journal areas and the queues' buffers
        // reach their steady size.
        (0..64).for_each(|i| append(i, i % 2 == 1));
        let before = allocs();
        (64..264).for_each(|i| append(i, false));
        (264..464).for_each(|i| append(i, true));
        (allocs() - before) as f64 / 400.0
    });
    assert!(
        per_op <= BUDGET_PER_OP,
        "{per_op:.2} allocations per append+sync, over the budget of {BUDGET_PER_OP:.1}"
    );
}
