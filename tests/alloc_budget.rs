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

/// Allocations per append+sync measured on this stack (19.05, debug and
/// release alike), plus 10 %. The page cache sharing its pages with the
/// transaction, inline byte ranges, posted writes without a copy each and
/// the waiter as a bio's completion brought it down from 55 to 30.05;
/// the device keeping a write's buffer instead of copying it, and a
/// commit that allocates only what it keeps, to 19.05.
const BUDGET_PER_OP: f64 = 19.05 * 1.1;

/// Of those, allocations of exactly one 4 KB block per append+sync
/// (4.00, measured the same way), plus 10 %: the page the append writes,
/// the JD and the blocks the stack reads or writes besides. A copy of
/// each written block on the device side would add two.
const BLOCKS_PER_OP: f64 = 4.0 * 1.1;

thread_local! {
    /// Allocations, and those of exactly one 4 KB block.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(size: usize) {
    // `try_with`: an allocation while the thread's locals are torn down
    // is not counted.
    let _ = ALLOCS.try_with(|n| {
        let (all, blocks) = n.get();
        n.set((all + 1, blocks + u64::from(size == 4096)));
    });
}

fn allocs() -> (u64, u64) {
    ALLOCS.with(Cell::get)
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count beside it touches a thread-local `Cell` that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: passed on to the system allocator under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: passed on to the system allocator under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: passed on to the system allocator under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
        let after = allocs();
        let per_op = |n: u64, m: u64| (n - m) as f64 / 400.0;
        (per_op(after.0, before.0), per_op(after.1, before.1))
    });
    let (per_op, blocks_per_op) = per_op;
    assert!(
        per_op <= BUDGET_PER_OP,
        "{per_op:.2} allocations per append+sync, over the budget of {BUDGET_PER_OP:.1}"
    );
    assert!(
        blocks_per_op <= BLOCKS_PER_OP,
        "{blocks_per_op:.2} 4 KB blocks allocated per append+sync, over the budget of \
         {BLOCKS_PER_OP:.2}"
    );
}
