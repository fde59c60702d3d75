//! Stackful fibers under the kernel: a mapped stack, a first frame, and
//! the register swap that moves the OS thread from one stack to another.
//! The kernel's own `unsafe` is its one call of [`switch`].

#[cfg(not(all(target_arch = "x86_64", unix)))]
compile_error!(
    "ccnvme-sim runs simulated threads as x86-64 System V fibers; \
     to port it, write `fiber::switch` and `fiber::prepare` for this target"
);

use std::{arch::naked_asm, ptr};

/// What `std::thread` gave each simulated thread while they were OS threads.
const STACK_BYTES: usize = 2 << 20;
/// One page below the stack, never accessible: an overflow faults instead
/// of running into a neighbouring mapping.
const GUARD_BYTES: usize = 4096;
const MAP_BYTES: usize = GUARD_BYTES + STACK_BYTES;

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE: i32 = 2;
#[cfg(target_os = "linux")]
const MAP_ANONYMOUS: i32 = 0x20;
#[cfg(not(target_os = "linux"))]
const MAP_ANONYMOUS: i32 = 0x1000;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// A fiber's stack: [`STACK_BYTES`] of private memory above a guard page.
pub(crate) struct Stack(*mut u8);

// SAFETY: the mapping is plain memory owned by this value alone; nothing
// about it is tied to the OS thread that mapped it.
unsafe impl Send for Stack {}

impl Stack {
    pub(crate) fn new() -> Stack {
        // SAFETY: a fresh anonymous private mapping at an address of the
        // OS's choosing aliases no memory Rust knows about.
        let base = unsafe {
            let flags = MAP_PRIVATE | MAP_ANONYMOUS;
            mmap(ptr::null_mut(), MAP_BYTES, PROT_READ_WRITE, flags, -1, 0)
        };
        assert!(base as isize != -1, "mmap of a simulated thread's stack");
        let stack = Stack(base);
        // SAFETY: the first page of the mapping made above, on which no
        // code runs yet.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect of a stack's guard page");
        stack
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: exactly the mapping `new` made; the kernel only drops
        // the stack of a fiber that has switched away for the last time
        // or never ran.
        unsafe { munmap(self.0, MAP_BYTES) };
    }
}

/// Lays out the first frame of a fiber on `stack` and returns the stack
/// pointer to hand to [`switch`]: its six pops load `entry` and `arg`,
/// its `ret` enters [`trampoline`] with a 16-byte-aligned stack, and the
/// zero return address above is where backtraces end.
pub(crate) fn prepare(
    stack: &mut Stack,
    entry: extern "sysv64" fn(usize) -> !,
    arg: usize,
) -> usize {
    // r15, r14, r13, r12, rbx, rbp, return address of `switch`, of `trampoline`.
    let start = trampoline as *const () as usize;
    let frame = [0, 0, 0, arg, entry as usize, 0, start, 0];
    // SAFETY: the nine topmost words of the mapping, 8-byte aligned, and
    // `&mut` says no fiber is running on this stack.
    unsafe {
        let sp = stack.0.add(MAP_BYTES - 72).cast::<[usize; 8]>();
        sp.write(frame);
        sp as usize
    }
}

/// Where a new fiber starts: `entry(arg)`, out of the registers
/// [`prepare`]'s frame was popped into. `entry` never returns.
///
/// # Safety
///
/// Entered only by the `ret` of [`switch`] on a [`prepare`]d stack.
#[unsafe(naked)]
unsafe extern "sysv64" fn trampoline() {
    naked_asm!("mov rdi, r12", "call rbx", "ud2")
}

/// Suspends the caller and resumes the context suspended at `to`: pushes
/// the six callee-saved registers, stores the stack pointer in `*save`,
/// loads `to` and pops. Returns when something switches back to `*save`.
///
/// # Safety
///
/// `to` must come from [`prepare`] or from an earlier `switch` that has
/// not been resumed since, on a stack that is still mapped, and `save`
/// must be valid for a write. Everything the target touches must be
/// ready to be touched from this OS thread.
#[unsafe(naked)]
pub(crate) unsafe extern "sysv64" fn switch(save: *mut usize, to: usize) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}
