// SIGPROF sampler for scripts/hostprof.sh: preloaded into the profiled program,
// it records where the process is every 4 ms of CPU time (250 Hz) — the
// word at the top of the stack, the instruction pointer and the
// frame-pointer chain above it — and writes the samples and
// /proc/self/maps to $HOSTPROF_OUT when the process exits. The top-of-
// stack word is the return address while a leaf without a frame (libc's
// memcpy, say) has pushed nothing: the caller the frame walk skips.
// Needs the program built with -C force-frame-pointers=yes. x86-64 Linux.
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES 65536
#define MAX_DEPTH 48
// A simulated thread's stack (crates/sim/src/fiber.rs): the walk stays
// within this much above the stack pointer it starts at, so it never
// leaves the stack the sample was taken on — fibers sit next to each
// other's guard pages.
#define STACK_BYTES (2u << 20)

static uintptr_t samples[MAX_SAMPLES][MAX_DEPTH];
static volatile int taken;

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    if (taken >= MAX_SAMPLES) return;
    greg_t *r = ((ucontext_t *)uc)->uc_mcontext.gregs;
    uintptr_t sp = r[REG_RSP], fp = r[REG_RBP], limit = sp + STACK_BYTES;
    uintptr_t *pcs = samples[taken];
    int n = 0;
    pcs[n++] = *(uintptr_t *)sp;
    pcs[n++] = r[REG_RIP];
    // A frame is [saved rbp][return address]; each lies above the one
    // before. Code without frame pointers (libc) leaves something else in
    // rbp: the checks end the walk there, one caller short at worst.
    while (n < MAX_DEPTH - 1 && fp > sp && fp + 16 <= limit && fp % 8 == 0) {
        uintptr_t *frame = (uintptr_t *)fp;
        if (frame[1] == 0) break; // The first frame of a fiber.
        pcs[n++] = frame[1];
        sp = fp;
        fp = frame[0];
    }
    pcs[n] = 0;
    taken++;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL, *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    // One line per sample: the top-of-stack word (any value, 0 included),
    // then the instruction pointer and the return addresses.
    for (int i = 0; i < taken; i++) {
        fprintf(out, "%lu", (unsigned long)samples[i][0]);
        for (int d = 1; samples[i][d]; d++) fprintf(out, " %lu", (unsigned long)samples[i][d]);
        fputc('\n', out);
    }
    fputs("maps\n", out);
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 4000}, {0, 4000}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
