// Malloc census for scripts/allocprof.sh: preloaded into the benchmark, it
// counts every allocation — malloc, calloc, realloc and the aligned family —
// by size, by size class (allocations and reallocs apart) and by call stack
// (the frame-pointer chain above the allocator call, DEPTH return
// addresses), and writes the table and /proc/self/maps to $ALLOCPROF_OUT
// when the process exits. Frees are not counted. Needs the
// program built with -C force-frame-pointers=yes. x86-64 Linux, glibc.
#define _GNU_SOURCE
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);

#define DEPTH 16
#define SLOTS (1 << 16)
// A simulated thread's stack (crates/sim/src/fiber.rs): the walk stays
// within this much above where it starts, as in hostprof.c.
#define STACK_BYTES (2u << 20)
#define BLOCK 4096

struct site {
    uintptr_t pcs[DEPTH];
    uint64_t count, bytes, blocks;
};

static struct site sites[SLOTS];
static uint64_t total_count, total_bytes, block_count, lost_count;
// Size classes: <= 1 KB, 1-4 KB, exactly 4 KB, > 4 KB; [0] fresh
// allocations, [1] reallocs.
static uint64_t classes[2][4];
static char lock;

static int size_class(size_t size) {
    return size <= 1024 ? 0 : size < BLOCK ? 1 : size == BLOCK ? 2 : 3;
}

__attribute__((noinline)) static void census(size_t size, int is_realloc) {
    uintptr_t pcs[DEPTH] = {0};
    uintptr_t *fp = __builtin_frame_address(0), limit = (uintptr_t)fp + STACK_BYTES;
    // From the allocator entry point's frame: its return address is the
    // first one in the program.
    fp = (uintptr_t *)fp[0];
    uint64_t hash = 1469598103934665603ull;
    for (int d = 0; d < DEPTH && fp && (uintptr_t)fp + 16 <= limit && (uintptr_t)fp % 8 == 0; d++) {
        if (fp[1] == 0) break; // The first frame of a fiber.
        pcs[d] = fp[1];
        hash = (hash ^ pcs[d]) * 1099511628211ull;
        uintptr_t *next = (uintptr_t *)fp[0];
        if (next <= fp) break;
        fp = next;
    }
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE)) {
    }
    total_count++;
    total_bytes += size;
    classes[is_realloc][size_class(size)]++;
    if (size == BLOCK) block_count++;
    uint64_t i = hash % SLOTS, probes = 0;
    while (sites[i].count && memcmp(sites[i].pcs, pcs, sizeof pcs) && ++probes < SLOTS)
        i = (i + 1) % SLOTS;
    if (probes < SLOTS) {
        memcpy(sites[i].pcs, pcs, sizeof pcs);
        sites[i].count++;
        sites[i].bytes += size;
        sites[i].blocks += size == BLOCK;
    } else {
        lost_count++;
    }
    __atomic_clear(&lock, __ATOMIC_RELEASE);
}

void *malloc(size_t size) {
    census(size, 0);
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size) {
    census(n * size, 0);
    return __libc_calloc(n, size);
}

void *realloc(void *p, size_t size) {
    census(size, 1);
    return __libc_realloc(p, size);
}

void *memalign(size_t align, size_t size) {
    census(size, 0);
    return __libc_memalign(align, size);
}

void *aligned_alloc(size_t align, size_t size) {
    census(size, 0);
    return __libc_memalign(align, size);
}

int posix_memalign(void **out, size_t align, size_t size) {
    census(size, 0);
    void *p = __libc_memalign(align, size);
    if (!p) return 12; // ENOMEM
    *out = p;
    return 0;
}

static void dump(void) {
    const char *path = getenv("ALLOCPROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL, *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    // The totals, then one line per call stack: count, bytes, 4 KB
    // blocks, the return addresses from the allocator's caller outwards.
    fprintf(out, "total %lu %lu %lu %lu\n", (unsigned long)total_count,
            (unsigned long)total_bytes, (unsigned long)block_count, (unsigned long)lost_count);
    // Per size class: allocations, then reallocs.
    fputs("classes", out);
    for (int c = 0; c < 4; c++)
        fprintf(out, " %lu %lu", (unsigned long)classes[0][c], (unsigned long)classes[1][c]);
    fputc('\n', out);
    for (int i = 0; i < SLOTS; i++) {
        if (!sites[i].count) continue;
        fprintf(out, "%lu %lu %lu", (unsigned long)sites[i].count, (unsigned long)sites[i].bytes,
                (unsigned long)sites[i].blocks);
        for (int d = 0; d < DEPTH && sites[i].pcs[d]; d++) fprintf(out, " %lu", (unsigned long)sites[i].pcs[d]);
        fputc('\n', out);
    }
    fputs("maps\n", out);
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
    fclose(out);
}

__attribute__((constructor)) static void start(void) { atexit(dump); }
