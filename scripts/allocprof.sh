#!/usr/bin/env bash
# Where a benchmark workload allocates: a malloc census of `benchmark/` on
# one workload, per operation.
#
#   scripts/allocprof.sh <workload> [seconds]      (default 15; seed 1)
#
# Builds the benchmark — unmodified — the way scripts/hostprof.sh does
# (frame pointers and line tables, into target/hostprof, so a build one of
# them made serves the other), preloads scripts/allocprof.c (counts every
# malloc, calloc, realloc and aligned allocation by size and call stack)
# and prints, per operation attempted (set-up and teardown of every
# segment included):
#
#   * allocations, bytes allocated, and allocations of exactly one 4 KB
#     block with their share of all allocations;
#   * allocations and reallocs (a realloc counts as an allocation too) by
#     size class: <= 1 KB, 1-4 KB, exactly 4 KB, > 4 KB;
#   * the 20 source sites that allocate most often, each an allocation
#     stack's first frame in crates/ or benchmark/src/ (innermost inlined
#     frame first, so a `Vec` built inside an inlined helper counts for
#     the helper's line), with allocations, KB and 4 KB blocks per op.
#
# Needs cc, (llvm-)addr2line and awk; x86-64 Linux, glibc. Not part of
# scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/allocprof.sh <workload> [seconds]}"
seconds="${2:-15}"
command -v cc > /dev/null || { echo "allocprof: no C compiler (cc) to build the census with" >&2; exit 1; }
a2l="$(command -v llvm-addr2line || command -v addr2line)" ||
    { echo "allocprof: no addr2line to resolve call sites with" >&2; exit 1; }

dir=target/hostprof
mkdir -p "$dir"
cc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$dir/allocprof.so" scripts/allocprof.c
# An --offline build rewrites the benchmark's stale lock file; put it back.
lock_keep="$(mktemp)"
cp benchmark/Cargo.lock "$lock_keep"
trap 'cp "$lock_keep" benchmark/Cargo.lock; rm -f "$lock_keep"' EXIT
CARGO_TARGET_DIR="$dir" RUSTFLAGS="-C force-frame-pointers=yes" \
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_PROFILE_RELEASE_STRIP=none \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$dir/release/ccnvme-benchmark"

result="$(ALLOCPROF_OUT="$dir/allocs" LD_PRELOAD="$PWD/$dir/allocprof.so" BENCH_OUT="$dir/out" \
    "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 2> /dev/null)"
ops="$(sed -n 's/.*"attempted": *\([0-9]*\).*/\1/p' <<< "$result")"
[ -n "$ops" ] && [ "$ops" -gt 0 ] || { echo "allocprof: the run reported no operations" >&2; exit 1; }

awk -v bin="$(realpath "$bin")" -v ops="$ops" -v pcs="$dir/alloc.pcs" -v a2l="$a2l" \
    -v title="$workload, seed 1, $seconds s" '
function hex(s,    n, i) {
    n = 0
    for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return n
}
function in_bin(pc) { return pc >= bin_lo && pc < bin_hi }
$1 == "total" { total = $2; bytes = $3; blocks = $4; lost = $5; next }
$1 == "classes" { for (c = 0; c < 4; c++) { fresh[c] = $(2 + 2 * c); grown[c] = $(3 + 2 * c) }; next }
$1 == "maps" { in_maps = 1; next }
in_maps {
    if ($6 == bin) { split($1, range, "-"); if (!bin_lo) bin_lo = hex(range[1]); bin_hi = hex(range[2]) }
    next
}
{ stack[nstacks++] = $0 }
END {
    if (!total || !bin_lo) { print "allocprof: no allocations recorded" > "/dev/stderr"; exit 1 }
    # A return address is the instruction after the call: look up the one
    # before it.
    for (s = 0; s < nstacks; s++) {
        n = split(stack[s], f, " ")
        for (d = 4; d <= n; d++) if (in_bin(f[d])) want[sprintf("%x", f[d] - 1 - bin_lo)] = 1
    }
    for (k in want) print "0x" k > pcs
    close(pcs)
    # addr2line -a -i -f prints the address, then function / file:line
    # pairs from the innermost inlined frame out; the first pair in
    # crates/ or benchmark/src/ names the address.
    cmd = a2l " -a -i -f -C -e \"" bin "\" < \"" pcs "\""
    while ((cmd | getline line) > 0) {
        if (line ~ /^0x[0-9a-f]+$/) { sub(/^0x0*/, "", line); at = line; k = 0; continue }
        if (k++ % 2 == 0) { fn = line; continue }
        if ((at in label) || !match(line, /\/(crates|benchmark\/src)\//)) continue
        file = substr(line, RSTART + 1)
        sub(/ \(discriminator [0-9]+\)$/, "", file)
        sub(/::h[0-9a-f]+$/, "", fn)
        label[at] = fn " [" file "]"
    }
    close(cmd)
    for (s = 0; s < nstacks; s++) {
        n = split(stack[s], f, " ")
        site = "[no frame in crates/ or benchmark/src/]"
        for (d = 4; d <= n; d++) {
            at = sprintf("%x", f[d] - 1 - bin_lo)
            if (in_bin(f[d]) && (at in label)) { site = label[at]; break }
        }
        count[site] += f[1]; kb[site] += f[2] / 1024; block[site] += f[3]
    }
    printf "%s: %d ops attempted\n", title, ops
    printf "  allocations per op  %10.2f\n", total / ops
    printf "  bytes per op        %10.1f KB\n", bytes / ops / 1024
    printf "  4 KB blocks per op  %10.2f  (%.1f %% of allocations)\n", blocks / ops, 100 * blocks / total
    printf "  by size class       %10s %11s\n", "allocs/op", "reallocs/op"
    split("<= 1 KB|1-4 KB|= 4 KB|> 4 KB", name, "|")
    for (c = 0; c < 4; c++)
        printf "    %-17s %10.2f %11.2f\n", name[c + 1], (fresh[c] + grown[c]) / ops, grown[c] / ops
    if (lost) printf "  (%d allocations overflowed the stack table and have no site)\n", lost
    printf "\ntop 20 sites by allocations per op (first frame in crates/ or benchmark/src/)\n"
    printf "%10s %9s %9s  %s\n", "allocs/op", "KB/op", "4KB/op", "site"
    sort = "sort -k1,1gr | head -n 20"
    for (site in count)
        printf "%10.2f %9.2f %9.2f  %s\n", count[site] / ops, kb[site] / ops, block[site] / ops, site | sort
    close(sort)
}' "$dir/allocs"
