#!/usr/bin/env bash
# Where a benchmark workload's host time goes: a sampling profile of
# `benchmark/` on one workload, by function and by crate.
#
#   scripts/hostprof.sh <workload> [seconds]      (default 15; seed 1)
#
# Builds the benchmark — unmodified — into target/hostprof with frame
# pointers and debuginfo, preloads scripts/hostprof.c (SIGPROF at 250 Hz
# of CPU time, frame-pointer walk, fiber stacks included) and prints flat
# shares (where the instruction pointer was) and inclusive shares (on the
# stack at all) per function, and flat shares per crate. Symbols are the
# binary's own (`nm`): code inlined into a function counts as that
# function, and a generic function counts for the crate that wrote it.
# Needs cc, nm and awk; x86-64 Linux. Not part of scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/hostprof.sh <workload> [seconds]}"
seconds="${2:-15}"
command -v cc > /dev/null || { echo "hostprof: no C compiler (cc) to build the sampler with" >&2; exit 1; }

dir=target/hostprof
mkdir -p "$dir"
cc -O2 -shared -fPIC -o "$dir/hostprof.so" scripts/hostprof.c
# An --offline build rewrites the benchmark's stale lock file; put it back.
lock_keep="$(mktemp)"
cp benchmark/Cargo.lock "$lock_keep"
trap 'cp "$lock_keep" benchmark/Cargo.lock; rm -f "$lock_keep"' EXIT
CARGO_TARGET_DIR="$dir" RUSTFLAGS="-C force-frame-pointers=yes -g" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$dir/release/ccnvme-benchmark"

HOSTPROF_OUT="$dir/samples" LD_PRELOAD="$PWD/$dir/hostprof.so" BENCH_OUT="$dir/out" \
    "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 > /dev/null

nm -n -C --defined-only "$bin" | awk -v bin="$(realpath "$bin")" -v samples="$dir/samples" '
function hex(s,    n, i) {
    n = 0
    for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return n
}
# The function `pc` is in: the last symbol at or below it, or the name of
# the mapping when `pc` is outside the binary (libc, the vdso).
function resolve(pc,    lo, hi, mid, i) {
    if (pc < base || pc >= top) {
        for (i = 0; i < nmaps; i++) if (pc >= map_lo[i] && pc < map_hi[i]) return "[" map_name[i] "]"
        return "[unmapped]"
    }
    pc -= base
    lo = 0; hi = nsyms - 1
    while (lo < hi) {
        mid = int((lo + hi + 1) / 2)
        if (sym_addr[mid] <= pc) lo = mid; else hi = mid - 1
    }
    return sym_name[lo]
}
# The crate a function was written in: the first path segment of its
# name, inside `<… as …>` for a trait impl.
function crate_of(name) {
    if (name ~ /^\[/) return name
    gsub(/^[<&*]+(mut |dyn |const )?/, "", name)
    return (name ~ /^[a-z_][a-z0-9_]*::/) ? substr(name, 1, index(name, "::") - 1) : "[no crate]"
}
function report(title, count, top,    cmd, name) {
    printf "\n%s\n", title
    cmd = "sort -rn | head -n " top
    for (name in count) printf "%6.2f%%  %s\n", 100 * count[name] / total, name | cmd
    close(cmd)
}
BEGIN { nsyms = nmaps = total = base = 0 }
# The symbol table, on stdin: address, type, demangled name.
$2 ~ /^[tTwW]$/ {
    sym_addr[nsyms] = hex($1)
    sub(/^[0-9a-f]+ . /, "")
    sub(/::h[0-9a-f]+$/, "")
    sym_name[nsyms++] = $0
}
END {
    while ((getline line < samples) > 0) {
        if (line == "maps") { in_maps = 1; continue }
        n = split(line, f, " ")
        if (in_maps) {
            split(f[1], range, "-")
            map_lo[nmaps] = hex(range[1]); map_hi[nmaps] = hex(range[2])
            map_name[nmaps] = n >= 6 ? f[6] : "anon"
            if (f[6] == bin) { if (!base) base = map_lo[nmaps]; top = map_hi[nmaps] }
            sub(/.*\//, "", map_name[nmaps]); nmaps++
        } else {
            stack[total++] = line
        }
    }
    if (!total || !base) { print "hostprof: no samples in " samples > "/dev/stderr"; exit 1 }
    for (s = 0; s < total; s++) {
        n = split(stack[s], f, " ")
        split("", seen)
        for (d = 1; d <= n; d++) {
            # A return address is the instruction after the call.
            name = resolve(d == 1 ? f[d] : f[d] - 1)
            if (d == 1) { flat[name]++; crates[crate_of(name)]++ }
            if (!(name in seen)) { seen[name] = 1; incl[name]++ }
        }
    }
    printf "%d samples (250 Hz of CPU time)\n", total
    report("flat, by function", flat, 30)
    report("inclusive, by function", incl, 30)
    report("flat, by crate", crates, 20)
}'
