#!/usr/bin/env bash
# How often a benchmark workload takes a lock: a census of
# `parking_lot::Mutex::lock` acquisitions on one workload, per operation.
#
#   scripts/lockprof.sh <workload> [seconds]      (default 15; seed 1)
#
# Builds the benchmark — unmodified — into target/hostprof with the
# vendored parking_lot's off-by-default `census` feature (its `lock` is
# `#[track_caller]`, counts acquisitions by call site and prints them to
# stderr at exit), runs the workload and prints, per operation attempted
# (set-up and teardown of every segment included):
#
#   * lock acquisitions;
#   * the 20 call sites that lock most often.
#
# Every `lock()` of the stack's `parking_lot::Mutex` counts: the mutexes
# behind `RtMutex` on the OS runtime, a contended `SimMutex`'s queue, and
# every plain `parking_lot` lock in the layers (the simulator's kernel
# state and condvar wait lists take none). Under the
# simulator the counts are the same on every run. The census build
# replaces the binary scripts/hostprof.sh and scripts/allocprof.sh build in
# the same directory (they rebuild it). Not part of scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/lockprof.sh <workload> [seconds]}"
seconds="${2:-15}"

dir=target/hostprof
mkdir -p "$dir"
# An --offline build rewrites the benchmark's stale lock file; put it back.
lock_keep="$(mktemp)"
cp benchmark/Cargo.lock "$lock_keep"
trap 'cp "$lock_keep" benchmark/Cargo.lock; rm -f "$lock_keep"' EXIT
CARGO_TARGET_DIR="$dir" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --features parking_lot/census
bin="$dir/release/ccnvme-benchmark"

result="$(BENCH_OUT="$dir/out" "$bin" --workload "$workload" --seed 1 --seconds "$seconds" \
    --trace 0 2> "$dir/locks")"
ops="$(sed -n 's/.*"attempted": *\([0-9]*\).*/\1/p' <<< "$result")"
[ -n "$ops" ] && [ "$ops" -gt 0 ] || { echo "lockprof: the run reported no operations" >&2; exit 1; }

awk -v ops="$ops" -v root="$PWD/" -v title="$workload, seed 1, $seconds s" '
$1 == "lockprof" {
    site = $3
    if (index(site, root) == 1) site = substr(site, length(root) + 1)
    sub(/^benchmark\/\.\.\//, "", site)
    count[site] += $2
    total += $2
}
END {
    if (!total) { print "lockprof: no lock acquisitions recorded" > "/dev/stderr"; exit 1 }
    printf "%s: %d ops attempted\n", title, ops
    printf "  lock acquisitions per op  %10.2f\n", total / ops
    printf "\ntop 20 sites by acquisitions per op\n"
    printf "%10s %7s  %s\n", "locks/op", "share", "site"
    sort = "sort -k1,1gr | head -n 20"
    for (site in count)
        printf "%10.2f %6.1f%%  %s\n", count[site] / ops, 100 * count[site] / total, site | sort
    close(sort)
}' "$dir/locks"
