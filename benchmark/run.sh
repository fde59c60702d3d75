#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   benchmark/run.sh                      all six workloads, end-to-end metrics
#   benchmark/run.sh --trace              all six, per-layer metrics + span files
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run, as BENCHMARK.json's command
#   benchmark/run.sh --list               names, units, directions, bounds
#   benchmark/run.sh --quick              1/20 counts, smoke only, not for claims
#   benchmark/run.sh --selfcheck          full set twice, must agree within bounds
#
# Run it from the repository root. Everything it writes stays inside the
# checkout: the build under $CARGO_TARGET_DIR (default benchmark/target),
# span files under benchmark/out.
set -euo pipefail

here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"

# Human-readable output goes to stderr; stdout carries only the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_COMMIT BENCH_OUT="$here/out"

exec "$target/release/ccnvme-benchmark" "$@"
