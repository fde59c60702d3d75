#!/usr/bin/env bash
# The refactoring check: a change that claims to move no virtual time
# must leave every virtual-time cell of the benchmark exactly where REV
# had it — except in the workloads it declares moved.
#
#   scripts/vt_diff.sh [REV] [WORKLOAD...]    REV defaults to HEAD
#   scripts/vt_diff.sh --records A.json[:SIDE] B.json[:SIDE] [WORKLOAD...]
#
# Checks REV out as a detached git worktree under target/vt_diff, runs
# `benchmark/run.sh --quick` there and in the working tree, and compares
# the `vt_*` and `media_bytes_per_user_byte` cells of every workload —
# the ones scripts/check.sh holds exact between two runs of one tree.
# The cells of each named WORKLOAD may differ: they are printed, before
# and after. Exits non-zero on any difference in a workload not named,
# or when either run fails (an operation failed or an oracle was
# violated). REV's build is kept in
# target/vt_diff/build, so a second comparison rebuilds only what
# changed.
#
# With --records nothing is built or run: the cells come from two bench
# records (BENCH_*.json, full-length runs), A before and B after, read
# from `benchmark.runs.SIDE`: SIDE is `change` (the default, what the
# record's own commit ran), `parent`, or another side the record keeps
# (`change_seed2`); a workload's `--trace 0` run where it keeps both.
# The same rules apply.
set -euo pipefail
cd "$(dirname "$0")/.."

# The cells of one quick run from the tree at $1, one `workload.cell:
# value` per line.
vt_cells() {
    (cd "$1" && benchmark/run.sh --quick 2> /dev/null) | tail -n 1 |
        grep -o '"[a-z0-9_]*": {"correct"\|"\(vt_[a-z0-9_]*\|media_bytes_per_user_byte\)": {"value": [^,]*' |
        awk -F'"' '$4 == "correct" { w = $2; next } { c = $2; sub(/.*"value": /, ""); print w "." c ": " $0 }'
}

# The same cells from one side of a bench record, $1 = FILE[:SIDE], in
# workload and cell order; fails when a run there was not correct or
# had a failed operation.
record_cells() {
    local file="$1" side=change
    if [[ "$1" == *.json:* ]]; then
        file="${1%:*}" side="${1##*:}"
    fi
    jq -r --arg side "$side" '
        .benchmark.runs[$side] // error("no benchmark.runs.\($side)") | to_entries[]
        | .key as $w | (.value.trace0 // .value) as $run |
        if $run.correct != true or $run.failed != 0 then error("\($w) did not run clean")
        else $run.metrics | to_entries[]
            | select(.key | test("^vt_|^media_bytes_per_user_byte$"))
            | "\($w).\(.key): \(.value.value)" end' "$file" | sort
}

if [[ "${1:-}" == "--records" ]]; then
    [[ $# -ge 3 ]] || { echo "usage: $0 --records A.json[:SIDE] B.json[:SIDE] [WORKLOAD...]" >&2; exit 2; }
    rev="$2"
    declared=("${@:4}")
    if ! base="$(record_cells "$2")" || ! here="$(record_cells "$3")"; then
        echo "vt_diff: could not read the cells of $2 and $3" >&2
        exit 1
    fi
else
    rev="${1:-HEAD}"
    declared=("${@:2}")
    sha="$(git rev-parse --verify "$rev^{commit}")"
    tree="target/vt_diff/rev"

    drop_tree() {
        git worktree remove --force "$tree" 2> /dev/null || true
        rm -rf "$tree"
        git worktree prune
    }
    # cargo rewrites the benchmark's lock file in place (see check.sh):
    # put the working tree's back, and drop REV's checkout.
    lock_keep="$(mktemp)"
    cp benchmark/Cargo.lock "$lock_keep"
    trap 'cp "$lock_keep" benchmark/Cargo.lock; rm -f "$lock_keep"; drop_tree' EXIT

    drop_tree
    mkdir -p target/vt_diff
    git worktree add --quiet --detach "$tree" "$sha"

    if ! base="$(CARGO_TARGET_DIR="$PWD/target/vt_diff/build" vt_cells "$tree")"; then
        echo "vt_diff: benchmark/run.sh --quick failed at $rev" >&2
        exit 1
    fi
    if ! here="$(vt_cells .)"; then
        echo "vt_diff: benchmark/run.sh --quick failed in the working tree" >&2
        exit 1
    fi
fi
is_declared() {
    local w
    for w in "${declared[@]}"; do
        [[ "$1" == "$w" ]] && return 0
    done
    return 1
}
moved=0
kept=0
while IFS=$'\t' read -r before after; do
    cell="${before%%:*}"
    if [[ "$cell" != "${after%%:*}" ]]; then
        echo "vt_diff: the runs report different cells ($cell vs ${after%%:*})" >&2
        exit 1
    fi
    if is_declared "${cell%%.*}"; then
        echo "vt_diff: declared  $cell:${before#*:} ->${after#*:}"
    elif [[ "$before" != "$after" ]]; then
        echo "vt_diff: undeclared $cell:${before#*:} ->${after#*:}" >&2
        moved=1
    else
        kept=$((kept + 1))
    fi
done < <(paste <(echo "$base") <(echo "$here"))
if [[ "$moved" == 1 ]]; then
    echo "vt_diff: virtual time differs from $rev in a workload not declared moved" >&2
    exit 1
fi
echo "vt_diff: $kept virtual-time cells of undeclared workloads identical to $rev"
