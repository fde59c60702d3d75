#!/usr/bin/env bash
# The refactoring check: a change that claims to move no virtual time
# must leave every virtual-time cell of the benchmark exactly where REV
# had it — except in the workloads it declares moved.
#
#   scripts/vt_diff.sh [REV] [WORKLOAD...]    REV defaults to HEAD
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
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-HEAD}"
declared=("${@:2}")
sha="$(git rev-parse --verify "$rev^{commit}")"
tree="target/vt_diff/rev"

drop_tree() {
    git worktree remove --force "$tree" 2> /dev/null || true
    rm -rf "$tree"
    git worktree prune
}
# cargo rewrites the benchmark's lock file in place (see check.sh): put
# the working tree's back, and drop REV's checkout.
lock_keep="$(mktemp)"
cp benchmark/Cargo.lock "$lock_keep"
trap 'cp "$lock_keep" benchmark/Cargo.lock; rm -f "$lock_keep"; drop_tree' EXIT

drop_tree
mkdir -p target/vt_diff
git worktree add --quiet --detach "$tree" "$sha"

# The cells of one quick run from the tree at $1, one `workload.cell:
# value` per line.
vt_cells() {
    (cd "$1" && benchmark/run.sh --quick 2> /dev/null) | tail -n 1 |
        grep -o '"[a-z0-9_]*": {"correct"\|"\(vt_[a-z0-9_]*\|media_bytes_per_user_byte\)": {"value": [^,]*' |
        awk -F'"' '$4 == "correct" { w = $2; next } { c = $2; sub(/.*"value": /, ""); print w "." c ": " $0 }'
}

if ! base="$(CARGO_TARGET_DIR="$PWD/target/vt_diff/build" vt_cells "$tree")"; then
    echo "vt_diff: benchmark/run.sh --quick failed at $rev" >&2
    exit 1
fi
if ! here="$(vt_cells .)"; then
    echo "vt_diff: benchmark/run.sh --quick failed in the working tree" >&2
    exit 1
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
