#!/usr/bin/env bash
# The refactoring check: a change that claims to move no virtual time
# must leave every virtual-time cell of the benchmark exactly where REV
# had it.
#
#   scripts/vt_diff.sh [REV]          REV defaults to HEAD
#
# Checks REV out as a detached git worktree under target/vt_diff, runs
# `benchmark/run.sh --quick` there and in the working tree, and diffs
# the `vt_*` and `media_bytes_per_user_byte` cells — the ones
# scripts/check.sh holds exact between two runs of one tree. Exits
# non-zero on any difference, or when either run fails (an operation
# failed or an oracle was violated). REV's build is kept in
# target/vt_diff/build, so a second comparison rebuilds only what
# changed.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-HEAD}"
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

# The cells of one quick run from the tree at $1, one per line.
vt_cells() {
    (cd "$1" && benchmark/run.sh --quick 2> /dev/null) | tail -n 1 |
        grep -o '"\(vt_[a-z0-9_]*\|media_bytes_per_user_byte\)": {"value": [^,]*'
}

if ! base="$(CARGO_TARGET_DIR="$PWD/target/vt_diff/build" vt_cells "$tree")"; then
    echo "vt_diff: benchmark/run.sh --quick failed at $rev" >&2
    exit 1
fi
if ! here="$(vt_cells .)"; then
    echo "vt_diff: benchmark/run.sh --quick failed in the working tree" >&2
    exit 1
fi
if [[ "$base" != "$here" ]]; then
    echo "vt_diff: virtual time differs from $rev (< $rev, > working tree)" >&2
    diff <(echo "$base") <(echo "$here") >&2 || true
    exit 1
fi
echo "vt_diff: $(echo "$here" | wc -l) virtual-time cells identical to $rev"
