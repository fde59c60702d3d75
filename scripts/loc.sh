#!/usr/bin/env bash
# Non-test lines of Rust, per file, per crate and in total — the counting
# rule every "lines removed" figure in CHANGES.md uses (PR 17's):
#
#   * blank lines and lines that start with `//` do not count;
#   * a file stops counting at the first `#[cfg(test)]` / `#[cfg(all(test`
#     line that is followed by a `mod` (the unit-test module and whatever
#     follows it); the attribute on a `use`, a field or a helper does not
#     end the count;
#   * `tests/` directories, `target/` and `compat/` are skipped.
#
#   scripts/loc.sh                    the workspace: crates/ src/ examples/
#   scripts/loc.sh crates/core/src    one directory (or file), per file
#   scripts/loc.sh -s [path…]         per-crate subtotals and the total only
#
# A crate is the directory that holds the nearest Cargo.toml above a file.
set -euo pipefail
cd "$(dirname "$0")/.."

summary=0
if [ "${1:-}" = "-s" ]; then
    summary=1
    shift
fi
[ "$#" -gt 0 ] || set -- crates src examples

find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' \
    -not -path 'compat/*' | sort | while read -r f; do
    n=$(awk 'held && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ { exit }
             { n += held; held = 0 }
             /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
             /^[[:space:]]*#\[cfg\((all\()?test/ { held = 1; next }
             { n++ } END { print n + held }' "$f")
    d=$(dirname "$f")
    while [ "$d" != . ] && [ ! -f "$d/Cargo.toml" ]; do d=$(dirname "$d"); done
    printf '%s\t%s\t%s\n' "$n" "$d" "$f"
done | awk -F'\t' -v summary="$summary" '
    { if (!($2 in crate)) names[++n] = $2
      crate[$2] += $1; total += $1
      if (!summary) printf "%7d  %s\n", $1, $3 }
    END {
        if (!summary) print ""
        for (i = 1; i <= n; i++) printf "%7d  %s/ (crate)\n", crate[names[i]], names[i]
        printf "%7d  total\n", total
    }'
