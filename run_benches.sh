#!/bin/bash
# Builds and runs every figure/table reproduction sequentially; output
# goes to bench_results_full.txt at the repository root. CRASH_POINTS
# trims the Table 4 campaign.
set -u
cd "$(dirname "$0")"
cargo build --release --quiet -p ccnvme-bench --bins || exit 1
BIN=target/release
OUT=bench_results_full.txt
: > "$OUT"
for b in table3 table1 fig5 fig2 fig10 fig11 fig12 fig13 fig14 table4 fabric ploc cluster runtime; do
  echo "" >> "$OUT"
  echo "##################### $b #####################" >> "$OUT"
  "$BIN/$b" >> "$OUT" 2>/dev/null
  echo "[$b done rc=$?]" >> "$OUT"
done
echo "ALL-DONE" >> "$OUT"
