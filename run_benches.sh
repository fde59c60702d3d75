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
# Recorded one-off (PR 7): the flight-recorder overhead gate measured
# against pre-recorder code that no longer exists, so this section is
# preserved verbatim rather than regenerated.
cat >> "$OUT" <<'RECORDED'

##################### blackbox overhead (recorded, PR 7) #####################

=== Flight-recorder (obs::blackbox) hot-path overhead gate — fig14, P5800X ===
metric                      before(ns)   after(ns)       delta
MQFS fsync  total                41276       41277      +0.002%
MQFS fatomic total               10927       10943      +0.15%
Ext4-NJ fsync total              44966       44966      +0.00%   (baseline driver: no recorder attached)

fig2 comparison (Ext4-NJ / Ext4 / HoraeFS, all three SSD profiles):
byte-identical to the recorded rows above — the recorder only attaches
to the ccNVMe driver, so the baseline-driver variants carry zero cost.

Mechanisms (DESIGN.md §14.2): per-transaction thinning (persist begin/
completion witnesses for the commit-boundary bio only: ~3 records/tx
instead of ~17/batch) + 8-record burst batching (512 B posted bursts,
drained on the completion-callback thread after waiters wake so no
commit flush waits on a recorder burst). Naive per-event mirroring had
measured +31.7% on fatomic; the gate is <2%, the shipped cost is
+0.15% (fatomic) / +0.002% (fsync).
[blackbox overhead: recorded, not regenerated]
RECORDED
echo "ALL-DONE" >> "$OUT"
