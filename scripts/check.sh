#!/usr/bin/env bash
# Repo gate, two tiers (documented in README and DESIGN.md §10):
#
#   fast (always): formatting, clippy, the root test suite plus the
#     mqfs and journal crate suites and the unit suites of the layers
#     under them (sim, runtime, pcie, ssd, block, core, fault,
#     workloads), the
#     ccnvme-lint protocol-invariant analyzer over the workspace, the
#     bench metrics-schema smoke run, the crash-sweep suite (the
#     engine's unit tests, the bounded sweep of all three surfaces at
#     exact state counts — file system with a full re-crash sweep of
#     the final image's recovery, ploc local and fabric-driven, cluster
#     — the sampled Table 4 campaign and the fault campaigns), the ploc
#     smoke (detectable structures, remote exactly-once capsules), and
#     the cluster smoke (the sharded 2PC suite).
#
#   deep (CHECK_DEEP=1): the loom model-checking suites for the
#     lock-free observability hot structures and DetectableCas,
#     `cargo miri test` on the sim/obs crates when the miri component
#     is installed (skipped with a notice otherwise — CI images
#     without miri still run the loom tier), and the deep crash
#     sweeps (CCNVME_ENUM_DEEP=1: torn posted-write expansion plus a
#     crash-during-recovery sweep over every explored image, for the
#     file-system workload and the ploc surface, and the every-cut
#     cluster sweep).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q
cargo test -q -p ccnvme-obs
# `cargo test` at the root runs the root package only. The file system
# and the journal under it are the crates every figure depends on: their
# own suites (mapping, fsck, crash/remount per variant, revocation and
# release gating of the multi-queue journal) gate here too.
cargo test -q --release -p mqfs -p mqfs-journal
# The layers under them — simulator, runtime seam, PCIe and SSD models,
# block layer, both drivers (retry/watchdog ladder, P-SQ recovery), the
# fault planner and the workload generators (215 unit tests, seconds).
cargo test -q -p ccnvme-sim -p ccnvme-runtime -p ccnvme-pcie -p ccnvme-block -p ccnvme-fault \
    -p ccnvme-workloads -p ccnvme -p ccnvme-ssd
# Protocol-invariant gate: the interprocedural persistence-effect
# analyzer — persist-order (§4.3 flush-before-doorbell, path-sensitive
# over branches/loops/closures), static-race, observer-purity — plus
# the atomic-ordering justification, unsafe audit, metric namespace,
# and lint.toml staleness rules.
cargo run -q -p ccnvme-lint
# Lint-self tier: the analyzer's own suite (summary fixpoint, fixture
# corpus, the random-call-graph property test) and the operator-facing
# rule explainers.
cargo test -q -p ccnvme-lint
for rule in persist-order static-race observer-purity; do
    cargo run -q -p ccnvme-lint -- --explain "$rule" > /dev/null
done
scripts/bench_smoke.sh
# Crash-sweep suite, one engine under all of it: every event-prefix of
# the small file-system workload recovers clean and recovery re-crashed
# at each of its own events converges (~3000 simulated boots); the ploc
# surface holds exactly-once at every prefix, locally and over the
# fabric; the cluster surface stays all-or-nothing at every sampled cut
# under every down-subset; the sampled Table 4 campaign and the five
# fault campaigns pass. State counts are asserted exactly, and every
# recorded run also replays through the runtime persist-order sanitizer
# — the dynamic dual of the ccnvme-lint persist-order rule — which must
# report zero violations (SweepReport.sanitizer_violations).
cargo test -q --release -p ccnvme-crashtest
# Forensics smoke: crash a small stack, save the PMR wreckage, then
# re-analyze the canned image from disk — the flight recorder must
# mount and cross-check clean both times (exit is non-zero on any
# verdict contradiction).
FORENSICS_IMG="$(mktemp)"
cargo run -q --release -p ccnvme-bench --bin ccnvme-obs -- forensics --save "$FORENSICS_IMG" > /dev/null
cargo run -q --release -p ccnvme-bench --bin ccnvme-obs -- forensics "$FORENSICS_IMG" > /dev/null
rm -f "$FORENSICS_IMG"
# Fabric smoke: codec round-trips, loopback sessions under transport
# faults, the connection-kill campaign, and the TCP smoke (the long TCP
# soak runs in the deep tier).
cargo test -q --release -p ccnvme-fabric
# Ploc smoke: detectable-structure unit tests and the remote
# exactly-once capsule path.
cargo test -q -p ccnvme-ploc
cargo test -q --release -p ccnvme-fabric --test ploc_fabric
# Cluster smoke: the sharded 2PC unit/integration suite (hash ring,
# prepare/decide/verdict/resolve, degradation ladder).
cargo test -q -p ccnvme-cluster
# Runtime smoke: the sim/OS differential test (same workload on both
# substrates must reach the same durable state) and a short wall-clock
# bench run proving the OS backend actually drives real threads. The
# OS run depends on wall-clock scheduling, so it gets a hard timeout
# instead of trusting it to converge.
cargo test -q --release --test runtime_differential
QUICK=1 timeout 300 cargo run -q --release -p ccnvme-bench --bin runtime -- --runtime os > /dev/null

if [[ "${CHECK_DEEP:-0}" == "1" ]]; then
    echo "== deep tier: crash sweeps (fs + ploc: torn tails, every-image re-crash; cluster: every cut) =="
    CCNVME_ENUM_DEEP=1 cargo test -q --release -p ccnvme-crashtest deep_
    echo "== deep tier: fabric TCP soak (real sockets, reconnect mid-commit) =="
    CCNVME_TCP_SOAK=1 cargo test -q --release -p ccnvme-fabric --test tcp
    echo "== deep tier: loom model checking =="
    # The loom feature swaps ccnvme-obs onto the model-checked
    # primitives; only loom_* tests are meaningful under it.
    cargo test -q -p ccnvme-obs --features loom --lib loom_
    # DetectableCas interleavings: owner evidence is durable before the
    # overwritten value becomes visible, under every schedule.
    cargo test -q -p ccnvme-ploc --features loom --lib loom_
    # The OS runtime's MPSC channel: no lost wakeups / lost messages
    # under every interleaving of its mutex+condvar internals.
    cargo test -q -p ccnvme-runtime --features loom --lib loom_
    cargo test -q -p loom
    echo "== deep tier: miri =="
    if rustup component list 2>/dev/null | grep -q "^miri.*(installed)"; then
        cargo miri test -q -p ccnvme-sim -p ccnvme-obs
    else
        echo "miri not installed; skipping (rustup component add miri)"
    fi
fi
