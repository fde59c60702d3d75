#!/usr/bin/env bash
# Repo gate, two tiers (documented in README and DESIGN.md §10):
#
#   fast (always): formatting, clippy, the tier-1 root suite, then the
#     test suite of every workspace member in one release-mode pass
#     (unit suites of every layer, the crash-sweep suite at exact state
#     counts, the fabric, ploc, cluster and lint suites, the sim/OS
#     differential), the ccnvme-lint protocol-invariant analyzer over
#     the workspace, the bench metrics-schema smoke run, the faultpath
#     bench, the fault_storm, quickstart, black_box and crash_recovery
#     examples, the
#     fabric credit-overload drill
#     and the cluster scaling gate, the
#     deep ploc and cluster crash sweeps, the forensics and OS-runtime
#     smokes, and the benchmark: its
#     own tests, every workload's output oracle, and exact virtual-time
#     agreement between two runs.
#
#   deep (CHECK_DEEP=1): the deep file-system crash sweep
#     (CCNVME_ENUM_DEEP=1: torn posted-write expansion plus a
#     crash-during-recovery sweep over every explored image — about 25
#     minutes), the fabric TCP soak, the loom model-checking suites (the
#     lock-free observability hot structures, DetectableCas, the
#     runtime's channel and rwlock, the block layer's completion word),
#     and `cargo miri test` on the obs
#     crate, the runtime's OS-backed tests and the simulator's bare-thread
#     mutex tests when the miri component is
#     installed (skipped with a notice otherwise — CI images without
#     miri still run the loom tier).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# Tier 1, verbatim: the root package's cross-crate suite in a debug
# build, so every `debug_assert!` and overflow check in the stack runs.
cargo test -q
# Every member of the workspace (none needs a line of its own), release
# build: the unit suites of every layer from the simulator up, the
# file system and journal suites, the analyzer's own suite, and —
#
#  * the crash-sweep suite, one engine under all of it: every
#    event-prefix of the small file-system workload recovers clean and
#    recovery re-crashed at each of its own events converges (~3000
#    simulated boots); the same for patch_chain, the journal's
#    patch-record surface (two areas wrapping over each other's live
#    patches of one inode-table block); the ploc surface holds exactly-once at every
#    prefix, locally and over the fabric; the cluster surface stays
#    all-or-nothing at every sampled cut under every down-subset, and
#    at every cut of a script that partitions a shard first; the
#    sampled Table 4 campaign passes, and so do the five fault
#    campaigns, each schedule a sweep of the file-system surface with
#    one device fault armed on its recorded run, cut through the fault
#    window (per-kind tallies asserted exactly). State counts are
#    asserted exactly. The root suite's ploc, cluster and
#    fault-atomicity proptests are seeded scripts of the same
#    surfaces, swept by the same engine. Every recorded run also replays
#    through the runtime persist-order sanitizer — the dynamic dual of
#    the ccnvme-lint persist-order rule — which must report zero
#    violations (SweepReport.sanitizer_violations);
#  * the fabric suite: codec round-trips, loopback sessions under
#    transport faults, the connection-kill campaign, the TCP smoke (the
#    long TCP soak runs in the deep tier), remote exactly-once capsules;
#  * the ploc and cluster suites (detectable structures; hash ring,
#    prepare/decide/verdict, presumed abort, degradation ladder);
#  * the sim/OS differential test (same workload on both substrates
#    must reach the same durable state).
cargo test -q --release --workspace
# Protocol-invariant gate: the interprocedural persistence-effect
# analyzer — persist-order (§4.3 flush-before-doorbell, path-sensitive
# over branches/loops/closures), static-race, observer-purity — plus
# the atomic-ordering justification, unsafe audit, metric namespace,
# and lint.toml staleness rules.
cargo run -q -p ccnvme-lint
# The operator-facing rule explainers.
for rule in persist-order static-race observer-purity; do
    cargo run -q -p ccnvme-lint -- --explain "$rule" > /dev/null
done
scripts/bench_smoke.sh
# The two harnesses that read the error ladder's and the fault
# injector's counters from the metrics registry: the error-path overhead
# table (exits non-zero when a schedule of its fault campaign — a crash
# sweep — breaks the error contract at any cut) and the fault-storm
# walkthrough (it asserts degradation, reads while degraded and recovery
# itself).
QUICK=1 cargo run -q --release -p ccnvme-bench --bin faultpath > /dev/null
cargo run -q --release --example fault_storm > /dev/null
# Three crash walkthroughs, each asserting its own outcome: an fsync'd
# file survives a power cut and fsck is clean (quickstart); the flight
# recorder mounts and cross-checks a wrecked and a settled image
# (black_box); the P-SQ recovery window, then every event prefix of a
# small file-system script recovers clean and recovery re-crashed at
# each of its events converges (crash_recovery).
cargo run -q --release --example quickstart > /dev/null
cargo run -q --release --example black_box > /dev/null
cargo run -q --release --example crash_recovery > /dev/null
# The fabric credit-overload drill: pipelined 8-write TX_COMMIT capsules
# over a window of 2 must stall and never fail (it panics otherwise).
QUICK=1 cargo run -q --release -p ccnvme-bench --bin fabric > /dev/null
# The cluster scaling gate (over the same commit mix, with 4 handler
# cores per domain, the 2-, 4- and 8-shard rows do not decrease) and
# the kill-one-shard drill; both panic when they fail. Full size
# (about a second): at QUICK sizes twelve commits per client are too
# few for the rows to settle.
cargo run -q --release -p ccnvme-bench --bin cluster > /dev/null
# The deep ploc and cluster crash sweeps (torn tails and every-image
# re-crash; every cut, three shards). The file-system ones take
# tens of minutes each and stay in the deep tier; the journal's patch-record
# surface (patch_chain: every event prefix through remount, fsck, oracle,
# forensics and sanitizer, plus the final image's recovery re-crashed at
# each of its events, exact counts) already ran above, inside
# `--workspace`, as enumerate::patch_chain_recovers_at_every_event_prefix,
# and so did the background checkpointer's surface (a pass on the
# journald core between the commits, every event prefix, exact counts,
# about a second) as
# enumerate::background_checkpoint_recovers_at_every_event_prefix.
CCNVME_ENUM_DEEP=1 cargo test -q --release -p ccnvme-crashtest \
    --test ploc_enum --test cluster_enum deep_
# Forensics smoke: crash a small stack, save the PMR wreckage, then
# re-analyze the canned image from disk — the flight recorder must
# mount and cross-check clean both times (exit is non-zero on any
# verdict contradiction).
FORENSICS_IMG="$(mktemp)"
cargo run -q --release -p ccnvme-bench --bin ccnvme-obs -- forensics --save "$FORENSICS_IMG" > /dev/null
cargo run -q --release -p ccnvme-bench --bin ccnvme-obs -- forensics "$FORENSICS_IMG" > /dev/null
rm -f "$FORENSICS_IMG"
# Runtime smoke: a short wall-clock bench run proving the OS backend
# actually drives real threads. It depends on wall-clock scheduling, so
# it gets a hard timeout instead of trusting it to converge.
QUICK=1 timeout 300 cargo run -q --release -p ccnvme-bench --bin runtime -- --runtime os > /dev/null

# The benchmark (a workspace of its own): its tests — the output
# oracles are non-vacuous, BENCHMARK.json matches the catalog — then
# every workload at 1/20 scale, twice: each run checks every oracle,
# and the two must agree on every virtual-time cell exactly (the
# simulator is deterministic on all five). `--selfcheck --quick` would
# also hold host-time cells to their 25 % bounds, which 30 ms segments
# on a shared VM miss about one time in three. cargo rewrites the
# benchmark's lock file in place (the committed one is stale since PR
# 17, and only a benchmark-only PR may refresh it); put it back.
lock_keep="$(mktemp)"
cp benchmark/Cargo.lock "$lock_keep"
trap 'cp "$lock_keep" benchmark/Cargo.lock; rm -f "$lock_keep"' EXIT
cargo test -q --release --manifest-path benchmark/Cargo.toml
vt_cells() {
    benchmark/run.sh --quick 2> /dev/null | tail -n 1 |
        grep -o '"\(vt_[a-z0-9_]*\|media_bytes_per_user_byte\)": {"value": [^,]*'
}
if ! first="$(vt_cells)" || ! second="$(vt_cells)"; then
    echo "check: benchmark/run.sh --quick failed (an operation failed or an oracle was violated)" >&2
    exit 1
fi
if [[ "$first" != "$second" ]]; then
    echo "check: two benchmark runs disagree on virtual time" >&2
    diff <(echo "$first") <(echo "$second") >&2 || true
    exit 1
fi

if [[ "${CHECK_DEEP:-0}" == "1" ]]; then
    echo "== deep tier: file-system crash sweeps (torn tails, every-image re-crash; patch_chain every-image) =="
    CCNVME_ENUM_DEEP=1 cargo test -q --release -p ccnvme-crashtest --test enumerate deep_
    echo "== deep tier: fabric TCP soak (real sockets, reconnect mid-commit) =="
    CCNVME_TCP_SOAK=1 cargo test -q --release -p ccnvme-fabric --test tcp
    echo "== deep tier: loom model checking =="
    # The loom feature swaps ccnvme-obs onto the model-checked
    # primitives; only loom_* tests are meaningful under it.
    cargo test -q -p ccnvme-obs --features loom --lib loom_
    # DetectableCas interleavings: owner evidence is durable before the
    # overwritten value becomes visible, under every schedule.
    cargo test -q -p ccnvme-ploc --features loom --lib loom_
    # The runtime's MPSC channel and rwlock, each written once over
    # RtMutex + RtCondvar, on the loom-backed Os arm: no lost wakeup, no
    # lost message, no reader beside the writer under every interleaving.
    cargo test -q -p ccnvme-runtime --features loom --lib loom_
    # A BioWaiter's completion word: two completions, one failing, race
    # a landed() poller and a wait()er — no lost wakeup, never landed
    # before the last completion or after a failure.
    cargo test -q -p ccnvme-block --features loom --lib loom_
    echo "== deep tier: miri =="
    if rustup component list 2>/dev/null | grep -q "^miri.*(installed)"; then
        # Of ccnvme-sim only the tests that boot no `Sim`: every other
        # one crosses `fiber::switch`, a `naked_asm!` body miri cannot
        # execute. These four cover `SimMutex`'s `UnsafeCell` and state
        # word on the path a bare thread takes, and the borrow of the
        # kernel's state.
        cargo miri test -q -p ccnvme-sim --lib -- sync::tests::bare_mutex_ kernel::tests::bare_state_
        cargo miri test -q -p ccnvme-obs
        # The OS-backed runtime tests (`os_*`) cross no fiber switch and
        # cover RtRwLock's UnsafeCell, the runtime crate's one `unsafe`.
        cargo miri test -q -p ccnvme-runtime os_
    else
        echo "miri not installed; skipping (rustup component add miri)"
    fi
fi
