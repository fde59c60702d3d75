#!/usr/bin/env bash
# Where host time goes: a sampling profile of `benchmark/` on one
# workload, or of one test binary, by function and by crate.
#
#   scripts/hostprof.sh <workload> [seconds]      (default 15; seed 1)
#   scripts/hostprof.sh --test <package> <test-target> [filter]
#
# Builds the benchmark — unmodified — or the test target (in release,
# run with --test-threads=1 and the optional name filter) into
# target/hostprof with frame pointers and line tables (the release
# profile strips debuginfo unless told otherwise), preloads
# scripts/hostprof.c (SIGPROF at 250 Hz of CPU time, frame-pointer walk,
# fiber stacks included) and prints:
#
#   * flat shares (where the instruction pointer was) and inclusive shares
#     (on the stack at all) per function, resolved with the binary's own
#     symbols (`nm`): code inlined into a function counts as that function;
#   * flat shares per innermost *inlined* function (`addr2line -i`; LLVM's
#     if installed — GNU's names the innermost frame after the symbol),
#     `core` helpers skipped, so the futex lock inlined through `std`'s
#     and `parking_lot`'s `Mutex` into its caller shows as itself;
#   * flat shares per crate — a generic function counts for the crate that
#     wrote it;
#   * who calls a hot spot: for each of the five functions with the most
#     flat samples, its three most frequent call chains (site ← caller ←
#     its caller, each frame named like the flat table) and the share of
#     the site's samples each one holds.
#
# A sample in a shared library is named after the library's exported
# function that holds it (`readelf --dyn-syms`), as "malloc [libc.so.6]",
# or, in a local function the table does not name (malloc's internals,
# memmove's AVX variant), after the nearest exported one below it, as
# "after __default_morecore [libc.so.6]". A sample in
# such a leaf, which has no frame of its own, is charged to its caller,
# read from the top of the stack, as "caller → malloc [libc.so.6]" — the
# frame walk alone skips that caller. Needs cc, nm, readelf,
# (llvm-)addr2line and awk; x86-64 Linux. Not part of scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/hostprof.sh <workload> [seconds] | --test <package> <test-target> [filter]"
if [ "${1:-}" = "--test" ]; then
    package="${2:?$usage}"
    test_target="${3:?$usage}"
    filter="${4:-}"
else
    workload="${1:?$usage}"
    seconds="${2:-15}"
fi
command -v cc > /dev/null || { echo "hostprof: no C compiler (cc) to build the sampler with" >&2; exit 1; }
a2l="$(command -v llvm-addr2line || command -v addr2line)" ||
    { echo "hostprof: no addr2line to resolve inlined code with" >&2; exit 1; }

dir=target/hostprof
mkdir -p "$dir"
cc -O2 -shared -fPIC -o "$dir/hostprof.so" scripts/hostprof.c
# An --offline build rewrites the benchmark's stale lock file; put it back.
lock_keep="$(mktemp)"
cp benchmark/Cargo.lock "$lock_keep"
trap 'cp "$lock_keep" benchmark/Cargo.lock; rm -f "$lock_keep"' EXIT
export CARGO_TARGET_DIR="$dir" RUSTFLAGS="-C force-frame-pointers=yes" \
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_PROFILE_RELEASE_STRIP=none
rm -f "$dir/samples"
if [ -n "${test_target:-}" ]; then
    # The test binary's path is the last "executable" cargo reports.
    bin="$(cargo test --release --offline --quiet --no-run --message-format=json \
        -p "$package" --test "$test_target" |
        grep -o '"executable":"[^"]*"' | tail -n 1 | cut -d'"' -f4)"
    [ -n "$bin" ] || { echo "hostprof: no test binary for $package --test $test_target" >&2; exit 1; }
    HOSTPROF_OUT="$dir/samples" LD_PRELOAD="$PWD/$dir/hostprof.so" \
        "$bin" --test-threads=1 ${filter:+"$filter"} > /dev/null
else
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
    bin="$dir/release/ccnvme-benchmark"
    HOSTPROF_OUT="$dir/samples" LD_PRELOAD="$PWD/$dir/hostprof.so" BENCH_OUT="$dir/out" \
        "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 > /dev/null
fi

nm -n -C --defined-only "$bin" | awk -v bin="$(realpath "$bin")" -v samples="$dir/samples" \
    -v pcs="$dir/inlined.pcs" -v a2l="$a2l" '
function hex(s,    n, i) {
    n = 0
    for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return n
}
function in_bin(pc) { return pc >= bin_lo && pc < bin_hi }
# Loads the exported functions of the shared library at `path` into
# lib_addr / lib_name, ascending by address (readelf prints the address
# zero-padded, so sorting the text sorts the numbers).
function load_lib(path,    cmd, line, g, n) {
    lib_n[path] = 0
    cmd = "readelf --dyn-syms -W \"" path "\" 2> /dev/null | sort -k2,2"
    while ((cmd | getline line) > 0) {
        if (split(line, g, " ") < 8 || (g[4] != "FUNC" && g[4] != "IFUNC") || g[7] == "UND") continue
        n = lib_n[path]++
        lib_addr[path, n] = hex(g[2])
        lib_size[path, n] = g[3] ~ /^0x/ ? hex(substr(g[3], 3)) : g[3] + 0
        sub(/@.*/, "", g[8])
        lib_name[path, n] = g[8]
    }
    close(cmd)
}
# The exported function of mapping `i` that holds `pc`, or "after" the
# nearest one below it when `pc` is past its end (in a local function the
# table does not name); "" if none is below it. A
# library maps its executable segment at that segment file offset, so
# the offset into the file is the address its symbol table uses.
function lib_sym(i, pc,    path, addr, lo, hi, mid) {
    path = map_path[i]
    if (!(path in lib_n)) load_lib(path)
    addr = pc - map_lo[i] + map_off[i]
    lo = 0; hi = lib_n[path] - 1
    if (hi < 0 || lib_addr[path, 0] > addr) return ""
    while (lo < hi) {
        mid = int((lo + hi + 1) / 2)
        if (lib_addr[path, mid] <= addr) lo = mid; else hi = mid - 1
    }
    return (addr < lib_addr[path, lo] + lib_size[path, lo] ? "" : "after ") lib_name[path, lo]
}
# The function `pc` is in: the last symbol at or below it; outside the
# binary, the library function and the mapping name, or the name alone
# (the vdso, anonymous memory).
function resolve(pc,    lo, hi, mid, i, name) {
    if (!in_bin(pc)) {
        for (i = 0; i < nmaps; i++) {
            if (pc < map_lo[i] || pc >= map_hi[i]) continue
            name = map_path[i] ~ /\.so/ ? lib_sym(i, pc) : ""
            return (name == "" ? "" : name " ") "[" map_name[i] "]"
        }
        return "[unmapped]"
    }
    pc -= bin_lo
    lo = 0; hi = nsyms - 1
    while (lo < hi) {
        mid = int((lo + hi + 1) / 2)
        if (sym_addr[mid] <= pc) lo = mid; else hi = mid - 1
    }
    return sym_name[lo]
}
# The crate a function was written in: the first path segment of its
# name, inside `<… as …>` for a trait impl; for a library function, the
# library.
function crate_of(name) {
    if (match(name, /\[[^][]*\]$/)) return substr(name, RSTART)
    gsub(/^[<&*]+(mut |dyn |const )?/, "", name)
    return (name ~ /^[a-z_][a-z0-9_]*::/) ? substr(name, 1, index(name, "::") - 1) : "[no crate]"
}
function report(title, count, top,    cmd, name) {
    printf "\n%s\n", title
    cmd = "sort -rn | head -n " top
    for (name in count) printf "%6.2f%%  %s\n", 100 * count[name] / total, name | cmd
    close(cmd)
}
# The key of `count` with the highest count not in `taken` whose part
# before SUBSEP is `prefix` (any key when `prefix` is empty); ties go to
# the smaller key. Empty when none is left.
function top_key(count, taken, prefix,    k, best) {
    best = ""
    for (k in count) {
        if (k in taken) continue
        if (prefix != "" && substr(k, 1, length(prefix) + 1) != prefix SUBSEP) continue
        if (best == "" || count[k] > count[best] || (count[k] == count[best] && k < best)) best = k
    }
    return best
}
function report_callers(top, per,    i, j, site, key, picked, used) {
    printf "\ncall chains of the top %d flat functions (site ← caller ← its caller)\n", top
    split("", picked); split("", used)
    for (i = 0; i < top && (site = top_key(flat, picked, "")) != ""; i++) {
        picked[site] = 1
        printf "%6.2f%%  %s\n", 100 * flat[site] / total, site
        for (j = 0; j < per && (key = top_key(chains, used, site)) != ""; j++) {
            used[key] = 1
            printf "        %5.1f%% of it%s\n", 100 * chains[key] / flat[site], substr(key, length(site) + 2)
        }
    }
}
BEGIN { nsyms = nmaps = total = bin_lo = 0 }
# The symbol table, on stdin: address, type, demangled name.
$2 ~ /^[tTwW]$/ {
    sym_addr[nsyms] = hex($1)
    sub(/^[0-9a-f]+ . /, "")
    sub(/::h[0-9a-f]+$/, "")
    sym_name[nsyms++] = $0
}
END {
    while ((getline line < samples) > 0) {
        if (line == "maps") { in_maps = 1; continue }
        n = split(line, f, " ")
        if (in_maps) {
            split(f[1], range, "-")
            map_lo[nmaps] = hex(range[1]); map_hi[nmaps] = hex(range[2])
            map_off[nmaps] = hex(f[3])
            map_name[nmaps] = map_path[nmaps] = n >= 6 ? f[6] : "anon"
            if (f[6] == bin) { if (!bin_lo) bin_lo = map_lo[nmaps]; bin_hi = map_hi[nmaps] }
            sub(/.*\//, "", map_name[nmaps]); nmaps++
        } else if (n >= 2) {
            stack[total++] = line
        }
    }
    if (!total || !bin_lo) { print "hostprof: no samples in " samples > "/dev/stderr"; exit 1 }
    for (s = 0; s < total; s++) {
        # Top-of-stack word, instruction pointer, return addresses.
        n = split(stack[s], f, " ")
        split("", seen)
        leaf = resolve(f[2])
        crates[crate_of(leaf)]++
        # Where the inlined table looks the sample up: the instruction
        # pointer, or for a frameless library leaf the call site in its
        # caller; a return address is the instruction after the call.
        site = in_bin(f[2]) ? f[2] : (in_bin(f[1]) ? f[1] - 1 : 0)
        if (!in_bin(f[2]) && site) {
            caller = resolve(site)
            seen[caller] = 1; incl[caller]++
            leaf = caller " → " leaf
            suffix[s] = " → " resolve(f[2])
        }
        flat[leaf]++
        # The two frames above the flat function: its caller and theirs.
        chain = ""
        for (d = 3; d <= 4 && d <= n; d++) chain = chain " ← " resolve(f[d] - 1)
        chains[leaf SUBSEP (chain == "" ? " ← [no frame]" : chain)]++
        if (site) { key[s] = sprintf("%x", site - bin_lo); want[key[s]] = 1 } else inlined[leaf]++
        for (d = 2; d <= n; d++) {
            name = resolve(d == 2 ? f[d] : f[d] - 1)
            if (!(name in seen)) { seen[name] = 1; incl[name]++ }
        }
    }
    # Innermost inlined function per site: addr2line -a -i -f prints the
    # address, then function / file:line pairs from the innermost frame
    # out. The frames in `core` (atomics, pointer reads, integer helpers)
    # are skipped for the first one outside it, named with its source
    # file: `lock [std/src/sys/sync/mutex/futex.rs]`. A site whose only
    # frame outside `core` is the function itself keeps its symbol name.
    for (k in want) print "0x" k > pcs
    close(pcs)
    cmd = a2l " -a -i -f -C -e \"" bin "\" < \"" pcs "\""
    while ((cmd | getline line) > 0) {
        if (line ~ /^0x[0-9a-f]+$/) { sub(/^0x0*/, "", line); at = line; k = 0; continue }
        if (k++ % 2 == 0) { fn = line; continue }
        frames[at]++
        frame_fn[at, frames[at]] = fn
        frame_file[at, frames[at]] = line
    }
    close(cmd)
    for (at in frames) {
        innermost[at] = resolve(hex(at) + bin_lo)
        for (i = 1; i < frames[at]; i++) {
            file = frame_file[at, i]
            if (file ~ /\/library\/core\//) continue
            sub(/:[0-9]+( \(discriminator [0-9]+\))?$/, "", file)
            sub(/^.*\/(library|crates|deps)\//, "", file)
            innermost[at] = frame_fn[at, i] " [" file "]"
            break
        }
    }
    for (s = 0; s < total; s++) if (s in key) inlined[innermost[key[s]] suffix[s]]++
    printf "%d samples (250 Hz of CPU time)\n", total
    report("flat, by function", flat, 30)
    report("inclusive, by function", incl, 30)
    report("flat, by innermost inlined function", inlined, 30)
    report("flat, by crate", crates, 20)
    report_callers(5, 3)
}'
