#!/usr/bin/env bash
# What the live heap of one `unison-benchmark --one` input holds at its
# peak. Builds the benchmark package into target/profile (the build
# scripts/allocs.sh and scripts/profile.sh use) unless BIN names a prebuilt
# `unison-benchmark`, builds scripts/heap.c (an LD_PRELOAD tracker over
# glibc's allocator) with the system cc, runs the input once under it and
# prints the peak of the live heap — the bytes the program had asked for
# and not yet freed, not the allocator's rounding or its free memory, so
# it is at most the run's VmHWM — and its breakdown by requested size:
# one row per size, with the blocks of that size live at the peak and
# their bytes, largest bytes first. It also names the stage of the run
# (the child's top-level spans: setup, run, collect, digest, teardown) in
# which the live heap peaked and in which the resident set last rose (its
# peak, VmHWM — with the tracker's tables in it, and memory the allocator
# kept after a free, which is why the two stages can differ): the tracker
# timestamps both, its own loading and the process's exit, and the spans,
# which count from an origin between those two, place them; an instant too
# close to a stage's edge to tell prints both stages. The tracker
# serializes every allocator call under one lock: read the heap from it,
# not the run's time. Needs cargo and cc; nothing is downloaded. Not run
# in CI (CI only parses it).
#
#   scripts/heap.sh <input.toml> [rows=20]
#   BIN=<unison-benchmark> scripts/heap.sh <input.toml> [rows=20]
#
# An input is what `benchmark/run.sh generate <workload> --seed N` prints;
# for one thread edit `threads` in its [run] table, for the sequential
# kernel set `kernel = "sequential"` and delete the `threads` line.
set -euo pipefail

usage() {
    echo "usage: scripts/heap.sh <input.toml> [rows=20]" >&2
    exit 2
}
(( $# == 1 || $# == 2 )) || usage
input=$1
rows=${2:-20}
[[ -f $input && $rows =~ ^[1-9][0-9]*$ ]] || usage

root=$(cd "$(dirname "$0")/.." && pwd)
work=$root/target/profile
mkdir -p "$work"
bin=${BIN:-}
if [[ -z $bin ]]; then
    CARGO_PROFILE_RELEASE_DEBUG=true cargo build --quiet --release --offline \
        --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$work"
    bin=$work/release/unison-benchmark
fi
[[ -x $bin ]] || { echo "scripts/heap.sh: $bin is not executable" >&2; exit 2; }
cc -O2 -shared -fPIC -o "$work/heap.so" "$root/scripts/heap.c"

out=$work/heap.out
json=$work/heap.json
: > "$out"
HEAP_OUT=$out LD_PRELOAD=$work/heap.so "$bin" --one < "$input" > "$json"
sed -E 's/.*"digest":"([0-9a-f]+)".*"vm_hwm_kb":([0-9]+).*/\1 \2/' "$json" |
    awk '{ printf "digest %s, VmHWM %.1f MB (the tracker adds 14-16 MB of tables)\n", $1, $2 / 1024 }'

# The top-level spans as `S <name> <start_ns> <end_ns>` lines, then the
# tracker's clock lines. The spans count from an origin the tracker did not
# see, after it loaded and before the process exited: an instant t on its
# clock lies between t - (exit - last span end) and t - loaded on theirs.
{
    grep -o '{"name":"[^"]*","start_ns":[0-9]*,"end_ns":[0-9]*,"parent":null}' "$json" |
        sed -E 's/.*"name":"([^"]*)","start_ns":([0-9]+),"end_ns":([0-9]+).*/S \1 \2 \3/'
    grep '^[TR] ' "$out"
} | awk '
    $1 == "S" { name[++n] = $2; start[n] = $3; stop[n] = $4; if ($4 > last) last = $4 }
    $1 == "T" { loaded = $2; peak = $3; exited = $4 }
    $1 == "R" { rss_kb = $2; rss_after = $3; rss_by = $4 }
    function stage(t,    i) {
        for (i = 1; i <= n; i++) {
            if (t < start[i])
                return i == 1 ? "before " name[1] : "between " name[i - 1] " and " name[i]
            if (t <= stop[i])
                return name[i]
        }
        return "after " name[n]
    }
    # Prints the stage of an event the tracker saw between `after` and `by`.
    function place(what, after, by,    lo, hi) {
        lo = after - (exited - last)
        hi = by - loaded
        if (stage(lo) == stage(hi))
            printf "%s in stage %s (%.1f-%.1f ms)\n", what, stage(lo), lo / 1e6, hi / 1e6
        else
            printf "%s in stage %s or %s (%.1f-%.1f ms)\n", what, stage(lo), stage(hi),
                lo / 1e6, hi / 1e6
    }
    END {
        if (!n || !exited) {
            print "stages unknown: no spans or no tracker clock"
            exit
        }
        place("live heap peaked", peak, peak)
        place(sprintf("resident set peaked at %.1f MB,", rss_kb / 1024), rss_after, rss_by)
    }'

awk -v input="$input" -v rows="$rows" '
    $1 == "P" { peak = $2; blocks = $3; untracked = $4 }
    $1 == "H" { size[++n] = $2; count[n] = $3; bytes[n] = $4 }
    END {
        printf "input %s\n", input
        printf "live heap peak %.2f MB in %d blocks (%d blocks untracked)\n",
            peak / 1e6, blocks, untracked
        # Largest bytes first (insertion sort: a few thousand sizes).
        for (i = 2; i <= n; i++) {
            s = size[i]; c = count[i]; b = bytes[i]
            for (j = i - 1; j >= 1 && bytes[j] < b; j--) {
                size[j + 1] = size[j]; count[j + 1] = count[j]; bytes[j + 1] = bytes[j]
            }
            size[j + 1] = s; count[j + 1] = c; bytes[j + 1] = b
        }
        printf "%12s  %10s  %10s  %6s\n", "size_bytes", "count", "mb", "share"
        for (i = 1; i <= n && i <= rows; i++) {
            printf "%12d  %10d  %10.2f  %5.1f%%\n", size[i], count[i], bytes[i] / 1e6,
                100 * bytes[i] / peak
            shown += bytes[i]; shown_count += count[i]
        }
        if (n > rows)
            printf "%12s  %10d  %10.2f  %5.1f%%  (%d more sizes)\n", "rest",
                blocks - shown_count, (peak - shown) / 1e6, 100 * (peak - shown) / peak, n - rows
    }' "$out"
