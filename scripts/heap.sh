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
# their bytes, largest bytes first. The tracker serializes every allocator
# call under one lock: read the heap from it, not the run's time. Needs
# cargo and cc; nothing is downloaded. Not a CI step.
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
: > "$out"
HEAP_OUT=$out LD_PRELOAD=$work/heap.so "$bin" --one < "$input" |
    sed -E 's/.*"digest":"([0-9a-f]+)".*"vm_hwm_kb":([0-9]+).*/\1 \2/' |
    awk '{ printf "digest %s, VmHWM %.1f MB (the tracker adds 14-16 MB of tables)\n", $1, $2 / 1024 }'

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
