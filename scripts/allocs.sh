#!/usr/bin/env bash
# Allocation counts of one `unison-benchmark --one` input (EXPERIMENTS.md's
# allocation counters are this output). Builds the benchmark package with
# debug info into target/profile (the build scripts/profile.sh uses), builds
# scripts/allocs.c (an LD_PRELOAD counter over glibc's allocator) with the
# system cc, runs the input once under it and prints the malloc (calloc,
# posix_memalign, aligned_alloc and memalign included), realloc and free
# call counts, the bytes realloc was asked for and the reallocations of at
# least 4 KiB. With --sites it also groups those large reallocations by
# call site: the innermost repository file:line of each call stack
# (backtrace() + `addr2line -i`). Counts are deterministic per binary and
# input, except where threads race to grow a shared buffer. Needs cargo,
# cc and addr2line; nothing is downloaded. Not a CI step.
#
#   scripts/allocs.sh <input.toml> [--sites]
#
# An input is what `benchmark/run.sh generate <workload> --seed N` prints;
# for one thread edit `threads` in its [run] table, for the sequential
# kernel set `kernel = "sequential"` and delete the `threads` line.
set -euo pipefail

if (( $# < 1 || $# > 2 )) || [[ ! -f "$1" ]] || [[ $# == 2 && $2 != --sites ]]; then
    echo "usage: scripts/allocs.sh <input.toml> [--sites]" >&2
    exit 2
fi
input=$1
sites=0
(( $# == 2 )) && sites=1
root=$(cd "$(dirname "$0")/.." && pwd)
work=$root/target/profile
mkdir -p "$work"

CARGO_PROFILE_RELEASE_DEBUG=true cargo build --quiet --release --offline \
    --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$work"
cc -O2 -shared -fPIC -o "$work/allocs.so" "$root/scripts/allocs.c"
bin=$work/release/unison-benchmark

out=$work/allocs.out
: > "$out"
ALLOCS_OUT=$out ALLOCS_SITES=$sites LD_PRELOAD=$work/allocs.so "$bin" --one < "$input" |
    sed -E 's/.*"digest":"([0-9a-f]+)".*"name":"run","start_ns":([0-9]+),"end_ns":([0-9]+).*/\1 \2 \3/' |
    awk '{ printf "digest %s, run span %.3f s\n", $1, ($3 - $2) / 1e9 }'

awk -v input="$input" '
    $1 == "S" {
        printf "input %s\n", input
        printf "malloc   %12d calls\n", $2
        printf "realloc  %12d calls, %.1f MB asked for, %d of >= 4 KiB\n", $3, $4 / 1e6, $5
        printf "free     %12d calls\n", $6
    }' "$out"
(( sites )) || exit 0

# addr2line prints, per address, "0x<addr>" and then one (function,
# file:line) pair per frame of the inline chain, innermost first. Map each
# call address to its innermost repository frame, then give each record
# the first of its frames that has one: the repository code that asked for
# the reallocation.
awk '$1 == "R" { for (i = 3; i <= NF; i++) print $i }' "$out" | sort -u > "$work/allocs.addrs"
addr2line -e "$bin" -a -f -i -C < "$work/allocs.addrs" |
    sed -E 's/::h[0-9a-f]{16}$//; s/ \(discriminator [0-9]+\)$//' |
    awk -v root="$root/" '
        function flush() { if (addr != "" && repo != "") print addr, repo, fn }
        /^0x/ { flush(); addr = $0; sub(/^0x0*/, "", addr); repo = ""; want_fn = 1; next }
        want_fn { last_fn = $0; want_fn = 0; next }
        {
            want_fn = 1
            if (repo == "" && index($0, root) == 1) { repo = substr($0, length(root) + 1); fn = last_fn }
        }
        END { flush() }
    ' > "$work/allocs.sites"
echo
echo "== reallocations of >= 4 KiB by innermost repository call site (count, MB asked for)"
awk '
    FNR == NR { site[$1] = $2 "  " substr($0, index($0, $3)); next }
    $1 == "R" {
        where = "(no repository frame)"
        for (i = 3; i <= NF; i++) {
            if ($i in site) { where = site[$i]; break }
        }
        n[where]++; mb[where] += $2 / 1e6
    }
    END { for (w in n) printf "%8d  %10.1f  %s\n", n[w], mb[w], w }
' "$work/allocs.sites" "$out" | sort -rn
