#!/usr/bin/env bash
# Resident-memory timeline of one `unison-benchmark --one` input. Builds
# the benchmark package (release, into benchmark/target) unless BIN names a
# prebuilt `unison-benchmark`, runs the input once, samples the child's
# VmRSS from /proc every interval_ms milliseconds (default 5) and prints
# the timeline in MB, then the sampled maximum, where in the run it fell,
# and the VmHWM the run reports (what the benchmark's `peak_rss_mb` reads).
# VmHWM alone cannot tell a burst that is released from memory that is
# kept: a timeline that still rises at its last sample is retention.
# Needs cargo; nothing is downloaded. Not a CI step.
#
#   scripts/rss.sh <input.toml> [interval_ms=5]
#   BIN=<unison-benchmark> scripts/rss.sh <input.toml> [interval_ms=5]
#
# An input is what `benchmark/run.sh generate <workload> --seed N` prints;
# for one thread edit `threads` in its [run] table, for the sequential
# kernel set `kernel = "sequential"` and delete the `threads` line.
set -euo pipefail

usage() {
    echo "usage: scripts/rss.sh <input.toml> [interval_ms=5]" >&2
    exit 2
}
(( $# == 1 || $# == 2 )) || usage
input=$1
interval_ms=${2:-5}
[[ -f $input && $interval_ms =~ ^[1-9][0-9]*$ ]] || usage

root=$(cd "$(dirname "$0")/.." && pwd)
bin=${BIN:-}
if [[ -z $bin ]]; then
    cargo build --quiet --release --offline --manifest-path "$root/benchmark/Cargo.toml"
    bin=$root/benchmark/target/release/unison-benchmark
fi
[[ -x $bin ]] || { echo "scripts/rss.sh: $bin is not executable" >&2; exit 2; }

out=$(mktemp)
samples=$(mktemp)
trap 'rm -f "$out" "$samples"' EXIT
now_us() { echo "${EPOCHREALTIME/./}"; }
pause=$(awk -v ms="$interval_ms" 'BEGIN { printf "%.3f", ms / 1000 }')
"$bin" --one < "$input" > "$out" &
pid=$!
start=$(now_us)
# Builtins only between samples, so the interval is mostly the pause. A
# child that has exited (a zombie until `wait`) has no VmRSS line.
while true; do
    kb=""
    {
        while read -r key value _; do
            if [[ $key == VmRSS: ]]; then
                kb=$value
                break
            fi
        done < "/proc/$pid/status"
    } 2> /dev/null || true
    [[ -n $kb ]] || break
    echo "$(( ($(now_us) - start) / 1000 )) $kb" >> "$samples"
    sleep "$pause"
done
wait "$pid"

hwm=$(sed -nE 's/.*"vm_hwm_kb":([0-9]+).*/\1/p' "$out")
echo "input $input, one sample every $interval_ms ms"
printf '%8s  %8s\n' t_ms rss_mb
awk '{ printf "%8d  %8.1f\n", $1, $2 / 1024 }' "$samples"
awk -v hwm="${hwm:-0}" '
    { t[NR] = $1; kb[NR] = $2; if ($2 > max) { max = $2; at = NR } }
    END {
        if (NR == 0) { print "no sample: the run ended before the first one"; exit }
        printf "samples %d; max %.1f MB at %d ms (sample %d of %d); last %.1f MB at %d ms\n",
            NR, max / 1024, t[at], at, NR, kb[NR] / 1024, t[NR]
        printf "VmHWM %.1f MB\n", hwm / 1024
    }' "$samples"
