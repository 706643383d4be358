#!/usr/bin/env bash
# Interleaved A/B pairs of `unison-benchmark --one` runs: the repository's
# rule for claiming a gain as one command. Runs side A and side B PAIRS
# times each, alternating which side runs first, and prints every pair,
# each side's q1/median/q3 of the `run` span (seconds) and of peak RSS (MB,
# `VmHWM`, what the benchmark's `peak_rss_mb` reads), B's win count in
# both, and whether the gain rule holds, once on time and once on peak
# RSS: B is lower in at least 9 of 10 pairs (ties count for neither side)
# and the medians differ by more than A's interquartile range of that
# metric. Quartiles are the
# benchmark's own (`stats.rs`: rank p * (n + 1), interpolated). Exits 1 if
# any run's digest, event, round, fused-round, completed-flow, drop or
# retransmit count differs from A's first run — a faster run of another
# simulation proves nothing. Needs cargo and git; nothing is downloaded.
# Timings want a quiet machine; not a CI step.
#
#   scripts/ab.sh --rev <parent-revision> <input.toml> [pairs=10]
#   scripts/ab.sh --bins <parent-binary> <change-binary> <input.toml> [pairs=10]
#
# Both compare two builds on one input, A being the parent and B the
# change. With --rev the parent is built from a detached `git worktree` of
# the revision under target/ab/<commit> (kept for the next call; remove it
# with `git worktree remove target/ab/<commit>`) and the change is the
# working tree's benchmark package (benchmark/target). With --bins both
# sides are prebuilt `unison-benchmark` executables — e.g. a build of the
# working tree with a one-line patch, to try a kernel alternative the
# configuration no longer offers. An input is what `benchmark/run.sh
# generate <workload> --seed N` prints; for one thread edit `threads` in
# its [run] table, for the sequential kernel set `kernel = "sequential"`
# and delete the `threads` line.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh --rev <parent-revision> <input.toml> [pairs=10]" >&2
    echo "       scripts/ab.sh --bins <parent-binary> <change-binary> <input.toml> [pairs=10]" >&2
    exit 2
}

root=$(cd "$(dirname "$0")/.." && pwd)
build() { # build <manifest> <target-dir>
    cargo build --quiet --release --offline --manifest-path "$1" --target-dir "$2"
}
name_a=parent
name_b=change
case ${1:-} in
    --rev)
        (( $# == 3 || $# == 4 )) || usage
        input=$3
        pairs=${4:-10}
        [[ -f $input ]] || usage
        commit=$(git -C "$root" rev-parse --verify "$2^{commit}")
        tree=$root/target/ab/$commit
        if [[ ! -d $tree ]]; then
            git -C "$root" worktree add --quiet --detach "$tree" "$commit"
        fi
        build "$tree/benchmark/Cargo.toml" "$tree/benchmark/target"
        build "$root/benchmark/Cargo.toml" "$root/benchmark/target"
        bin_a=$tree/benchmark/target/release/unison-benchmark
        bin_b=$root/benchmark/target/release/unison-benchmark
        ;;
    --bins)
        (( $# == 4 || $# == 5 )) || usage
        bin_a=$2
        bin_b=$3
        input=$4
        pairs=${5:-10}
        [[ -x $bin_a && -x $bin_b && -f $input ]] || usage
        ;;
    *) usage ;;
esac
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

# One run: "<run span s> <VmHWM kB> <identity>", identity being the digest
# and the counts that must not move.
run_one() { # run_one <binary> <input>
    "$1" --one < "$2" | awk '
        function field(key,    s) {
            if (!match($0, "\"" key "\":\"?[0-9a-f.]+")) return "?"
            s = substr($0, RSTART, RLENGTH)
            sub(/^"[^"]*":"?/, "", s)
            return s
        }
        {
            match($0, /"name":"run","start_ns":[0-9]+,"end_ns":[0-9]+/)
            split(substr($0, RSTART, RLENGTH), f, /[:,]/)
            printf "%.6f %s digest=%s events=%s rounds=%s fused=%s completed=%s drops=%s retx=%s\n",
                (f[6] - f[4]) / 1e9, field("vm_hwm_kb"), field("digest"), field("events"),
                field("rounds"), field("fused_rounds"), field("completed_flows"),
                field("drops"), field("retx")
        }'
}

echo "$name_a: $bin_a"
echo "$name_b: $bin_b"
echo "input:  $input, $pairs pairs"
printf '%4s  %-6s  %10s  %10s  %8s\n' pair first "${name_a}_s" "${name_b}_s" "$name_b"
results=$(mktemp)
trap 'rm -f "$results"' EXIT
reference=""
mismatch=0
for (( i = 1; i <= pairs; i++ )); do
    if (( i % 2 )); then
        first=$name_a
        a=$(run_one "$bin_a" "$input")
        b=$(run_one "$bin_b" "$input")
    else
        first=$name_b
        b=$(run_one "$bin_b" "$input")
        a=$(run_one "$bin_a" "$input")
    fi
    read -r ta ka ida <<< "$a"
    read -r tb kb idb <<< "$b"
    [[ -n $reference ]] || reference=$ida
    for id in "$ida" "$idb"; do
        if [[ $id != "$reference" ]]; then
            echo "pair $i: identity differs: $id ($name_a's first run: $reference)" >&2
            mismatch=1
        fi
    done
    echo "$ta $ka $tb $kb" >> "$results"
    printf '%4d  %-6s  %10.4f  %10.4f  %+7.1f%%\n' "$i" "$first" "$ta" "$tb" \
        "$(awk -v a="$ta" -v b="$tb" 'BEGIN { print 100 * (b - a) / a }')"
done
echo "identity: $reference"

awk -v na="$name_a" -v nb="$name_b" '
    function quantile(v, n, p,    rank, lo, hi, frac) {
        rank = p * (n + 1)
        lo = int(rank); if (lo < 1) lo = 1; if (lo > n) lo = n
        hi = lo + 1; if (hi > n) hi = n
        frac = rank - lo; if (frac < 0) frac = 0; if (frac > 1) frac = 1
        return v[lo] + (v[hi] - v[lo]) * frac
    }
    function sort(v, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    }
    {
        ta[NR] = $1; ka[NR] = $2; tb[NR] = $3; kb[NR] = $4
        wins += ($3 < $1); lower += ($4 < $2)
    }
    END {
        n = NR
        sort(ta, n); sort(tb, n); sort(ka, n); sort(kb, n)
        qa1 = quantile(ta, n, 0.25); qa2 = quantile(ta, n, 0.5); qa3 = quantile(ta, n, 0.75)
        qb1 = quantile(tb, n, 0.25); qb2 = quantile(tb, n, 0.5); qb3 = quantile(tb, n, 0.75)
        ka1 = quantile(ka, n, 0.25); ma = quantile(ka, n, 0.5); ka3 = quantile(ka, n, 0.75)
        kb1 = quantile(kb, n, 0.25); mb = quantile(kb, n, 0.5); kb3 = quantile(kb, n, 0.75)
        printf "%s run s q1/median/q3 %.4f/%.4f/%.4f, peak RSS MB q1/median/q3 %.1f/%.1f/%.1f\n",
            na, qa1, qa2, qa3, ka1 / 1024, ma / 1024, ka3 / 1024
        printf "%s run s q1/median/q3 %.4f/%.4f/%.4f, peak RSS MB q1/median/q3 %.1f/%.1f/%.1f\n",
            nb, qb1, qb2, qb3, kb1 / 1024, mb / 1024, kb3 / 1024
        printf "%s faster in %d/%d pairs; median %+.1f%%, gap %.4f s vs %s IQR %.4f s\n",
            nb, wins, n, 100 * (qb2 - qa2) / qa2, qa2 - qb2, na, qa3 - qa1
        printf "%s peaked lower in %d/%d pairs; median peak RSS %+.1f%%, gap %.2f MB vs %s IQR %.2f MB\n",
            nb, lower, n, 100 * (mb - ma) / ma, (ma - mb) / 1024, na, (ka3 - ka1) / 1024
        time_met = (10 * wins >= 9 * n) && (qa2 - qb2 > qa3 - qa1)
        rss_met = (10 * lower >= 9 * n) && (ma - mb > ka3 - ka1)
        printf "gain rule on time (>= 9/10 pairs and gap > %s IQR): %s\n", na, time_met ? "met" : "not met"
        printf "gain rule on peak RSS (>= 9/10 pairs and gap > %s IQR): %s\n", na, rss_met ? "met" : "not met"
    }' "$results"
if (( mismatch )); then
    echo "the two sides did not run the same simulation (identity differs above)" >&2
fi
exit "$mismatch"
