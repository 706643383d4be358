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
# benchmark's own (`stats.rs`: rank p * (n + 1), interpolated).
#
# The run times are also read as the benchmark reports them, relative to
# the machine's speed: before each pair, side A's `--reference` runs the
# benchmark's fixed reference computation (`benchmark/src/reference.rs`)
# once in a fresh process, and both runs of the pair are scaled by
# 0.23 s / that reference's seconds (0.23 s is the reference's nominal
# time, `reference::NOMINAL_S`). The normalized quartiles and a second
# time verdict follow the raw ones; win counts are the same in both, as
# one reference scales both sides of a pair. The benchmark scales by the
# median reference of an invocation; one per pair follows a drifting
# machine more closely.
#
# Each run's cpu/wall ratio (`run_cpu_s` over the `run` span) shows
# whether it had its CPUs to itself: about 1 for one thread, 1.7-2.0 for
# two threads on two CPUs, about 1 for two threads time-sliced on one. A
# one-thread run whose wall time exceeds its CPU time by more than 10 %
# waited for a CPU, and is flagged `!` (CPU time counts 10 ms clock ticks,
# so the test allows it one tick). The medians of each side's ratios are
# printed after the pairs.
#
# Exits 1 if any run's digest, event, round, fused-round, completed-flow,
# drop or retransmit count differs from A's first run — a faster run of
# another simulation proves nothing. Needs cargo and git; nothing is downloaded.
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

# One run: "<run span s> <VmHWM kB> <run CPU s> <threads> <identity>",
# identity being the digest and the counts that must not move.
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
            printf "%.6f %s %s %s digest=%s events=%s rounds=%s fused=%s completed=%s drops=%s retx=%s\n",
                (f[6] - f[4]) / 1e9, field("vm_hwm_kb"), field("run_cpu_s"), field("threads"),
                field("digest"), field("events"),
                field("rounds"), field("fused_rounds"), field("completed_flows"),
                field("drops"), field("retx")
        }'
}

echo "$name_a: $bin_a"
echo "$name_b: $bin_b"
echo "input:  $input, $pairs pairs"
printf '%4s  %-6s  %7s  %10s  %10s  %8s  %12s  %12s\n' pair first ref_s "${name_a}_s" "${name_b}_s" \
    "$name_b" "${name_a}_cpu/w" "${name_b}_cpu/w"
results=$(mktemp)
trap 'rm -f "$results"' EXIT
reference=""
mismatch=0
# cpu/wall of a run, with a `!` when a one-thread run waited for a CPU.
ratio() { # ratio <wall s> <cpu s> <threads>
    awk -v w="$1" -v c="$2" -v n="$3" 'BEGIN {
        printf "%.2f%s", c / w, (n == 1 && w > 1.1 * (c + 0.01)) ? "!" : ""
    }'
}

for (( i = 1; i <= pairs; i++ )); do
    ref=$("$bin_a" --reference)
    if (( i % 2 )); then
        first=$name_a
        a=$(run_one "$bin_a" "$input")
        b=$(run_one "$bin_b" "$input")
    else
        first=$name_b
        b=$(run_one "$bin_b" "$input")
        a=$(run_one "$bin_a" "$input")
    fi
    read -r ta ka ca threads_a ida <<< "$a"
    read -r tb kb cb threads_b idb <<< "$b"
    [[ -n $reference ]] || reference=$ida
    for id in "$ida" "$idb"; do
        if [[ $id != "$reference" ]]; then
            echo "pair $i: identity differs: $id ($name_a's first run: $reference)" >&2
            mismatch=1
        fi
    done
    echo "$ta $ka $tb $kb $ref $ca $cb" >> "$results"
    printf '%4d  %-6s  %7.4f  %10.4f  %10.4f  %+7.1f%%  %12s  %12s\n' "$i" "$first" "$ref" "$ta" "$tb" \
        "$(awk -v a="$ta" -v b="$tb" 'BEGIN { print 100 * (b - a) / a }')" \
        "$(ratio "$ta" "$ca" "$threads_a")" "$(ratio "$tb" "$cb" "$threads_b")"
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
        # Normalized to the reference nominal 0.23 s (reference::NOMINAL_S).
        norm_a[NR] = $1 * 0.23 / $5; norm_b[NR] = $3 * 0.23 / $5
        ra[NR] = $6 / $1; rb[NR] = $7 / $3
        wins += ($3 < $1); lower += ($4 < $2)
    }
    END {
        n = NR
        sort(ta, n); sort(tb, n); sort(ka, n); sort(kb, n)
        sort(norm_a, n); sort(norm_b, n); sort(ra, n); sort(rb, n)
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
        na1 = quantile(norm_a, n, 0.25); na2 = quantile(norm_a, n, 0.5); na3 = quantile(norm_a, n, 0.75)
        nb1 = quantile(norm_b, n, 0.25); nb2 = quantile(norm_b, n, 0.5); nb3 = quantile(norm_b, n, 0.75)
        printf "normalized: %s run s q1/median/q3 %.4f/%.4f/%.4f, %s %.4f/%.4f/%.4f\n",
            na, na1, na2, na3, nb, nb1, nb2, nb3
        printf "normalized: %s median %+.1f%%, gap %.4f s vs %s IQR %.4f s\n",
            nb, 100 * (nb2 - na2) / na2, na2 - nb2, na, na3 - na1
        norm_met = (10 * wins >= 9 * n) && (na2 - nb2 > na3 - na1)
        printf "gain rule on normalized time (>= 9/10 pairs and gap > %s IQR): %s\n", na, norm_met ? "met" : "not met"
        printf "cpu/wall median %s %.2f, %s %.2f\n", na, quantile(ra, n, 0.5), nb, quantile(rb, n, 0.5)
    }' "$results"
if (( mismatch )); then
    echo "the two sides did not run the same simulation (identity differs above)" >&2
fi
exit "$mismatch"
