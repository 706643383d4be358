#!/usr/bin/env bash
# Sampling profile of one `unison-benchmark --one` input (EXPERIMENTS.md's
# profile tables are this output). Builds the benchmark package with debug
# info into target/profile, builds scripts/samp.c (a SIGALRM sampler, 100 us
# of wall time a sample) with the system cc, runs the input N times under
# it and prints the samples' shares outside the executable by shared object
# (libm.so.6, libc.so.6, [vdso]) and, for each object `ldd` finds, by the
# nearest exported symbol at or below the sample (`nm -D`: a sample in an
# unexported function, such as glibc's memmove variants, counts under the
# exported symbol before it), then inside the executable by out-of-line
# function, by inline chain, and by innermost repository file:line, file and
# crate. Needs cargo, cc, addr2line, nm, ldd and a quiet machine; nothing is
# downloaded. Not a CI step.
#
#   scripts/profile.sh <input.toml> [runs=3] [rows=25]
#
# An input is what `benchmark/run.sh generate <workload> --seed N` prints;
# for one thread edit `threads` in its [run] table, for the sequential
# kernel set `kernel = "sequential"` and delete the `threads` line.
set -euo pipefail

if (( $# < 1 || $# > 3 )) || [[ ! -f "$1" ]]; then
    echo "usage: scripts/profile.sh <input.toml> [runs=3] [rows=25]" >&2
    exit 2
fi
input=$1
runs=${2:-3}
rows=${3:-25}
root=$(cd "$(dirname "$0")/.." && pwd)
work=$root/target/profile
mkdir -p "$work"

CARGO_PROFILE_RELEASE_DEBUG=true cargo build --quiet --release --offline \
    --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$work"
cc -O2 -shared -fPIC -o "$work/samp.so" "$root/scripts/samp.c"
bin=$work/release/unison-benchmark

: > "$work/samples"
for (( i = 1; i <= runs; i++ )); do
    SAMP_OUT=$work/samples LD_PRELOAD=$work/samp.so "$bin" --one < "$input" |
        sed -E 's/.*"digest":"([0-9a-f]+)".*"name":"run","start_ns":([0-9]+),"end_ns":([0-9]+).*/\1 \2 \3/' |
        awk -v i="$i" '{ printf "run %d: digest %s, run span %.3f s\n", i, $1, ($3 - $2) / 1e9 }'
done

# One line per distinct address, "<count> <offset>" inside the executable and
# "<count> 0 <object> <offset in object>" outside it.
sort "$work/samples" | uniq -c | awk '{ print $1, $2, $3, $4 }' > "$work/counts"
total=$(wc -l < "$work/samples")
awk -v total="$total" -v input="$input" -v runs="$runs" '
    $2 == "0" { outside += $1 }
    END {
        printf "input %s, %d run(s), %d samples, %.2f %% outside the executable\n",
            input, runs, total, 100 * outside / total
    }' "$work/counts"
echo
echo "== outside the executable, by object (% of all $total samples; a thread in the kernel counts where it entered)"
awk -v total="$total" '
    $2 == "0" { n[$3] += $1 }
    END { for (o in n) printf "%6.2f  %s\n", 100 * n[o] / total, o }
' "$work/counts" | sort -rn

echo
echo "== outside the executable, by object and nearest exported symbol at or below the sample"
echo "   (nm -D; % of all $total samples; an unexported function counts under the exported symbol before it)"
ldd "$bin" | awk '$2 == "=>" && $3 ~ /^\// { print $1, $3 }' | while read -r object path; do
    nm -D --defined-only "$path" 2>/dev/null |
        awk 'NF == 3 && $2 ~ /^[TtWwiI]$/ { sub(/@.*/, "", $3); print $1, $3 }' | sort -u > "$work/syms"
    awk -v object="$object" -v total="$total" -v syms="$work/syms" '
        function hex(s,    i, v) {
            v = 0
            for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
            return v
        }
        BEGIN { while ((getline line < syms) > 0) { split(line, f, " "); k++; addr[k] = hex(f[1]); name[k] = f[2] } }
        $2 == "0" && $3 == object && $4 != "?" {
            a = hex($4); lo = 1; hi = k; best = 0
            while (lo <= hi) {
                mid = int((lo + hi) / 2)
                if (addr[mid] <= a) { best = mid; lo = mid + 1 } else hi = mid - 1
            }
            sum[best ? name[best] : "(below every exported symbol)"] += $1
        }
        END { for (s in sum) printf "%6.2f  %s: %s\n", 100 * sum[s] / total, object, s }
    ' "$work/counts"
done | sort -rn | awk -v rows="$rows" 'NR <= rows'

# addr2line prints, per address, "0x<addr>" and then one (function, file:line)
# pair per frame of the inline chain, innermost first. Fold each address into
# one tab-separated row: count, out-of-line function, chain, and the innermost
# repository frame as file:line, file and crate.
awk '$2 != "0" { print $2 }' "$work/counts" |
    addr2line -e "$bin" -a -f -i -C |
    sed -E 's/::h[0-9a-f]{16}$//; s/ \(discriminator [0-9]+\)$//' |
    awk -v root="$root/" -v counts="$work/counts" '
        function flush_row(    file, crate) {
            if (addr == "") return
            if (repo == "") repo = "(none)"
            file = repo; sub(/:[0-9?]+$/, "", file)
            crate = file; sub(/\/src\/.*$/, "", crate)
            printf "%d\t%s\t%s\t%s\t%s\t%s\n", n[addr], fn, chain, repo, file, crate
        }
        BEGIN { while ((getline line < counts) > 0) { split(line, f, " "); n[f[2]] = f[1] } }
        /^0x/ { flush_row(); addr = $0; sub(/^0x0*/, "", addr); chain = ""; repo = ""; want_fn = 1; next }
        want_fn { fn = $0; chain = (chain == "" ? fn : chain " < " fn); want_fn = 0; next }
        {
            want_fn = 1
            if (repo == "" && index($0, root) == 1) repo = substr($0, length(root) + 1)
        }
        END { flush_row() }
    ' > "$work/rows"

# share <column> <title>: the top rows of one column of $work/rows by samples.
share() {
    echo
    echo "== by $2 (% of all $total samples)"
    awk -F '\t' -v col="$1" -v total="$total" '
        { sum[$col] += $1 }
        END { for (k in sum) printf "%6.2f  %s\n", 100 * sum[k] / total, k }
    ' "$work/rows" | sort -rn | awk -v rows="$rows" 'NR <= rows'
}
share 2 "out-of-line function"
share 3 "inline chain, innermost first"
share 4 "innermost repository file:line"
share 5 "innermost repository file"
share 6 "innermost repository crate (engine: crates/core; model: crates/netsim + crates/stats)"
