#!/usr/bin/env bash
# Regenerates every paper table and figure at this commit (EXPERIMENTS.md
# is written from this output). A figure is a scenario file: `unison-run`
# executes each row's real run and, where the file has a `[model]` table,
# prints the modelled record after it. Two figures the dialect cannot state
# stay binaries (fig12b, fig13's heat map), and Fig. 10d's topology changes
# are closures, so it is the `reconfigurable_dcn` example.
#
#   scripts/run_figures.sh            everything
#   scripts/run_figures.sh fig01 ...  only the named scenario stems
set -euo pipefail
cd "$(dirname "$0")/.."

files=()
for name in "$@"; do
    [[ "$name" != -* && -f "scenarios/$name.toml" ]] || {
        echo "run_figures.sh: no scenarios/$name.toml (arguments are scenario stems)" >&2
        exit 2
    }
    files+=("scenarios/$name.toml")
done
all=$(( ${#files[@]} == 0 ))
(( all )) && files=(scenarios/fig*.toml scenarios/table*.toml scenarios/ablation*.toml)

cargo build --release -p unison-bench
(( all )) && cargo build --release --example reconfigurable_dcn

banner() {
    printf '\n================================================================\n>> %s\n' "$*"
    echo "================================================================"
}
echo "commit $(git rev-parse --short HEAD 2>/dev/null || echo unknown), nproc $(nproc)"
for f in "${files[@]}"; do
    banner "unison-run $f"
    ./target/release/unison-run "$f"
done
if (( all )); then
    for bin in fig12b fig13; do
        banner "$bin"
        "./target/release/$bin"
    done
    banner "example reconfigurable_dcn (Fig. 10d)"
    ./target/release/examples/reconfigurable_dcn
fi
