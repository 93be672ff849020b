#!/usr/bin/env bash
# The repo's benchmark, one command: build, run, check every delivered
# stream against an oracle, print every metric by name with its unit.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --smoke     R = 2, under 20 s, output not comparable
#   benchmark/run.sh --aa        six full runs back to back, A/A table
#
# Without --workload all four workloads run in turn. See README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Path dependencies outside a workspace are compiled with absolute
# paths, which end up in panic-location strings; remapping the checkout
# root keeps the binary the same from any checkout.
export RUSTFLAGS="${RUSTFLAGS:-} --remap-path-prefix=$root=."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ktpm-benchmark"
mkdir -p benchmark/out

aa=0
args=()
for a in "$@"; do
    if [ "$a" = "--aa" ]; then aa=1; else args+=("$a"); fi
done

if [ "$aa" = 0 ]; then
    exec "$bin" ${args[@]+"${args[@]}"}
fi

runs=()
for i in 1 2 3 4 5 6; do
    echo "== A/A run $i of 6 =="
    "$bin" ${args[@]+"${args[@]}"} --tsv "benchmark/out/aa-$i.tsv" | grep -v '^{'
    runs+=("benchmark/out/aa-$i.tsv")
done
exec "$bin" --aa-compare "${runs[@]}"
