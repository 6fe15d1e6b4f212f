#!/bin/sh
# Runs one set of the benchmark from the repository root: every workload
# untraced on RUNS consecutive seeds, then once traced, appending each
# run's standard output to OUT. Two sets compare with
#
#   cargo run --release --offline --quiet --manifest-path noc_benchmark/Cargo.toml -- --compare A B
#
# usage: noc_benchmark/run_set.sh OUT [FIRST_SEED] [RUNS] [SECONDS]
set -eu
out=$1
first=${2:-1}
runs=${3:-10}
seconds=${4:-15}
bench="cargo run --release --offline --quiet --manifest-path noc_benchmark/Cargo.toml --"
: > "$out"
for workload in flood64_clean flood128_faulty flood128_faulty_s2 \
    sparse128_trickle checkpoint_cycle paper_suite; do
    seed=$first
    while [ "$seed" -lt $((first + runs)) ]; do
        $bench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >> "$out"
        seed=$((seed + 1))
    done
    $bench --workload "$workload" --seed "$first" --seconds "$seconds" --trace 1 >> "$out"
done
