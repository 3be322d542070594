#!/bin/sh
# Runs every benchmark workload on one seed: the end-to-end run, then the
# traced run. Run from the repository root:
#
#   sh perfbench/run_all.sh [SEED] [SECONDS]
#
# Each run prints its context and metric rows and, last, its result line.
set -e
seed=${1:-0x20131023}
seconds=${2:-35}
for workload in population sync_fleet paper; do
    for trace in 0 1; do
        cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
