#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--check 0|1]
#   benchmark/run.sh --agree [--workload NAME] [--seed N] [--seconds S]
#
# Builds the benchmark (release, offline) and runs each workload in a
# process of its own: end to end (`e2e`), or with `--trace` under spans
# with the layer probes (`layers`). Every metric is printed as
# `name unit value n=<samples>`; the last line of a run is its result
# as one JSON object, and artifacts land in benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=e2e
workload=
expect=
for arg in "$@"; do
    case "$expect" in
        workload) workload=$arg ;;
        trace) [ "$arg" != 0 ] || bin=e2e ;;
    esac
    expect=
    case "$arg" in
        --workload) expect=workload ;;
        --trace) expect=trace; bin=layers ;;
    esac
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml --bin "$bin" >&2
exe="${CARGO_TARGET_DIR:-benchmark/target}/release/$bin"

SON_BENCH_GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
SON_BENCH_RUSTC=$(rustc -V 2>/dev/null || echo unknown)
export SON_BENCH_GIT_REV SON_BENCH_RUSTC

if [ -n "$workload" ] || [[ " $* " == *" --agree "* ]]; then
    exec "$exe" "$@"
fi
for workload in warm_zipf unique_csp cold_route churn_admit scale_10k; do
    "$exe" --workload "$workload" "$@"
done
