#!/usr/bin/env bash
# Re-derives the committed reproduction outputs that take seconds:
# runs each son-bench bin below in release (the commands of
# EXPERIMENTS.md's "Regenerate everything" block) and compares what it
# prints, byte for byte, with its file under results/.
#
#   bash scripts/repro.sh
#
# The three fig10 runs are not here: each takes minutes. Offline:
# cargo, cmp, diff.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

cargo build --release --offline -q -p son-bench --bins
bad=0
for bin in table1 fig9 paper_example border_load dims landmarks resolution multilevel; do
    start=$SECONDS
    cargo run --release --offline -q -p son-bench --bin "$bin" >"$out/$bin.txt"
    if cmp -s "$out/$bin.txt" "results/$bin.txt"; then
        printf '%-14s %4ss  matches results/%s.txt\n' "$bin" $((SECONDS - start)) "$bin"
    else
        printf '%-14s %4ss  DIFFERS from results/%s.txt\n' "$bin" $((SECONDS - start)) "$bin"
        diff "results/$bin.txt" "$out/$bin.txt" | head -20 || true
        bad=1
    fi
done
exit $bad
