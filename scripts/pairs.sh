#!/usr/bin/env bash
# Alternating end-to-end pairs: a revision against the working tree.
#
#   scripts/pairs.sh PARENT [WORKLOAD ...]
#   PAIRS=5 BENCH_ARGS='--seconds 5' scripts/pairs.sh HEAD~1 unique_csp
#
# Copies revision PARENT (`git archive`) and the tracked files of the
# working tree (uncommitted edits included; the repository itself is
# not touched) into a scratch directory under $TMPDIR, builds each
# side's benchmark binary once, and runs PAIRS (default 10) pairs of
# end-to-end runs per workload (default: every workload), the parent
# first in odd pairs and the change first in even ones. BENCH_ARGS go
# to every run. For each end-to-end metric of BENCHMARK.json it prints
# both sides' medians and quartiles, the relative change of the medians
# (`PAST BOUND` when it is worse than the metric's `bound`), whether the
# medians lie further apart than the parent's interquartile range, how
# many pairs the change is ahead in (by the metric's `better`), and
# every pair, then each side's median count of single-phase calls (the
# `n=` of `single_p50_us`). Both sides are built, in turn, from one
# source path, since the path a crate is built from changes its bytes;
# it says whether the two binaries are identical. On a failure it keeps
# the raw runs so far (`parent.tsv`, `change.tsv`) and prints where
# they are. Offline: git, tar, cargo, awk, find, cmp.
set -euo pipefail

parent=${1:?usage: scripts/pairs.sh PARENT [WORKLOAD ...]}
shift
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --short "$parent")
pairs=${PAIRS:-10}
read -r -a args <<<"${BENCH_ARGS:-}"
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    workloads=(warm_zipf unique_csp cold_route churn_admit scale_10k)
fi

# `name better bound` of each end-to-end metric, in declaration order.
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
    on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }
' "$root/BENCHMARK.json")

scratch=$(mktemp -d)
# On success the scratch directory goes. On failure the raw runs so far
# (parent.tsv, change.tsv) stay, so that a broken summary can be rerun.
cleanup() {
    local status=$?
    if [ "$status" -eq 0 ]; then
        rm -rf "$scratch"
    else
        find "$scratch" -mindepth 1 -maxdepth 1 ! -name '*.tsv' -exec rm -rf {} +
        echo "failed (exit $status); raw runs kept in $scratch" >&2
    fi
}
trap cleanup EXIT
mkdir "$scratch/parent" "$scratch/change"
git -C "$root" archive "$parent" | tar -x -C "$scratch/parent"
(cd "$root" && git ls-files -z | tar --null -T - -cf -) | tar -x -C "$scratch/change"
for side in parent change; do
    mv "$scratch/$side" "$scratch/src"
    CARGO_TARGET_DIR="$scratch/target-$side" cargo build --release --offline -q \
        --manifest-path "$scratch/src/benchmark/Cargo.toml" --bin e2e
    mv "$scratch/src" "$scratch/$side"
done
if cmp -s "$scratch/target-parent/release/e2e" "$scratch/target-change/release/e2e"; then
    echo "the two e2e binaries are identical" >&2
else
    echo "the two e2e binaries differ" >&2
fi

# One end-to-end run of `side`, its metric lines appended to the side's
# file as `workload pair name value`.
run() {
    local side=$1 workload=$2 pair=$3 out
    out=$(cd "$scratch/$side" &&
        "$scratch/target-$side/release/e2e" --workload "$workload" "${args[@]}") || {
        echo "$side run of $workload failed (pair $pair):" >&2
        echo "$out" >&2
        exit 1
    }
    awk -v w="$workload" -v p="$pair" 'NF == 4 && $4 ~ /^n=/ {
        print w, p, $1, $3
        if ($1 == "single_p50_us") print w, p, "single_calls", substr($4, 3)
    }' <<<"$out" >>"$scratch/$side.tsv"
}

for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$workload" "$pair"
            run change "$workload" "$pair"
        else
            run change "$workload" "$pair"
            run parent "$workload" "$pair"
        fi
        echo "$workload: pair $pair/$pairs done" >&2
    done
done

echo "parent $rev vs working tree: $pairs alternating pairs, ${BENCH_ARGS:-default options}"
for workload in "${workloads[@]}"; do
    while read -r name better bound; do
        awk -v w="$workload" -v m="$name" -v better="$better" -v bound="$bound" '
            # Quartile `q` of the sorted v[1..n], interpolated linearly.
            function quantile(v, n, q,    h, i) {
                h = 1 + (n - 1) * q
                i = int(h)
                return i >= n ? v[n] : v[i] + (h - i) * (v[i + 1] - v[i])
            }
            function sorted(src, dst, n,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                        t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
                    }
            }
            $1 == w && $3 == m { value[NR == FNR ? "p" : "c", $2] = $4 }
            END {
                n = 0; ahead = 0; list = ""
                for (i = 1; (("p", i) in value) && (("c", i) in value); i++) {
                    n++
                    p[n] = value["p", i]; c[n] = value["c", i]
                    if (better == "higher" ? c[n] > p[n] : c[n] < p[n]) ahead++
                    list = list " " value["p", i] "→" value["c", i]
                }
                if (n == 0) exit
                sorted(p, ps, n); sorted(c, cs, n)
                pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
                iqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
                printf "%s @ %s (%s is better): %.6g → %.6g, ahead %d/%d; quartiles %.6g–%.6g vs %.6g–%.6g\n",
                    m, w, better, pm, cm, ahead, n,
                    quantile(ps, n, 0.25), quantile(ps, n, 0.75),
                    quantile(cs, n, 0.25), quantile(cs, n, 0.75)
                # The change of the medians, signed so that > 0 is worse.
                if (pm == 0) {
                    change = "n/a"; worse = (better == "higher" ? cm < 0 : cm > 0) ? 1 : 0
                } else {
                    rel = (cm - pm) / (pm < 0 ? -pm : pm)
                    change = sprintf("%+.2f %%", 100 * rel)
                    worse = (better == "higher" ? -rel : rel) - bound
                }
                printf "  change %s (bound %g %%)%s; medians %s the parent'"'"'s IQR (%.6g) apart\n",
                    change, 100 * bound, (worse > 0 ? ", PAST BOUND" : ""),
                    (cm - pm > iqr || pm - cm > iqr) ? "more than" : "not more than", iqr
                printf "  pairs:%s\n", list
            }
        ' "$scratch/parent.tsv" "$scratch/change.tsv"
    done <<<"$metrics"
    for side in parent change; do
        awk -v w="$workload" '$1 == w && $3 == "single_calls" { print $4 }' "$scratch/$side.tsv" |
            sort -n | awk -v side="$side" -v w="$workload" '
                { v[NR] = $1 }
                END { if (NR) printf "single-phase calls @ %s, %s: median %s\n", w, side, (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }'
    done
done
