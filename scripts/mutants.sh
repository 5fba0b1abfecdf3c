#!/usr/bin/env bash
# Mutation checks, committed. Every `*.diff` in a suite directory (e.g.
# mutants/state) is one deliberate bug; the lines before its `diff --git`
# header say how it must be caught:
#
#   # killer: oracle | pinned digest | work count
#   # run: -p son-state --lib
#   # run: -p son-core --test state_convergence
#   # fails: tree_digest_of_the_benchmark_cell_is_pinned
#
#   scripts/mutants.sh mutants/state [NAME.diff ...]
#
# Each mutant is applied to a scratch copy of the tracked files of the
# working tree (uncommitted edits included; the repository itself is not
# touched), built, and every `# run:` line is run as one
# `cargo test --release` invocation. The suite passes only if every
# diff applies and compiles and exactly its `# fails:` tests fail —
# no fewer (the mutant survived) and no more. Offline: git, tar, cargo.
set -euo pipefail

suite=$(cd "${1:?usage: scripts/mutants.sh DIR [NAME.diff ...]}" && pwd)
shift
root=$(git rev-parse --show-toplevel)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
copy="$scratch/tree"
mkdir "$copy"
(cd "$root" && git ls-files -z | tar --null -T - -cf -) | tar -x -C "$copy"
git -C "$copy" init -q # `git apply` patches relative to the copy, wherever it lies
export CARGO_TARGET_DIR="$scratch/target"

if [ $# -gt 0 ]; then
    names=("$@")
else
    mapfile -t names < <(cd "$suite" && ls -- *.diff)
fi

bad=0
for name in "${names[@]}"; do
    diff="$suite/$name"
    start=$SECONDS
    expected=$(sed -n 's/^# fails: //p' "$diff" | sort)
    (cd "$copy" && git apply "$diff")
    failed=""
    broken=""
    while read -r args; do
        status=0
        # shellcheck disable=SC2086 # one `# run:` line is a list of cargo arguments
        out=$(cd "$copy" && cargo test --release --offline --no-fail-fast $args 2>&1) || status=$?
        names_failed=$(sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' <<<"$out")
        if grep -q '^error\[E\|^error: could not compile' <<<"$out"; then
            broken="does not compile ($args)"
        elif [ "$status" -ne 0 ] && [ -z "$names_failed" ]; then
            broken="cargo test failed with no failing test ($args)"
        fi
        failed+="$names_failed"$'\n'
    done < <(sed -n 's/^# run: //p' "$diff")
    (cd "$copy" && git apply -R "$diff")
    failed=$(grep -v '^$' <<<"$failed" | sort || true)
    if [ -n "$broken" ]; then
        verdict="FAIL: $broken"
    elif [ "$failed" != "$expected" ]; then
        verdict="FAIL: expected to fail:"$'\n'"$expected"$'\n'"failed:"$'\n'"$failed"
    elif [ -z "$failed" ]; then
        verdict="FAIL: survived"
    else
        verdict="killed by $(wc -l <<<"$failed") test(s)"
    fi
    printf '%-40s %4ss  %s\n' "$name" $((SECONDS - start)) "$verdict"
    [[ $verdict == killed* ]] || bad=1
done
exit $bad
