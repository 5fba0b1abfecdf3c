#!/usr/bin/env bash
# Public-surface audit. Fails when a `pub fn/struct/enum/trait/const/type`
# under crates/ is named in no tracked .rs file other than its own, its
# crate's lib.rs and the son-core facade (crates/core/src/lib.rs) —
# that is, when nothing outside its file calls, imports or names it —
# unless scripts/pub_audit.allow lists it with a reason. It also fails
# on an allow-list entry that no longer needs to be there, so the list
# stays exact.
#
#   bash scripts/pub_audit.sh
#
# A name counts as used wherever it appears as a whole word, comments
# and doc examples included. Offline: git, sed, awk, sort.
set -euo pipefail
export LC_ALL=C # one collation for sort and comm

cd "$(git rev-parse --show-toplevel)"
allow=scripts/pub_audit.allow
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# Every public item under crates/, as "<file> <name>".
git grep -nE '^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|trait|const|type)[[:space:]]+[A-Za-z_]' -- 'crates/*.rs' |
  sed -E 's/^([^:]+):[0-9]+:[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|trait|const|type)[[:space:]]+([A-Za-z_][A-Za-z0-9_]*).*/\1 \5/' \
  >"$scratch/items"

# Every (file, identifier) pair in the tracked Rust sources.
git grep -owE '[A-Za-z_][A-Za-z0-9_]*' -- '*.rs' | sort -u >"$scratch/words"

# The items named nowhere else, as "<name> <file>".
awk '
  NR == FNR { i = index($0, ":"); where[substr($0, i + 1)] = where[substr($0, i + 1)] " " substr($0, 1, i - 1); next }
  {
    file = $1; name = $2
    split(file, part, "/"); lib = part[1] "/" part[2] "/src/lib.rs"
    n = split(where[name], files, " "); used = 0
    for (k = 1; k <= n; k++) {
      f = files[k]
      if (f != file && f != lib && f != "crates/core/src/lib.rs") { used = 1; break }
    }
    if (!used) print name, file
  }' "$scratch/words" "$scratch/items" | sort -u >"$scratch/unused"

# Allow-list names: the first word of every non-comment line.
sed -E 's/#.*//; /^[[:space:]]*$/d; s/^[[:space:]]*([^[:space:]]+).*/\1/' "$allow" | sort -u >"$scratch/allowed"
cut -d' ' -f1 "$scratch/unused" | sort -u >"$scratch/unused_names"

unlisted=$(comm -23 "$scratch/unused_names" "$scratch/allowed")
stale=$(comm -13 "$scratch/unused_names" "$scratch/allowed")
for name in $unlisted; do
  where=$(awk -v n="$name" '$1 == n { print $2 }' "$scratch/unused" | paste -sd' ')
  echo "unused public item: $name ($where) — delete it, make it private, or add it to $allow with a reason"
done
for name in $stale; do
  echo "stale allow-list entry: $name is no unused public item — remove it from $allow"
done
[ -z "$unlisted$stale" ] || exit 1
echo "pub_audit: $(wc -l <"$scratch/items") public items, $(wc -l <"$scratch/allowed") allow-listed, none unused"
