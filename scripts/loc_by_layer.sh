#!/usr/bin/env bash
# Lines added, removed and net per layer between a base commit and the
# working tree, from `git diff --numstat`. Untracked (not yet added) files
# count as added in full; binary files are skipped.
#
# Usage:
#   scripts/loc_by_layer.sh [base-ref]
#
# base-ref defaults to HEAD, i.e. the uncommitted change. To count a
# committed change, pass its parent: scripts/loc_by_layer.sh HEAD~1
#
# Rows: one per src/<layer> the change touches, the src total, then tests,
# bench, examples, everything else, and the grand total.
set -euo pipefail

base="${1:-HEAD}"
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "${base}^{commit}" >/dev/null || {
  echo "loc_by_layer: unknown base ref '${base}'" >&2
  exit 2
}

{
  git diff --numstat --no-renames "${base}" --
  git ls-files --others --exclude-standard -z |
    while IFS= read -r -d '' path; do
      if grep -Iq . "${path}" 2>/dev/null; then
        printf '%s\t0\t%s\n' "$(wc -l <"${path}")" "${path}"
      fi
    done
} | awk -F '\t' '
  function add(key, a, r) {
    if (!(key in added)) { added[key] = 0; removed[key] = 0 }
    added[key] += a; removed[key] += r
  }
  function row(key) {
    printf "%-16s %8d %8d %+8d\n", key, added[key], removed[key],
           added[key] - removed[key]
  }
  $1 == "-" { next }  # binary file
  {
    split($3, part, "/")
    if (part[1] == "src" && part[3] != "") {
      add("src/" part[2], $1, $2); add("src (total)", $1, $2)
    } else if (part[1] == "tests" || part[1] == "bench" ||
               part[1] == "examples") {
      add(part[1], $1, $2)
    } else {
      add("other", $1, $2)
    }
    add("total", $1, $2)
  }
  END {
    printf "%-16s %8s %8s %8s\n", "layer", "added", "removed", "net"
    n = 0
    for (key in added) if (key ~ /^src\//) layers[++n] = key
    # Insertion sort: awk has no portable sort.
    for (i = 2; i <= n; i++) {
      v = layers[i]
      for (j = i - 1; j >= 1 && layers[j] > v; j--) layers[j + 1] = layers[j]
      layers[j + 1] = v
    }
    for (i = 1; i <= n; i++) row(layers[i])
    split("src (total)|tests|bench|examples|other|total", tail, "|")
    for (i = 1; i <= 6; i++) {
      if (!(tail[i] in added)) { added[tail[i]] = 0; removed[tail[i]] = 0 }
      row(tail[i])
    }
  }'
