#!/usr/bin/env bash
# Net line delta of the source tree against a base commit, per top-level
# src/ directory and in total: `+added −removed net` per row. Compares the
# working tree with <base> through `git diff --numstat`, so run it on a
# clean tree to measure a commit. Test files (tests/, *_test.*) are left out.
#
#   tools/line_delta.sh <base>
#
# Example: tools/line_delta.sh HEAD~1
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base>" >&2
  exit 2
fi

cd "$(git rev-parse --show-toplevel)"
git diff --numstat --no-renames "$1" -- src |
  awk -F'\t' '
    $3 ~ /(^|\/)tests\// || $3 ~ /_test\.[^\/]*$/ { next }
    $1 == "-" { next }  # binary file
    {
      split($3, part, "/")
      dir = part[1] "/" part[2]
      add[dir] += $1
      del[dir] += $2
    }
    END { for (dir in add) print dir, add[dir], del[dir] }' |
  sort |
  awk '
    function row(name, a, d) {
      printf "%-14s +%d \342\210\222%d %+d\n", name, a, d, a - d
    }
    { row($1, $2, $3); total_add += $2; total_del += $3 }
    END { row("total", total_add, total_del) }'
