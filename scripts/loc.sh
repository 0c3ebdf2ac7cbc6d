#!/usr/bin/env bash
# Non-test line count: every tracked `.rs` file under `crates/` and `src/`
# outside a `tests/` directory, counted up to its first `#[cfg(test)]` line
# (blank and comment lines included). This is the count ROADMAP.md cites.
#
# Usage: scripts/loc.sh [--by-crate] [PATHSPEC...]
#   --by-crate   print one line per crate (the root package is `src`)
#                before the total
#   PATHSPEC     count only these tracked paths, e.g.
#                `scripts/loc.sh crates/jaaru/src/engine.rs`
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

by_crate=0
if [ "${1:-}" = "--by-crate" ]; then
  by_crate=1
  shift
fi
[ $# -gt 0 ] || set -- crates src

git ls-files -z -- "$@" | grep -z '\.rs$' | grep -zv '/tests/' |
  xargs -0 -r awk -v by_crate="$by_crate" '
    FNR == 1 {
      skip = 0
      split(FILENAME, part, "/")
      unit = part[1] == "crates" ? part[2] : part[1]
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
    !skip { lines[unit]++; total++ }
    END {
      if (by_crate) for (u in lines) printf "%7d  %s\n", lines[u], u | "sort -k2"
      close("sort -k2")
      printf "%7d  total\n", total
    }'
