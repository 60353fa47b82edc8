#!/usr/bin/env bash
# Non-test line census of the workspace crates: every file under
# crates/*/src, counted up to its first line that is exactly `#[cfg(test)]`
# (the unit-test module that closes it), per crate and in total.
#
#   scripts/loc.sh [ROOT]
#
# ROOT defaults to the repository this script lives in.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for src in crates/*/src; do
  n=$(find "$src" -name '*.rs' -print0 | sort -z \
    | xargs -0 awk '$0 == "#[cfg(test)]" { nextfile } { n++ } END { print n + 0 }')
  printf '%7d  %s\n' "$n" "${src%/src}"
  total=$((total + n))
done
printf '%7d  total\n' "$total"
