#!/usr/bin/env bash
# Non-test lines per crate, the line count the ROADMAP tracks.
#
# Each `.rs` file under `crates/<crate>/src` (`bin/` included) is counted up
# to its `#[cfg(test)] mod tests`: every line before the `mod tests` line
# counts, the attribute line included, and a file without a test module
# counts whole. Prints one `<crate> <lines>` row per crate, then the total.
#
#   scripts/loc.sh            # every crate
#   scripts/loc.sh sim nn     # only the named crates
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
  crates=("$@")
else
  crates=()
  for dir in crates/*/; do
    crates+=("$(basename "$dir")")
  done
fi

total=0
for crate in "${crates[@]}"; do
  src="crates/$crate/src"
  [ -d "$src" ] || { echo "loc: no such crate: $crate" >&2; exit 1; }
  lines=$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { done = 0; prev = "" }
    done { next }
    /^mod tests/ && prev ~ /^#\[cfg\(test\)\]/ { done = 1; next }
    { count += 1; prev = $0 }
    END { print count + 0 }')
  printf '%-14s %6d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-14s %6d\n' total "$total"
