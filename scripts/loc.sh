#!/usr/bin/env bash
# Prints the code size of every workspace crate as flat JSON, one
# `"loc/<crate>": N` row per crate, where N counts the non-blank lines
# of `crates/<crate>/src/**/*.rs` (tests, benches and examples outside
# `src/` are not counted). The output is the one-pair-per-line form
# `scripts/bench_trend.sh` parses, so a snapshot can be committed as a
# BENCH_pr*.json file and trended like any other metric:
#
#   scripts/loc.sh                      # print the rows
#   scripts/loc.sh > BENCH_prN.json     # snapshot them
#
# Hermetic: bash globbing, awk and wc only.
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s globstar nullglob

rows=()
for dir in crates/*/; do
  crate=$(basename "$dir")
  files=("$dir"src/**/*.rs)
  [ ${#files[@]} -eq 0 ] && continue
  n=$(awk 'NF' "${files[@]}" | wc -l)
  rows+=("  \"loc/$crate\": $((n))")
done

echo "{"
last=$((${#rows[@]} - 1))
for i in "${!rows[@]}"; do
  if [ "$i" -lt "$last" ]; then echo "${rows[$i]},"; else echo "${rows[$i]}"; fi
done
echo "}"
