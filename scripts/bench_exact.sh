#!/usr/bin/env bash
# Run auditbench on every cell of BENCH_exact.json and compare the
# `exact:` line it prints (host-independent work counters) with the
# committed one. Exits nonzero on the first run that fails its own checks
# or prints a different line.
#
#   scripts/bench_exact.sh           # check every cell
#   scripts/bench_exact.sh --update  # rewrite BENCH_exact.json from fresh runs
#
# A change that moves a counter runs --update and says why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
ledger=BENCH_exact.json
update=false
[ "${1:-}" = "--update" ] && update=true

seconds=$(jq -r .seconds "$ledger")
cells=$(jq -c '.cells[]' "$ledger")
fresh='[]'
while read -r cell; do
  workload=$(jq -r .workload <<<"$cell")
  seed=$(jq -r .seed <<<"$cell")
  out=$(cargo run --release --offline --quiet --manifest-path auditbench/Cargo.toml -- \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
  got=$(sed -n 's/^exact: //p' <<<"$out")
  [ -n "$got" ] || { echo "$workload seed $seed: no exact: line"; exit 1; }
  want=$(jq -r .exact <<<"$cell")
  if [ "$update" = true ]; then
    fresh=$(jq -c --arg w "$workload" --argjson s "$seed" --arg e "$got" \
      '. + [{workload: $w, seed: $s, exact: $e}]' <<<"$fresh")
  elif [ "$got" != "$want" ]; then
    echo "$workload seed $seed: exact counters moved"
    echo "  committed: $want"
    echo "  this run:  $got"
    exit 1
  else
    echo "$workload seed $seed: exact counters match"
  fi
done <<<"$cells"
if [ "$update" = true ]; then
  jq --argjson cells "$fresh" '.cells = $cells' "$ledger" >"$ledger.tmp"
  mv "$ledger.tmp" "$ledger"
  echo "rewrote $ledger"
fi
