#!/usr/bin/env bash
# Append wall-clock rows to BENCH_perf.json: one row per workload of
# BENCHMARK.json, from auditbench runs of this checkout over the given
# seeds at the benchmark's run length. Each seed gets one untraced run
# (the gated end-to-end metrics, and the slowest of its slices) and one
# traced run (`--trace 1`: replay.us_per_session, replay.ns_per_instr).
# Rows already in the file are never changed; CI runs none of this.
#
#   scripts/bench_perf.sh 9001 9002 9003
#   scripts/bench_perf.sh --against ../parent 9001 9002 9003
#
# With --against, the checkout in that directory (say, the parent commit)
# runs every seed too, right before or right after this one, which side
# goes first alternating from seed to seed, and gets rows of its own.
# A row names the commit it measured, so a checkout whose tracked files
# differ from its HEAD (BENCH_perf.json aside) is refused. Every run's
# output is kept under target/bench_perf/. Needs git and jq.
set -euo pipefail
cd "$(dirname "$0")/.."
here=$(pwd)
against=
if [ "${1:-}" = "--against" ]; then
  against=$(cd "$2" && pwd)
  shift 2
fi
[ $# -gt 0 ] || { echo "usage: scripts/bench_perf.sh [--against DIR] SEED..." >&2; exit 2; }
ledger=$here/BENCH_perf.json
seconds=$(jq -r .run_seconds BENCHMARK.json)
gated=$(jq -c '[.end_to_end[].name]' BENCHMARK.json)

commit_of() {
  if ! git -C "$1" diff --quiet HEAD -- . ':!BENCH_perf.json'; then
    echo "$1: tracked files differ from HEAD; commit them first" >&2
    exit 1
  fi
  git -C "$1" rev-parse HEAD
}
sides=("$here")
[ -z "$against" ] || sides+=("$against")
declare -A commit side
for dir in "${sides[@]}"; do commit[$dir]=$(commit_of "$dir"); done
side[$here]=this
[ -z "$against" ] || side[$against]=against

runs=$here/target/bench_perf
mkdir -p "$runs"

# The CPUs this process may run on, and what std::thread::available_parallelism
# reports here: that count capped by the CPU quota of this process's cgroup
# and its ancestors, v1 or v2. The second comes from std itself, through a
# one-line program built by the toolchain that builds auditbench.
cpus=$(nproc)
echo 'fn main() { println!("{}", std::thread::available_parallelism().unwrap()) }' |
  rustc -o "$runs/available_parallelism" -
avail=$("$runs/available_parallelism")
records=$(mktemp -d)
trap 'rm -rf "$records"' EXIT

# One auditbench run of checkout $1; prints the path of its output.
run() {
  local dir=$1 workload=$2 seed=$3 trace=$4
  local out=$runs/${side[$dir]}-${commit[$dir]:0:12}-$workload-seed$seed-trace$trace.out
  (cd "$dir" && cargo run --release --offline --quiet --manifest-path auditbench/Cargo.toml -- \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace") >"$out"
  tail -n 1 "$out" | jq -e '.correct == true and .failed == 0' >/dev/null ||
    { echo "$out: wrong verdicts or failed operations" >&2; exit 1; }
  echo "$out"
}

pair=0
for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
  for seed in "$@"; do
    order=("${sides[@]}")
    if [ $((pair % 2)) -eq 1 ] && [ -n "$against" ]; then order=("$against" "$here"); fi
    pair=$((pair + 1))
    declare -A plain=()
    for dir in "${order[@]}"; do plain[$dir]=$(run "$dir" "$workload" "$seed" 0); done
    for dir in "${order[@]}"; do
      traced=$(run "$dir" "$workload" "$seed" 1)
      slice_min=$(sed -n 's/^end to end: .*slices; min \([0-9.]*\),.*/\1/p' "${plain[$dir]}")
      jq -c --argjson seed "$seed" --argjson slice_min "$slice_min" \
        --slurpfile traced <(tail -n 1 "$traced") \
        '{seed: $seed, plain: .metrics, slice_min: $slice_min, traced: $traced[0].metrics}' \
        <(tail -n 1 "${plain[$dir]}") >>"$records/${side[$dir]}-$workload"
      echo "$workload seed $seed ${commit[$dir]:0:12}: $(grep '^end to end:' "${plain[$dir]}")"
    done
  done
done

# Quartiles by linear interpolation between the sorted values.
rows=$(for dir in "${sides[@]}"; do
  other=null
  [ -z "$against" ] || for d in "${sides[@]}"; do [ "$d" = "$dir" ] || other="\"${commit[$d]}\""; done
  for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
    jq -s -c --arg commit "${commit[$dir]}" --arg workload "$workload" \
      --argjson paired_with "$other" --argjson gated "$gated" --argjson seconds "$seconds" \
      --argjson nproc "$cpus" --argjson avail "$avail" '
      def q($p): sort as $v | ((($v | length) - 1) * $p) as $h | ($h | floor) as $i
        | if $i + 1 < ($v | length) then $v[$i] + ($h - $i) * ($v[$i + 1] - $v[$i]) else $v[$i] end;
      def stats: {median: q(0.5), q1: q(0.25), q3: q(0.75), values: .};
      . as $r | {
        commit: $commit, workload: $workload, paired_with: $paired_with,
        host: {nproc: $nproc, available_parallelism: $avail},
        seconds: $seconds, runs: ($r | length), seeds: [$r[].seed],
        end_to_end: ($gated | map({key: ., value: (. as $m | [$r[].plain[$m].value] | stats)}) | from_entries),
        slice_min_sessions_per_s: ([$r[].slice_min] | stats),
        traced: (["replay.us_per_session", "replay.ns_per_instr"]
          | map({key: ., value: (. as $m | [$r[].traced[$m].value] | stats)}) | from_entries)
      }' "$records/${side[$dir]}-$workload"
  done
done)
[ -f "$ledger" ] || echo '{"about": "Wall-clock auditbench rows, appended by scripts/bench_perf.sh; never rewritten", "rows": []}' >"$ledger"
jq --slurpfile new <(echo "$rows") '.rows += $new' "$ledger" >"$ledger.tmp"
mv "$ledger.tmp" "$ledger"
echo "appended $(echo "$rows" | wc -l) rows to $ledger"
