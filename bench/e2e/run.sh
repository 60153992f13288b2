#!/usr/bin/env bash
# Builds the standalone end-to-end benchmark (bench/e2e) into build-e2e/ and
# runs it. Each workload runs in its own process, so peak RSS is per
# workload. See bench/e2e/README.md.
#
# A full set (every workload untraced, then traced):
#   bench/e2e/run.sh [--seed=N] [--threads=T] [--seconds=S] [--smoke]
#                    [--no-trace] [--store-out=FILE]
# The repeat check (two sets of 10 seeds each, compared against the bounds
# in BENCHMARK.json):
#   bench/e2e/run.sh --repeat-check [--seed=N] [--threads=T]
# One run of one workload (the last line of stdout is the JSON result):
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Every metric is printed as `workload metric value unit [n=samples]`, each
# run writes its JSON under build-e2e/results/, and the exit status is
# non-zero if any correctness check failed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build-e2e"
workloads=(tables alg2-restarts serve-fleet)
# Runs per workload and set in the repeat check, as many as the pairs of
# the A/B rule in README.md.
runs=10

workload="" seed=0 seconds="" trace=1 one_trace=0 threads="$(nproc)"
smoke=0 store_out="" repeat=0
while [[ $# -gt 0 ]]; do
  arg="$1"
  shift
  case "$arg" in
    --smoke | --no-trace | --repeat-check) key="$arg" value="" ;;
    --*=*) key="${arg%%=*}" value="${arg#*=}" ;;
    --*)
      if [[ $# -eq 0 ]]; then
        echo "run.sh: $arg needs a value" >&2
        exit 2
      fi
      key="$arg" value="$1"
      shift
      ;;
    *)
      echo "run.sh: unexpected argument: $arg" >&2
      exit 2
      ;;
  esac
  case "$key" in
    --workload) workload="$value" ;;
    --seed) seed="$value" ;;
    --seconds) seconds="$value" ;;
    --trace) one_trace="$value" ;;
    --threads) threads="$value" ;;
    --smoke) smoke=1 ;;
    --no-trace) trace=0 ;;
    --store-out) store_out="$value" ;;
    --repeat-check) repeat=1 ;;
    *)
      echo "run.sh: unknown flag: $key" >&2
      exit 2
      ;;
  esac
done
if [[ -z $seconds ]]; then
  seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' \
    "$root/BENCHMARK.json" 2>/dev/null || true)"
  seconds="${seconds:-35}"
fi

# Configures until a build system exists, and on every full set so that the
# embedded `git describe` follows the checkout; then builds incrementally.
# Build output goes to stderr: stdout carries only metrics.
build() {
  if [[ ! -f "$build/Makefile" && ! -f "$build/build.ninja" ||
    ${1-} == reconfigure ]]; then
    cmake -S "$root/bench/e2e" -B "$build" >&2
  fi
  cmake --build "$build" -j "$(nproc)" --target e2e_profile >&2
}

# run_one WORKLOAD TRACE OUT_DIR SEED
run_one() {
  local args=(--workload "$1" --trace "$2" --out-dir "$3" --seed "$4"
    --seconds "$seconds" --threads "$threads")
  [[ $smoke == 1 ]] && args+=(--smoke)
  [[ -n $store_out ]] && args+=(--store-out "$store_out")
  "$build/e2e_profile" "${args[@]}"
}

if [[ -n $workload ]]; then
  build
  run_one "$workload" "$one_trace" "$build/results" "$seed"
  exit
fi

build reconfigure
status=0
if [[ $repeat == 1 ]]; then
  for set in a b; do
    rm -rf "$build/results/repeat-$set"
    for w in "${workloads[@]}"; do
      for ((i = 0; i < runs; i++)); do
        echo "set $set: $w seed $((seed + i))" >&2
        run_one "$w" 0 "$build/results/repeat-$set" "$((seed + i))" \
          >/dev/null || status=1
      done
    done
  done
  "$build/e2e_profile" --compare="$build/results/repeat-a,$build/results/repeat-b" \
    --benchmark="$root/BENCHMARK.json" || status=1
  exit "$status"
fi

for w in "${workloads[@]}"; do
  modes=(0)
  [[ $trace == 1 ]] && modes+=(1)
  for t in "${modes[@]}"; do
    # The last line is the JSON result, which the results file also holds.
    run_one "$w" "$t" "$build/results" "$seed" | grep -v '^{"correct"' ||
      status=1
  done
done
exit "$status"
