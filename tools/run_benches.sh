#!/usr/bin/env bash
# Regenerates every BENCH_*.json artifact at the repo root from a clean
# tree, so the numbers in version control always correspond to a commit
# someone can check out:
#
#   BENCH_delta.json       — bench/delta_eval_study (p93791 delta vs full)
#   BENCH_compaction.json  — bench/compaction_study (staged kernel vs sparse
#                            oracle; staged count on the caller vs a pool)
#   BENCH_parallel.json    — bench/micro_benchmarks parallel report
#
# The manifests inside the artifacts bake `git describe --always --dirty`
# at configure time; a `-dirty` describe means the numbers measure code
# that is not any commit, so the script refuses to run on a dirty tree
# unless --allow-dirty is given. It also cross-checks that every artifact
# embeds the machine's true hardware thread count — benchmarks that claim
# more threads than the host has measure scheduler thrash, not speedup.
#
# Every regenerated artifact is also imported into the persistent result
# store (BENCH_store.jsonl by default; see docs/RESULT_STORE.md), so
# `sitam report` charts each regeneration as one per-commit row. A store
# write failure fails the script — a benchmark run whose numbers were
# dropped on the floor must not look green.
#
# Usage: tools/run_benches.sh [--allow-dirty] [--store=FILE] [build_dir]
set -euo pipefail

allow_dirty=0
build_dir=build
store_file=BENCH_store.jsonl
for arg in "$@"; do
  case "$arg" in
    --allow-dirty) allow_dirty=1 ;;
    --store=*) store_file="${arg#--store=}" ;;
    -h|--help)
      sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *) build_dir="$arg" ;;
  esac
done

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

describe="$(git describe --always --dirty)"
if [[ "$describe" == *-dirty && "$allow_dirty" -ne 1 ]]; then
  echo "error: working tree is dirty (git describe: $describe)." >&2
  echo "Commit or stash first so the artifacts pin a real commit," >&2
  echo "or pass --allow-dirty to override." >&2
  exit 1
fi

hardware_threads="$(nproc)"
echo "== run_benches: $describe, $hardware_threads hardware thread(s) =="

# Reconfigure so the baked-in SITAM_GIT_DESCRIBE matches HEAD, then build
# the three artifact writers.
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$hardware_threads" \
  --target delta_eval_study compaction_study micro_benchmarks sitam

# Writers emit into the working directory; run from the repo root so the
# artifacts land next to the ones under version control.
echo "== BENCH_delta.json =="
"$build_dir/bench/delta_eval_study"
echo "== delta wall-clock gate (writes no artifact) =="
"$build_dir/bench/delta_eval_study" --wallclock_gate
echo "== BENCH_compaction.json =="
"$build_dir/bench/compaction_study"
echo "== BENCH_parallel.json =="
"$build_dir/bench/micro_benchmarks" --benchmark_filter='^$'

status=0
for artifact in BENCH_delta.json BENCH_compaction.json BENCH_parallel.json; do
  if [[ ! -f "$artifact" ]]; then
    echo "error: $artifact was not written" >&2
    status=1
    continue
  fi
  if grep -q -- '-dirty' "$artifact" && [[ "$allow_dirty" -ne 1 ]]; then
    echo "error: $artifact embeds a -dirty git describe" >&2
    status=1
  fi
  # A mismatched thread count is recorded, not refused: containerized and
  # pinned-affinity runs legitimately see fewer threads than nproc, and the
  # artifact already embeds what the run actually used.
  if ! grep -Eq "\"hardware_threads\": ?$hardware_threads([,}]|\$)" "$artifact"; then
    observed="$(grep -Eo '"hardware_threads": ?[0-9]+' "$artifact" \
                | head -n1 | grep -Eo '[0-9]+' || true)"
    echo "warning: $artifact embeds hardware_threads=${observed:-<missing>}" \
         "but nproc reports $hardware_threads; results were measured at" \
         "the embedded value" >&2
  fi
  # Persist the regenerated artifact into the result store. This must not
  # degrade to a warning: a silently dropped record means the next
  # `sitam report` charts a hole where this commit's numbers should be.
  if ! "$build_dir/tools/sitam" store-import \
         --store="$store_file" --files="$artifact"; then
    echo "error: store import of $artifact into $store_file failed" >&2
    status=1
  fi
done
exit "$status"
