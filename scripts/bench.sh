#!/usr/bin/env bash
# Benchmark entry point for the parallel campaign engine.
#
# Runs the campaign trajectory binary (wall times, resolutions/sec, memo
# hit rates, per-thread-count speedups and pool counters — written to
# BENCH_campaigns.json) and then the criterion engine benches (serial vs
# parallel statistical comparison). Honest numbers only: on a single-core
# host the parallel rows will show speedup <= 1; the JSON records
# whatever this machine actually did.
#
# Usage: scripts/bench.sh [--smoke] [OUT.json]
#   --smoke   shrink the workload (CI gating) and skip the criterion run
# Any other option is an error (exit 2), so a misspelt --smoke cannot run
# the full workload and overwrite the committed BENCH_campaigns.json.

set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=""
OUT="BENCH_campaigns.json"
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE="--smoke" ;;
    --*) echo "unknown option $arg" >&2
         echo "usage: scripts/bench.sh [--smoke] [OUT.json]" >&2
         exit 2 ;;
    *) OUT="$arg" ;;
  esac
done

echo "==> bench_campaigns ${SMOKE:+(smoke) }-> $OUT"
cargo run --release -q -p mcdn-bench --bin bench_campaigns -- $SMOKE "$OUT"

if [ -z "$SMOKE" ]; then
  echo "==> criterion: engine serial vs parallel"
  cargo bench -q -p mcdn-bench --bench engine
fi

echo "BENCH OK ($OUT)"
