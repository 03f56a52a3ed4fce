#!/usr/bin/env bash
# CI entry point: build, test, lint, and verify determinism.
#
# The determinism gate runs the reduced-scale global DNS campaign twice
# with the same (built-in) seed and requires bit-identical output — the
# property every figure in this repo rests on, and the guarantee the
# fault-injection layer must not break.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check (root workspace; pipebench/ is a workspace of its own)"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
# --workspace: the root crate is a package, so a bare `cargo test` would
# run only its integration suites and skip every member crate's units.
cargo test -q --workspace

echo "==> cargo clippy -D warnings (every target: libs, bins, tests, examples, benches)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> mcdn-obs: disabled-feature arm still compiles and passes"
# The metrics layer must be compile-time removable: the no-default-
# features build turns every record/trace call into a no-op.
cargo test -q -p mcdn-obs --no-default-features

echo "==> determinism: same seed, same campaign output"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release -q -p mcdn-analysis --bin mcdn -- campaign global > "$tmpdir/run1.txt"
cargo run --release -q -p mcdn-analysis --bin mcdn -- campaign global > "$tmpdir/run2.txt"
diff -u "$tmpdir/run1.txt" "$tmpdir/run2.txt"
echo "    identical ($(wc -l < "$tmpdir/run1.txt") lines)"

echo "==> paper artifacts: repro --paper byte-matches results/, every claim holds"
# The committed results/ files are the digest: every CSV, fig2.dot,
# plots.gnuplot and the console output must come out byte-identical.
# repro_paper.log is left out because it records the output path.
mkdir -p "$tmpdir/results"
cargo run --release -q -p mcdn-analysis --bin repro -- --paper \
  --csv-dir "$tmpdir/results" > "$tmpdir/results/repro_paper.txt" 2> /dev/null
for f in "$tmpdir"/results/*; do
  name="$(basename "$f")"
  [ -f "results/$name" ] || { echo "    FAIL: repro wrote $name, not committed in results/"; exit 1; }
done
artifacts=0
for f in results/*.csv results/fig2.dot results/plots.gnuplot results/repro_paper.txt; do
  diff -u "$f" "$tmpdir/results/$(basename "$f")"
  artifacts=$((artifacts + 1))
done
cargo run --release -q -p mcdn-analysis --bin check_claims -- --paper > "$tmpdir/claims.txt" 2> /dev/null || {
  cat "$tmpdir/claims.txt"; echo "    FAIL: paper claims"; exit 1; }
echo "    $artifacts artifacts identical; $(tail -1 "$tmpdir/claims.txt")"

echo "==> chaos sweep: invariants hold, faulted runs replay bit-identically, output matches golden"
cargo run --release -q --example chaos_sweep > "$tmpdir/chaos1.txt"
cargo run --release -q --example chaos_sweep > "$tmpdir/chaos2.txt"
diff -u "$tmpdir/chaos1.txt" "$tmpdir/chaos2.txt"
diff -u tests/goldens/chaos_sweep.txt "$tmpdir/chaos1.txt"
grep -q "all invariants held across the grid" "$tmpdir/chaos1.txt"
echo "    identical ($(wc -l < "$tmpdir/chaos1.txt") lines)"

echo "==> poison sweep: Byzantine answers held at the bailiwick, replayed bit-identically, output matches golden"
cargo run --release -q --example poison_sweep > "$tmpdir/poison1.txt"
cargo run --release -q --example poison_sweep > "$tmpdir/poison2.txt"
diff -u "$tmpdir/poison1.txt" "$tmpdir/poison2.txt"
diff -u tests/goldens/poison_sweep.txt "$tmpdir/poison1.txt"
grep -q "all invariants held across the grid" "$tmpdir/poison1.txt"
echo "    identical ($(wc -l < "$tmpdir/poison1.txt") lines)"

echo "==> fuzz smoke: fixed-seed wire fuzzing plus corpus replay, zero panics"
cargo run --release -q -p mcdn-fuzzwire --bin fuzz_smoke > "$tmpdir/fuzz1.txt"
cargo run --release -q -p mcdn-fuzzwire --bin fuzz_smoke > "$tmpdir/fuzz2.txt"
diff -u "$tmpdir/fuzz1.txt" "$tmpdir/fuzz2.txt"
grep -q "zero panics across all mutated messages" "$tmpdir/fuzz1.txt"
grep -q "panics=0" "$tmpdir/fuzz1.txt"
echo "    $(grep -m1 'iterations=' "$tmpdir/fuzz1.txt" | sed 's/fuzzwire: //')"

echo "==> adversarial bit-identity: resume + enforcement under every mutation profile"
cargo test --release -q --test adversarial

echo "==> parallel determinism: MCDN_THREADS=1 vs MCDN_THREADS=4"
MCDN_THREADS=1 cargo run --release -q -p mcdn-analysis --bin mcdn -- \
  campaign global --metrics "$tmpdir/metrics_t1.jsonl" > "$tmpdir/t1.txt"
MCDN_THREADS=4 cargo run --release -q -p mcdn-analysis --bin mcdn -- \
  campaign global --metrics "$tmpdir/metrics_t4.jsonl" > "$tmpdir/t4.txt"
diff -u "$tmpdir/t1.txt" "$tmpdir/t4.txt"
echo "    identical ($(wc -l < "$tmpdir/t1.txt") lines)"

echo "==> metrics determinism: deterministic export byte-identical across thread counts"
# Lines tagged "det":false are process telemetry (memo replays, shard
# timings, dispatch histograms) and legitimately vary; everything else
# must not. Stripping them must also leave a non-trivial export.
grep -v '"det":false' "$tmpdir/metrics_t1.jsonl" > "$tmpdir/metrics_t1.det"
grep -v '"det":false' "$tmpdir/metrics_t4.jsonl" > "$tmpdir/metrics_t4.det"
diff -u "$tmpdir/metrics_t1.det" "$tmpdir/metrics_t4.det"
grep -q '"schema":"mcdn-obs-v1"' "$tmpdir/metrics_t1.det"
grep -q '"name":"campaign.resolutions"' "$tmpdir/metrics_t1.det"
echo "    identical ($(wc -l < "$tmpdir/metrics_t1.det") deterministic lines)"

echo "==> frozen work counts: deterministic campaign metrics match tests/goldens/"
# Rounds, resolutions, attempts, memo lookups and hits, cache hits, misses
# and puts, and the per-round trace: counts of the work the engine did,
# the same on every host. A lost memo, an extra cache put or an extra
# attempt changes them. tests/goldens/README.md says when regenerating
# the goldens is legitimate.
diff -u tests/goldens/campaign_global.metrics.jsonl "$tmpdir/metrics_t1.det"
cargo run --release -q -p mcdn-analysis --bin mcdn -- \
  campaign isp --metrics "$tmpdir/metrics_isp.jsonl" > /dev/null
grep -v '"det":false' "$tmpdir/metrics_isp.jsonl" > "$tmpdir/metrics_isp.det"
diff -u tests/goldens/campaign_isp.metrics.jsonl "$tmpdir/metrics_isp.det"
echo "    global and isp work counts identical to the goldens"

echo "==> crash recovery: SIGKILL mid-campaign, resume, byte-diff vs uninterrupted"
# run1.txt above is the uninterrupted campaign. Journal a run, let it
# self-SIGKILL after round 3 with its checkpoint durable, then resume from
# the journal; the resumed run's full output must be byte-identical.
journal="$tmpdir/campaign.journal"
if MCDN_KILL_AFTER_ROUND=3 cargo run --release -q -p mcdn-analysis --bin mcdn -- \
    campaign global --journal "$journal" > "$tmpdir/killed.txt" 2> "$tmpdir/killed.err"; then
  echo "    FAIL: killed run exited 0"; exit 1
fi
[ -s "$journal" ] || { echo "    FAIL: no journal written before the kill"; exit 1; }
grep -q "suspending after 3/" "$tmpdir/killed.err" || {
  echo "    FAIL: run did not suspend at round 3"; cat "$tmpdir/killed.err"; exit 1; }
cargo run --release -q -p mcdn-analysis --bin mcdn -- \
  campaign global --journal "$journal" > "$tmpdir/resumed.txt"
diff -u "$tmpdir/run1.txt" "$tmpdir/resumed.txt"
echo "    resumed output identical to uninterrupted run"

echo "==> bench smoke: BENCH_campaigns.json schema, output identity, pool counters, allocation and overhead gates"
# bench_campaigns enforces its gates through its exit code. All but two
# are exact: outputs identical across thread counts, one pool dispatch
# per DNS round and per traffic batch, no worker spawned on a warm pool,
# zero allocations. The checkpoint and observability overhead gates are
# timing ratios of interleaved same-process runs, and one bad scheduler
# window on a shared host can push either over budget, so a failure
# earns exactly one retry; two consecutive failures are a real regression.
if ! scripts/bench.sh --smoke "$tmpdir/BENCH_campaigns.json" > /dev/null; then
  echo "    gate failed once; retrying (overhead-gate scheduler jitter tolerance)"
  scripts/bench.sh --smoke "$tmpdir/BENCH_campaigns.json" > /dev/null
fi
grep -q '"schema": "mcdn-bench-campaigns-v10"' "$tmpdir/BENCH_campaigns.json"
grep -q '"identical_across_threads": true' "$tmpdir/BENCH_campaigns.json"
if grep -q '"identical_across_threads": false' "$tmpdir/BENCH_campaigns.json"; then
  echo "    FAIL: some campaign diverged across thread counts"; exit 1
fi
for field in thread_counts memo_hit_rate wall_ms shard_walls p50_ms p90_ms max_ms \
             speedup_vs_serial dispatches expected_dispatches workers_spawned \
             traffic_batch_ticks available_parallelism \
             checkpoint_overhead_pct raw_overhead_pct noise_floor \
             observability obs_overhead_pct budget_pct metrics trace_events cold_path; do
  grep -q "\"$field\"" "$tmpdir/BENCH_campaigns.json" || {
    echo "    FAIL: missing field $field"; exit 1; }
done
echo "    schema OK, pool counters exact"

echo "==> checkpoint overhead: journaled campaign within 5% of plain"
# bench_campaigns exits nonzero itself when the overhead gate fails; echo
# the measured figure here for the CI log.
overhead="$(grep -m1 '"checkpoint_overhead_pct"' "$tmpdir/BENCH_campaigns.json" \
  | sed 's/.*"checkpoint_overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/')"
echo "    checkpoint_overhead_pct = ${overhead}%"

echo "==> observability overhead: metrics recording within 2% of disabled"
# Same contract: bench_campaigns already failed the run if the gate
# tripped; surface the measured number.
obs_overhead="$(grep -m1 '"obs_overhead_pct"' "$tmpdir/BENCH_campaigns.json" \
  | sed 's/.*"obs_overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/')"
echo "    obs_overhead_pct = ${obs_overhead}%"

echo "==> alloc gate: warm and cold resolve loops must not allocate"
grep -q '"allocs_per_resolution": 0.0000' "$tmpdir/BENCH_campaigns.json" || {
  echo "    FAIL: steady-state resolutions allocated"
  grep -A5 '"steady_state"' "$tmpdir/BENCH_campaigns.json"; exit 1; }
grep -q '"cold_allocs_per_resolution": 0.0000' "$tmpdir/BENCH_campaigns.json" || {
  echo "    FAIL: cold-path resolutions allocated"
  grep -A5 '"cold_path"' "$tmpdir/BENCH_campaigns.json"; exit 1; }
echo "    allocs_per_resolution == 0, cold_allocs_per_resolution == 0"

echo "==> benchmark package: pipebench builds, its tests pass, its digests hold"
# pipebench/ is a workspace of its own that calls mcdn-scenario by name, so
# nothing above compiles it. --trace 1 runs one untraced and one traced
# iteration, which executes every library entry point pipebench calls
# except the two only paper_repro uses. The digests are the workloads'
# outputs at the default seed.
cargo build --release --offline -q --manifest-path pipebench/Cargo.toml
cargo test --release --offline -q --manifest-path pipebench/Cargo.toml
for pinned in dense_probing:6d3efe742497722a faulted_isp_view:09504a626da89872; do
  workload="${pinned%%:*}"
  digest="${pinned##*:}"
  out="$tmpdir/pipebench_$workload.txt"
  pipebench/target/release/pipebench --workload "$workload" --seconds 0 --trace 1 \
    > "$out" 2> /dev/null
  grep -q '"correct": true' "$out" || { echo "    FAIL: $workload is not correct"; exit 1; }
  grep -q "^# digest $digest " "$out" || {
    echo "    FAIL: $workload digest moved from $digest"; grep '^# digest' "$out"; exit 1; }
  echo "    $workload: correct, digest $digest"
done

echo "CI OK"
