#!/bin/sh
# CI gate: vet + build + full test suite under the race detector.
# Equivalent to `make check`.
set -eux
go vet ./...
# Tests wait on a condition (a ManualClock, a channel, a retry hook),
# never on the wall clock: a sleep is either too short on a loaded host
# or too long everywhere else.
if grep -rnE 'time\.(Sleep|After)\(' --include='*_test.go' .; then
  echo "ci: wall-clock wait in a _test.go file (see above)" >&2
  exit 1
fi
go build ./...
go test -race ./...
# Fault-injection suite over the fixed seed matrix (see `make chaos`),
# including the node-loss leg: cluster campaigns (Nodes=3) with a
# mid-campaign node kill and a control-plane partition per run, under
# -race, demanding byte-identical output and fenced zombie results.
# The transport leg repeats the node-loss campaigns with the control
# plane over a real loopback socket (Nodes=1/3/8) and adds the fabric
# restart/reconnect and clusterd daemon drivers.
make chaos
# Fuzz smoke: every fuzz target for a short burst on its seed corpus.
# NTPSCAN_FUZZTIME overrides the per-target budget.
make fuzz-smoke FUZZTIME="${NTPSCAN_FUZZTIME:-10s}"
# Coverage gate: library statement coverage must not drop below the
# committed baseline (COVERAGE_baseline.txt) minus 0.5 points.
make cover-gate
# Pruning gate: no declaration under internal/ or cmd/ that only its own
# package's tests reach, unless internal/reach/allowlist.txt says why.
make reach
# Optional bench regression gate against the committed BENCH baseline.
# The timed run is plain `go test -bench` — deliberately NOT -race,
# whose overhead would swamp every threshold. Opt in with
# NTPSCAN_BENCH_COMPARE=1 (off by default: shared CI hosts make wall
# time unreliable; allocation counts are what the gate really pins).
if [ "${NTPSCAN_BENCH_COMPARE:-0}" = "1" ]; then
  # bench-compare covers the pipeline, store, and query-serving
  # baselines (BENCH_pipeline.json, BENCH_store.json, BENCH_query.json);
  # the query leg also gates tail latency (p50-ns/p99-ns at the ns
  # threshold).
  make bench-compare
  # Scale-ladder gate: SCALE=100 must hold under 20x the SCALE=1 live
  # heap, and no rung's live_heap_bytes may regress against the
  # committed baseline.
  make bench-scale
fi
