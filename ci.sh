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
# Mutation gate: every recorded mutant must still fail the tests its
# patch names (see `make mutants`).
make mutants
