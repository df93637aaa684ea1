GO ?= go
FUZZTIME ?= 10s

.PHONY: all check vet build test race profiles chaos fuzz-smoke cover \
	cover-gate reach reach-dynamic mutants loc

all: check

# check is the CI gate: vet, build everything, then the full test suite
# under the race detector (the parallel collection/scan pipeline is
# exactly the kind of code -race exists for).
check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the fault-injection suite under the race detector across a
# fixed seed matrix: the netsim fault engine, the zgrab retry/breaker
# machinery, campaign checkpoint/resume, the end-to-end chaos campaigns
# in internal/chaos, and the metric conservation invariants in
# internal/obs. NTPSCAN_CHAOS_SEEDS overrides the seeds. The node-loss
# leg runs the cluster campaign (Nodes=3, a mid-campaign kill plus a
# control-plane partition per run) over the same seed matrix, demanding
# byte-identical output, epoch-fenced zombie submissions, and the
# cluster task-conservation law; the transport leg repeats it with the
# control plane over a real loopback socket (coordinator served by the
# HTTP transport, nodes dialing back as wire clients, Nodes=1/3/8),
# plus the fabric restart/reconnect and multi-replica drivers. The
# congested-fabric leg runs the campaign behind saturated emulated
# links with mid-campaign route churn (internal/netsim/link) and
# demands byte-identical output across worker counts, across a resume,
# and across cluster node counts, plus the link_* conservation laws. A
# final leg re-runs the end-to-end campaign suites for one seed against
# a 10x world through the arenas — same faults, same oracles. The store
# leg repeats the reader/writer race tests ten times: scans, replays,
# manifest reads and read-only opens of the directory against a writer
# that appends, compacts and seals. The sink leg repeats the campaign's
# sink hand-off five times: the sink goroutine reads its slice's stretch
# of the capture log while the campaign goroutine appends after it, and
# writes the JSONL buffer a worker's run handed over while that worker
# fills the buffer it took in exchange.
chaos:
	NTPSCAN_CHAOS_SEEDS="$${NTPSCAN_CHAOS_SEEDS:-11 23 42}" \
		$(GO) test -race -skip 'Congested' ./internal/chaos/ ./internal/netsim/ ./internal/netsim/link/ ./internal/zgrab/ ./internal/core/ ./internal/obs/ ./internal/store/
	$(GO) test -race -count=10 -run 'WhileAppend|WhileWriting|AcrossCompaction|WaitsForOpen|PublishedView|BesideAWriter' ./internal/store/
	$(GO) test -race -count=5 -run 'TestSinkCallsKeepSliceOrder|TestOutWriterRunsBehindInSliceOrder|TestCheckpointWaitsForItsSliceJob|TestStoreCampaignBitIdenticalAcrossWorkers' ./internal/core/
	NTPSCAN_CHAOS_SEEDS="$${NTPSCAN_CHAOS_SEEDS:-11 23 42}" \
		$(GO) test -race ./internal/cluster/ ./internal/cluster/transport/ ./cmd/clusterd/
	NTPSCAN_CHAOS_SEEDS="$${NTPSCAN_CHAOS_SEEDS:-11 23 42}" \
		$(GO) test -race -run 'Congested|TestLink' ./internal/chaos/ ./internal/obs/
	NTPSCAN_CHAOS_SEEDS=23 NTPSCAN_CHAOS_SCALE=10 \
		$(GO) test -race -skip 'Congested' ./internal/chaos/ ./internal/obs/

# fuzz-smoke runs every fuzz target for a short burst (FUZZTIME each,
# default 10s) on top of its committed seed corpus under testdata/fuzz.
# This is the CI tier of fuzzing — long exploratory runs stay manual:
#   go test -fuzz '^FuzzDecode$' -fuzztime 10m ./internal/ntp/
# The fuzzer minimizes each new interesting input for up to
# -fuzzminimizetime (60s by default) and runs no new input meanwhile,
# so a burst that finds one early could spend the rest minimizing; one
# minimization attempt per input keeps the burst fuzzing. Each target's
# last exec count is printed after its log, so an idle burst shows.
FUZZ_TARGETS := \
	./internal/ntp:FuzzDecode \
	./internal/tlsx:FuzzUnmarshalCert \
	./internal/proto/sshx:FuzzParseServerID \
	./internal/proto/coapx:FuzzParse \
	./internal/proto/coapx:FuzzParseLinkFormat \
	./internal/proto/amqpx:FuzzReadFrame \
	./internal/proto/httpx:FuzzReadResponse \
	./internal/proto/httpx:FuzzExtractTitle \
	./internal/proto/httpx:FuzzServeConn \
	./internal/proto/mqttx:FuzzReadPacket \
	./internal/proto/mqttx:FuzzDecodeConnect \
	./internal/zgrab:FuzzResultAppendJSON \
	./internal/zgrab:FuzzDecodeJSONL \
	./internal/core:FuzzCheckpointAppendJSON \
	./internal/core:FuzzOrderedSinkMerge \
	./internal/store:FuzzSegmentDecode \
	./internal/store:FuzzSpliceMatchesAppendJSON \
	./internal/store:FuzzManifestRecover \
	./internal/store:FuzzCompactIsConcatenation \
	./internal/query:FuzzQueryParams \
	./internal/cluster:FuzzCheckpointDecode \
	./internal/cluster/transport:FuzzTransportFrameDecode \
	./internal/netsim/link:FuzzLinkPlanDecode \
	./internal/rng:FuzzHashMatchesFNV

fuzz-smoke:
	@set -e; log=$$(mktemp); trap 'rm -f "$$log"' EXIT; \
	for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "== fuzz $$pkg $$fn"; \
		if ! $(GO) test -run NONE -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME) \
			-fuzzminimizetime 1x $$pkg >"$$log" 2>&1; then \
			cat "$$log"; exit 1; \
		fi; \
		cat "$$log"; \
		echo "== $$fn execs $$(grep -o 'execs: [0-9]*' "$$log" | tail -n 1 | cut -d' ' -f2)"; \
	done

# cover writes the library coverage profile (cmd/ mains are glue over
# the internal packages and are deliberately excluded from the gate).
cover:
	$(GO) test -coverprofile coverage.out ./internal/... .
	@$(GO) tool cover -func coverage.out | tail -1

# cover-gate fails if total statement coverage drops more than 0.5
# points below the committed COVERAGE_baseline.txt. Raise the baseline
# when a PR genuinely lifts coverage:
#   make cover && go tool cover -func coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}' > COVERAGE_baseline.txt
cover-gate: cover
	@total=$$($(GO) tool cover -func coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	base=$$(cat COVERAGE_baseline.txt); \
	echo "coverage: $$total% (baseline $$base%)"; \
	awk -v t="$$total" -v b="$$base" 'BEGIN { exit !(t >= b - 0.5) }' || \
		{ echo "cover-gate: coverage $$total% fell below baseline $$base% - 0.5"; exit 1; }

# reach is the pruning gate: a type-checked reachability pass over the
# whole module, tests included (internal/reach). It fails on any
# declaration under internal/ or cmd/ that only its own package's tests
# reach and that internal/reach/allowlist.txt does not name with a
# reason, and on allowlist lines that have gone stale. Not tier-1: it
# type-checks the standard library from source.
reach:
	NTPSCAN_REACH=1 $(GO) test -count=1 -v -run '^TestReach$$' ./internal/reach/

# reach-dynamic is reach's measured counterpart: every binary, example
# and benchmark workload built with coverage counters and run in every
# documented mode, then the functions under internal/ that none of them
# entered (internal/reach/dynamic.sh; a few minutes, writes only
# .reach_dynamic/). Not a gate: it is the next prune's worklist.
reach-dynamic:
	bash internal/reach/dynamic.sh

# mutants is the mutation gate: each patch under
# internal/reach/testdata/mutants/ breaks the program on purpose and
# names, in its header, the tests that must fail under it
# (internal/reach/mutants.sh; under a minute on a warm build cache,
# without -race). It fails if such a test passes or if a patch no
# longer applies: a change that moves the mutated code re-points the
# patch.
mutants:
	bash internal/reach/mutants.sh

# loc prints non-test code lines per package — lines that are neither
# blank nor only a // comment, over the non-_test.go files — the count
# every CHANGES.md entry reports before and after.
loc:
	@for d in $$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './.reach_dynamic/*' -exec dirname {} \; | sort -u); do \
		n=$$(ls $$d/*.go | grep -v '_test\.go$$' | xargs cat | grep -cvE '^\s*(//.*)?$$'); \
		printf '%6d %s\n' "$$n" "$${d#./}"; \
	done

# profiles emits pprof CPU+heap profiles and an execution trace of the
# full campaign at the default scale (cmd/experiments through
# internal/prof) into ./profiles/. Inspect with e.g.
#   go tool pprof -top -sample_index=alloc_objects profiles/campaign.mem.out
profiles:
	mkdir -p profiles
	$(GO) run ./cmd/experiments -out profiles/campaign.txt \
		-cpuprofile profiles/campaign.cpu.out \
		-memprofile profiles/campaign.mem.out \
		-trace profiles/campaign.trace.out
