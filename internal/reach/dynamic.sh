#!/usr/bin/env bash
# make reach-dynamic: what production traffic actually runs. The static
# gate (reach.go) says a declaration *can* be reached from a binary, a
# workload or an example; this builds all of them with coverage
# counters over the whole module, runs the five benchmark workloads
# traced plus every binary in every documented mode under one
# GOCOVERDIR, and prints total statement coverage and the functions
# under internal/ no run entered. Not a gate and not tier-1 (a few
# minutes on two cores): the output is the next prune's worklist, and
# the check that an allowlist reason is still true. Run from the root
# of a checkout; everything it writes stays in .reach_dynamic/.
set -euo pipefail
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT # no daemon outlives a failed run

out="$PWD/.reach_dynamic"
rm -rf "$out"
mkdir -p "$out/bin" "$out/cov" "$out/work"
go build -cover -covermode=atomic -coverpkg=./... -o "$out/bin/" ./benchmark ./cmd/... ./examples/...
export GOCOVERDIR="$out/cov"
B="$out/bin" W="$out/work"
tiny="-seed 7 -device-scale 1e-3 -addr-scale 1e-6 -as-scale 0.02"

# status FILE KEY: the daemon's first stdout line is JSON; wait for it
# and print one string member.
status() {
	until [ -s "$1" ]; do sleep 0.1; done
	sed -n "1s/.*\"$2\":\"\([^\"]*\)\".*/\1/p" "$1"
}

echo "== benchmark workloads, traced"
for w in campaign_clean campaign_durable cluster_lease serve_sealed serve_live; do
	"$B/benchmark" -workload "$w" -seconds 4 -trace 1 >"$W/bench-$w.txt"
done

echo "== experiments"
"$B/experiments" $tiny -workers 4 -out "$W/plain.txt"
"$B/experiments" $tiny -workers 4 -ablations -out "$W/ablations.txt"
"$B/experiments" $tiny -workers 4 -collect-only -out "$W/collect.txt"
"$B/experiments" $tiny -workers 4 -store "$W/c.store" -metrics "$W/c.prom" -out "$W/store.txt"
"$B/experiments" $tiny -workers 4 -congestion-ladder -out "$W/ladder.txt"
"$B/experiments" $tiny -workers 4 -nodes 3 -out "$W/nodes3.txt"

echo "== clusterd with two node processes"
"$B/clusterd" -shards 32 -nodes 2 >"$W/clusterd.json" &
clusterd=$!
url="http://$(status "$W/clusterd.json" listening)"
"$B/experiments" $tiny -workers 4 -cluster "$url" -nodes 2 -node 0 -store "$W/n0.store" -out "$W/n0.txt" &
node0=$!
"$B/experiments" $tiny -workers 4 -cluster "$url" -nodes 2 -node 1 -store "$W/n1.store" -out "$W/n1.txt"
wait $node0
curl -fsS "$url/metrics" >/dev/null
kill -INT $clusterd
wait $clusterd

echo "== poolsim, v6scan, analyze, telescope"
"$B/poolsim" $tiny >"$W/targets.txt" 2>/dev/null
"$B/v6scan" $tiny -targets - -workers 8 -store "$W/t.store" <"$W/targets.txt" >"$W/t.jsonl" 2>/dev/null
"$B/v6scan" $tiny -hitlist -workers 8 -store "$W/h.store" -metrics "$W/h.prom" >"$W/h.jsonl" 2>/dev/null
"$B/analyze" $tiny -ntp "$W/c.store" -hitlist "$W/h.jsonl" >"$W/analyze-store.txt"
"$B/analyze" $tiny -ntp "$W/t.jsonl" >"$W/analyze-jsonl.txt"
"$B/telescope" -seed 7 -v >"$W/telescope.txt"

echo "== queryd, sealed and live"
for mode in "-store $W/c.store" "-demo-seed 7"; do
	"$B/queryd" $mode -listen 127.0.0.1:0 >"$W/queryd.json" &
	queryd=$!
	url="http://$(status "$W/queryd.json" listening)"
	curl -fsS "$url/v1/tables/modules" "$url/v1/tables/table2" "$url/v1/tables/vantages" \
		"$url/v1/tables/slices" "$url/v1/tables/prefixes?n=5" \
		"$url/v1/query?kind=results&module=ssh&limit=3" \
		"$url/v1/query?kind=captures&limit=3" "$url/metrics" >/dev/null
	kill -INT $queryd
	wait $queryd
	rm "$W/queryd.json"
done

echo "== ntpserved"
"$B/ntpserved" -listen 127.0.0.1:0 >"$W/captures.jsonl" 2>"$W/ntpserved.err" &
ntpserved=$!
until [ -s "$W/ntpserved.err" ]; do sleep 0.1; done
port=$(sed -n '1s/.* on [^ ]*:\([0-9]*\) .*/\1/p' "$W/ntpserved.err")
# One SNTP client request: LI 0, version 4, mode 3, the rest zero.
printf '\x23%047d' 0 | tr '0' '\0' >"/dev/udp/127.0.0.1/$port"
until [ -s "$W/captures.jsonl" ]; do sleep 0.1; done
kill -INT $ntpserved
wait $ntpserved

echo "== examples"
for e in quickstart iot-audit covert-detect realsockets; do
	"$B/$e" >"$W/example-$e.txt"
done

unset GOCOVERDIR
go tool covdata textfmt -i="$out/cov" -o="$out/profile.txt"
go tool cover -func="$out/profile.txt" >"$out/func.txt"
echo "== functions under internal/ that no run entered"
awk '$1 ~ /^ntpscan\/internal\// && $NF == "0.0%" { print $1, $2 }' "$out/func.txt" | tee "$out/zero.txt"
echo "== $(wc -l <"$out/zero.txt") functions under internal/ at zero; statements covered: $(awk '/^total:/ { print $NF }' "$out/func.txt")"
