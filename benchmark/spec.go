package main

import (
	"fmt"
	"regexp"
)

// The benchmark's definition: workloads, end-to-end metrics with their
// regression bounds, the dense projection BENCHMARK.json exposes to the
// driver, and the per-layer metric names. harness_test.go holds
// BENCHMARK.json to this file; README.md explains the choices.

// Workload names are fixed: later issues cite them.
const (
	wClean   = "campaign_clean"
	wDurable = "campaign_durable"
	wCluster = "cluster_lease"
	wSealed  = "serve_sealed"
	wLive    = "serve_live"
)

type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{wClean, "collect-and-scan path alone (world, ntp, netsim, zgrab, proto, core); store, query and cluster idle; baseline for the other campaigns"},
	{wDurable, "same campaign with store, aggregates, telemetry and checkpoints, then a resume from slice 88; the durable sink does about half the work"},
	{wCluster, "same campaign dispatched through the in-process coordinator under one node crash and one partition, so leases move and epochs fence"},
	{wSealed, "read path alone over a sealed store: cold scans on fresh handles, then closed-loop tables and scans that fit the block cache"},
	{wLive, "one closed-loop reader beside a Workers=1 durable campaign on the same store and aggregates; reads contend with writes"},
}

// metricSpec is one named metric. Bound is the share of the reference
// median by which the metric may worsen before -repeat-check (and, for
// gate metrics, the driver) calls it a regression; per-layer metrics
// carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// On lists the workloads reporting the metric; nil means all.
	On []string
}

var (
	campaigns = []string{wClean, wDurable, wCluster}
	serves    = []string{wSealed, wLive}
)

// endToEnd is the program's own end-to-end list: the issue's fourteen
// plus slice_p50_ms and allocs_per_request. A workload reports the
// metrics marked for it. The bounds on timings are twice the issue's:
// ten runs on ten seeds spread 5 to 10 % on this shared host even in
// reference-host time (README, "Bounds"), and a bound inside the noise
// calls every second run a regression. Counts keep the issue's 1 %.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "results_per_s", Unit: "1/s", Better: "higher", Bound: 0.20, On: []string{wClean, wDurable, wCluster, wLive}},
	{Name: "slice_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, On: campaigns},
	{Name: "slice_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: campaigns},
	{Name: "allocs_per_result", Unit: "count", Better: "lower", Bound: 0.01, On: campaigns},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "checkpoint_kb_max", Unit: "KB", Better: "lower", Bound: 0.01, On: []string{wDurable}},
	{Name: "resume_s", Unit: "s", Better: "lower", Bound: 0.25, On: []string{wDurable}},
	{Name: "store_bytes_per_row", Unit: "B", Better: "lower", Bound: 0.01, On: []string{wDurable}},
	{Name: "query_rps", Unit: "1/s", Better: "higher", Bound: 0.25, On: serves},
	{Name: "table_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: serves},
	{Name: "scan_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, On: serves},
	{Name: "scan_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: serves},
	{Name: "scan_cold_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{wSealed}},
	{Name: "allocs_per_request", Unit: "count", Better: "lower", Bound: 0.10, On: []string{wSealed}},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0},
}

// gateSpec is one end_to_end entry of BENCHMARK.json. The driver wants
// every workload to print every gate metric, never zero, so the gate is
// a dense projection of endToEnd: From names, per workload, the
// end-to-end metric whose value the gate metric carries.
type gateSpec struct {
	metricSpec
	From map[string]string
}

func fromAll(campaign, sealed, live string) map[string]string {
	return map[string]string{wClean: campaign, wDurable: campaign, wCluster: campaign, wSealed: sealed, wLive: live}
}

var gate = []gateSpec{
	{metricSpec{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
		fromAll("results_per_s", "query_rps", "results_per_s")},
	{metricSpec{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
		fromAll("slice_p50_ms", "scan_p50_ms", "scan_p50_ms")},
	{metricSpec{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		fromAll("slice_p95_ms", "scan_p95_ms", "scan_p95_ms")},
	{metricSpec{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
		fromAll("peak_rss_mb", "peak_rss_mb", "peak_rss_mb")},
	{metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		fromAll("setup_s", "setup_s", "setup_s")},
}

// perLayer lists the -trace run's metrics, <module>.<metric>. Every
// traced run drives every layer, so every workload prints all of them;
// trace.overhead_share is the running workload's.
var perLayer = []metricSpec{
	{Name: "world.new_ms", Unit: "ms", Better: "lower"},
	{Name: "world.device_ns", Unit: "ns", Better: "lower"},
	{Name: "world.device_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "world.allocs_per_device", Unit: "count", Better: "lower"},
	{Name: "ntppool.mapclient_ns", Unit: "ns", Better: "lower"},
	{Name: "ntp.respond_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "ntp.codec_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "ntp.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "netsim.dial_echo_us", Unit: "us", Better: "lower"},
	{Name: "netsim.dial_dark_us", Unit: "us", Better: "lower"},
	{Name: "netsim.udp_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "netsim.allocs_per_dial", Unit: "count", Better: "lower"},
	{Name: "netsim.link.traverse_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.link.blocked_share", Unit: "share", Better: "lower"},
	{Name: "zgrab.scan_us_per_live_target", Unit: "us", Better: "lower"},
	{Name: "zgrab.scan_us_per_dark_target", Unit: "us", Better: "lower"},
	{Name: "zgrab.drain_targets_per_s", Unit: "1/s", Better: "higher"},
	{Name: "zgrab.probes_per_target", Unit: "count", Better: "lower"},
	{Name: "zgrab.success_share", Unit: "share", Better: "higher"},
	{Name: "zgrab.suppressed_share", Unit: "share", Better: "higher"},
	{Name: "zgrab.allocs_per_target", Unit: "count", Better: "lower"},
	{Name: "proto.httpx.scan_us", Unit: "us", Better: "lower"},
	{Name: "proto.sshx.scan_us", Unit: "us", Better: "lower"},
	{Name: "proto.mqttx.scan_us", Unit: "us", Better: "lower"},
	{Name: "proto.amqpx.scan_us", Unit: "us", Better: "lower"},
	{Name: "proto.coapx.scan_us", Unit: "us", Better: "lower"},
	{Name: "tlsx.handshake_us", Unit: "us", Better: "lower"},
	{Name: "core.collect_captures_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "core.scan_share", Unit: "share", Better: "lower"},
	{Name: "core.jsonl_bytes_per_result", Unit: "B", Better: "lower"},
	{Name: "core.checkpoint_encode_ms_total", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_kb_slice8", Unit: "KB", Better: "lower"},
	{Name: "core.checkpoint_kb_slice48", Unit: "KB", Better: "lower"},
	{Name: "core.checkpoint_kb_slice88", Unit: "KB", Better: "lower"},
	{Name: "core.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "store.append_ms_per_slice", Unit: "ms", Better: "lower"},
	{Name: "store.append_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.compact_ms_total", Unit: "ms", Better: "lower"},
	{Name: "store.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "store.bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "store.seal_ms", Unit: "ms", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.reset_ms", Unit: "ms", Better: "lower"},
	{Name: "store.scan_cold_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.scan_warm_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.scan_cold_allocs_per_row", Unit: "count", Better: "lower"},
	{Name: "store.scan_selective_ms", Unit: "ms", Better: "lower"},
	{Name: "store.blocks_skipped_share", Unit: "share", Better: "higher"},
	{Name: "store.cache_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "store.export_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "query.aggregate_ms_per_slice", Unit: "ms", Better: "lower"},
	{Name: "query.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "query.snapshot_kb", Unit: "KB", Better: "lower"},
	{Name: "query.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "query.fromstore_ms", Unit: "ms", Better: "lower"},
	{Name: "query.handler_table_us", Unit: "us", Better: "lower"},
	{Name: "query.handler_scan_us", Unit: "us", Better: "lower"},
	{Name: "query.http_stack_us", Unit: "us", Better: "lower"},
	{Name: "query.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "query.rows_examined_per_returned", Unit: "ratio", Better: "lower"},
	{Name: "cluster.slice_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.fabric_call_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.calls_per_slice", Unit: "count", Better: "lower"},
	{Name: "cluster.fenced_total", Unit: "count", Better: "lower"},
	{Name: "cluster.lost_total", Unit: "count", Better: "lower"},
	{Name: "cluster.transport.rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.transport.rtt_us_p95", Unit: "us", Better: "lower"},
	{Name: "cluster.transport.bytes_per_call", Unit: "B", Better: "lower"},
	{Name: "cluster.transport.calls_per_campaign", Unit: "count", Better: "lower"},
	{Name: "cluster.transport.campaign_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.telemetry_ms_per_slice", Unit: "ms", Better: "lower"},
	{Name: "obs.telemetry_bytes_per_slice", Unit: "B", Better: "lower"},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.prom_write_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.newdataset_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.table2_ms", Unit: "ms", Better: "lower"},
	{Name: "hitlist.build_ms", Unit: "ms", Better: "lower"},
	{Name: "hitlist.scan_results_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// reports says whether workload w reports end-to-end metric m.
func (m metricSpec) reports(w string) bool {
	if m.On == nil {
		return true
	}
	for _, on := range m.On {
		if on == w {
			return true
		}
	}
	return false
}

func findMetric(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

func findWorkload(name string) bool {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return true
		}
	}
	return false
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Limits BENCHMARK.json must stay inside (the driver refuses the file
// otherwise).
const (
	minWorkloads = 2
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxGateBound = 0.25
)

// validateSpec checks names, units, counts and cross-references of a
// benchmark definition.
func validateSpec(ws []workloadSpec, e2e []metricSpec, g []gateSpec, layers []metricSpec) error {
	if len(ws) < minWorkloads || len(ws) > maxWorkloads {
		return fmt.Errorf("%d workloads, want %d to %d", len(ws), minWorkloads, maxWorkloads)
	}
	if len(e2e) < 1 || len(e2e) > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1 to %d", len(e2e), maxEndToEnd)
	}
	if len(g) < 1 || len(g) > maxEndToEnd {
		return fmt.Errorf("%d gate metrics, want 1 to %d", len(g), maxEndToEnd)
	}
	if len(layers) < 1 || len(layers) > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1 to %d", len(layers), maxPerLayer)
	}
	seen := map[string]bool{}
	use := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[kind+" "+name] {
			return fmt.Errorf("%s name %q used twice", kind, name)
		}
		seen[kind+" "+name] = true
		return nil
	}
	for _, w := range ws {
		if err := use("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	checkMetric := func(kind string, m metricSpec) error {
		if err := use(kind, m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		return nil
	}
	for _, m := range e2e {
		if err := checkMetric("end-to-end", m); err != nil {
			return err
		}
		for _, on := range m.On {
			if !seen["workload "+on] {
				return fmt.Errorf("metric %s: unknown workload %q", m.Name, on)
			}
		}
	}
	setup := false
	for _, m := range g {
		// The gate and the per-layer list share the driver's one name space.
		if err := checkMetric("driver", m.metricSpec); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > maxGateBound {
			return fmt.Errorf("gate metric %s: bound %v outside (0, %v]", m.Name, m.Bound, maxGateBound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
		for _, w := range ws {
			src, ok := findMetric(e2e, m.From[w.Name])
			if !ok || !src.reports(w.Name) {
				return fmt.Errorf("gate metric %s on %s: source %q is not reported there", m.Name, w.Name, m.From[w.Name])
			}
			if src.Unit != m.Unit || src.Better != m.Better {
				return fmt.Errorf("gate metric %s on %s: source %s has another unit or direction", m.Name, w.Name, src.Name)
			}
		}
	}
	if !setup {
		return fmt.Errorf("gate lacks setup_s in s, lower is better")
	}
	for _, m := range layers {
		if err := checkMetric("driver", m); err != nil {
			return err
		}
	}
	return nil
}
