package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ntpscan/internal/analysis"
	"ntpscan/internal/cluster"
	"ntpscan/internal/cluster/transport"
	"ntpscan/internal/core"
	"ntpscan/internal/hitlist"
	"ntpscan/internal/netsim"
	"ntpscan/internal/netsim/link"
	"ntpscan/internal/ntp"
	"ntpscan/internal/obs"
	"ntpscan/internal/query"
	"ntpscan/internal/rng"
	"ntpscan/internal/store"
	"ntpscan/internal/tlsx"
	"ntpscan/internal/world"
	"ntpscan/internal/zgrab"
)

// The per-layer run. Layers are measured from outside: the benchmark
// times calls into each module's exported functions, on inputs captured
// from a campaign through the seams core.CampaignOpts exposes, and
// wraps each driver call in a span. Nothing here edits or instruments
// the program.

// layerRun holds the per-layer metrics and the shape counts the budget
// tables multiply them with.
type layerRun struct {
	e   *env
	rec *recorder
	m   map[string]float64

	// Campaign shape, from the clean layer campaign.
	rows                int
	liveTargets         float64
	darkTargets         float64
	cleanMs, jsonlMs    float64
	checkpoints         float64
	tableUs, scanUs     float64
	clusterCallsPerSlot float64
}

// span times fn as one layer-driver call.
func (l *layerRun) span(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	l.rec.add("layer."+name, 0, t0, t1)
	return t1.Sub(t0)
}

// count scales a fixed repetition count: as given in a benchmark run, a
// tenth (at least one) in the tier-1 smoke test.
func (l *layerRun) count(n int) int {
	if l.e.quick {
		return max(n/10, 1)
	}
	return n
}

// runs is how often a whole campaign is repeated for a median or an
// exactness check: twice, once in the smoke test.
func (l *layerRun) runs() int {
	if l.e.quick {
		return 1
	}
	return 2
}

// perOp times count(n) calls of fn inside one span and returns ns per
// call and allocations per call.
func (l *layerRun) perOp(name string, n int, fn func(i int)) (ns, allocs float64) {
	n = l.count(n)
	m0 := mallocs()
	d := l.span(name, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	return float64(d.Nanoseconds()) / float64(n), float64(mallocs()-m0) / float64(n)
}

// medianOf runs fn count(reps) times and returns the median duration in
// ms.
func (l *layerRun) medianOf(name string, reps int, fn func()) float64 {
	var v []float64
	for i := l.count(reps); i > 0; i-- {
		v = append(v, ms(l.span(name, fn)))
	}
	return median(v)
}

// runLayers drives every layer once and returns the metrics.
func runLayers(e *env, rec *recorder) (*layerRun, error) {
	l := &layerRun{e: e, rec: rec, m: map[string]float64{}}
	steps := []func() error{
		l.worldLayer, l.ntpLayer, l.netsimLayer, l.linkLayer, l.scanLayers,
		l.cleanCampaignLayers, l.durableLayers, l.clusterLayers,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	// The clean campaign's own budget residual is a per-layer metric:
	// what share of its wall time no layer driver accounts for.
	l.m["core.unattributed_share"] = l.campaignBudget(wClean, l.cleanMs).residualShare()
	for _, spec := range perLayer {
		if _, ok := l.m[spec.Name]; !ok && spec.Name != "trace.overhead_share" {
			return nil, fmt.Errorf("layer run did not measure %s", spec.Name)
		}
	}
	return l, nil
}

// ---- world, ntppool ----

func (l *layerRun) worldLayer() error {
	cfg := l.e.config(1)
	wc := cfg.World
	wc.Seed = cfg.Seed
	wc.DialTimeout = 100 * time.Microsecond
	l.m["world.new_ms"] = l.medianOf("world.New", 3, func() { world.New(wc) })

	p := core.NewPipeline(cfg)
	r := rng.New(l.e.seed ^ 0x1a7e5)
	n := l.count(200_000)
	gids := make([]int32, 0, n)
	for i := 0; len(gids) < n; i++ {
		if i == 100*n {
			return fmt.Errorf("world: the vantage countries have no clients to sample")
		}
		// A small world may leave a vantage country without clients.
		if gid := p.W.SampleClientID(p.Servers[i%len(p.Servers)].Country, r); gid >= 0 {
			gids = append(gids, gid)
		}
	}
	arena := p.W.NewMaterializer(p.Cfg.ArenaBytes) // one shard's arena budget
	ns, allocs := l.perOp("world.Materializer.Device", n, func(i int) { arena.Device(gids[i]) })
	st := arena.TakeStats()
	l.m["world.device_ns"] = ns
	l.m["world.allocs_per_device"] = allocs
	l.m["world.device_hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Materializations)

	ns, _ = l.perOp("ntppool.Pool.MapClient", n, func(i int) {
		p.Pool.MapClient(p.Servers[i%len(p.Servers)].Country, r)
	})
	l.m["ntppool.mapclient_ns"] = ns
	return nil
}

// ---- ntp ----

func (l *layerRun) ntpLayer() error {
	// The collection fast path's shape: every client of a frozen slice
	// sends the same mode-3 request, in slabs of a few thousand.
	const batch, batches = 4096, 64
	now := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	srv := ntp.NewServer(ntp.ServerConfig{Now: func() time.Time { return now }})
	clients := make([]netip.AddrPort, batch)
	pkts := make([]ntp.Packet, batch)
	for i := range clients {
		clients[i] = netip.AddrPortFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 12: byte(i >> 8), 13: byte(i)}), 40000)
		pkts[i] = ntp.ClientPacket(now)
	}
	var reqs, resp []byte
	oks := make([]bool, batch)
	back := make([]ntp.Packet, batch)
	m0 := mallocs()
	var bad error
	codec := l.span("ntp.EncodeBatch+DecodeBatch", func() {
		for b := 0; b < batches; b++ {
			reqs = ntp.EncodeBatch(pkts, reqs[:0])
			if _, err := ntp.DecodeBatch(back, reqs); err != nil {
				bad = err
			}
		}
	})
	respond := l.span("ntp.Server.RespondBatch", func() {
		for b := 0; b < batches; b++ {
			var answered int
			resp, answered = srv.RespondBatch(clients, reqs, resp[:0], oks)
			if answered != batch {
				bad = fmt.Errorf("ntp: RespondBatch answered %d of %d", answered, batch)
			}
		}
	})
	if bad != nil {
		return bad
	}
	total := float64(batch * batches)
	l.m["ntp.codec_ns_per_pkt"] = float64(codec.Nanoseconds()) / total
	l.m["ntp.respond_ns_per_pkt"] = float64(respond.Nanoseconds()) / total
	l.m["ntp.allocs_per_pkt"] = float64(mallocs()-m0) / (2 * total)
	return nil
}

// ---- netsim, netsim/link ----

func (l *layerRun) netsimLayer() error {
	clock := netsim.NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
	fabric := netsim.New(netsim.Config{Clock: clock, DialTimeout: 100 * time.Microsecond, Seed: l.e.seed})
	src := netip.MustParseAddr("2001:db8::1")
	echo := netip.MustParseAddr("2001:db8:1::7")
	dark := netip.AddrPortFrom(netip.MustParseAddr("2001:db8:dead::1"), 7)
	fabric.Register(echo, netsim.NewHost("echo").
		HandleTCP(7, func(c net.Conn) {
			defer c.Close()
			var buf [16]byte
			if n, err := c.Read(buf[:]); err == nil {
				c.Write(buf[:n])
			}
		}).
		HandleUDP(7, func(_ netip.AddrPort, payload []byte) [][]byte { return [][]byte{payload} }))

	ctx := context.Background()
	msg := []byte("ping")
	var bad error
	ns, allocs := l.perOp("netsim.DialTCP(echo)", 2000, func(int) {
		conn, err := fabric.DialTCP(ctx, src, netip.AddrPortFrom(echo, 7))
		if err != nil {
			bad = err
			return
		}
		var buf [4]byte
		conn.Write(msg)
		if _, err := io.ReadFull(conn, buf[:]); err != nil || !bytes.Equal(buf[:], msg) {
			bad = fmt.Errorf("netsim: echo returned %q, %v", buf[:], err)
		}
		conn.Close()
	})
	if bad != nil {
		return bad
	}
	l.m["netsim.dial_echo_us"] = ns / 1e3
	l.m["netsim.allocs_per_dial"] = allocs

	ns, _ = l.perOp("netsim.DialTCP(dark)", 50_000, func(int) {
		if _, err := fabric.DialTCP(ctx, src, dark); err == nil {
			bad = fmt.Errorf("netsim: dial to an unregistered address succeeded")
		}
	})
	if bad != nil {
		return bad
	}
	l.m["netsim.dial_dark_us"] = ns / 1e3

	from := netip.AddrPortFrom(src, 40000)
	ns, _ = l.perOp("netsim.SendUDP", 200_000, func(int) { fabric.SendUDP(from, netip.AddrPortFrom(echo, 7), msg) })
	l.m["netsim.udp_ns_per_pkt"] = ns
	return nil
}

func (l *layerRun) linkLayer() error {
	// The congested default link of BenchmarkCampaignCongested: queue
	// outcomes are hash draws, so congestion must cost arithmetic.
	plan := &link.Plan{Seed: l.e.seed ^ 0xc049, Default: &link.Params{
		QueuePackets: 16, BytesPerSec: 64 << 20, PropDelay: 15 * time.Microsecond,
		Utilization: 0.9, JitterMax: 10 * time.Microsecond,
	}}
	if err := plan.Validate(); err != nil {
		return err
	}
	plan.Build()
	n := 500_000
	blocked := 0
	ns, _ := l.perOp("link.Plan.Traverse", n, func(i int) {
		dst := netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 4: byte(i >> 8), 5: byte(i), 15: 1})
		if plan.Traverse(dst, uint64(i)*0x9e3779b97f4a7c15, ntp.PacketSize, i%core.CollectSlices, 2*time.Millisecond).Blocked() {
			blocked++
		}
	})
	l.m["netsim.link.traverse_ns"] = ns
	l.m["netsim.link.blocked_share"] = float64(blocked) / float64(l.count(n))
	return nil
}

// ---- zgrab, proto/*, tlsx ----

func (l *layerRun) scanLayers() error {
	// A pipeline of its own: RegisterAllAt places every reachable
	// device on the fabric, which no campaign pipeline may see.
	p := core.NewPipeline(l.e.config(l.e.workers))
	start := p.W.Cfg.Start
	p.W.RegisterAllAt(start)
	r := rng.New(l.e.seed ^ 0x26ab)
	ctx := context.Background()

	responsive := p.W.ResponsiveNTP()
	if len(responsive) == 0 {
		return fmt.Errorf("world has no responsive devices")
	}
	const nLive, nDark = 400, 4000
	live := make([]netip.Addr, 0, nLive)
	for _, i := range r.Perm(len(responsive)) {
		if len(live) == nLive {
			break
		}
		live = append(live, p.W.CurrentAddr(responsive[i], start))
	}
	darkAddrs := make([]netip.Addr, nDark)
	for i := range darkAddrs {
		darkAddrs[i] = p.W.RandomUnroutedAddr(r)
	}
	newScanner := func(workers int) *zgrab.Scanner {
		return zgrab.NewScanner(zgrab.Config{
			Fabric: p.W.Fabric(), Clock: p.W.Clock(), Source: core.ScanSource,
			Timeout: p.Cfg.Timeout, UDPTimeout: p.Cfg.UDPTimeout, Workers: workers,
			OnResultWorker: func(int, *zgrab.Result) {},
		})
	}

	sc := newScanner(1)
	alive := 0
	ns, allocsLive := l.perOp("zgrab.Scanner.ScanNow(live)", len(live), func(i int) {
		for _, res := range sc.ScanNow(ctx, live[i]) {
			if zgrab.Alive(res) {
				alive++
				break
			}
		}
	})
	if alive == 0 {
		return fmt.Errorf("zgrab: none of %d registered devices answered a scan", len(live))
	}
	l.m["zgrab.scan_us_per_live_target"] = ns / 1e3
	ns, allocsDark := l.perOp("zgrab.Scanner.ScanNow(dark)", nDark, func(i int) { sc.ScanNow(ctx, darkAddrs[i]) })
	l.m["zgrab.scan_us_per_dark_target"] = ns / 1e3
	// Weighted like a campaign's targets, which are mostly dark.
	l.m["zgrab.allocs_per_target"] = (allocsLive*float64(len(live)) + allocsDark*nDark) / float64(len(live)+nDark)

	batch := append(append([]netip.Addr(nil), live...), darkAddrs...)
	r.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	pool := newScanner(l.e.workers)
	pool.Start(ctx)
	d := l.span("zgrab.Scanner.SubmitBatch+Drain", func() {
		pool.SubmitBatch(batch)
		pool.Drain()
	})
	pool.Close()
	l.m["zgrab.drain_targets_per_s"] = float64(len(batch)) / d.Seconds()

	// One successful scan per protocol module, on a device that speaks
	// it.
	env := &zgrab.Env{Net: zgrab.SimNet(p.W.Fabric()), Source: core.ScanSource, Clock: p.W.Clock(),
		Timeout: p.Cfg.Timeout, UDPTimeout: p.Cfg.UDPTimeout, Logical: true}
	for _, pm := range []struct {
		metric string
		mod    zgrab.Module
		svc    world.ServiceKind
	}{
		{"proto.httpx.scan_us", &zgrab.HTTPModule{}, world.SvcHTTP},
		{"proto.sshx.scan_us", &zgrab.SSHModule{}, world.SvcSSH},
		{"proto.mqttx.scan_us", &zgrab.MQTTModule{}, world.SvcMQTT},
		{"proto.amqpx.scan_us", &zgrab.AMQPModule{}, world.SvcAMQP},
		{"proto.coapx.scan_us", &zgrab.CoAPModule{}, world.SvcCoAP},
	} {
		target, ok := l.serviceTarget(p, pm.svc, func(a netip.Addr) bool { return pm.mod.Scan(ctx, env, a).Success() })
		if !ok {
			return fmt.Errorf("%s: no reachable device answers the module", pm.metric)
		}
		ns, _ := l.perOp("zgrab.Module.Scan("+pm.mod.Name()+")", 300, func(int) { pm.mod.Scan(ctx, env, target) })
		l.m[pm.metric] = ns / 1e3
	}

	handshake := func(a netip.Addr) bool {
		conn, err := p.W.Fabric().DialTCP(ctx, core.ScanSource, netip.AddrPortFrom(a, 443))
		if err != nil {
			return false
		}
		defer conn.Close()
		_, err = tlsx.Client(conn, tlsx.ClientConfig{})
		return err == nil
	}
	target, ok := l.serviceTarget(p, world.SvcHTTPS, handshake)
	if !ok {
		return fmt.Errorf("tlsx: no reachable device completes a handshake")
	}
	ns, _ = l.perOp("tlsx.Client", 300, func(int) { handshake(target) })
	l.m["tlsx.handshake_us"] = ns / 1e3
	return nil
}

// serviceTarget finds the current address of a reachable device that
// exposes svc and satisfies try.
func (l *layerRun) serviceTarget(p *core.Pipeline, svc world.ServiceKind, try func(netip.Addr) bool) (netip.Addr, bool) {
	for _, d := range p.W.Reachable() {
		if !d.Profile.HasService(svc) {
			continue
		}
		if a := p.W.CurrentAddr(d, p.W.Cfg.Start); try(a) {
			return a, true
		}
	}
	return netip.Addr{}, false
}

// ---- core (clean), obs, analysis, hitlist ----

func (l *layerRun) cleanCampaignLayers() error {
	ctx := context.Background()
	var p, pc *core.Pipeline
	var ds *analysis.Dataset
	var out *sliceWriter
	var err error
	var cleanMs, collectMs []float64
	for i := 0; i < l.runs(); i++ {
		p = core.NewPipeline(l.e.config(l.e.workers))
		out = newSliceWriter()
		cleanMs = append(cleanMs, ms(l.span("core.Pipeline.RunCampaign(clean)", func() {
			ds, err = p.RunCampaign(ctx, core.CampaignOpts{Out: out})
		})))
		if err != nil {
			return err
		}
		pc = core.NewPipeline(l.e.config(l.e.workers))
		collectMs = append(collectMs, ms(l.span("core.Pipeline.CollectOnly", pc.CollectOnly)))
	}
	l.cleanMs = median(cleanMs)
	l.rows = out.rows
	collect := median(collectMs)
	l.m["core.collect_ms"] = collect
	l.m["core.collect_captures_per_s"] = float64(pc.Captures) / (collect / 1e3)
	l.m["core.scan_share"] = 1 - collect/l.cleanMs
	l.m["core.jsonl_bytes_per_result"] = float64(out.n) / float64(out.rows)

	// Campaign shape for the budget: how many targets were alive.
	mods := len(zgrab.AllModules())
	aliveSeq := map[int64]bool{}
	success := 0
	for _, r := range ds.Results {
		if zgrab.Alive(r) {
			aliveSeq[r.Seq/int64(mods)] = true
		}
		if r.Success() {
			success++
		}
	}
	completed, _ := p.Obs.Value("scan_completed_total")
	submitted, _ := p.Obs.Value("scan_submitted_total")
	suppressed, _ := p.Obs.Value("scan_suppressed_total")
	if completed == 0 || submitted == 0 {
		return fmt.Errorf("campaign registry reports no scanned targets")
	}
	l.liveTargets = float64(len(aliveSeq))
	l.darkTargets = float64(completed) - l.liveTargets
	l.m["zgrab.probes_per_target"] = float64(len(ds.Results)) / float64(completed)
	l.m["zgrab.success_share"] = float64(success) / float64(len(ds.Results))
	l.m["zgrab.suppressed_share"] = float64(suppressed) / float64(submitted)

	enc := json.NewEncoder(io.Discard)
	l.jsonlMs = ms(l.span("json.Encoder.Encode(results)", func() {
		for _, r := range ds.Results {
			if e := enc.Encode(r); e != nil {
				err = e
			}
		}
	}))
	if err != nil {
		return err
	}

	// obs, on the registry the campaign filled.
	var tel countWriter
	tw := obs.NewTelemetryWriter(p.Obs, &tel)
	now := p.W.Clock().Now()
	ns, _ := l.perOp("obs.TelemetryWriter.WriteSlice", core.CollectSlices, func(i int) {
		if e := tw.WriteSlice(i, now); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	l.m["obs.telemetry_ms_per_slice"] = ns / 1e6
	l.m["obs.telemetry_bytes_per_slice"] = float64(tel.n) / core.CollectSlices
	ctr := obs.NewRegistry().NewCounter("benchmark_probe_total", "benchmark probe")
	ns, _ = l.perOp("obs.Counter.Inc", 5_000_000, func(int) { ctr.Inc() })
	l.m["obs.counter_inc_ns"] = ns
	l.m["obs.prom_write_ms"] = l.medianOf("obs.Registry.WritePrometheus", 5, func() {
		if e := p.Obs.WritePrometheus(io.Discard); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	// analysis and hitlist sit outside every workload's timed region;
	// they are recorded so the Table 2 anomaly can be attributed.
	var nd *analysis.Dataset
	l.m["analysis.newdataset_ms"] = l.medianOf("analysis.NewDataset", 3, func() { nd = analysis.NewDataset("ntp", ds.Results) })
	l.m["analysis.table2_ms"] = l.medianOf("analysis.Table2", 3, func() { analysis.Table2(nd) })
	var hl *hitlist.Hitlist
	l.m["hitlist.build_ms"] = ms(l.span("core.Pipeline.BuildHitlist", func() { hl = p.BuildHitlist(hitlist.Config{}) }))
	var hds *analysis.Dataset
	d := l.span("core.Pipeline.ScanHitlist", func() { hds = p.ScanHitlist(ctx, hl) })
	if len(hds.Results) == 0 {
		return fmt.Errorf("hitlist scan produced no results")
	}
	l.m["hitlist.scan_results_per_s"] = float64(len(hds.Results)) / d.Seconds()
	return nil
}

// ---- core (durable), store, query ----

// capturedSlice is one slice's drained data as the durable sinks saw
// it.
type capturedSlice struct {
	slice   int
	caps    []store.CaptureRow
	results []*zgrab.Result
}

// sliceTap is the Aggregates seam used as a tap: it copies each slice's
// rows (the campaign reuses the backing arrays) and forwards to the
// real aggregates.
type sliceTap struct {
	*query.Aggregates
	slices []capturedSlice
}

func (t *sliceTap) AggregateSlice(slice int, caps []store.CaptureRow, results []*zgrab.Result) error {
	t.slices = append(t.slices, capturedSlice{slice,
		append([]store.CaptureRow(nil), caps...), append([]*zgrab.Result(nil), results...)})
	return t.Aggregates.AggregateSlice(slice, caps, results)
}

var errStopDispatch = errors.New("benchmark: stop after restore")

func (l *layerRun) durableLayers() error {
	ctx := context.Background()
	d, err := l.e.newDurableRun(l.e.workers)
	if err != nil {
		return err
	}
	defer d.remove()
	tap := &sliceTap{Aggregates: d.agg}
	out := newSliceWriter()
	opts := l.e.durableOpts(d, out, 0)
	opts.Aggregates = tap
	l.span("core.Pipeline.RunCampaign(durable)", func() { _, err = d.p.RunCampaign(ctx, opts) })
	if err != nil {
		return err
	}
	if d.cpErr != nil {
		return d.cpErr
	}
	l.checkpoints = float64(len(d.cpBytes))
	l.m["core.checkpoint_encode_ms_total"] = float64(d.cpNs) / 1e6
	for _, s := range []int{8, 48, 88} {
		n, ok := d.cpBytes[s]
		if !ok {
			return fmt.Errorf("no checkpoint at slice %d", s)
		}
		l.m[fmt.Sprintf("core.checkpoint_kb_slice%d", s)] = float64(n) / 1024
	}

	// core.restore_ms: ResumeCampaign on a fresh pipeline with a
	// dispatcher that refuses the first slice, so the call is restore
	// plus campaign start-up and no collection.
	f, err := os.Open(filepath.Join(d.cpDir, cpName(resumeSlice)))
	if err != nil {
		return err
	}
	cp, err := cluster.DecodeCheckpoint(f)
	f.Close()
	if err != nil {
		return err
	}
	p2 := core.NewPipeline(l.e.config(l.e.workers))
	l.m["core.restore_ms"] = ms(l.span("core.Pipeline.ResumeCampaign(restore only)", func() {
		_, err = p2.ResumeCampaign(ctx, cp, core.CampaignOpts{
			Dispatch: func(int, []core.ShardRef, func(core.ShardRef)) error { return errStopDispatch },
		})
	}))
	if !errors.Is(err, errStopDispatch) {
		return fmt.Errorf("restore-only resume: %v", err)
	}

	if err := l.storeWriteLayers(tap.slices); err != nil {
		return err
	}
	if err := l.storeReadLayers(d); err != nil {
		return err
	}
	return l.queryLayers(d, tap.slices)
}

// replay appends the captured slices to a fresh store and returns the
// append time, with the store and its registry.
func (l *layerRun) replay(slices []capturedSlice, compactEvery int, name string) (*store.Store, *obs.Registry, time.Duration, error) {
	dir, err := l.e.freshDir("replay")
	if err != nil {
		return nil, nil, 0, err
	}
	reg := obs.NewRegistry()
	st, err := store.Open(dir, store.Options{Obs: reg, CompactEvery: compactEvery})
	if err != nil {
		return nil, nil, 0, err
	}
	d := l.span(name, func() {
		for _, s := range slices {
			if e := st.AppendSlice(s.slice, s.caps, s.results); e != nil && err == nil {
				err = e
			}
		}
	})
	return st, reg, d, err
}

func (l *layerRun) storeWriteLayers(slices []capturedSlice) error {
	var rows int
	for _, s := range slices {
		rows += len(s.caps) + len(s.results)
	}
	plain, _, appendD, err := l.replay(slices, -1, "store.AppendSlice(no compaction)")
	if err != nil {
		return err
	}
	defer os.RemoveAll(plain.Dir())
	l.m["store.append_ms_per_slice"] = ms(appendD) / float64(len(slices))
	l.m["store.append_rows_per_s"] = float64(rows) / appendD.Seconds()

	st, reg, compactD, err := l.replay(slices, 0, "store.AppendSlice(default compaction)")
	if err != nil {
		return err
	}
	defer os.RemoveAll(st.Dir())
	l.m["store.compact_ms_total"] = ms(compactD - appendD)
	mid := st.Manifest() // before Seal: the state ResetTo rewinds to
	l.m["store.seal_ms"] = ms(l.span("store.Seal", func() { err = st.Seal() }))
	if err != nil {
		return err
	}
	size, err := dirBytes(st.Dir())
	if err != nil {
		return err
	}
	written, _ := reg.Value("store_bytes_written_total")
	l.m["store.write_amp"] = float64(written) / float64(size)
	l.m["store.bytes_per_row"] = float64(size) / float64(rows)

	// ResetTo a mid-campaign manifest: the first half of the live
	// segment list, as a checkpoint at that slice would have pinned it.
	mid.Segments = mid.Segments[:len(mid.Segments)/2]
	l.m["store.reset_ms"] = ms(l.span("store.ResetTo", func() { err = st.ResetTo(mid) }))
	return err
}

func (l *layerRun) storeReadLayers(d *durableRun) error {
	var st *store.Store
	var err error
	l.m["store.open_ms"] = l.medianOf("store.Open", 3, func() {
		st, err = store.Open(d.dir, store.Options{})
	})
	if err != nil {
		return err
	}
	scanAll := func(name string) (rows int, stats store.ScanStats, dur time.Duration, allocs uint64) {
		m0 := mallocs()
		dur = l.span(name, func() {
			it := st.Scan(store.Pred{})
			for it.Next() {
				rows++
			}
			err = it.Err()
			stats = it.Stats()
			it.Close()
		})
		return rows, stats, dur, mallocs() - m0
	}
	rows, _, cold, coldAllocs := scanAll("store.Scan(all, cold)")
	if err != nil {
		return err
	}
	if rows == 0 {
		return fmt.Errorf("sealed store scans empty")
	}
	_, warmStats, warm, _ := scanAll("store.Scan(all, warm)")
	if err != nil {
		return err
	}
	l.m["store.scan_cold_rows_per_s"] = float64(rows) / cold.Seconds()
	l.m["store.scan_warm_rows_per_s"] = float64(rows) / warm.Seconds()
	l.m["store.scan_cold_allocs_per_row"] = float64(coldAllocs) / float64(rows)
	l.m["store.cache_hit_ratio"] = float64(warmStats.CacheHits) / float64(max(warmStats.CacheHits+warmStats.CacheMisses, 1))

	sel := windowScan(scanSSH, core.CollectSlices/2)
	var selStats store.ScanStats
	l.m["store.scan_selective_ms"] = l.medianOf("store.Scan(module=ssh, 8 slices)", 20, func() {
		it := st.Scan(sel.pred)
		for it.Next() {
		}
		err = it.Err()
		selStats = it.Stats()
		it.Close()
	})
	if err != nil {
		return err
	}
	l.m["store.blocks_skipped_share"] = float64(selStats.BlocksSkipped) / float64(max(selStats.BlocksRead+selStats.BlocksSkipped, 1))

	_, results, err := st.Rows()
	if err != nil {
		return err
	}
	exp := l.span("store.ExportJSONL", func() { err = st.ExportJSONL(io.Discard, store.Pred{}) })
	l.m["store.export_rows_per_s"] = float64(results) / exp.Seconds()
	return err
}

func (l *layerRun) queryLayers(d *durableRun, slices []capturedSlice) error {
	var err error
	agg := query.NewAggregates()
	aggD := l.span("query.Aggregates.AggregateSlice", func() {
		for _, s := range slices {
			if e := agg.AggregateSlice(s.slice, s.caps, s.results); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	l.m["query.aggregate_ms_per_slice"] = ms(aggD) / float64(len(slices))
	var snap json.RawMessage
	l.m["query.snapshot_ms"] = l.medianOf("query.Aggregates.Snapshot", 3, func() { snap, err = agg.Snapshot() })
	if err != nil {
		return err
	}
	l.m["query.snapshot_kb"] = float64(len(snap)) / 1024
	l.m["query.restore_ms"] = l.medianOf("query.Aggregates.Restore", 3, func() { err = query.NewAggregates().Restore(snap) })
	if err != nil {
		return err
	}
	l.m["query.fromstore_ms"] = ms(l.span("query.FromStore", func() { _, err = query.FromStore(d.st) }))
	if err != nil {
		return err
	}

	// The handler without a socket, then the same requests over
	// loopback: the gap between client-side latency and the envelope's
	// elapsed_ns is the HTTP stack.
	h := query.NewServer(d.st, d.agg, nil).Handler()
	sched, err := newScanSchedule(d.agg) // the serve workloads' mix
	if err != nil {
		return err
	}
	serve := func(path string) error {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 200 {
			return fmt.Errorf("handler %s: status %d", path, rr.Code)
		}
		return nil
	}
	reps := l.count(400)
	ns, tableAllocs := l.perOp("query.Handler(table)", 400, func(i int) {
		if e := serve(tableURLs[i%len(tableURLs)]); e != nil {
			err = e
		}
	})
	l.tableUs = ns / 1e3
	l.m["query.handler_table_us"] = l.tableUs
	ns, scanAllocs := l.perOp("query.Handler(scan)", 400, func(i int) {
		if e := serve(sched.nth(i).url); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	l.scanUs = ns / 1e3
	l.m["query.handler_scan_us"] = l.scanUs
	l.m["query.allocs_per_request"] = (tableAllocs + scanAllocs) / 2

	base, stop, err := serveLoopback(h)
	if err != nil {
		return err
	}
	defer stop()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var stackUs []float64
	var bytesRead, bytesAll, returned float64
	l.span("query over loopback", func() {
		for i := 0; i < reps; i++ {
			path, scan := tableURLs[(i/2)%len(tableURLs)], false
			if i%2 == 1 {
				path, scan = sched.nth(i/2).url, true
			}
			rep, e := get(hc, base, path)
			if e != nil {
				err = e
				return
			}
			stackUs = append(stackUs, float64(rep.latency.Nanoseconds()-rep.stats.ElapsedNs)/1e3)
			if scan {
				bytesRead += float64(rep.stats.BytesRead)
				bytesAll += float64(rep.stats.BytesRead + rep.stats.BytesSkipped)
				returned += float64(rep.stats.Rows)
			}
		}
	})
	if err != nil {
		return err
	}
	l.m["query.http_stack_us"] = median(stackUs)
	// The store reports bytes, not rows, examined: a scan that reads a
	// share of the store's block bytes decoded about that share of its
	// rows.
	caps, results, err := d.st.Rows()
	if err != nil {
		return err
	}
	if returned == 0 || bytesAll == 0 {
		return fmt.Errorf("loopback scans returned no rows")
	}
	examined := float64(caps+results) * float64(len(stackUs)/2) * bytesRead / bytesAll
	l.m["query.rows_examined_per_returned"] = examined / returned
	return nil
}

// ---- cluster, cluster/transport ----

// countingAPI counts control calls on their way to the coordinator.
type countingAPI struct {
	cluster.API
	calls *obs.Counter
}

func (c countingAPI) Claim(node, slice int) ([]cluster.Grant, error) {
	c.calls.Inc()
	return c.API.Claim(node, slice)
}
func (c countingAPI) Heartbeat(node, slice int) ([]cluster.Grant, error) {
	c.calls.Inc()
	return c.API.Heartbeat(node, slice)
}
func (c countingAPI) SubmitSlice(node, shard, slice int, epoch uint64) error {
	c.calls.Inc()
	return c.API.SubmitSlice(node, shard, slice, epoch)
}
func (c countingAPI) Release(node int) error {
	c.calls.Inc()
	return c.API.Release(node)
}

// clusterCampaign runs the cluster_lease campaign once, the nodes'
// control path either in-process or over a loopback socket. It returns
// the wall time and the control calls made.
func (l *layerRun) clusterCampaign(name string, wire bool) (time.Duration, int64, *cluster.Coordinator, error) {
	nodes := l.e.workers
	p := l.e.nodeFaultPipeline(nodes)
	coord, err := cluster.NewCoordinator(p, cluster.Config{Nodes: nodes})
	if err != nil {
		return 0, 0, nil, err
	}
	calls := obs.LocalCounter()
	var clientReg *obs.Registry
	if wire {
		ep, err := transport.ListenLoopback(transport.NewServer(coord, nil))
		if err != nil {
			return 0, 0, nil, err
		}
		defer ep.Close()
		clientReg = obs.NewRegistry()
		coord.SetDial(transport.Dial(ep.URL, clientReg))
	} else {
		coord.SetDial(func(int) cluster.API { return countingAPI{coord, calls} })
	}
	out := newSliceWriter()
	d := l.span(name, func() { _, err = coord.Run(context.Background(), core.CampaignOpts{Out: out}) })
	if err != nil {
		return 0, 0, nil, err
	}
	if out.rows != l.rows {
		return 0, 0, nil, fmt.Errorf("%s produced %d rows, the clean campaign %d", name, out.rows, l.rows)
	}
	n := calls.Value()
	if wire {
		n = 0
		for _, method := range []string{"claim", "heartbeat", "submit", "release"} {
			v, _ := clientReg.Value(fmt.Sprintf("transport_client_calls_total{method=%s}", method))
			n += v
		}
	}
	return d, n, coord, nil
}

func (l *layerRun) clusterLayers() error {
	// Two runs each (one in the smoke test): the call counts are
	// functions of the fault plan and must repeat exactly.
	var inproc, wire []float64
	var inCalls, wireCalls []int64
	var coord *cluster.Coordinator
	for i := 0; i < l.runs(); i++ {
		d, n, c, err := l.clusterCampaign("cluster.Coordinator.Run(in-process)", false)
		if err != nil {
			return err
		}
		inproc, inCalls, coord = append(inproc, ms(d)), append(inCalls, n), c
		if d, n, _, err = l.clusterCampaign("cluster.Coordinator.Run(loopback wire)", true); err != nil {
			return err
		}
		wire, wireCalls = append(wire, ms(d)), append(wireCalls, n)
	}
	for _, calls := range [][]int64{inCalls, wireCalls} {
		for _, n := range calls {
			if n != calls[0] || n == 0 {
				return fmt.Errorf("cluster control calls per campaign did not repeat: %v in process, %v over the wire", inCalls, wireCalls)
			}
		}
	}
	_, _, fenced, lost := coord.TaskCounts()
	clusterMs := median(inproc)
	l.clusterCallsPerSlot = float64(inCalls[0]) / core.CollectSlices
	l.m["cluster.slice_overhead_ms"] = (clusterMs - l.cleanMs) / core.CollectSlices
	l.m["cluster.calls_per_slice"] = l.clusterCallsPerSlot
	l.m["cluster.fenced_total"] = float64(fenced)
	l.m["cluster.lost_total"] = float64(lost)
	l.m["cluster.transport.calls_per_campaign"] = float64(wireCalls[0])
	l.m["cluster.transport.campaign_overhead_ms"] = median(wire) - clusterMs

	// The lease service by itself: a Fabric driven through the cycle a
	// node makes every slice.
	const shards = 32
	fab, err := cluster.NewFabric(shards, cluster.Config{Nodes: 1})
	if err != nil {
		return err
	}
	grants, err := fab.Claim(0, 0)
	if err != nil || len(grants) != shards {
		return fmt.Errorf("fabric claim granted %d of %d shards: %v", len(grants), shards, err)
	}
	var bad error
	ns, _ := l.perOp("cluster.Fabric.Heartbeat+SubmitSlice", 20_000, func(i int) {
		slice := i % core.CollectSlices
		g, err := fab.Heartbeat(0, slice)
		if err != nil {
			bad = err
			return
		}
		if err := fab.SubmitSlice(0, g[0].Shard, slice, g[0].Epoch); err != nil {
			bad = err
		}
	})
	if bad != nil {
		return bad
	}
	l.m["cluster.fabric_call_ns"] = ns / 2

	// The wire: heartbeats to that Fabric served over loopback, each on
	// a new TCP connection as transport.Client makes them.
	ep, err := transport.ListenLoopback(transport.NewServer(fab, nil))
	if err != nil {
		return err
	}
	defer ep.Close()
	reg := obs.NewRegistry()
	client := transport.NewClient(ep.URL, 0, reg)
	beats := l.count(2000)
	rtt := make([]float64, 0, beats)
	l.span("transport.Client.Heartbeat", func() {
		for i := 0; i < beats; i++ {
			t0 := time.Now()
			if _, err := client.Heartbeat(0, i%core.CollectSlices); err != nil {
				bad = err
				return
			}
			rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	})
	if bad != nil {
		return bad
	}
	sort.Float64s(rtt)
	l.m["cluster.transport.rtt_us_p50"] = quantile(rtt, 0.5)
	l.m["cluster.transport.rtt_us_p95"] = quantile(rtt, 0.95)
	outB, _ := reg.Value("transport_client_bytes_out_total")
	inB, _ := reg.Value("transport_client_bytes_in_total")
	l.m["cluster.transport.bytes_per_call"] = float64(outB+inB) / float64(beats)
	return nil
}

// ---- budgets ----

// campaignBudget reconciles the layer costs with one campaign's wall
// time. The scan rows divide by the worker count: targets are scanned
// in parallel, and the budget follows the blocking path.
func (l *layerRun) campaignBudget(workload string, endMs float64) *budget {
	w := float64(l.e.workers)
	if workload == wLive {
		w = 1
	}
	b := &budget{Workload: workload, Figure: "median wall time of one campaign (RunCampaign), ms", EndMs: endMs}
	b.Rows = []budgetRow{
		{"core collect (world, ntppool, ntp)", l.m["core.collect_ms"], 1, "Pipeline.CollectOnly: sampling, NTP codec, shard commit; no scan feed"},
		{"zgrab live targets", l.m["zgrab.scan_us_per_live_target"] / 1e3, l.liveTargets / w, fmt.Sprintf("%.0f targets over %.0f workers", l.liveTargets, w)},
		{"zgrab dark targets", l.m["zgrab.scan_us_per_dark_target"] / 1e3, l.darkTargets / w, fmt.Sprintf("%.0f targets over %.0f workers", l.darkTargets, w)},
		{"core JSONL encode", l.jsonlMs, 1, "json.Encoder over every result, at the barrier"},
	}
	slices := float64(core.CollectSlices)
	switch workload {
	case wDurable, wLive:
		b.Rows = append(b.Rows,
			budgetRow{"store append", l.m["store.append_ms_per_slice"], slices + 1, "one segment per slice and one for the tail"},
			budgetRow{"store compaction", l.m["store.compact_ms_total"], 1, "twelve L0→L1 merges"},
			budgetRow{"store seal", l.m["store.seal_ms"], 1, ""},
			budgetRow{"query aggregates", l.m["query.aggregate_ms_per_slice"], slices + 1, ""},
			budgetRow{"query aggregates snapshot", l.m["query.snapshot_ms"], l.checkpoints, "one per checkpoint"},
			budgetRow{"obs telemetry", l.m["obs.telemetry_ms_per_slice"], slices, ""},
			budgetRow{"checkpoint encode + write", l.m["core.checkpoint_encode_ms_total"], 1, fmt.Sprintf("%.0f checkpoints", l.checkpoints)},
		)
	case wCluster:
		b.Rows = append(b.Rows,
			budgetRow{"cluster control calls", l.m["cluster.fabric_call_ns"] / 1e6, l.clusterCallsPerSlot * slices, "lease table cost per call, from the standalone Fabric"})
	}
	return b
}

// serveBudget reconciles the handler and HTTP-stack costs with the mean
// client-side latency of a request. The mix is half tables, half scans.
func (l *layerRun) serveBudget(workload string, meanMs float64) *budget {
	return &budget{Workload: workload, Figure: "mean client-side latency of one request, ms", EndMs: meanMs, Rows: []budgetRow{
		{"query handler, table", l.tableUs / 1e3, 0.5, "every second request"},
		{"query handler, scan", l.scanUs / 1e3, 0.5, "every second request; store.Scan and JSON encoding"},
		{"HTTP stack over loopback", l.m["query.http_stack_us"] / 1e3, 1, "client latency minus the envelope's elapsed_ns, uncontended"},
	}}
}

// ---- the traced run of one workload ----

// tracedRun measures a workload half untraced and half traced — each a
// quarter of the run's seconds — so the difference in throughput is the
// tracing overhead.
type tracedRun struct {
	e   *env
	w   workload
	rec *recorder
	// ops and seconds per phase, untraced then traced.
	ops, secs [2]float64
}

func newTracedRun(e *env, w workload) *tracedRun {
	return &tracedRun{e: e, w: w, rec: newRecorder()}
}

func (t *tracedRun) turn(d time.Duration) error {
	for phase, rec := range []*recorder{nil, t.rec} {
		t.e.rec = rec
		ops0, secs0 := t.w.throughput()
		err := t.w.run(time.Now().Add(d / 4))
		t.e.rec = nil
		if err != nil {
			return err
		}
		ops1, secs1 := t.w.throughput()
		t.ops[phase] += ops1 - ops0
		t.secs[phase] += secs1 - secs0
	}
	return nil
}

// finish writes the workload's span file and budget table and returns
// its trace.overhead_share.
func (t *tracedRun) finish(out string, l *layerRun) (float64, error) {
	var overhead float64
	if t.secs[0] > 0 && t.secs[1] > 0 && t.ops[0] > 0 {
		overhead = 1 - (t.ops[1]/t.secs[1])/(t.ops[0]/t.secs[0])
	}
	name := t.w.name()
	var b *budget
	series := t.w.acct().series
	switch name {
	case wSealed, wLive:
		all := append(append([]float64(nil), series["table_ms"]...), series["scan_ms"]...)
		var sum float64
		for _, v := range all {
			sum += v
		}
		if len(all) == 0 {
			return 0, fmt.Errorf("%s: traced run answered no request", name)
		}
		b = l.serveBudget(name, sum/float64(len(all)))
	default:
		b = l.campaignBudget(name, 1e3*median(series["campaign_s"]))
	}
	if err := t.rec.flush(filepath.Join(out, "trace-"+name+".jsonl")); err != nil {
		return 0, err
	}
	if err := b.write(filepath.Join(out, "budget-"+name+".txt"), t.rec.snapshot(), l.rec.snapshot()); err != nil {
		return 0, err
	}
	return overhead, nil
}
