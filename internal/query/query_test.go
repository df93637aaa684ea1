package query_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntpscan/internal/chaos"
	"ntpscan/internal/core"
	"ntpscan/internal/query"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
	"ntpscan/internal/zgrab"
)

func campaignConfig(seed uint64, workers int) core.Config {
	return core.Config{
		Seed: seed,
		World: world.Config{
			DeviceScale: 1e-3,
			AddrScale:   1e-6,
			ASScale:     0.02,
		},
		Workers:       workers,
		CaptureBudget: 2000,
	}
}

// TestAggregatesBitIdenticalAcrossWorkersAndFromStore is the central
// consistency oracle: the aggregator fed incrementally at every drain
// barrier must snapshot to the exact bytes of an aggregator recomputed
// from a full scan of the finished store — and both must be invariant
// across worker counts.
func TestAggregatesBitIdenticalAcrossWorkersAndFromStore(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 3, 8} {
		p := core.NewPipeline(campaignConfig(47, workers))
		st, err := store.Open(t.TempDir(), store.Options{Obs: p.Obs})
		if err != nil {
			t.Fatal(err)
		}
		agg := query.NewAggregates()
		if _, err := p.RunCampaign(context.Background(), core.CampaignOpts{Store: st, Aggregates: agg}); err != nil {
			t.Fatal(err)
		}
		live, err := agg.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = live
		} else if !bytes.Equal(live, want) {
			t.Fatalf("workers=%d: incremental aggregate snapshot diverges across worker counts", workers)
		}
		recomputed, err := query.FromStore(st)
		if err != nil {
			t.Fatal(err)
		}
		full, err := recomputed.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live, full) {
			t.Fatalf("workers=%d: incremental snapshot != full-store recompute", workers)
		}
	}
}

// resumeDurable runs a durable campaign — store, aggregates, telemetry,
// a checkpoint every `every` slices — to its end, copying the store
// directory as a crash would leave it at the third checkpoint, then
// resumes the copy from the first checkpoint on a fresh pipeline with a
// fresh aggregator. It returns both runs' final aggregate snapshots and
// telemetry, the full run's cut to the lines from the resume slice on.
func resumeDurable(t *testing.T, cfg core.Config, every int) (wantSnap, gotSnap, wantTel, gotTel []byte) {
	t.Helper()
	fullDir, crashDir := t.TempDir(), t.TempDir()
	var cps []*core.Checkpoint
	var fullTel, restTel bytes.Buffer
	p1 := core.NewPipeline(cfg)
	st1, err := store.Open(fullDir, store.Options{Obs: p1.Obs})
	if err != nil {
		t.Fatal(err)
	}
	agg1 := query.NewAggregates()
	_, err = p1.RunCampaign(context.Background(), core.CampaignOpts{
		Store:           st1,
		Aggregates:      agg1,
		Telemetry:       &fullTel,
		CheckpointEvery: every,
		OnCheckpoint: func(cp *core.Checkpoint) {
			cps = append(cps, cp)
			if len(cps) == 3 {
				copyDir(t, fullDir, crashDir)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 3 {
		t.Fatalf("expected 3 checkpoints, got %d", len(cps))
	}
	if wantSnap, err = agg1.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// JSON round-trip: checkpoints cross process boundaries as files.
	blob, err := json.Marshal(cps[0])
	if err != nil {
		t.Fatal(err)
	}
	var back core.Checkpoint
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}

	p2 := core.NewPipeline(cfg)
	st2, err := store.Open(crashDir, store.Options{Obs: p2.Obs})
	if err != nil {
		t.Fatal(err)
	}
	agg2 := query.NewAggregates()
	if _, err := p2.ResumeCampaign(context.Background(), &back, core.CampaignOpts{
		Store:           st2,
		Aggregates:      agg2,
		Telemetry:       &restTel,
		CheckpointEvery: every,
		OnCheckpoint:    func(*core.Checkpoint) {},
	}); err != nil {
		t.Fatal(err)
	}
	if gotSnap, err = agg2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(fullTel.Bytes(), []byte("\n"))
	return wantSnap, gotSnap, bytes.Join(lines[back.NextSlice:], nil), restTel.Bytes()
}

// TestAggregatesCheckpointResume interrupts a campaign at a checkpoint
// and resumes it with a fresh aggregator, which the resume rebuilds by
// replaying the rewound store: the final snapshot must equal the
// uninterrupted run's byte-for-byte.
func TestAggregatesCheckpointResume(t *testing.T) {
	want, got, _, _ := resumeDurable(t, campaignConfig(48, 16), 24)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed aggregate snapshot diverges from uninterrupted run")
	}
}

// TestDurableResumeTelemetryByteExact attaches all three of store,
// aggregates and telemetry across a resume. The cadence of 20 leaves
// the first checkpoint pinning L0 segments a later compaction consumed
// (ResetTo resurrects them and the replay walks both levels), and the
// replay reads the very store whose counters every later telemetry
// line carries: read through Scan, it would book blocks and cache
// traffic the uninterrupted run never saw.
func TestDurableResumeTelemetryByteExact(t *testing.T) {
	wantSnap, gotSnap, wantTel, gotTel := resumeDurable(t, campaignConfig(49, 4), 20)
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Error("resumed aggregate snapshot diverges from uninterrupted run")
	}
	if len(wantTel) == 0 || !bytes.Equal(gotTel, wantTel) {
		t.Fatalf("resumed telemetry diverges: %d bytes vs %d expected", len(gotTel), len(wantTel))
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// ---- HTTP endpoint tests over a hand-built store ----

var queryMods = []string{"http", "https", "ssh", "mqtt"}

func mkAddr(i int) netip.Addr {
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	b[2], b[3] = 0x0d, 0xb8
	b[4] = byte(i >> 8)
	b[5] = byte(i)
	b[15] = byte(i*7 + 1)
	return netip.AddrFrom16(b)
}

func mkResult(i, slice int) *zgrab.Result {
	r := &zgrab.Result{
		IP:     mkAddr(i),
		Module: queryMods[i%len(queryMods)],
		Port:   uint16(80 + i%3),
		Time:   time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC).Add(time.Duration(slice*1000+i) * time.Millisecond),
		Status: zgrab.StatusSuccess,
		Seq:    int64(slice*10000 + i),
	}
	if i%5 == 0 {
		r.Status = zgrab.StatusTimeout
		r.Error = "i/o timeout"
	}
	if r.Module == "https" {
		r.TLS = &zgrab.TLSGrab{Version: "TLSv1.3", HandshakeOK: true, CertFingerprint: fmt.Sprintf("fp-%d", i%6)}
	}
	return r
}

func buildStore(t testing.TB, dir string, slices, rowsPer int) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vans := []string{"DE", "US", "JP"}
	for sl := 0; sl < slices; sl++ {
		var caps []store.CaptureRow
		var results []*zgrab.Result
		for i := 0; i < rowsPer; i++ {
			caps = append(caps, store.CaptureRow{Addr: mkAddr(sl*rowsPer + i), Vantage: vans[i%len(vans)]})
			results = append(results, mkResult(sl*rowsPer+i, sl))
		}
		if err := st.AppendSlice(sl, caps, results); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func getJSON(t testing.TB, url string, out any) *query.Stats {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	var env struct {
		Data  json.RawMessage `json:"data"`
		Stats *query.Stats    `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(env.Data, out); err != nil {
			t.Fatal(err)
		}
	}
	return env.Stats
}

func TestServerEndpoints(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	st := buildStore(t, t.TempDir(), 6, 200)
	agg, err := query.FromStore(st)
	if err != nil {
		t.Fatal(err)
	}
	srv := query.NewServer(st, agg, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var mods []query.ModuleRow
	stats := getJSON(t, ts.URL+"/v1/tables/modules", &mods)
	if len(mods) != len(queryMods) {
		t.Fatalf("modules rows = %d, want %d", len(mods), len(queryMods))
	}
	if stats.Rows != int64(len(mods)) || stats.ElapsedNs < 0 {
		t.Fatalf("modules stats = %+v", stats)
	}
	for i := 1; i < len(mods); i++ {
		if mods[i-1].Module >= mods[i].Module {
			t.Fatalf("modules not sorted: %+v", mods)
		}
	}

	var t2 []map[string]any
	getJSON(t, ts.URL+"/v1/tables/table2", &t2)
	if len(t2) != 5 {
		t.Fatalf("table2 rows = %d, want 5", len(t2))
	}

	var vans []query.VantageRow
	getJSON(t, ts.URL+"/v1/tables/vantages", &vans)
	if len(vans) != 3 {
		t.Fatalf("vantage rows = %d, want 3", len(vans))
	}

	var pfx []query.PrefixRow
	getJSON(t, ts.URL+"/v1/tables/prefixes?n=5", &pfx)
	if len(pfx) != 5 {
		t.Fatalf("prefix rows = %d, want 5", len(pfx))
	}
	for i := 1; i < len(pfx); i++ {
		if pfx[i-1].Addrs < pfx[i].Addrs {
			t.Fatalf("prefixes not sorted by addrs: %+v", pfx)
		}
	}

	var slices []query.SliceRow
	getJSON(t, ts.URL+"/v1/tables/slices", &slices)
	if len(slices) != 6 {
		t.Fatalf("slice rows = %d, want 6", len(slices))
	}

	// Ad-hoc query with module pushdown: only http results, and the
	// sparse index must have skipped blocks.
	var rows []queryRow
	qstats := getJSON(t, ts.URL+"/v1/query?kind=results&module=http", &rows)
	if len(rows) == 0 {
		t.Fatal("no http rows")
	}
	for _, r := range rows {
		if r.Kind != "result" || r.Result == nil || r.Result.Module != "http" {
			t.Fatalf("pushdown leaked row %+v", r)
		}
	}
	if qstats.BlocksSkipped == 0 {
		t.Fatalf("expected block skipping, stats = %+v", qstats)
	}

	// Same query again: the decoded-block cache must absorb it.
	warm := getJSON(t, ts.URL+"/v1/query?kind=results&module=http", &rows)
	if warm.CacheHits == 0 || warm.CacheMisses != 0 {
		t.Fatalf("warm query not served from cache: %+v", warm)
	}

	// Truncation.
	var few []queryRow
	tstats := getJSON(t, ts.URL+"/v1/query?limit=7", &few)
	if len(few) != 7 || !tstats.Truncated {
		t.Fatalf("limit: rows=%d truncated=%v", len(few), tstats.Truncated)
	}

	// Exact-/48 prefix query stays inside the prefix.
	p48 := netip.PrefixFrom(mkAddr(3), 48).Masked()
	var inPfx []queryRow
	getJSON(t, ts.URL+"/v1/query?prefix="+p48.String(), &inPfx)
	if len(inPfx) == 0 {
		t.Fatal("prefix query returned nothing")
	}
	for _, r := range inPfx {
		a, err := netip.ParseAddr(r.Addr)
		if err != nil || !p48.Contains(a) {
			t.Fatalf("prefix query leaked %s outside %s", r.Addr, p48)
		}
	}

	// Errors.
	for _, bad := range []string{
		"/v1/query?kind=bogus",
		"/v1/query?prefix=not-a-prefix",
		"/v1/query?limit=x",
		"/v1/tables/prefixes?n=x",
	} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// Metrics exposition carries the queryd families.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"queryd_requests_total", "queryd_latency_ns", "queryd_rows_total"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
}

// TestServeDuringCampaign serves queries while a campaign is writing
// into the same store and feeding the same aggregates — the live-
// serving configuration queryd runs in. Under -race this is the
// end-to-end reader-while-writer oracle; at the end, the incremental
// aggregates must still equal a full recompute.
func TestServeDuringCampaign(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	p := core.NewPipeline(campaignConfig(49, 8))
	st, err := store.Open(t.TempDir(), store.Options{Obs: p.Obs})
	if err != nil {
		t.Fatal(err)
	}
	agg := query.NewAggregates()
	srv := query.NewServer(st, agg, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var done atomic.Bool
	var wg sync.WaitGroup
	urls := []string{
		"/v1/tables/modules",
		"/v1/tables/table2",
		"/v1/tables/prefixes?n=10",
		"/v1/query?kind=results&module=ssh&limit=50",
		"/v1/query?kind=captures&limit=50",
	}
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				resp, err := http.Get(ts.URL + urls[(c+i)%len(urls)])
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
			}
		}(c)
	}

	_, err = p.RunCampaign(context.Background(), core.CampaignOpts{Store: st, Aggregates: agg})
	done.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	live, err := agg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	recomputed, err := query.FromStore(st)
	if err != nil {
		t.Fatal(err)
	}
	full, err := recomputed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, full) {
		t.Fatal("aggregates served during the campaign diverge from full-store recompute")
	}
}
