package core

import (
	"context"
	"io"
	"net/netip"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestCaptureFastPathZeroAlloc pins the capture-record fast path:
// after warm-up (shard scratch buffers sized, address already in the
// dedup structures, feed within capacity), routing one client sync
// through the vantage server — request encode, server respond, capture
// hook, feed append — must not allocate. This is the loop the paper's
// ~3x10^9-address collection would spend four weeks in.
func TestCaptureFastPathZeroAlloc(t *testing.T) {
	p := NewPipeline(testConfig(1))
	shards := p.makeCollectShards()
	sh := shards[0]
	vs := p.Servers[0]
	client := netip.MustParseAddr("2001:db8::1234")

	// Warm up: first capture inserts the address into the dedup
	// accumulators and touches every lazy structure.
	sh.volumeStats = true
	if !p.captureVia(sh, vs, client) {
		t.Fatal("capture not answered")
	}

	allocs := testing.AllocsPerRun(1000, func() {
		sh.events = sh.events[:0] // committed at the slice boundary
		if !p.captureVia(sh, vs, client) {
			t.Fatal("capture not answered")
		}
	})
	if allocs != 0 {
		t.Fatalf("capture fast path allocated %v times per run, want 0", allocs)
	}
	if len(sh.events) == 0 {
		t.Fatal("capture not buffered")
	}
	p.commitShard(sh, nil)
	if p.captures.Load() == 0 {
		t.Fatal("captures not recorded at commit")
	}
}

// TestCampaignAllocsIgnoreGC holds a campaign's allocation count to the
// work, not to the collector's schedule. Scratch that a collection
// empties (a sync.Pool) is allocated again after every cycle, so the
// count moves with GOGC; the probe path's free lists never empty. After
// a warm-up campaign, campaigns run with collection off and at GOGC 10,
// and the difference in Mallocs per extra cycle must stay small. Two
// campaigns a side, the fewer Mallocs of each counting: goroutine
// scheduling adds a few dozen runtime objects to a run now and then.
// What remains per cycle is the runtime's own: the unique package's map
// cleanup (netip zones) and refills of runtime caches a cycle empties.
func TestCampaignAllocsIgnoreGC(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's runtime moves a campaign's Mallocs by a few hundred from run to run, more than the bound")
	}
	cfg := testConfig(11)
	cfg.Workers = 2
	campaign := func() (mallocs, cycles uint64) {
		p := NewPipeline(cfg)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0, c0 := ms.Mallocs, ms.NumGC
		if _, err := p.RunCampaign(context.Background(), CampaignOpts{Out: io.Discard}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - m0, uint64(ms.NumGC - c0)
	}
	// fewest is the campaign with the fewer Mallocs of two.
	fewest := func() (mallocs, cycles uint64) {
		m1, c1 := campaign()
		if m2, c2 := campaign(); m2 < m1 {
			return m2, c2
		}
		return m1, c1
	}
	campaign()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mOff, cOff := fewest()
	debug.SetGCPercent(10)
	mOn, cOn := fewest()
	debug.SetGCPercent(-1)
	cycles := cOn - cOff
	if cycles < 10 {
		t.Fatalf("GOGC 10 ran %d more collections than GOGC off; the comparison needs at least 10", cycles)
	}
	perCycle := (float64(mOn) - float64(mOff)) / float64(cycles)
	t.Logf("GOGC off: %d mallocs, %d cycles; GOGC 10: %d mallocs, %d cycles; %.1f mallocs per cycle",
		mOff, cOff, mOn, cOn, perCycle)
	if perCycle > 8 {
		t.Fatalf("each collection cost the campaign %.1f allocations (%d extra over %d cycles), want <= 8",
			perCycle, int64(mOn)-int64(mOff), cycles)
	}
}

// raceBuild reports whether the test binary runs under the race
// detector.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// scannerPortsFree fails unless every port a scanner's CoAP sockets can
// have taken on ScanSource — they are numbered up from 33000, and no
// more are ever open than the scanner has workers — binds again.
func scannerPortsFree(t *testing.T, p *Pipeline, after string) {
	t.Helper()
	for port := uint16(33000); port < 33000+uint16(p.Cfg.Workers)+64; port++ {
		c, err := p.W.Fabric().ListenUDP(netip.AddrPortFrom(ScanSource, port))
		if err != nil {
			t.Fatalf("after %s, port %d is still bound: %v", after, port, err)
		}
		c.Close()
	}
}

// TestScannerClosesItsSockets: the CoAP sockets a campaign's or a batch
// scan's scanner bound are closed when it is, whatever the collector
// did meanwhile, so no port of the scan source stays taken.
func TestScannerClosesItsSockets(t *testing.T) {
	cfg := testConfig(11)
	cfg.CaptureBudget = 2000
	p := NewPipeline(cfg)
	ds, err := p.RunCampaign(context.Background(), CampaignOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Results) == 0 {
		t.Fatal("the campaign scanned nothing")
	}
	scannerPortsFree(t, p, "RunCampaign")
	var addrs []netip.Addr
	for i, r := range ds.Results {
		if i == 0 || r.IP != ds.Results[i-1].IP {
			addrs = append(addrs, r.IP)
		}
	}
	rows, err := ScanBatch(context.Background(), p.ScanConfig(), addrs, nil)
	if err != nil || len(rows) == 0 {
		t.Fatalf("ScanBatch: %d rows, %v", len(rows), err)
	}
	scannerPortsFree(t, p, "ScanBatch")
}
