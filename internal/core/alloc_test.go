package core

import (
	"net/netip"
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
