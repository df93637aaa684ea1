package ntppool

import (
	"net/netip"
	"testing"

	"ntpscan/internal/rng"
)

var nextAddr uint64

func newServer(id, country string, speed float64) *Server {
	nextAddr++
	var b [16]byte
	b[0], b[1], b[15] = 0x20, 0x01, byte(nextAddr)
	return &Server{
		ID: id, Country: country, NetSpeed: speed,
		Addr: netip.AddrFrom16(b),
	}
}

// The name is the tier-1 floor list's; RemoveServer went with its last
// caller, registration and the duplicate-ID refusal are what is left.
func TestAddRemoveServer(t *testing.T) {
	p := New()
	if err := p.AddServer(newServer("1", "DE", 10)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddServer(newServer("1", "DE", 10)); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if _, ok := p.Server("1"); !ok {
		t.Fatal("server lost")
	}
	if _, ok := p.Server("missing"); ok {
		t.Fatal("phantom server")
	}
}

func TestMapClientZoneShare(t *testing.T) {
	p := New()
	p.SetBackground("DE", 90)
	p.AddServer(newServer("ours", "DE", 10))
	r := rng.New(1)
	hits := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if s, ok := p.MapClient("DE", r); ok {
			if s.ID != "ours" {
				t.Fatalf("mapped to %q", s.ID)
			}
			hits++
		}
	}
	share := float64(hits) / draws
	if share < 0.08 || share > 0.12 {
		t.Fatalf("share = %v, want ~0.10", share)
	}
	if got := p.ShareEstimate("DE"); got != 0.10 {
		t.Fatalf("ShareEstimate = %v", got)
	}
}

func TestMapClientNetspeedIncrease(t *testing.T) {
	// The paper's methodology: raising netspeed raises capture share.
	p := New()
	p.SetBackground("IN", 100)
	p.AddServer(newServer("in1", "IN", 1))
	r := rng.New(2)
	count := func() int {
		n := 0
		for i := 0; i < 20000; i++ {
			if _, ok := p.MapClient("IN", r); ok {
				n++
			}
		}
		return n
	}
	low := count()
	p.SetNetSpeed("in1", 100)
	high := count()
	if high <= low*5 {
		t.Fatalf("netspeed increase ineffective: %d -> %d", low, high)
	}
}

func TestMapClientEmptyZoneFallsBackGlobal(t *testing.T) {
	p := New()
	p.AddServer(newServer("de", "DE", 10))
	p.SetGlobalBackground(10)
	r := rng.New(3)
	hits := 0
	for i := 0; i < 20000; i++ {
		// "ZZ" has no zone servers and no background: global fallback.
		if s, ok := p.MapClient("ZZ", r); ok {
			if s.ID != "de" {
				t.Fatalf("mapped to %q", s.ID)
			}
			hits++
		}
	}
	if hits < 8000 || hits > 12000 {
		t.Fatalf("global fallback share = %d/20000, want ~half", hits)
	}
}

func TestMapClientNothingAnywhere(t *testing.T) {
	p := New()
	r := rng.New(4)
	if _, ok := p.MapClient("ZZ", r); ok {
		t.Fatal("empty pool mapped a client")
	}
}

func TestUnhealthyServerSkipped(t *testing.T) {
	p := New()
	p.AddServer(newServer("sick", "JP", 100))
	p.SetScore("sick", 5) // below MinScore
	p.SetBackground("JP", 10)
	r := rng.New(5)
	for i := 0; i < 5000; i++ {
		if _, ok := p.MapClient("JP", r); ok {
			t.Fatal("unhealthy server received a client")
		}
	}
	// Recovery restores traffic.
	p.SetScore("sick", 20)
	got := false
	for i := 0; i < 5000; i++ {
		if _, ok := p.MapClient("JP", r); ok {
			got = true
			break
		}
	}
	if !got {
		t.Fatal("recovered server never mapped")
	}
}

func TestShareEstimateEmpty(t *testing.T) {
	p := New()
	if got := p.ShareEstimate("DE"); got != 0 {
		t.Fatalf("empty share = %v", got)
	}
}

func TestMapClientDistributionAcrossOurServers(t *testing.T) {
	p := New()
	p.AddServer(newServer("a", "BR", 30))
	p.AddServer(newServer("b", "BR", 10))
	r := rng.New(6)
	counts := map[string]int{}
	for i := 0; i < 40000; i++ {
		if s, ok := p.MapClient("BR", r); ok {
			counts[s.ID]++
		}
	}
	ratio := float64(counts["a"]) / float64(counts["b"])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}
