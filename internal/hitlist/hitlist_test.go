package hitlist

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"ntpscan/internal/rng"
	"ntpscan/internal/world"
)

func testWorld() *world.World {
	return world.New(world.Config{Seed: 1, DeviceScale: 1e-3, AddrScale: 1e-6, ASScale: 0.02})
}

func TestBuildDeterministic(t *testing.T) {
	w := testWorld()
	a := Build(w, Config{Seed: 5})
	w2 := world.New(w.Cfg)
	b := Build(w2, Config{Seed: 5})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Full {
		if a.Full[i] != b.Full[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestBuildComposition(t *testing.T) {
	w := testWorld()
	h := Build(w, Config{Seed: 5})
	if h.Len() == 0 {
		t.Fatal("empty hitlist")
	}
	if h.BySource["dns"] == 0 {
		t.Fatal("no DNS seeds")
	}
	if h.BySource["traceroute"] == 0 {
		t.Fatal("no traceroute seeds")
	}
	if h.BySource["alias"] == 0 {
		t.Fatal("no CDN aliases")
	}
	if h.BySource["stale"] == 0 {
		t.Fatal("no stale mass")
	}
	// Stale entries should dominate device seeds (full >> public).
	if h.BySource["stale"] < h.BySource["dns"] {
		t.Fatalf("stale %d < dns %d", h.BySource["stale"], h.BySource["dns"])
	}
}

func TestBuildSortedUnique(t *testing.T) {
	h := Build(testWorld(), Config{Seed: 5})
	for i := 1; i < len(h.Full); i++ {
		if !h.Full[i-1].Less(h.Full[i]) {
			t.Fatalf("not sorted/unique at %d: %v vs %v", i, h.Full[i-1], h.Full[i])
		}
	}
}

func TestProbeSemantics(t *testing.T) {
	w := testWorld()
	w.RegisterStatic()
	src := netip.MustParseAddr("2001:db8:5ca::1")
	ctx := context.Background()

	// A static hitlist server must probe alive.
	var serverAddr, staleAddr netip.Addr
	h := Build(w, Config{Seed: 5})
	for _, a := range h.Full {
		if _, ok := w.Fabric().HostAt(a); ok {
			serverAddr = a
			break
		}
	}
	for _, a := range h.Full {
		if _, ok := w.Fabric().HostAt(a); !ok {
			staleAddr = a
			break
		}
	}
	if !serverAddr.IsValid() || !staleAddr.IsValid() {
		t.Fatal("could not find probe fixtures")
	}
	if !Probe(ctx, w.Fabric(), src, serverAddr, 100*time.Millisecond) {
		t.Fatalf("live server %v probed dead", serverAddr)
	}
	if Probe(ctx, w.Fabric(), src, staleAddr, 20*time.Millisecond) {
		t.Fatalf("stale %v probed alive", staleAddr)
	}
}

func TestPublicSubset(t *testing.T) {
	w := testWorld()
	w.RegisterStatic()
	h := Build(w, Config{Seed: 5})
	src := netip.MustParseAddr("2001:db8:5ca::1")
	ctx := context.Background()
	alive := make([]bool, h.Len())
	for i, a := range h.Full {
		alive[i] = Probe(ctx, w.Fabric(), src, a, 10*time.Millisecond)
	}
	pub := h.Public(alive)
	if len(pub) == 0 {
		t.Fatal("empty public list")
	}
	if len(pub) >= h.Len() {
		t.Fatalf("public (%d) not smaller than full (%d)", len(pub), h.Len())
	}
	// Public entries are a subset of full.
	full := map[netip.Addr]bool{}
	for _, a := range h.Full {
		full[a] = true
	}
	for _, a := range pub {
		if !full[a] {
			t.Fatalf("public entry %v not in full list", a)
		}
	}
}

// Every CDN edge among the seeds expands to cdnAliases addresses of its
// /64. Edges are hitlist-only devices, seeded whatever the stream draws.
func TestCDNAliasCount(t *testing.T) {
	w := testWorld()
	edges := 0
	for _, seed := range w.HitlistSeeds(rng.New(0)) {
		if seed.Device != nil && seed.Device.Profile.Name == "cdn-edge" {
			edges++
		}
	}
	h := Build(world.New(w.Cfg), Config{Seed: 5})
	if edges == 0 || h.BySource["alias"] != edges*cdnAliases {
		t.Fatalf("%d alias entries from %d CDN edges, want %d per edge", h.BySource["alias"], edges, cdnAliases)
	}
}

func TestAliasedPrefixDetection(t *testing.T) {
	w := testWorld()
	h := Build(w, Config{Seed: 5})
	aliased := h.AliasedPrefixes(8)
	if len(aliased) == 0 {
		t.Fatal("no aliased prefixes detected despite CDN expansion")
	}
	// Every detected prefix really holds >= 8 entries.
	for p := range aliased {
		n := 0
		for _, a := range h.Full {
			if p.Contains(a) {
				n++
			}
		}
		if n < 8 {
			t.Fatalf("prefix %v flagged with only %d entries", p, n)
		}
	}
}

func TestDealiasCaps(t *testing.T) {
	w := testWorld()
	h := Build(w, Config{Seed: 5})
	out := h.Dealias(h.Full, 8, 2)
	if len(out) >= len(h.Full) {
		t.Fatalf("dealias removed nothing: %d of %d", len(out), len(h.Full))
	}
	aliased := h.AliasedPrefixes(8)
	counts := map[string]int{}
	for _, a := range out {
		p, _ := a.Prefix(64)
		if _, ok := aliased[p]; ok {
			counts[p.String()]++
			if counts[p.String()] > 2 {
				t.Fatalf("aliased prefix %v kept %d entries", p, counts[p.String()])
			}
		}
	}
	// Non-aliased entries survive untouched.
	plain := 0
	for _, a := range h.Full {
		p, _ := a.Prefix(64)
		if _, ok := aliased[p]; !ok {
			plain++
		}
	}
	kept := 0
	for _, a := range out {
		p, _ := a.Prefix(64)
		if _, ok := aliased[p]; !ok {
			kept++
		}
	}
	if kept != plain {
		t.Fatalf("dealias dropped non-aliased entries: %d of %d", kept, plain)
	}
}
