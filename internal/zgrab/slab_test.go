package zgrab

import (
	"context"
	"net/netip"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"ntpscan/internal/netsim"
)

// darkScanner is a Workers-1 scanner over an empty fabric on a manual
// clock: every probe meets silence, as 91 % of a campaign's targets do.
// The targets read silent, so the scanner writes their rows without
// probing, unless probe is set: then an idle sniffer keeps them from
// reading silent and every probe runs its module's dial or datagram.
func darkScanner(t *testing.T, probe bool, onResult func(int, *Result)) (*Scanner, *netsim.ManualClock, *netsim.Network) {
	t.Helper()
	clock := netsim.NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
	f := netsim.New(netsim.Config{Clock: clock, DialTimeout: 10 * time.Millisecond})
	if probe {
		f.Sniff(netip.MustParsePrefix("2001:db8::/32"), func(netsim.PacketInfo) {})
	}
	s := NewScanner(Config{Fabric: f, Source: scanSrc, Workers: 1, OnResultWorker: onResult})
	s.Start(context.Background())
	return s, clock, f
}

// darkTargets is one submit chunk of distinct addresses.
func darkTargets() []netip.Addr {
	addrs := make([]netip.Addr, submitChunk)
	for i := range addrs {
		addrs[i] = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0xda, 0x4c, 14: byte(i >> 8), 15: byte(i)})
	}
	return addrs
}

// TestDarkSessionAllocatesOneSlab pins the scanner's allocation per
// session: 64 dark targets through SubmitBatch and Drain make exactly
// one object, the session's result slab — no Result per probe, no
// scratch the free lists already hold, no session overhead — whether
// the targets read silent or every probe runs. Each round
// moves the clock past the holdoff first, outside the count, so the
// same targets are admitted again and the revisit map and heap stay at
// their warmed size.
//
// Mallocs counts the whole process, so the test runs on one P, as
// testing.AllocsPerRun does, with no collection: after each cycle the
// runtime's own goroutines allocate (the unique package's map cleanup,
// which netip's zones use). Even so, about one round in 400 books a
// runtime object (a sudog or a goroutine's first wait), so the bound
// holds for the best of three stretches of 20 rounds.
func TestDarkSessionAllocatesOneSlab(t *testing.T) {
	t.Run("silent", func(t *testing.T) { darkSessionAllocatesOneSlab(t, false) })
	t.Run("probed", func(t *testing.T) { darkSessionAllocatesOneSlab(t, true) })
}

func darkSessionAllocatesOneSlab(t *testing.T, probe bool) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rows := 0
	s, clock, _ := darkScanner(t, probe, func(int, *Result) { rows++ })
	defer s.Close()
	addrs := darkTargets()
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	round := func() uint64 {
		clock.Advance(revisitAfter)
		m0 := mallocs()
		s.SubmitBatch(addrs)
		s.Drain()
		return mallocs() - m0
	}
	for range 3 {
		round() // warm the session table, tallies, revisit heap and free lists
	}
	const rounds = 20
	best := uint64(1 << 62)
	for range 3 {
		rows = 0
		var total uint64
		for range rounds {
			total += round()
		}
		if want := rounds * len(addrs) * len(s.cfg.Modules); rows != want {
			t.Fatalf("%d rows over %d rounds, want %d", rows, rounds, want)
		}
		best = min(best, total)
	}
	if best != rounds {
		t.Fatalf("%d rounds of %d dark targets allocated %d objects at best, want exactly one slab each",
			rounds, len(addrs), best)
	}
}

// TestSessionRowsOutliveTheirSession holds each row to its own slab
// slot: every row a session emitted still carries its own target,
// module and Seq once the scanner has moved on to later sessions.
func TestSessionRowsOutliveTheirSession(t *testing.T) {
	var got []*Result
	s, _, _ := darkScanner(t, false, func(_ int, r *Result) { got = append(got, r) })
	addrs := make([]netip.Addr, 3*submitChunk+5)
	for i := range addrs {
		addrs[i] = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0xda, 0x4c, 14: byte(i >> 8), 15: byte(i)})
	}
	s.SubmitBatch(addrs)
	s.Close()
	mods := s.cfg.Modules
	if len(got) != len(addrs)*len(mods) {
		t.Fatalf("%d rows, want %d", len(got), len(addrs)*len(mods))
	}
	for i, r := range got {
		ti, mi := i/len(mods), i%len(mods)
		if r.IP != addrs[ti] || r.Module != mods[mi].Name() || r.Seq != int64(i) {
			t.Fatalf("row %d is %v %s Seq %d, want %v %s Seq %d", i, r.IP, r.Module, r.Seq, addrs[ti], mods[mi].Name(), i)
		}
		for _, prev := range got[max(0, i-len(mods)):i] {
			if prev == r {
				t.Fatalf("row %d shares its Result with an earlier row", i)
			}
		}
	}
}

// TestCloseUnbindsEverySocket: a scanner's CoAP probes bind sockets on
// its source address, counted up from 33000, and Close must leave every
// one of those ports free for the next bind.
func TestCloseUnbindsEverySocket(t *testing.T) {
	s, _, f := darkScanner(t, true, nil)
	s.SubmitBatch(darkTargets())
	s.Close()
	for port := uint16(33000); port < 33000+64; port++ {
		c, err := f.ListenUDP(netip.AddrPortFrom(scanSrc, port))
		if err != nil {
			t.Fatalf("port %d still bound after Close: %v", port, err)
		}
		c.Close()
	}
}
