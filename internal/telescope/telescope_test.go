package telescope

import (
	"net/netip"
	"testing"
	"time"

	"ntpscan/internal/netsim"
	"ntpscan/internal/ntp"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func testFabric() (*netsim.Network, *netsim.ManualClock) {
	clock := netsim.NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
	return netsim.New(netsim.Config{Clock: clock, DialTimeout: time.Millisecond}), clock
}

// deployBenign registers n plain (non-capturing, non-scanning) pool
// servers.
func deployBenign(f *netsim.Network, n int) []PoolServerEntry {
	var out []PoolServerEntry
	for i := 0; i < n; i++ {
		addr := addrIn(0x2001_0b00_0000_0000, uint64(i)+1)
		srv := ntp.NewServer(ntp.ServerConfig{Now: f.Clock().Now})
		f.Register(addr, netsim.NewHost("benign-ntp").HandleUDP(ntp.Port, srv.Handle))
		out = append(out, PoolServerEntry{Addr: netip.AddrPortFrom(addr, ntp.Port)})
	}
	return out
}

func TestObserverQueriesAnswered(t *testing.T) {
	f, _ := testFabric()
	servers := deployBenign(f, 10)
	o := NewObserver(f, pfx("2001:db8:7e1e:5c00::/56"))
	defer o.Close()
	answered := o.QueryAll(servers, 100*time.Millisecond)
	if answered != 10 {
		t.Fatalf("answered = %d", answered)
	}
	rep := o.Analyze()
	if rep.QueriesSent != 10 || rep.QueriesAnswered != 10 {
		t.Fatalf("report = %+v", rep)
	}
	// NTP responses must not be misread as scans.
	if rep.ScanPackets != 0 || len(rep.Campaigns) != 0 {
		t.Fatalf("phantom scans: %+v", rep)
	}
}

func TestObserverDistinctSources(t *testing.T) {
	f, _ := testFabric()
	servers := deployBenign(f, 5)
	monitored := pfx("2001:db8:7e1e:5c00::/56")
	o := NewObserver(f, monitored)
	defer o.Close()
	seen := map[netip.Addr]bool{}
	for _, s := range servers {
		src, err := o.QueryServer(s, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if seen[src] {
			t.Fatalf("source %v reused", src)
		}
		if !monitored.Contains(src) {
			t.Fatalf("source %v outside monitored prefix", src)
		}
		seen[src] = true
	}
}

func TestActorDetection(t *testing.T) {
	f, clock := testFabric()
	benign := deployBenign(f, 20)

	research := NewActor(f, ResearchActorProfile(
		pfx("2a01:4f8::/32"), pfx("2a01:4f8::/32")), 1)
	covert := NewActor(f, CovertActorProfile(
		pfx("2600:1f00::/32"), pfx("2a01:7e00::/32")), 2)

	servers := append(benign, research.PoolEntries()...)
	servers = append(servers, covert.PoolEntries()...)

	o := NewObserver(f, pfx("2001:db8:7e1e:5c00::/56"))
	defer o.Close()
	answered := o.QueryAll(servers, 100*time.Millisecond)
	if answered != len(servers) {
		t.Fatalf("answered %d of %d", answered, len(servers))
	}

	research.RunScans(clock)
	covert.RunScans(clock)

	rep := o.Analyze()
	if rep.ScatterPackets != 0 {
		t.Fatalf("scatter = %d", rep.ScatterPackets)
	}
	if rep.MatchedPackets == 0 || rep.MatchedPackets != rep.ScanPackets {
		t.Fatalf("matched %d of %d", rep.MatchedPackets, rep.ScanPackets)
	}
	if len(rep.Campaigns) != 2 {
		t.Fatalf("campaigns = %d", len(rep.Campaigns))
	}

	var researchCam, covertCam *Campaign
	for i := range rep.Campaigns {
		c := &rep.Campaigns[i]
		switch c.SourceNet {
		case pfx("2a01:4f8::/32").Masked():
			researchCam = c
		case pfx("2a01:7e00::/32").Masked():
			covertCam = c
		}
	}
	if researchCam == nil || covertCam == nil {
		t.Fatalf("campaign nets wrong: %+v", rep.Campaigns)
	}
	// Every address a server harvested is scanned: 15 research servers
	// and 4 covert ones were queried once each.
	if researchCam.Targets != 15 || covertCam.Targets != 4 {
		t.Fatalf("targets = %d %d", researchCam.Targets, covertCam.Targets)
	}
	// The research actor probes over a thousand ports from 15 servers'
	// captures, fast.
	if len(researchCam.Ports) < 500 {
		t.Fatalf("research ports = %d", len(researchCam.Ports))
	}
	if len(researchCam.Servers) != 15 {
		t.Fatalf("research servers = %d", len(researchCam.Servers))
	}
	if researchCam.FirstDelay > time.Hour {
		t.Fatalf("research first delay = %v", researchCam.FirstDelay)
	}
	// The covert actor: few security-sensitive ports, long delays,
	// multi-day spread, scan sources in a different /32 than its
	// servers.
	for _, p := range covertCam.Ports {
		switch p {
		case 443, 3388, 3389, 5900, 5901, 6000, 6001, 8443, 9200, 27017:
		default:
			t.Fatalf("covert scanned unexpected port %d", p)
		}
	}
	if covertCam.FirstDelay < time.Hour {
		t.Fatalf("covert first delay = %v", covertCam.FirstDelay)
	}
	if covertCam.Spread < 12*time.Hour {
		t.Fatalf("covert spread = %v", covertCam.Spread)
	}
	if covertCam.SourceNet == pfx("2600:1f00::/32").Masked() {
		t.Fatal("covert scan sources should differ from its server network")
	}
}

func TestScatterDetection(t *testing.T) {
	f, _ := testFabric()
	o := NewObserver(f, pfx("2001:db8:7e1e:5c00::/56"))
	defer o.Close()
	// A random scanner hits a never-queried address in the prefix.
	dark := netip.MustParseAddr("2001:db8:7e1e:5cff::42")
	f.SendUDP(netip.MustParseAddrPort("[2c0f:f248::1]:55555"),
		netip.AddrPortFrom(dark, 443), []byte("probe"))
	rep := o.Analyze()
	if rep.ScatterPackets != 1 || rep.MatchedPackets != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestPortSubset(t *testing.T) {
	f, clock := testFabric()
	covert := NewActor(f, CovertActorProfile(
		pfx("2600:1f00::/32"), pfx("2a01:7e00::/32")), 3)
	o := NewObserver(f, pfx("2001:db8:7e1e:5c00::/56"))
	defer o.Close()
	o.QueryAll(covert.PoolEntries(), 100*time.Millisecond)
	covert.RunScans(clock)
	rep := o.Analyze()
	if len(rep.Campaigns) != 1 {
		t.Fatalf("campaigns = %d", len(rep.Campaigns))
	}
	// Each captured address gets only PortSubset probes.
	c := rep.Campaigns[0]
	if c.Packets != covert.Profile.PortSubset*c.Targets {
		t.Fatalf("packets = %d targets = %d subset = %d",
			c.Packets, c.Targets, covert.Profile.PortSubset)
	}
}

func TestRunScansDrainsQueue(t *testing.T) {
	f, clock := testFabric()
	a := NewActor(f, ResearchActorProfile(
		pfx("2a01:4f8::/32"), pfx("2a01:4f8::/32")), 4)
	o := NewObserver(f, pfx("2001:db8:7e1e:5c00::/56"))
	defer o.Close()
	o.QueryAll(a.PoolEntries(), 100*time.Millisecond)
	a.RunScans(clock)
	first := o.Analyze().ScanPackets
	if first == 0 {
		t.Fatal("no captures scanned")
	}
	a.RunScans(clock)
	if again := o.Analyze().ScanPackets; again != first {
		t.Fatalf("queue not drained: a second run sent %d more packets", again-first)
	}
}
