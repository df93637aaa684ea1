package core

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"ntpscan/internal/analysis"
	"ntpscan/internal/hitlist"
	"ntpscan/internal/netsim"
	"ntpscan/internal/ntp"
	"ntpscan/internal/rng"
	"ntpscan/internal/world"
)

func testConfig(seed uint64) Config {
	return Config{
		Seed: seed,
		World: world.Config{
			DeviceScale: 1e-3,
			AddrScale:   1e-6,
			ASScale:     0.02,
		},
		Workers: 16,
	}
}

func TestDeployment(t *testing.T) {
	p := NewPipeline(testConfig(1))
	if len(p.Servers) != 11 {
		t.Fatalf("deployed %d servers, want 11 (one per vantage country)", len(p.Servers))
	}
	seen := map[string]bool{}
	for _, s := range p.Servers {
		if seen[s.Country] {
			t.Fatalf("duplicate vantage in %s", s.Country)
		}
		seen[s.Country] = true
		if _, ok := p.W.Fabric().HostAt(s.Addr); !ok {
			t.Fatalf("server %s not on fabric", s.ID)
		}
		share := p.Pool.ShareEstimate(s.Country)
		if share < targetShare*0.9 {
			t.Fatalf("%s share = %v, controller failed", s.Country, share)
		}
	}
}

func TestCollectProducesAddresses(t *testing.T) {
	p := NewPipeline(testConfig(1))
	p.CollectOnly()
	if p.Summary.Set().Len() == 0 {
		t.Fatal("no addresses collected")
	}
	if p.Captures < p.Summary.Set().Len() {
		t.Fatal("captures < distinct addresses")
	}
	st := p.Summary.Stats()
	if st.Nets48 == 0 || st.ASes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// India must dominate the per-country capture distribution
	// (Table 7 shape).
	per := p.PerCountrySorted()
	if len(per) == 0 || per[0].Country != "IN" {
		t.Fatalf("top country = %+v", per)
	}
	last := per[len(per)-1]
	if per[0].Addrs < 5*last.Addrs {
		t.Fatalf("India (%d) should dwarf %s (%d)", per[0].Addrs, last.Country, last.Addrs)
	}
}

func TestCollectDeterministic(t *testing.T) {
	a, b := NewPipeline(testConfig(7)), NewPipeline(testConfig(7))
	a.CollectOnly()
	b.CollectOnly()
	if a.Summary.Set().Len() != b.Summary.Set().Len() || a.Captures != b.Captures {
		t.Fatalf("runs differ: %d/%d vs %d/%d",
			a.Summary.Set().Len(), a.Captures, b.Summary.Set().Len(), b.Captures)
	}
}

func TestCollectFeedSeesEveryCapture(t *testing.T) {
	p := NewPipeline(testConfig(1))
	n := 0
	p.Collect(func(batch []netip.Addr) {
		for _, a := range batch {
			if !a.IsValid() {
				t.Error("invalid address in feed")
			}
		}
		n += len(batch)
	})
	if n != p.Captures {
		t.Fatalf("feed saw %d of %d captures", n, p.Captures)
	}
}

// On a clean fabric the responsive channel captures every scan-reachable
// NTP client with a vantage in its country at least once: device i is
// walked by shard i%CollectShards alone, from slice i%96 on, until its
// first capture lands.
func TestCleanCollectCapturesEveryResponsiveDevice(t *testing.T) {
	p := NewPipeline(testConfig(1))
	p.CollectOnly()
	walked := 0
	for i, dev := range p.responsive() {
		if _, ok := p.ServerByCountry(dev.Country); !ok {
			continue
		}
		walked++
		if !p.respCaptured[i] {
			t.Errorf("responsive device %d (shard %d) was never captured", i, i%p.Cfg.CollectShards)
		}
	}
	if walked == 0 {
		t.Fatal("no responsive device has a vantage; the test has nothing to check")
	}
}

// respFields is what a client can tell one server's answer from
// another's by.
type respFields struct {
	stratum           uint8
	refID             [4]byte
	origin, recv, xmt ntp.Time64
}

func fieldsOf(p *ntp.Packet) respFields {
	return respFields{p.Stratum, p.ReferenceID, p.OriginTime, p.ReceiveTime, p.TransmitTime}
}

// TestCodecCaptureMatchesFabricExchange holds the campaign's codec
// capture call to the exchange it stands in for. The reference is a
// complete UDP round trip on a clean fabric — ntp.QuerySim against the
// vantage server registered at its address. The shard's clone of that
// server, asked through RespondAppend (one request, as Serve and
// Respond answer it) and through RespondBatch (the exchange both
// capture channels make), must capture the same client addresses in
// the same order and answer with the same stratum, reference ID and
// origin/receive/transmit timestamps.
func TestCodecCaptureMatchesFabricExchange(t *testing.T) {
	p := NewPipeline(testConfig(3))
	sh := p.makeCollectShards()[0]
	fabric, clock := p.W.Fabric(), p.W.Clock()
	draw := rng.New(3)

	type triple struct {
		vs     *VantageServer
		client netip.AddrPort
	}
	var triples []triple
	for _, vs := range p.Servers {
		for i := 0; i < 30; i++ {
			gid := p.W.SampleClientID(vs.Country, draw)
			if gid < 0 {
				continue // no eyeball population there at this scale
			}
			addr := p.W.CurrentAddr(sh.arena.Device(gid), clock.Now())
			triples = append(triples, triple{vs, netip.AddrPortFrom(addr, 40000+uint16(draw.Intn(20000)))})
		}
	}
	if len(triples) < 200 {
		t.Fatalf("sampled %d triples, want at least 200", len(triples))
	}

	// Reference: the fabric exchange. The registered server's hook only
	// counts (stray traffic has no shard to buffer into), so the source
	// it was handed is read off the datagram at the vantage address and
	// the hook's firing off the capture counter.
	var arrived []netip.Addr
	var want []respFields
	for _, tr := range triples {
		stop := fabric.Sniff(netip.PrefixFrom(tr.vs.Addr, 128), func(pi netsim.PacketInfo) {
			arrived = append(arrived, pi.Src.Addr())
		})
		before := p.captures.Load()
		res, err := ntp.QuerySim(fabric, tr.client, netip.AddrPortFrom(tr.vs.Addr, ntp.Port), clock.Now, time.Second)
		stop()
		if err != nil {
			t.Fatalf("fabric exchange %v -> %s: %v", tr.client, tr.vs.ID, err)
		}
		if got := p.captures.Load() - before; got != 1 {
			t.Fatalf("registered %s fired its capture hook %d times for one exchange", tr.vs.ID, got)
		}
		want = append(want, fieldsOf(res.Response))
	}

	// check compares what the clone hooks buffered in the shard, and the
	// answers got, against the reference, then empties the buffer.
	check := func(call string, got []respFields) {
		t.Helper()
		if len(sh.events) != len(triples) || len(got) != len(triples) {
			t.Fatalf("%s: %d captures and %d responses for %d triples", call, len(sh.events), len(got), len(triples))
		}
		for i, tr := range triples {
			ev := sh.events[i]
			if ev.addr != arrived[i] || ev.addr != tr.client.Addr() || ev.vantage != int32(tr.vs.idx) {
				t.Fatalf("%s: capture %d = %v at vantage %d, fabric exchange captured %v at %d",
					call, i, ev.addr, ev.vantage, arrived[i], tr.vs.idx)
			}
			if got[i] != want[i] {
				t.Fatalf("%s: response %d = %+v, fabric exchange answered %+v", call, i, got[i], want[i])
			}
		}
		sh.events = sh.events[:0]
	}
	decode := func(call string, raw []byte) respFields {
		t.Helper()
		pkt, err := ntp.Decode(raw)
		if err != nil {
			t.Fatalf("%s: %v", call, err)
		}
		return fieldsOf(pkt)
	}

	req := ntp.ClientPacket(clock.Now())
	wire := req.AppendEncode(nil)
	var got []respFields
	for _, tr := range triples {
		resp, ok := sh.ntp[tr.vs.idx].RespondAppend(tr.client, wire, nil)
		if !ok {
			t.Fatalf("RespondAppend: %s did not answer %v", tr.vs.ID, tr.client)
		}
		got = append(got, decode("RespondAppend", resp))
	}
	check("RespondAppend", got)

	// RespondBatch takes one vantage's clients per call, as an exchange
	// hands them over; triples are grouped by vantage already.
	got = got[:0]
	for lo := 0; lo < len(triples); {
		hi := lo
		var clients []netip.AddrPort
		var pkts []ntp.Packet
		for ; hi < len(triples) && triples[hi].vs == triples[lo].vs; hi++ {
			clients = append(clients, triples[hi].client)
			pkts = append(pkts, req)
		}
		resp, answered := sh.ntp[triples[lo].vs.idx].RespondBatch(clients, ntp.EncodeBatch(pkts, nil), nil, nil)
		if answered != len(clients) {
			t.Fatalf("RespondBatch: %s answered %d of %d", triples[lo].vs.ID, answered, len(clients))
		}
		for i := range clients {
			got = append(got, decode("RespondBatch", resp[i*ntp.PacketSize:(i+1)*ntp.PacketSize]))
		}
		lo = hi
	}
	check("RespondBatch", got)
}

func TestNTPCampaignFindsConsumerDevices(t *testing.T) {
	p := NewPipeline(testConfig(1))
	data := p.RunNTPCampaign(context.Background())
	if len(data.Results) == 0 {
		t.Fatal("no scan results")
	}
	groups := analysis.TitleGroups(data)
	fritz := analysis.FindGroup(groups, "FRITZ!Box")
	if fritz == nil || fritz.Certs == 0 {
		t.Fatalf("no FRITZ!Box devices found via NTP; groups = %+v", groups)
	}
	// The responsive population is guaranteed captured: every
	// responsive HTTPS fritzbox should be found.
	rows := analysis.Table2(data)
	if rows[0].CertsKeys < fritz.Certs {
		t.Fatalf("table2 inconsistent: %+v vs fritz %d", rows[0], fritz.Certs)
	}
}

func TestHitRateIsLow(t *testing.T) {
	p := NewPipeline(testConfig(1))
	data := p.RunNTPCampaign(context.Background())
	_, _, rate := analysis.HitRate(analysis.NewDataset("ntp", data.Results))
	// Most captured addresses are firewalled phones: the hit rate must
	// be far below one half (the paper's is 0.42 permille at full
	// scale; scale compression raises ours).
	if rate > 0.5 {
		t.Fatalf("hit rate %v implausibly high", rate)
	}
	if rate == 0 {
		t.Fatal("nothing responsive at all")
	}
}

func TestHitlistPipeline(t *testing.T) {
	p := NewPipeline(testConfig(1))
	p.CollectOnly()
	h := p.BuildHitlist(hitlist.Config{})
	if h.Len() == 0 {
		t.Fatal("empty hitlist")
	}
	ctx := context.Background()
	data := p.ScanHitlist(ctx, h)
	groups := analysis.TitleGroups(data)
	if g := analysis.FindGroup(groups, "D-LINK"); g == nil {
		t.Fatalf("hitlist scan missed D-LINK infrastructure; groups = %+v", groups)
	}
	pub := p.PublicHitlist(ctx, h)
	if len(pub) == 0 || len(pub) >= h.Len() {
		t.Fatalf("public list = %d of %d", len(pub), h.Len())
	}
	fullSum := p.SummarizeHitlist(h.Full)
	pubSum := p.SummarizeHitlist(pub)
	if fullSum.Stats().ASes < pubSum.Stats().ASes {
		t.Fatal("full hitlist should cover at least as many ASes")
	}
}

func TestRLCollect(t *testing.T) {
	p := NewPipeline(testConfig(1))
	p.CollectOnly()
	rl := p.RLCollect(0)
	if rl.Set().Len() == 0 {
		t.Fatal("R&L run empty")
	}
	// Partial /48 overlap with our run: some but not all.
	overlap := p.Summary.Per48().OverlapWith(rl.Per48())
	if overlap == 0 {
		t.Fatal("no /48 overlap with R&L era")
	}
	if overlap == p.Summary.Per48().Len() {
		t.Fatal("complete /48 overlap is implausible across eras")
	}
}

func TestSecureShareGap(t *testing.T) {
	// The headline: NTP-sourced hosts are less securely configured
	// than hitlist-found hosts.
	cfg := testConfig(2)
	cfg.World.DeviceScale = 3e-3
	p := NewPipeline(cfg)
	ctx := context.Background()
	ntpData := p.RunNTPCampaign(ctx)
	h := p.BuildHitlist(hitlist.Config{})
	hitData := p.ScanHitlist(ctx, h)
	shares := analysis.SecureShares(ntpData, hitData)
	if shares[0].Hosts == 0 || shares[1].Hosts == 0 {
		t.Fatalf("empty host sets: %+v", shares)
	}
	if shares[0].Share() >= shares[1].Share() {
		t.Fatalf("NTP share %.3f should be below hitlist share %.3f",
			shares[0].Share(), shares[1].Share())
	}
}
