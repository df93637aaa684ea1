package experiments

import (
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"ntpscan/internal/analysis"
	"ntpscan/internal/ipv6x"
	"ntpscan/internal/targetgen"
)

// The suite is expensive; tests share one run.
var (
	suiteOnce sync.Once
	suite     *Suite
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suite = Run(Options{
			Seed:        42,
			DeviceScale: 2e-3,
			AddrScale:   3e-6,
			ASScale:     0.02,
			Workers:     32,
		})
	})
	return suite
}

func TestTable1Shapes(t *testing.T) {
	s := testSuite(t)
	ours := s.P.Summary.Stats()
	pub := s.HitPubSum.Stats()
	full := s.HitFullSum.Stats()

	// Who wins: our collection yields far more addresses than the
	// public hitlist; the full hitlist dwarfs the public one.
	if ours.Addrs <= pub.Addrs {
		t.Errorf("ours %d addrs should exceed public hitlist %d", ours.Addrs, pub.Addrs)
	}
	if full.Addrs <= pub.Addrs {
		t.Errorf("full %d should exceed public %d", full.Addrs, pub.Addrs)
	}
	// Our networks are denser (eyeball clients pack /48s).
	if ours.Median48 < full.Median48 {
		t.Errorf("our median /48 density %.1f below hitlist %.1f", ours.Median48, full.Median48)
	}
	// The hitlist covers most of the ASes we see (paper: 10311 of
	// 10515).
	overlap := s.P.Summary.ASOverlap(s.HitFullSum)
	if float64(overlap) < 0.6*float64(ours.ASes) {
		t.Errorf("AS overlap %d of ours %d too low", overlap, ours.ASes)
	}
	// But the hitlist also knows many ASes we never see.
	if full.ASes <= ours.ASes {
		t.Errorf("hitlist ASes %d should exceed ours %d", full.ASes, ours.ASes)
	}
	out := s.Table1()
	if !strings.Contains(out, "IP addresses") {
		t.Fatalf("render broken:\n%s", out)
	}
}

func TestFigure1Shapes(t *testing.T) {
	s := testSuite(t)
	ours := s.P.Summary.Stats()
	pub := s.HitPubSum.Stats()

	structured := func(st analysis.CollectionStats) float64 {
		return st.IIDShare(ipv6x.IIDZero) + st.IIDShare(ipv6x.IIDLastByte) +
			st.IIDShare(ipv6x.IIDLastTwoBytes)
	}
	// Hitlist leans structured (servers); ours leans entropy/EUI.
	if structured(ours) >= structured(pub) {
		t.Errorf("our structured share %.3f should be below hitlist public %.3f",
			structured(ours), structured(pub))
	}
	// More eyeball ASes in our data.
	if ours.CableShare() <= pub.CableShare() {
		t.Errorf("our Cable/DSL/ISP share %.3f should exceed hitlist %.3f",
			ours.CableShare(), pub.CableShare())
	}
	if out := s.Figure1(); !strings.Contains(out, "Cable/DSL/ISP") {
		t.Fatal("render broken")
	}
}

func table2Map(d *analysis.Dataset) map[string]analysis.Table2Row {
	out := map[string]analysis.Table2Row{}
	for _, r := range analysis.Table2(d) {
		key := strings.Fields(r.Protocol)[0]
		out[key] = r
	}
	return out
}

func TestTable2Shapes(t *testing.T) {
	s := testSuite(t)
	ours := table2Map(s.NTP)
	hit := table2Map(s.Hitlist)

	// The hitlist finds more endpoints for every protocol except CoAP
	// (the paper's key asymmetry).
	for _, proto := range []string{"HTTP", "SSH", "MQTT", "AMQP"} {
		if ours[proto].Addrs >= hit[proto].Addrs {
			t.Errorf("%s: ours %d should be below hitlist %d",
				proto, ours[proto].Addrs, hit[proto].Addrs)
		}
	}
	if ours["CoAP"].Addrs <= hit["CoAP"].Addrs {
		t.Errorf("CoAP: ours %d should exceed hitlist %d",
			ours["CoAP"].Addrs, hit["CoAP"].Addrs)
	}
	// Dynamic addressing: our HTTP addresses exceed unique certs.
	if ours["HTTP"].Addrs <= ours["HTTP"].CertsKeys {
		t.Errorf("HTTP addrs %d should exceed certs %d (dynamic re-finds)",
			ours["HTTP"].Addrs, ours["HTTP"].CertsKeys)
	}
	// Hit rate: ours is low (most captures are firewalled eyeballs).
	_, _, rate := analysis.HitRate(s.NTP)
	if rate > 0.35 {
		t.Errorf("NTP hit rate %.3f implausibly high", rate)
	}
}

func TestTable3Shapes(t *testing.T) {
	s := testSuite(t)
	oursTG := analysis.TitleGroups(s.NTP)
	hitTG := analysis.TitleGroups(s.Hitlist)

	fritzOurs := analysis.FindGroup(oursTG, "FRITZ!Box")
	if fritzOurs == nil {
		t.Fatal("no FRITZ!Box group in our data")
	}
	// FRITZ!Box dominates our certificates (paper: 90.8 %).
	if share := float64(fritzOurs.Certs) / float64(analysis.TotalCerts(oursTG)); share < 0.5 {
		t.Errorf("FRITZ!Box share %.3f too low", share)
	}
	// D-LINK: hitlist-only.
	if g := analysis.FindGroup(oursTG, "D-LINK"); g != nil {
		t.Errorf("D-LINK found via NTP: %+v", g)
	}
	if g := analysis.FindGroup(hitTG, "D-LINK"); g == nil {
		t.Error("D-LINK missing from hitlist results")
	}
	// FRITZ devices appear in the hitlist too, but far fewer.
	if g := analysis.FindGroup(hitTG, "FRITZ!Box"); g != nil && g.Certs >= fritzOurs.Certs {
		t.Errorf("hitlist FRITZ %d should be far below ours %d", g.Certs, fritzOurs.Certs)
	}

	// SSH: Raspbian is NTP territory; FreeBSD is hitlist territory.
	oursSSH := rowsByOS(analysis.SSHOSTable(s.NTP))
	hitSSH := rowsByOS(analysis.SSHOSTable(s.Hitlist))
	if oursSSH["Raspbian"] <= hitSSH["Raspbian"] {
		t.Errorf("Raspbian: ours %d vs hitlist %d", oursSSH["Raspbian"], hitSSH["Raspbian"])
	}
	if hitSSH["FreeBSD"] <= oursSSH["FreeBSD"] {
		t.Errorf("FreeBSD: hitlist %d vs ours %d", hitSSH["FreeBSD"], oursSSH["FreeBSD"])
	}

	// CoAP: castdevice invisible to the hitlist.
	oursCoAP := rowsByCoAP(analysis.CoAPGroups(s.NTP))
	hitCoAP := rowsByCoAP(analysis.CoAPGroups(s.Hitlist))
	if oursCoAP["castdevice"] == 0 {
		t.Error("no castdevice group via NTP")
	}
	if hitCoAP["castdevice"] != 0 {
		t.Errorf("hitlist found %d castdevices, paper found none", hitCoAP["castdevice"])
	}
	if analysis.NewDeviceFinds(s.NTP, s.Hitlist) == 0 {
		t.Error("no new/underrepresented devices counted")
	}
}

func TestFigure2Shape(t *testing.T) {
	s := testSuite(t)
	stats := analysis.SSHOutdated(s.NTP, s.Hitlist)
	if stats[0].Assessable == 0 || stats[1].Assessable == 0 {
		t.Fatalf("no assessable keys: %+v", stats)
	}
	// NTP-found servers are more outdated (Figure 2).
	if stats[0].OutdatedShare() <= stats[1].OutdatedShare() {
		t.Errorf("NTP outdated %.3f should exceed hitlist %.3f",
			stats[0].OutdatedShare(), stats[1].OutdatedShare())
	}
}

func TestFigure3Shape(t *testing.T) {
	s := testSuite(t)
	oursMQTT := analysis.BrokerAccess(s.NTP, "mqtt")
	hitMQTT := analysis.BrokerAccess(s.Hitlist, "mqtt")
	if oursMQTT.Total() == 0 || hitMQTT.Total() == 0 {
		t.Fatalf("no MQTT brokers: %+v %+v", oursMQTT, hitMQTT)
	}
	// Over half the NTP-found brokers lack access control; the hitlist
	// population is much better protected (paper: ~80 %).
	if oursMQTT.OpenShare() <= hitMQTT.OpenShare() {
		t.Errorf("MQTT open: ours %.3f should exceed hitlist %.3f",
			oursMQTT.OpenShare(), hitMQTT.OpenShare())
	}
	// AMQP access control is widespread on both sides.
	oursAMQP := analysis.BrokerAccess(s.NTP, "amqp")
	if oursAMQP.Total() > 0 && oursAMQP.OpenShare() > 0.5 {
		t.Errorf("AMQP open share %.3f too high", oursAMQP.OpenShare())
	}
}

func TestHeadlineShape(t *testing.T) {
	s := testSuite(t)
	shares := analysis.SecureShares(s.NTP, s.Hitlist)
	ntpShare, hitShare := shares[0].Share(), shares[1].Share()
	// Paper: 28.4 % vs 43.5 %. Require the gap and the rough bands.
	if ntpShare >= hitShare {
		t.Fatalf("NTP %.3f should be below hitlist %.3f", ntpShare, hitShare)
	}
	if ntpShare < 0.10 || ntpShare > 0.50 {
		t.Errorf("NTP secure share %.3f outside plausible band around 0.284", ntpShare)
	}
	if hitShare < 0.25 || hitShare > 0.65 {
		t.Errorf("hitlist secure share %.3f outside plausible band around 0.435", hitShare)
	}
	t.Logf("secure shares: ntp=%.3f (paper 0.284), hitlist=%.3f (paper 0.435)", ntpShare, hitShare)
}

func TestTable4Shape(t *testing.T) {
	s := testSuite(t)
	e := s.P.EUI
	if e.AddrsEUI == 0 || e.AddrsEUI >= e.AddrsTotal {
		t.Fatalf("EUI counts wrong: %d of %d", e.AddrsEUI, e.AddrsTotal)
	}
	// Most EUI addresses are locally administered (randomised MACs).
	if e.AddrsUnique*2 > e.AddrsEUI {
		t.Errorf("unique-bit addrs %d should be a minority of EUI %d", e.AddrsUnique, e.AddrsEUI)
	}
	top := e.TopVendors(3)
	if len(top) == 0 {
		t.Fatal("no vendors attributed")
	}
	// AVM leads (the paper's headline deviation from R&L).
	if !strings.Contains(top[0].Vendor, "AVM") {
		t.Errorf("top vendor = %q, want AVM", top[0].Vendor)
	}
}

func TestFigure4Shape(t *testing.T) {
	s := testSuite(t)
	countries, shares := s.P.EUI.OriginDistribution(analysis.MACListed)
	// Listed MACs (AVM gear) are captured mostly in Europe.
	euShare := 0.0
	for i, c := range countries {
		switch c {
		case "DE", "GB", "NL", "ES", "PL":
			euShare += shares[i]
		}
	}
	if euShare < 0.4 {
		t.Errorf("European share of listed MACs %.3f too low", euShare)
	}
}

func TestTable7Shape(t *testing.T) {
	s := testSuite(t)
	rows := s.P.PerCountrySorted()
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Country != "IN" {
		t.Errorf("top = %s, want IN", rows[0].Country)
	}
	if rows[0].Addrs < 5*rows[len(rows)-1].Addrs {
		t.Errorf("per-server spread too flat: %v", rows)
	}
}

func TestRenderAll(t *testing.T) {
	s := testSuite(t)
	out := s.All()
	for _, want := range []string{
		"Table 1", "Figure 1", "Table 2", "Table 3", "Figure 2",
		"Figure 3", "Secure-share headline", "Table 4", "Figure 4",
		"Table 5", "Table 6", "Table 7", "Key reuse",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("All() missing %q", want)
		}
	}
}

func TestSection5(t *testing.T) {
	res := Section5(7)
	rep := res.Report
	if len(rep.Campaigns) != 2 {
		t.Fatalf("campaigns = %d", len(rep.Campaigns))
	}
	if rep.ScatterPackets != 0 {
		t.Errorf("scatter = %d", rep.ScatterPackets)
	}
	if rep.MatchedPackets != rep.ScanPackets {
		t.Errorf("matched %d of %d", rep.MatchedPackets, rep.ScanPackets)
	}
	// One campaign is broad (research, ~1011 ports), one narrow
	// (covert, ≤10 ports).
	var broad, narrow bool
	for _, c := range rep.Campaigns {
		if len(c.Ports) > 100 {
			broad = true
		}
		if len(c.Ports) <= 10 {
			narrow = true
		}
	}
	if !broad || !narrow {
		t.Errorf("campaign port profiles wrong: %+v", rep.Campaigns)
	}
	if !strings.Contains(res.Rendered, "telescope attribution") {
		t.Error("render broken")
	}
}

func TestAblations(t *testing.T) {
	s := testSuite(t)
	if out := AblationDedup(s); !strings.Contains(out, "certs + host keys") {
		t.Error("dedup ablation broken")
	}
	if out := AblationNetspeed(3); !strings.Contains(out, "1000") {
		t.Error("netspeed ablation broken")
	}
	out := AblationTitleThreshold(s)
	if !strings.Contains(out, "0.25") {
		t.Error("threshold ablation broken")
	}
	// The sweep clusters greedily, so it must fix the order it feeds
	// titles in; from a map it printed different group counts per run.
	for i := 0; i < 8; i++ {
		if again := AblationTitleThreshold(s); again != out {
			t.Fatalf("threshold ablation differs between calls:\n%s\nvs\n%s", out, again)
		}
	}
}

func TestAblationFeedVsBatch(t *testing.T) {
	out := AblationFeedVsBatch(Options{
		Seed: 5, DeviceScale: 1e-3, AddrScale: 1e-6, ASScale: 0.02, Workers: 32,
	})
	if !strings.Contains(out, "real-time feed") || !strings.Contains(out, "post-hoc batch") {
		t.Fatalf("render broken:\n%s", out)
	}
}

func TestCollectOnlySuite(t *testing.T) {
	s := CollectOnly(Options{Seed: 9, DeviceScale: 1e-3, AddrScale: 1e-6, ASScale: 0.02, Workers: 32})
	if s.P.Summary.Set().Len() == 0 {
		t.Fatal("no collection")
	}
	out := s.All()
	if !strings.Contains(out, "Table 1") || strings.Contains(out, "Table 2") {
		t.Error("CollectOnly should render collection tables only")
	}
}

func TestFigure5And6Render(t *testing.T) {
	s := testSuite(t)
	f5 := s.Figure5()
	if !strings.Contains(f5, "Figure 5") || !strings.Contains(f5, "/56") {
		t.Fatalf("figure 5 broken:\n%s", f5)
	}
	// By-address counting must show at least as much outdatedness as
	// by-key counting (key-reusing outdated servers multiply).
	byNet := analysis.SSHOutdatedByNetwork(s.NTP, s.Hitlist)
	byKey := analysis.SSHOutdated(s.NTP, s.Hitlist)
	if byNet[0][0].OutdatedShare()+0.02 < byKey[0].OutdatedShare() {
		t.Errorf("by-addr outdated %.3f unexpectedly far below by-key %.3f",
			byNet[0][0].OutdatedShare(), byKey[0].OutdatedShare())
	}
	f6 := s.Figure6()
	if !strings.Contains(f6, "MQTT access control by network") {
		t.Fatalf("figure 6 broken:\n%s", f6)
	}
}

func TestExtensionTargetGen(t *testing.T) {
	s := testSuite(t)
	out := ExtensionTargetGen(s, 500)
	if !strings.Contains(out, "NTP-sourced (eyeball)") ||
		!strings.Contains(out, "Hitlist responsive (servers)") {
		t.Fatalf("render broken:\n%s", out)
	}
	// The core claim: the eyeball-trained model learns from a far
	// smaller share of its seeds than the server-trained model.
	ntpSeeds := s.P.Summary.Set().Sorted()
	ntpModel := targetgen.Train(ntpSeeds)
	if ntpModel.LearnableShare() > 0.5 {
		t.Errorf("eyeball model learnable share %.3f implausibly high",
			ntpModel.LearnableShare())
	}
	live := ExtensionGeneratedVsLive(s)
	if !strings.Contains(live, "live NTP feed") {
		t.Fatalf("render broken:\n%s", live)
	}
}

func TestSuiteDeterministic(t *testing.T) {
	opts := Options{Seed: 77, DeviceScale: 5e-4, AddrScale: 5e-7, ASScale: 0.02, Workers: 16}
	a := CollectOnly(opts)
	b := CollectOnly(opts)
	if got, want := a.Table1(), b.Table1(); got != want {
		t.Fatalf("Table1 not deterministic:\n%s\nvs\n%s", got, want)
	}
	if got, want := a.Figure1(), b.Figure1(); got != want {
		t.Fatal("Figure1 not deterministic")
	}
	if got, want := a.Table7(), b.Table7(); got != want {
		t.Fatal("Table7 not deterministic")
	}
}

func TestSection5Deterministic(t *testing.T) {
	a, b := Section5(123), Section5(123)
	if a.Rendered != b.Rendered {
		t.Fatal("Section5 not deterministic")
	}
}

// clip must cut by runes: tabulate pads by runes, so a byte cut both
// misaligns the row and can leave half a character behind.
func TestClipCutsRunes(t *testing.T) {
	type clipCase struct {
		in   string
		n    int
		want string
	}
	cases := []clipCase{
		{"short", 42, "short"},
		{"exactly-ten", 11, "exactly-ten"},
		{"FRITZ!Box 7590", 10, "FRITZ!Box…"},
		// Input that is already broken: passed through when it fits,
		// one U+FFFD (one column) per broken byte when it is cut.
		{"bad\xffbyte", 42, "bad\xffbyte"},
		{"bad\xffbyte tail", 6, "bad\ufffdb…"},
	}
	umlauts := []rune("ÄÖÜäöüß…")
	for n := 1; n <= len(umlauts)+1; n++ {
		want := string(umlauts)
		if n < len(umlauts) {
			want = string(umlauts[:n-1]) + "…"
		}
		cases = append(cases, clipCase{string(umlauts), n, want})
	}
	for _, c := range cases {
		got := clip(c.in, c.n)
		if got != c.want {
			t.Errorf("clip(%q, %d) = %q, want %q", c.in, c.n, got, c.want)
		}
		if utf8.ValidString(c.in) && !utf8.ValidString(got) {
			t.Errorf("clip(%q, %d) = %q: invalid UTF-8 from valid input", c.in, c.n, got)
		}
	}
}
