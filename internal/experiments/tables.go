package experiments

import (
	"fmt"
	"strings"

	"ntpscan/internal/analysis"
	"ntpscan/internal/ipv6x"
	"ntpscan/internal/tabulate"
	"ntpscan/internal/zgrab"
)

// Table1 renders the dataset-size comparison (distinct IPs, /48s, ASes,
// overlaps, medians) across our collection, the R&L-era run, and the
// hitlist variants.
func (s *Suite) Table1() string {
	ours := s.P.Summary
	oursStats := ours.Stats()
	rl := s.RLSum.Stats()
	pub := s.HitPubSum.Stats()
	full := s.HitFullSum.Stats()

	t := tabulate.New("Table 1: number of distinct IPs/networks per dataset",
		"", "Our Data", "R&L-era", "TUM public", "TUM full").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right, tabulate.Right)
	t.Cells("IP addresses",
		tabulate.Count(oursStats.Addrs), tabulate.Count(rl.Addrs),
		tabulate.Count(pub.Addrs), tabulate.Count(full.Addrs))
	t.Cells("  overlap w/ ours", "-",
		tabulate.Count(ours.Set().OverlapWith(s.RLSum.Set())),
		tabulate.Count(ours.Set().OverlapWith(s.HitPubSum.Set())),
		tabulate.Count(ours.Set().OverlapWith(s.HitFullSum.Set())))
	t.Cells("/48 networks",
		tabulate.Count(oursStats.Nets48), tabulate.Count(rl.Nets48),
		tabulate.Count(pub.Nets48), tabulate.Count(full.Nets48))
	t.Cells("  overlap w/ ours", "-",
		tabulate.Count(ours.Per48().OverlapWith(s.RLSum.Per48())),
		tabulate.Count(ours.Per48().OverlapWith(s.HitPubSum.Per48())),
		tabulate.Count(ours.Per48().OverlapWith(s.HitFullSum.Per48())))
	t.Cells("ASes",
		tabulate.Count(oursStats.ASes), tabulate.Count(rl.ASes),
		tabulate.Count(pub.ASes), tabulate.Count(full.ASes))
	t.Cells("  overlap w/ ours", "-",
		tabulate.Count(ours.ASOverlap(s.RLSum)),
		tabulate.Count(ours.ASOverlap(s.HitPubSum)),
		tabulate.Count(ours.ASOverlap(s.HitFullSum)))
	t.Cells("median IPs in /48s",
		fmt.Sprintf("%.1f", oursStats.Median48), fmt.Sprintf("%.1f", rl.Median48),
		fmt.Sprintf("%.1f", pub.Median48), fmt.Sprintf("%.1f", full.Median48))
	t.Cells("median IPs in ASes",
		fmt.Sprintf("%.1f", oursStats.MedianAS), fmt.Sprintf("%.1f", rl.MedianAS),
		fmt.Sprintf("%.1f", pub.MedianAS), fmt.Sprintf("%.1f", full.MedianAS))
	return section("Table 1", t.String())
}

// Figure1 renders the IID-class proportions plus the Cable/DSL/ISP AS
// share per dataset.
func (s *Suite) Figure1() string {
	datasets := []struct {
		name  string
		stats analysis.CollectionStats
	}{
		{"Our Data", s.P.Summary.Stats()},
		{"R&L-era", s.RLSum.Stats()},
		{"TUM public", s.HitPubSum.Stats()},
		{"TUM full", s.HitFullSum.Stats()},
	}
	t := tabulate.New("Figure 1: proportion of addresses grouped by IID class and AS type",
		"Dataset", "zero", "last-byte", "last-2B", "ent<1", "ent 1-2", "ent>=2", "Cable/DSL/ISP").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right,
			tabulate.Right, tabulate.Right, tabulate.Right, tabulate.Right)
	for _, d := range datasets {
		cells := []string{d.name}
		for c := ipv6x.IIDClass(0); c < ipv6x.NIIDClasses; c++ {
			cells = append(cells, tabulate.Pct(d.stats.IIDShare(c)))
		}
		cells = append(cells, tabulate.Pct(d.stats.CableShare()))
		t.Cells(cells...)
	}
	return section("Figure 1", t.String())
}

// Table2 renders successful scans by protocol for both sources.
func (s *Suite) Table2() string {
	ours := analysis.Table2(s.NTP)
	hit := analysis.Table2(s.Hitlist)
	t := tabulate.New("Table 2: successful scans by protocol",
		"Protocol", "Our #Addrs", "Our w/TLS", "Our Certs/Keys",
		"Hitlist #Addrs", "Hitlist w/TLS", "Hitlist Certs/Keys").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right,
			tabulate.Right, tabulate.Right, tabulate.Right)
	for i := range ours {
		t.Cells(ours[i].Protocol,
			tabulate.Count(ours[i].Addrs), tabulate.Count(ours[i].AddrsTLS), tabulate.Count(ours[i].CertsKeys),
			tabulate.Count(hit[i].Addrs), tabulate.Count(hit[i].AddrsTLS), tabulate.Count(hit[i].CertsKeys))
	}
	respO, scanO, rateO := analysis.HitRate(s.NTP)
	respH, scanH, rateH := analysis.HitRate(s.Hitlist)
	t.Note("hit rate ours: %d/%d = %.4f; hitlist: %d/%d = %.4f",
		respO, scanO, rateO, respH, scanH, rateH)
	return section("Table 2", t.String())
}

// Table3 renders the device-type panels: title groups, SSH OS, CoAP
// resource groups.
func (s *Suite) Table3() string {
	var b strings.Builder

	oursTG, hitTG := analysis.TitleGroups(s.NTP), analysis.TitleGroups(s.Hitlist)
	oursTotal, hitTotal := analysis.TotalCerts(oursTG), analysis.TotalCerts(hitTG)
	th := tabulate.New("HTML title groups (#certificates)",
		"Title group", "Our Data", "TUM Hitlist").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right)
	listed := map[string]bool{}
	addRow := func(g analysis.TitleGroup) {
		if listed[g.Representative] {
			return
		}
		listed[g.Representative] = true
		var oCount, hCount int
		if og := analysis.FindGroup(oursTG, g.Representative); og != nil {
			oCount = og.Certs
		}
		if hg := analysis.FindGroup(hitTG, g.Representative); hg != nil {
			hCount = hg.Certs
		}
		th.Cells(clip(g.Representative, 42),
			tabulate.CountPct(oCount, oursTotal), tabulate.CountPct(hCount, hitTotal))
	}
	for i, g := range oursTG {
		if i >= 8 {
			break
		}
		addRow(g)
	}
	for i, g := range hitTG {
		if i >= 8 {
			break
		}
		addRow(g)
	}
	b.WriteString(th.String())
	b.WriteByte('\n')

	to := tabulate.New("SSH OS (#host keys)", "OS", "Our Data", "TUM Hitlist").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right)
	oursSSH := rowsByOS(analysis.SSHOSTable(s.NTP))
	hitSSH := rowsByOS(analysis.SSHOSTable(s.Hitlist))
	oursTotalSSH, hitTotalSSH := sumOS(oursSSH), sumOS(hitSSH)
	for _, os := range []string{"Ubuntu", "Debian", "Raspbian", "FreeBSD", "other/unknown"} {
		to.Cells(os,
			tabulate.CountPct(oursSSH[os], oursTotalSSH),
			tabulate.CountPct(hitSSH[os], hitTotalSSH))
	}
	b.WriteString(to.String())
	b.WriteByte('\n')

	tc := tabulate.New("CoAP resource groups (#addresses)", "Group", "Our Data", "TUM Hitlist").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right)
	oursCoAP := rowsByCoAP(analysis.CoAPGroups(s.NTP))
	hitCoAP := rowsByCoAP(analysis.CoAPGroups(s.Hitlist))
	oursTotalC, hitTotalC := sumCoAP(oursCoAP), sumCoAP(hitCoAP)
	for _, g := range []string{"castdevice", "qlink", "efento", "nanoleaf", "empty", "other"} {
		tc.Cells(g,
			tabulate.CountPct(oursCoAP[g], oursTotalC),
			tabulate.CountPct(hitCoAP[g], hitTotalC))
	}
	tc.Note("new or underrepresented devices found via NTP: %s",
		tabulate.Count(analysis.NewDeviceFinds(s.NTP, s.Hitlist)))
	b.WriteString(tc.String())
	return section("Table 3", b.String())
}

func rowsByOS(rows []analysis.SSHOSRow) map[string]int {
	out := map[string]int{}
	for _, r := range rows {
		out[r.OS] = r.Keys
	}
	return out
}

func sumOS(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func rowsByCoAP(rows []analysis.CoAPRow) map[string]int {
	out := map[string]int{}
	for _, r := range rows {
		out[r.Group] = r.Addrs
	}
	return out
}

func sumCoAP(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// clip cuts s to n runes, the last an ellipsis when it cut. Runes, not
// bytes: tabulate pads by runes, and a byte cut can split one.
func clip(s string, n int) string {
	if r := []rune(s); len(r) > n {
		return string(r[:n-1]) + "…"
	}
	return s
}

// Figure2 renders SSH up-to-dateness per source.
func (s *Suite) Figure2() string {
	stats := analysis.SSHOutdated(s.NTP, s.Hitlist)
	t := tabulate.New("Figure 2: SSH patch state (unique keys, Debian-derived)",
		"Dataset", "Assessable", "Up to date", "Outdated", "Outdated share").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right, tabulate.Right)
	for i, name := range []string{"Our Data", "TUM Hitlist"} {
		t.Cells(name,
			tabulate.Count(stats[i].Assessable),
			tabulate.Count(stats[i].UpToDate()),
			tabulate.Count(stats[i].Outdated),
			tabulate.Pct(stats[i].OutdatedShare()))
	}
	return section("Figure 2", t.String())
}

// Figure3 renders broker access control per source.
func (s *Suite) Figure3() string {
	t := tabulate.New("Figure 3: broker access control",
		"Protocol", "Dataset", "Open", "Access control", "Open share").
		SetAligns(tabulate.Left, tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right)
	for _, proto := range []string{"mqtt", "amqp"} {
		for i, d := range []*analysis.Dataset{s.NTP, s.Hitlist} {
			name := []string{"Our Data", "TUM Hitlist"}[i]
			ac := analysis.BrokerAccess(d, proto)
			t.Cells(strings.ToUpper(proto), name,
				tabulate.Count(ac.Open), tabulate.Count(ac.AccessControl),
				tabulate.Pct(ac.OpenShare()))
		}
	}
	return section("Figure 3", t.String())
}

// Headline renders the §4.4 secure-share takeaway.
func (s *Suite) Headline() string {
	shares := analysis.SecureShares(s.NTP, s.Hitlist)
	t := tabulate.New("Headline: secure share of SSH+IoT hosts",
		"Dataset", "Hosts", "Secure", "Share").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right)
	for i, name := range []string{"Our Data (NTP)", "TUM Hitlist"} {
		t.Cells(name, tabulate.Count(shares[i].Hosts),
			tabulate.Count(shares[i].Secure), tabulate.Pct(shares[i].Share()))
	}
	t.Note("paper: 28.4%% of 73 975 NTP hosts vs 43.5%% of 854 704 hitlist hosts")
	return section("Secure-share headline (§4.4)", t.String())
}

// KeyReuse renders the §6 reuse analysis.
func (s *Suite) KeyReuse() string {
	t := tabulate.New("Key reuse across >2 ASes (§6)",
		"Dataset", "Reused keys", "IPs on reused keys", "Top key IPs", "Top key ASes", "Widest key ASes").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right, tabulate.Right, tabulate.Right)
	for i, d := range []*analysis.Dataset{s.NTP, s.Hitlist} {
		name := []string{"Our Data", "TUM Hitlist"}[i]
		st := analysis.KeyReuse(s.Ctx, d)
		t.Cells(name, tabulate.Count(st.ReusedKeys), tabulate.Count(st.ReusedIPs),
			tabulate.Count(st.TopKeyIPs), tabulate.Count(st.TopKeyASes),
			tabulate.Count(st.WidestKeyASes))
	}
	return section("Key reuse (§6)", t.String())
}

// Table4 renders the EUI-64 vendor attribution.
func (s *Suite) Table4() string {
	e := s.P.EUI
	t := tabulate.New("Table 4: embedded MACs by manufacturer",
		"Manufacturer", "#MACs", "#IPs").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right)
	for _, row := range e.TopVendors(20) {
		t.Cells(clip(row.Vendor, 48), tabulate.Count(row.MACs), tabulate.Count(row.IPs))
	}
	t.Note("addresses: %s total, %s EUI-64, %s with unique bit; %s distinct MACs, %s IEEE-listed",
		tabulate.Count(e.AddrsTotal), tabulate.Count(e.AddrsEUI), tabulate.Count(e.AddrsUnique),
		tabulate.Count(e.DistinctMACs()), tabulate.Count(e.ListedMACs()))
	return section("Table 4 (Appendix B)", t.String())
}

// Figure4 renders the capture-country distribution per MAC class.
func (s *Suite) Figure4() string {
	t := tabulate.New("Figure 4: capture-server country by embedded-MAC class",
		"Class", "Top countries (share)").
		SetAligns(tabulate.Left, tabulate.Left)
	for class := analysis.MACClass(0); class < analysis.NMACClasses; class++ {
		countries, shares := s.P.EUI.OriginDistribution(class)
		type cs struct {
			c string
			s float64
		}
		var all []cs
		for i := range countries {
			all = append(all, cs{countries[i], shares[i]})
		}
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				if all[j].s > all[i].s {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		var parts []string
		for i, v := range all {
			if i >= 4 {
				break
			}
			parts = append(parts, fmt.Sprintf("%s %s", v.c, tabulate.Pct(v.s)))
		}
		t.Cells(class.String(), strings.Join(parts, ", "))
	}
	return section("Figure 4 (Appendix B)", t.String())
}

// Table5 renders per-network aggregation for both sources.
func (s *Suite) Table5() string {
	var b strings.Builder
	for i, d := range []*analysis.Dataset{s.NTP, s.Hitlist} {
		name := []string{"Our Data", "TUM Hitlist"}[i]
		t := tabulate.New("Successful scans per network ("+name+")",
			"Protocol", "Addrs", "/32", "/48", "/56", "/64", "ASes", "Countries").
			SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right,
				tabulate.Right, tabulate.Right, tabulate.Right, tabulate.Right)
		for _, row := range analysis.Table5(s.Ctx, d) {
			t.Cells(row.Module, tabulate.Count(row.Addrs),
				tabulate.Count(row.Nets32), tabulate.Count(row.Nets48),
				tabulate.Count(row.Nets56), tabulate.Count(row.Nets64),
				tabulate.Count(row.ASes), tabulate.Count(row.Countries))
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return section("Table 5 (Appendix C)", b.String())
}

// Table6 renders device groups counted by networks.
func (s *Suite) Table6() string {
	var b strings.Builder
	for i, d := range []*analysis.Dataset{s.NTP, s.Hitlist} {
		name := []string{"Our Data", "TUM Hitlist"}[i]
		t := tabulate.New("CoAP groups by networks ("+name+")",
			"Group", "IPs", "/48", "/56", "/64").
			SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right, tabulate.Right)
		rows := analysis.GroupByNetworks(d, "coap", func(r *zgrab.Result) string {
			if r.CoAP == nil || r.CoAP.Code != "2.05" {
				return ""
			}
			return analysis.CoAPGroupOf(r.CoAP.Resources)
		})
		for _, row := range rows {
			t.Cells(row.Group, tabulate.Count(row.IPs), tabulate.Count(row.Nets48),
				tabulate.Count(row.Nets56), tabulate.Count(row.Nets64))
		}
		b.WriteString(t.String())
		b.WriteByte('\n')

		ts := tabulate.New("SSH OS by networks ("+name+")",
			"OS", "IPs", "/48", "/56", "/64").
			SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right, tabulate.Right)
		osRows := analysis.GroupByNetworks(d, "ssh", func(r *zgrab.Result) string {
			if r.SSH == nil {
				return ""
			}
			switch r.SSH.OS {
			case "Ubuntu", "Debian", "Raspbian", "FreeBSD":
				return r.SSH.OS
			default:
				return "other/unknown"
			}
		})
		for _, row := range osRows {
			ts.Cells(row.Group, tabulate.Count(row.IPs), tabulate.Count(row.Nets48),
				tabulate.Count(row.Nets56), tabulate.Count(row.Nets64))
		}
		b.WriteString(ts.String())
		b.WriteByte('\n')
	}
	return section("Table 6 (Appendix C)", b.String())
}

// Table7 renders addresses collected per vantage server.
func (s *Suite) Table7() string {
	t := tabulate.New("Table 7: distinct addresses per vantage server",
		"Location", "#Addresses").
		SetAligns(tabulate.Left, tabulate.Right)
	for _, row := range s.P.PerCountrySorted() {
		t.Cells(row.Country, tabulate.Count(row.Addrs))
	}
	return section("Table 7 (Appendix D)", t.String())
}

// Table8 renders the top-N titles and SSH OS strings (Tables 8/9).
func (s *Suite) Table8() string {
	var b strings.Builder
	t := tabulate.New("Top HTML title groups by unique certificate",
		"Title group", "Our Data", "TUM Hitlist").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right)
	ours, hit := analysis.TitleGroups(s.NTP), analysis.TitleGroups(s.Hitlist)
	seen := map[string]bool{}
	emit := func(groups []analysis.TitleGroup, limit int) {
		for i, g := range groups {
			if i >= limit || seen[g.Representative] {
				continue
			}
			seen[g.Representative] = true
			o, h := 0, 0
			if og := analysis.FindGroup(ours, g.Representative); og != nil {
				o = og.Certs
			}
			if hg := analysis.FindGroup(hit, g.Representative); hg != nil {
				h = hg.Certs
			}
			t.Cells(clip(g.Representative, 44), tabulate.Count(o), tabulate.Count(h))
		}
	}
	emit(ours, 15)
	emit(hit, 15)
	b.WriteString(t.String())
	return section("Tables 8/9 (Appendix D, top groups)", b.String())
}
