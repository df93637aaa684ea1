package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"ntpscan/internal/analysis"
	"ntpscan/internal/ipv6x"
	"ntpscan/internal/levenshtein"
	"ntpscan/internal/ntppool"
	"ntpscan/internal/rng"
	"ntpscan/internal/tabulate"
)

// AblationFeedVsBatch quantifies the paper's §6 "Dynamic IP Addresses"
// argument: scanning the NTP feed in real time versus aggregating the
// collected addresses into a static list and scanning that list after
// the window. Dynamic end-user devices renumber in between, so the
// batch scan loses exactly the population NTP sourcing exists to find.
func AblationFeedVsBatch(opts Options) string {
	opts.fill()
	ctx := context.Background()

	// Arm A: real-time feed.
	live := newPipeline(opts)
	liveData := live.RunNTPCampaign(ctx)
	liveResp, liveScanned, _ := analysis.HitRate(liveData)
	liveFritz := groupCount(liveData, "FRITZ!Box")

	// Arm B: collect first, let a week pass (addresses churn), then
	// scan the aggregated list.
	batch := newPipeline(opts)
	seen, collected := map[netip.Addr]bool{}, []netip.Addr(nil)
	batch.Collect(func(addrs []netip.Addr) {
		for _, a := range addrs {
			if !seen[a] {
				seen[a], collected = true, append(collected, a)
			}
		}
	})
	batch.AdvanceWorld(7 * 24 * time.Hour)
	batchData := batch.ScanList(ctx, "batch", collected)
	batchResp, batchScanned, _ := analysis.HitRate(batchData)
	batchFritz := groupCount(batchData, "FRITZ!Box")

	t := tabulate.New("Ablation: real-time feed vs stale batch list",
		"Arm", "Scanned", "Responsive", "FRITZ!Box certs").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right)
	t.Cells("real-time feed", tabulate.Count(liveScanned), tabulate.Count(liveResp), tabulate.Count(liveFritz))
	t.Cells("post-hoc batch", tabulate.Count(batchScanned), tabulate.Count(batchResp), tabulate.Count(batchFritz))
	t.Note("aggregating NTP-sourced addresses into a list forfeits dynamic devices (§6)")
	return section("Ablation: feed vs batch", t.String())
}

func groupCount(d *analysis.Dataset, needle string) int {
	if g := analysis.FindGroup(analysis.TitleGroups(d), needle); g != nil {
		return g.Certs
	}
	return 0
}

// AblationDedup compares the three host-counting strategies the paper
// weighs (§4.2, Appendix C): unique certificates/keys, network
// aggregation, and embedded MAC addresses.
func AblationDedup(s *Suite) string {
	d := s.NTP
	certs := map[string]struct{}{}
	macs := map[ipv6x.MAC]struct{}{}
	nets := map[netip.Prefix]struct{}{}
	addrs := map[netip.Addr]struct{}{}
	for r := range d.AllSuccesses() {
		addrs[r.IP] = struct{}{}
		nets[ipv6x.Prefix64(r.IP)] = struct{}{}
		if mac, ok := ipv6x.ExtractMAC(r.IP); ok && mac.Universal() {
			macs[mac] = struct{}{}
		}
		switch r.Module {
		case "https", "mqtts", "amqps":
			if r.TLS != nil && r.TLS.HandshakeOK {
				certs[r.TLS.CertFingerprint] = struct{}{}
			}
		case "ssh":
			if r.SSH != nil && r.SSH.KeyFingerprint != "" {
				certs["ssh:"+r.SSH.KeyFingerprint] = struct{}{}
			}
		}
	}
	t := tabulate.New("Ablation: host-count estimates by dedup strategy",
		"Strategy", "Estimate").
		SetAligns(tabulate.Left, tabulate.Right)
	t.Cells("addresses (no dedup)", tabulate.Count(len(addrs)))
	t.Cells("/64 networks", tabulate.Count(len(nets)))
	t.Cells("certs + host keys", tabulate.Count(len(certs)))
	t.Cells("embedded unique MACs", tabulate.Count(len(macs)))
	t.Note("the paper keeps certs/keys as the hard lower bound; MACs undercount (§6)")
	return section("Ablation: dedup strategies", t.String())
}

// AblationNetspeed demonstrates the §3.1 control loop: capture share
// grows with the operator-configured netspeed weight.
func AblationNetspeed(seed uint64) string {
	t := tabulate.New("Ablation: zone share vs netspeed",
		"Netspeed", "Measured share").
		SetAligns(tabulate.Right, tabulate.Right)
	r := rng.New(seed)
	for _, speed := range []float64{1, 10, 50, 200, 1000} {
		pool := ntppool.New()
		pool.SetBackground("DE", 220)
		pool.AddServer(&ntppool.Server{ID: "x", Country: "DE", NetSpeed: speed})
		hits := 0
		const draws = 20000
		for i := 0; i < draws; i++ {
			if _, ours := pool.MapClient("DE", r); ours {
				hits++
			}
		}
		t.Cells(fmt.Sprintf("%.0f", speed), tabulate.Pct(float64(hits)/draws))
	}
	return section("Ablation: netspeed control", t.String())
}

// AblationTitleThreshold sweeps the Levenshtein grouping threshold the
// paper fixes at 0.25, showing the grouping's sensitivity.
func AblationTitleThreshold(s *Suite) string {
	titleByCert := map[string]string{}
	for _, r := range s.NTP.Successes("https") {
		if r.TLS != nil && r.TLS.HandshakeOK && r.HTTP != nil && r.HTTP.StatusCode == 200 && r.HTTP.Title != "" {
			titleByCert[r.TLS.CertFingerprint] = r.HTTP.Title
		}
	}
	counts := map[string]int{}
	for _, title := range titleByCert {
		counts[title]++
	}
	// Greedy first-fit clustering depends on the order it sees titles
	// in: most common first, ties by spelling, as TitleGroups has it.
	titles := make([]string, 0, len(counts))
	for title := range counts {
		titles = append(titles, title)
	}
	sort.Slice(titles, func(i, j int) bool {
		if ni, nj := counts[titles[i]], counts[titles[j]]; ni != nj {
			return ni > nj
		}
		return titles[i] < titles[j]
	})
	t := tabulate.New("Ablation: title-grouping threshold sweep",
		"Threshold", "Groups").
		SetAligns(tabulate.Right, tabulate.Right)
	for _, th := range []float64{0, 0.1, 0.25, 0.5, 0.9} {
		groups := levenshtein.Cluster(titles, nil, th)
		t.Cells(fmt.Sprintf("%.2f", th), tabulate.Count(len(groups)))
	}
	t.Note("distinct titles: %d; the paper groups at 0.25", len(titles))
	return section("Ablation: title threshold", t.String())
}
