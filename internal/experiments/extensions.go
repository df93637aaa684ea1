package experiments

import (
	"context"
	"net/netip"

	"ntpscan/internal/analysis"
	"ntpscan/internal/tabulate"
	"ntpscan/internal/targetgen"
)

// ExtensionTargetGen answers the paper's §6 future-work question: are
// "address generators trained on [NTP-sourced] addresses" a useful
// substitute for live sourcing? Two models are trained — one on the
// NTP-collected addresses, one on the responsive hitlist addresses —
// and their generated candidates are scanned. The eyeball-trained model
// has almost nothing learnable (privacy addressing) and its candidates
// land in churned or never-assigned space; the server-trained model
// fares far better, reproducing why TGAs stay biased toward
// infrastructure (§2.1.1).
func ExtensionTargetGen(s *Suite, candidates int) string {
	if candidates <= 0 {
		candidates = 2000
	}
	// Seed sets: collected NTP addresses (volume channel) plus one entry
	// per successful grab of our scans, duplicates kept; and the
	// hitlist's responsive addresses.
	ntpSeeds := s.P.Summary.Set().Sorted()
	for r := range s.NTP.AllSuccesses() {
		ntpSeeds = append(ntpSeeds, r.IP)
	}
	hitSeeds := analysis.Responsive(s.Hitlist)

	t := tabulate.New("Extension: target generation trained on each source (paper §6 future work)",
		"Training set", "Seeds", "Learnable IIDs", "Candidates", "Responsive", "Hit rate").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right, tabulate.Right, tabulate.Right)

	for _, arm := range []struct {
		name  string
		seeds []netip.Addr
	}{
		{"NTP-sourced (eyeball)", ntpSeeds},
		{"Hitlist responsive (servers)", hitSeeds},
	} {
		model := targetgen.Train(arm.seeds)
		cands := model.Generate(candidates, s.Opts.Seed)
		responsive, rate := respondingShare(s, cands)
		t.Cells(arm.name,
			tabulate.Count(model.SeedCount()),
			tabulate.Pct(model.LearnableShare()),
			tabulate.Count(len(cands)),
			tabulate.Count(responsive),
			tabulate.Pct(rate))
	}
	t.Note("live NTP sourcing has no static substitute: the eyeball model has little to learn and its candidates age instantly")
	return section("Extension: target generation", t.String())
}

// respondingShare scans candidates with the full module set and
// returns how many distinct addresses answered and their share of the
// candidates.
func respondingShare(s *Suite, cands []netip.Addr) (responsive int, rate float64) {
	responsive, _, _ = analysis.HitRate(s.P.ScanList(context.Background(), "candidates", cands))
	if len(cands) > 0 {
		rate = float64(responsive) / float64(len(cands))
	}
	return responsive, rate
}

// ExtensionGeneratedVsLive contrasts the generator's best case against
// simply continuing to scan the live feed — the recommendation the
// paper closes with.
func ExtensionGeneratedVsLive(s *Suite) string {
	_, _, liveRate := analysis.HitRate(s.NTP)
	t := tabulate.New("Extension: candidate quality vs live feed",
		"Source", "Hit rate").
		SetAligns(tabulate.Left, tabulate.Right)
	t.Cells("live NTP feed (measured)", tabulate.Pct(liveRate))

	seeds := s.P.Summary.Set().Sorted()
	model := targetgen.Train(seeds)
	cands := model.Generate(2000, s.Opts.Seed+1)
	_, rate := respondingShare(s, cands)
	t.Cells("generated from collected addrs", tabulate.Pct(rate))
	return section("Extension: generated vs live", t.String())
}
