package world

import (
	"math"
	"testing"
)

// Calibration self-test: at a known scale, the generated populations
// must track the paper-derived full-scale counts in profiles.go. A
// drifting generator would silently invalidate every downstream shape
// comparison in EXPERIMENTS.md.
func TestPopulationCalibration(t *testing.T) {
	const deviceScale = 2e-3
	w := New(Config{Seed: 1, DeviceScale: deviceScale, AddrScale: 1e-6, ASScale: 0.02})

	responsive := map[string]int{}
	hitlistOnly := map[string]int{}
	for _, d := range allDevices(w) {
		switch d.role {
		case RoleResponsive:
			responsive[d.Profile.Name]++
		case RoleHitlistOnly:
			hitlistOnly[d.Profile.Name]++
		}
	}

	check := func(kind string, got map[string]int, name string, full int) {
		t.Helper()
		want := int(float64(full) * deviceScale)
		if want < 1 {
			want = 1
		}
		if got[name] != want {
			t.Errorf("%s %s: %d devices, want %d (full-scale %d)",
				kind, name, got[name], want, full)
		}
	}
	check("responsive", responsive, "fritzbox", 257195)
	check("responsive", responsive, "fritz-repeater", 14751)
	check("responsive", responsive, "raspbian", 4765)
	check("responsive", responsive, "ubuntu-exposed", 28522)
	check("responsive", responsive, "mqtt-enduser", 4316)
	check("responsive", responsive, "coap-castdevice", 2967)
	check("hitlist", hitlistOnly, "dlink-infra", 46548)
	check("hitlist", hitlistOnly, "ubuntu-server", 392207)
	check("hitlist", hitlistOnly, "cdn-edge", 310000)
}

// The profile catalog's full-scale totals must keep tracking the
// paper's headline numbers; this pins them against accidental edits.
func TestCatalogHeadlineTotals(t *testing.T) {
	var respTotal, sshResp, sshHit int
	for _, p := range allProfiles() {
		respTotal += p.CountResponsive
		if p.SSH != nil {
			sshResp += p.CountResponsive
			sshHit += p.CountHitlistOnly
		}
	}
	// NTP-side SSH keys: paper 73 923.
	if math.Abs(float64(sshResp-73923)) > 2500 {
		t.Errorf("responsive SSH population %d drifted from 73 923", sshResp)
	}
	// Hitlist SSH keys: paper 852 760.
	if math.Abs(float64(sshHit-852760)) > 30000 {
		t.Errorf("hitlist SSH population %d drifted from 852 760", sshHit)
	}
	// Total responsive population is dominated by FRITZ (≈284k overall
	// consumer finds + servers + shared-key gateways ≈ 470k).
	if respTotal < 350000 || respTotal > 600000 {
		t.Errorf("total responsive population %d outside plausible band", respTotal)
	}
}

// The MAC vendor table must keep AVM on top by a wide margin (Table 4's
// headline deviation from R&L).
func TestVendorMassCalibration(t *testing.T) {
	masses := map[string]int{}
	for _, p := range allProfiles() {
		if p.HasUniversalMAC && p.Vendor != "" {
			masses[p.Vendor] += p.CountResponsive + p.CountAddrOnly
		}
	}
	var avm, biggestOther int
	for vendor, mass := range masses {
		if len(vendor) >= 3 && vendor[:3] == "AVM" {
			avm += mass
		} else if mass > biggestOther {
			biggestOther = mass
		}
	}
	if avm < 3*biggestOther {
		t.Errorf("AVM mass %d should dominate the next vendor %d", avm, biggestOther)
	}
}
