package analysis

import (
	"net/netip"
	"sort"
	"strings"

	"ntpscan/internal/levenshtein"
)

// TitleThreshold is the paper's normalized Levenshtein grouping
// threshold for HTML titles (§4.3.1).
const TitleThreshold = 0.25

// TitleGroup is one clustered page-title group counted by unique
// certificates.
type TitleGroup struct {
	Representative string
	Certs          int
}

// TitleGroups reproduces the §4.3.1 methodology: take TLS-enabled HTTP
// endpoints with status 200 (excluding CDN error pages), deduplicate by
// certificate fingerprint, extract titles, and cluster titles whose
// normalized Levenshtein distance is at most TitleThreshold. The empty
// title is kept as its own "(no title)" group rather than clustered.
func TitleGroups(d *Dataset) []TitleGroup {
	// Pre-pass: first title per certificate, first-wins in dataset
	// order.
	titleByCert := make(map[string]string)
	for _, r := range d.Successes("https") {
		if r.TLS == nil || !r.TLS.HandshakeOK || r.HTTP == nil || r.HTTP.StatusCode != 200 {
			continue
		}
		if _, seen := titleByCert[r.TLS.CertFingerprint]; !seen {
			titleByCert[r.TLS.CertFingerprint] = r.HTTP.Title
		}
	}

	// Count identical titles first so clustering runs over distinct
	// strings with weights (the cert populations are huge, the title
	// vocabulary is not).
	counts := make(map[string]int)
	for _, title := range titleByCert {
		counts[title]++
	}
	empty := counts[""]
	delete(counts, "")

	titles := sortedKeys(counts)
	// Cluster most common titles first so representatives are the
	// canonical spellings.
	sort.SliceStable(titles, func(i, j int) bool { return counts[titles[i]] > counts[titles[j]] })
	weights := make([]int, len(titles))
	for i, t := range titles {
		weights[i] = counts[t]
	}
	var out []TitleGroup
	if empty > 0 {
		out = append(out, TitleGroup{Representative: "(no title present)", Certs: empty})
	}
	for _, g := range levenshtein.Cluster(titles, weights, TitleThreshold) {
		out = append(out, TitleGroup{Representative: g.Representative, Certs: g.Count})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Certs > out[j].Certs })
	return out
}

// TotalCerts sums group counts.
func TotalCerts(groups []TitleGroup) int {
	n := 0
	for _, g := range groups {
		n += g.Certs
	}
	return n
}

// FindGroup locates the group whose representative matches (substring,
// case-sensitive) the needle; nil if absent.
func FindGroup(groups []TitleGroup, needle string) *TitleGroup {
	for i := range groups {
		if strings.Contains(groups[i].Representative, needle) {
			return &groups[i]
		}
	}
	return nil
}

// Known SSH OS buckets the paper's Table 3 reports; everything else is
// other/unknown.
var knownSSHOSes = []string{"Ubuntu", "Debian", "Raspbian", "FreeBSD"}

// SSHOSRow is one OS bucket counted by unique host keys.
type SSHOSRow struct {
	OS   string
	Keys int
}

// SSHOSTable reproduces §4.3.2: deduplicate SSH endpoints by host key
// and bucket by the OS name extracted from the server ID.
func SSHOSTable(d *Dataset) []SSHOSRow {
	osByKey := make(map[string]string)
	for _, r := range d.Successes("ssh") {
		if r.SSH == nil || r.SSH.KeyFingerprint == "" {
			continue
		}
		if _, seen := osByKey[r.SSH.KeyFingerprint]; !seen {
			osByKey[r.SSH.KeyFingerprint] = r.SSH.OS
		}
	}
	counts := map[string]int{}
	for _, os := range osByKey {
		bucket := "other/unknown"
		for _, known := range knownSSHOSes {
			if os == known {
				bucket = known
			}
		}
		counts[bucket]++
	}
	rows := make([]SSHOSRow, 0, len(counts))
	for _, os := range append(append([]string{}, knownSSHOSes...), "other/unknown") {
		if n, ok := counts[os]; ok {
			rows = append(rows, SSHOSRow{OS: os, Keys: n})
		}
	}
	return rows
}

// CoAP resource groups from §4.3.3, keyed by marker substring.
var coapGroupMarkers = []struct {
	Group  string
	Marker string
}{
	{"castdevice", "castDeviceSearch"},
	{"qlink", "/qlink"},
	{"efento", "efento"},
	{"nanoleaf", "nanoleaf"},
}

// CoAPGroupOf classifies one discovery result's resource list.
func CoAPGroupOf(resources []string) string {
	if len(resources) == 0 {
		return "empty"
	}
	joined := strings.Join(resources, ",")
	for _, g := range coapGroupMarkers {
		if strings.Contains(joined, g.Marker) {
			return g.Group
		}
	}
	return "other"
}

// CoAPRow is one resource group counted by addresses.
type CoAPRow struct {
	Group string
	Addrs int
}

// CoAPGroups reproduces the Table 3 CoAP panel: group responding
// addresses by advertised resource prefixes.
func CoAPGroups(d *Dataset) []CoAPRow {
	byAddr := make(map[netip.Addr]string)
	for _, r := range d.Successes("coap") {
		if r.CoAP == nil || r.CoAP.Code != "2.05" {
			continue
		}
		if _, seen := byAddr[r.IP]; !seen {
			byAddr[r.IP] = CoAPGroupOf(r.CoAP.Resources)
		}
	}
	counts := map[string]int{}
	for _, g := range byAddr {
		counts[g]++
	}
	order := []string{"castdevice", "qlink", "efento", "nanoleaf", "empty", "other"}
	var rows []CoAPRow
	for _, g := range order {
		if n, ok := counts[g]; ok {
			rows = append(rows, CoAPRow{Group: g, Addrs: n})
		}
	}
	return rows
}

// NewDeviceFinds computes the §4.3 takeaway: devices (unique certs or
// addresses) in groups that the reference dataset misses entirely or
// holds at under a tenth of ours ("new or underrepresented").
func NewDeviceFinds(ours, reference *Dataset) int {
	total := 0
	refGroups := TitleGroups(reference)
	for _, g := range TitleGroups(ours) {
		ref := FindGroup(refGroups, g.Representative)
		if ref == nil || ref.Certs*10 < g.Certs {
			total += g.Certs
		}
	}
	refCoAP := map[string]int{}
	for _, r := range CoAPGroups(reference) {
		refCoAP[r.Group] = r.Addrs
	}
	for _, r := range CoAPGroups(ours) {
		if r.Group == "empty" || r.Group == "other" {
			continue
		}
		if refCoAP[r.Group]*10 < r.Addrs {
			total += r.Addrs
		}
	}
	refSSH := map[string]int{}
	for _, r := range SSHOSTable(reference) {
		refSSH[r.OS] = r.Keys
	}
	for _, r := range SSHOSTable(ours) {
		if r.OS == "other/unknown" {
			continue
		}
		if refSSH[r.OS]*10 < r.Keys {
			total += r.Keys
		}
	}
	return total
}
