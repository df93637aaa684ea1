// Package analysis implements every analysis the paper runs over scan
// results and collected addresses: protocol result tables (Table 2),
// device-type extraction via title clustering, SSH server IDs and CoAP
// resources (Table 3), SSH patch-level outdatedness (Figure 2), broker
// access control (Figure 3), the secure-share headline (§4.4), key
// reuse (§6), collection statistics and IID classes (Table 1,
// Figure 1), EUI-64 vendor attribution (Appendix B), and network-level
// aggregation (Appendix C).
package analysis

import (
	"net/netip"
	"sort"

	"ntpscan/internal/asn"
	"ntpscan/internal/geo"
	"ntpscan/internal/oui"
	"ntpscan/internal/zgrab"
)

// Context carries the registries analyses resolve against.
type Context struct {
	AS  *asn.Registry
	Geo *geo.DB
	OUI *oui.Registry
}

// Dataset is one scan campaign's results (e.g. "ntp" or "hitlist") with
// per-module indexes built once.
type Dataset struct {
	Name    string
	Results []*zgrab.Result

	byModule map[string][]*zgrab.Result // successes only
}

// NewDataset indexes results.
func NewDataset(name string, results []*zgrab.Result) *Dataset {
	d := &Dataset{Name: name, Results: results, byModule: map[string][]*zgrab.Result{}}
	for _, r := range results {
		if r.Success() {
			d.byModule[r.Module] = append(d.byModule[r.Module], r)
		}
	}
	return d
}

// Successes returns the successful grabs of a module.
func (d *Dataset) Successes(module string) []*zgrab.Result {
	return d.byModule[module]
}

// Add appends more results (streaming collection).
func (d *Dataset) Add(r *zgrab.Result) {
	d.Results = append(d.Results, r)
	if r.Success() {
		d.byModule[r.Module] = append(d.byModule[r.Module], r)
	}
}

// uniqueAddrs returns the distinct addresses among results.
func uniqueAddrs(results []*zgrab.Result) map[netip.Addr]struct{} {
	out := make(map[netip.Addr]struct{})
	for _, r := range results {
		out[r.IP] = struct{}{}
	}
	return out
}

// Protocol groups pair a plain module with its TLS sibling as the
// paper's Table 2 rows do.
type protocolGroup struct {
	Label   string
	Plain   string
	TLS     string
	UDPOnly bool
}

var table2Groups = []protocolGroup{
	{Label: "HTTP (80, 443)", Plain: "http", TLS: "https"},
	{Label: "SSH (22)", Plain: "ssh"},
	{Label: "MQTT (1883, 8883)", Plain: "mqtt", TLS: "mqtts"},
	{Label: "AMQP (5672, 5671)", Plain: "amqp", TLS: "amqps"},
	{Label: "CoAP (5683 (UDP))", Plain: "coap", UDPOnly: true},
}

// Table2Row reproduces one row of the paper's Table 2.
type Table2Row struct {
	Protocol  string
	Addrs     int // distinct addresses with any successful grab
	AddrsTLS  int // distinct addresses with a successful TLS handshake
	CertsKeys int // unique certificates (TLS) or host keys (SSH)
}

// Table2 computes "Successful scans by protocol" for the dataset: the
// per-module success index folded through a Table2Builder's groups, the
// fold a live campaign's aggregates run one result at a time.
func Table2(d *Dataset) []Table2Row {
	b := NewTable2Builder()
	for i, g := range table2Groups {
		for _, r := range d.Successes(g.Plain) {
			b.groups[i].addPlain(r)
		}
		if g.TLS != "" {
			for _, r := range d.Successes(g.TLS) {
				b.groups[i].addTLS(r)
			}
		}
	}
	return b.Rows()
}

// HitRate returns responsive-address share: distinct addresses with at
// least one successful grab over distinct addresses scanned.
func HitRate(d *Dataset) (responsive, scanned int, rate float64) {
	all := uniqueAddrs(d.Results)
	resp := make(map[netip.Addr]struct{})
	for _, r := range d.Results {
		if r.Success() {
			resp[r.IP] = struct{}{}
		}
	}
	scanned = len(all)
	responsive = len(resp)
	if scanned > 0 {
		rate = float64(responsive) / float64(scanned)
	}
	return responsive, scanned, rate
}

// sortedKeys returns map keys sorted for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
