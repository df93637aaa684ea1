package analysis

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"sort"

	"ntpscan/internal/zgrab"
)

// Table2Builder maintains Table 2 ("successful scans by protocol")
// incrementally, one result at a time, so a live campaign can serve the
// table without rescanning the store. The builder's state is pure sets
// (distinct addresses and identities per protocol group), which makes
// it order-insensitive: feeding the same results in any order — the
// per-slice drain order of a running campaign or the segment order of a
// full store scan — yields identical rows and an identical snapshot.
type Table2Builder struct {
	groups []*t2group
}

type t2group struct {
	addrs    map[netip.Addr]struct{}
	tlsAddrs map[netip.Addr]struct{}
	idents   map[string]struct{}
}

// NewTable2Builder returns an empty builder with one group per Table 2
// row.
func NewTable2Builder() *Table2Builder {
	b := &Table2Builder{}
	for range table2Groups {
		b.groups = append(b.groups, &t2group{
			addrs:    map[netip.Addr]struct{}{},
			tlsAddrs: map[netip.Addr]struct{}{},
			idents:   map[string]struct{}{},
		})
	}
	return b
}

// Add folds one result into the table. Results whose module belongs to
// no Table 2 group, and unsuccessful grabs, are ignored.
func (b *Table2Builder) Add(r *zgrab.Result) {
	if !r.Success() {
		return
	}
	for i, g := range table2Groups {
		switch r.Module {
		case g.Plain:
			b.groups[i].addPlain(r)
		case g.TLS:
			if g.TLS != "" {
				b.groups[i].addTLS(r)
			}
		}
	}
}

// addPlain folds a successful grab of the group's plain module.
func (g *t2group) addPlain(r *zgrab.Result) {
	g.addrs[r.IP] = struct{}{}
	if r.Module == "ssh" && r.SSH != nil && r.SSH.KeyFingerprint != "" {
		g.idents[r.SSH.KeyFingerprint] = struct{}{}
	}
}

// addTLS folds a successful grab of the group's TLS sibling.
func (g *t2group) addTLS(r *zgrab.Result) {
	g.addrs[r.IP] = struct{}{}
	if r.TLS != nil && r.TLS.HandshakeOK {
		g.tlsAddrs[r.IP] = struct{}{}
		if r.TLS.CertFingerprint != "" {
			g.idents[r.TLS.CertFingerprint] = struct{}{}
		}
	}
}

// Rows materialises the current table, one row per Table 2 group.
func (b *Table2Builder) Rows() []Table2Row {
	var rows []Table2Row
	for i, g := range table2Groups {
		rows = append(rows, Table2Row{
			Protocol:  g.Label,
			Addrs:     len(b.groups[i].addrs),
			AddrsTLS:  len(b.groups[i].tlsAddrs),
			CertsKeys: len(b.groups[i].idents),
		})
	}
	return rows
}

// t2state is the wire form of one group's sets: sorted string slices,
// so the snapshot is byte-deterministic for equal set contents.
type t2state struct {
	Addrs    []string `json:"addrs"`
	TLSAddrs []string `json:"tls_addrs"`
	Idents   []string `json:"idents"`
}

// State snapshots the builder deterministically: equal set contents —
// however they were accumulated — produce identical bytes.
func (b *Table2Builder) State() (json.RawMessage, error) {
	out := make([]t2state, len(b.groups))
	for i, g := range b.groups {
		out[i] = t2state{
			Addrs:    SortedAddrStrings(g.addrs),
			TLSAddrs: SortedAddrStrings(g.tlsAddrs),
			Idents:   sortedSet(g.idents),
		}
	}
	return json.Marshal(out)
}

// Restore replaces the builder's state with a State snapshot. The
// snapshot must come from the same table2Groups shape (group count is
// checked).
func (b *Table2Builder) Restore(raw json.RawMessage) error {
	var in []t2state
	if err := json.Unmarshal(raw, &in); err != nil {
		return fmt.Errorf("analysis: table2 state: %w", err)
	}
	if len(in) != len(table2Groups) {
		return fmt.Errorf("analysis: table2 state has %d groups, want %d", len(in), len(table2Groups))
	}
	fresh := NewTable2Builder()
	for i, st := range in {
		g := fresh.groups[i]
		for _, a := range st.Addrs {
			ip, err := netip.ParseAddr(a)
			if err != nil {
				return fmt.Errorf("analysis: table2 state: %w", err)
			}
			g.addrs[ip] = struct{}{}
		}
		for _, a := range st.TLSAddrs {
			ip, err := netip.ParseAddr(a)
			if err != nil {
				return fmt.Errorf("analysis: table2 state: %w", err)
			}
			g.tlsAddrs[ip] = struct{}{}
		}
		for _, id := range st.Idents {
			g.idents[id] = struct{}{}
		}
	}
	b.groups = fresh.groups
	return nil
}

// SortedAddrStrings is an address set as sorted text, the form every
// snapshot stores it in.
func SortedAddrStrings(m map[netip.Addr]struct{}) []string {
	out := make([]string, 0, len(m))
	for a := range m {
		out = append(out, a.String())
	}
	sort.Strings(out)
	return out
}

func sortedSet(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
