package analysis

import (
	"net/netip"

	"ntpscan/internal/ipv6x"
	"ntpscan/internal/proto/sshx"
)

// This file implements the Appendix C re-countings of the security
// analyses: instead of deduplicating by host key or certificate, hosts
// are counted per address and per network. Key-reusing outdated servers
// count once per address here, which is why Figure 5 shows much more
// outdatedness than Figure 2 — the paper discusses exactly this effect.

// PatchByNet holds Figure 5 counts at one granularity.
type PatchByNet struct {
	Granularity string // "addr", "/48", "/56", "/64"
	Assessable  int
	Outdated    int
}

// OutdatedShare returns the outdated proportion.
func (p PatchByNet) OutdatedShare() float64 {
	if p.Assessable == 0 {
		return 0
	}
	return float64(p.Outdated) / float64(p.Assessable)
}

// netGranularities are the keys both rollups count by; an address is
// its own /128.
var netGranularities = [...]struct {
	label string
	bits  int
}{{"addr", 128}, {"/48", 48}, {"/56", 56}, {"/64", 64}}

// netFlags ORs one boolean per key at each granularity: a network
// carries the flag if any address in it does.
type netFlags [len(netGranularities)]map[netip.Prefix]bool

func (f *netFlags) observe(addr netip.Addr, flag bool) {
	for i, g := range netGranularities {
		if f[i] == nil {
			f[i] = map[netip.Prefix]bool{}
		}
		p := ipv6x.Prefix(addr, g.bits)
		f[i][p] = f[i][p] || flag
	}
}

// each reports, per granularity, the keys observed and how many of
// them carry the flag.
func (f *netFlags) each(row func(label string, keys, flagged int)) {
	for i, g := range netGranularities {
		flagged := 0
		for _, set := range f[i] {
			if set {
				flagged++
			}
		}
		row(g.label, len(f[i]), flagged)
	}
}

// SSHOutdatedByNetwork recomputes the Figure 2 analysis per address and
// per network (Figure 5). The latest revision per release is established
// across all datasets jointly, then each dataset's addresses and
// networks are classified; a network is outdated if any address in it
// runs an outdated server (the conservative reading).
func SSHOutdatedByNetwork(datasets ...*Dataset) [][]PatchByNet {
	// Joint latest per release, over addresses (not keys) so the
	// baseline matches Figure 2's.
	latest := map[releaseKey]int{}
	type rec struct {
		release releaseKey
		rev     int
		addr    netip.Addr
	}
	all := make([][]rec, len(datasets))
	for i, d := range datasets {
		for _, r := range d.Successes("ssh") {
			if r.SSH == nil {
				continue
			}
			id, err := sshx.ParseServerID(r.SSH.ServerID)
			if err != nil {
				continue
			}
			base, rev, ok := id.PatchLevel()
			if !ok {
				continue
			}
			k := releaseKey{software: id.Software, base: base}
			if rev > latest[k] {
				latest[k] = rev
			}
			all[i] = append(all[i], rec{release: k, rev: rev, addr: r.IP})
		}
	}

	out := make([][]PatchByNet, len(datasets))
	for i, recs := range all {
		var flags netFlags
		for _, rc := range recs {
			flags.observe(rc.addr, rc.rev < latest[rc.release])
		}
		flags.each(func(label string, keys, outdated int) {
			out[i] = append(out[i], PatchByNet{Granularity: label, Assessable: keys, Outdated: outdated})
		})
	}
	return out
}

// AccessByNet holds Figure 6 counts at one granularity.
type AccessByNet struct {
	Granularity   string
	Open          int
	AccessControl int
}

// OpenShare returns the unprotected proportion.
func (a AccessByNet) OpenShare() float64 {
	total := a.Open + a.AccessControl
	if total == 0 {
		return 0
	}
	return float64(a.Open) / float64(total)
}

// BrokerAccessByNetwork recomputes Figure 3 per address and network
// (Figure 6). A network counts as open if any broker in it accepted the
// anonymous probe.
func BrokerAccessByNetwork(d *Dataset, proto string) []AccessByNet {
	var flags netFlags
	for _, module := range []string{proto, proto + "s"} {
		for _, r := range d.Successes(module) {
			switch {
			case proto == "mqtt" && r.MQTT != nil:
				flags.observe(r.IP, r.MQTT.Open)
			case proto == "amqp" && r.AMQP != nil:
				flags.observe(r.IP, r.AMQP.Open)
			}
		}
	}
	var out []AccessByNet
	flags.each(func(label string, keys, open int) {
		out = append(out, AccessByNet{Granularity: label, Open: open, AccessControl: keys - open})
	})
	return out
}
