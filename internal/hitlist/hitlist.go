// Package hitlist builds a TUM-IPv6-Hitlist-style target list over the
// simulated world, reproducing the biases the paper contrasts NTP
// sourcing against (§2.1, §3.2): seeds come from DNS/CT-style footprints
// and traceroute-style router discovery, so servers and infrastructure
// are overrepresented and firewalled end-user gear is mostly absent;
// aliased CDN prefixes contribute large responsive blocks; and a long
// tail of stale entries makes the full list orders of magnitude larger
// than its responsive "public" subset.
package hitlist

import (
	"context"
	"errors"
	"net/netip"
	"sort"
	"time"

	"ntpscan/internal/ipv6x"
	"ntpscan/internal/netsim"
	"ntpscan/internal/rng"
	"ntpscan/internal/world"
)

// Config tunes list construction.
type Config struct {
	// Seed drives the probabilistic parts (DNS visibility draws, stale
	// synthesis).
	Seed uint64
}

const (
	// staleFactor is how many synthetic stale addresses are added per
	// device-backed seed. The real full list is ~100x its responsive
	// subset; 3 keeps experiments tractable and the full≫public ordering
	// intact (EXPERIMENTS.md discusses this).
	staleFactor = 3
	// cdnAliases is how many aliased addresses each CDN edge contributes
	// (aliased-prefix expansion).
	cdnAliases = 30
)

// Hitlist is a built target list.
type Hitlist struct {
	// Full is the unfiltered list (the paper scans this variant).
	Full []netip.Addr
	// BySource counts entries per seed source, for diagnostics.
	BySource map[string]int
}

// Build assembles the full hitlist from the world's seed surface.
func Build(w *world.World, cfg Config) *Hitlist {
	r := rng.New(cfg.Seed ^ 0x8172_1157)

	seen := make(map[netip.Addr]struct{})
	h := &Hitlist{BySource: make(map[string]int)}
	add := func(a netip.Addr, source string) {
		if _, dup := seen[a]; dup {
			return
		}
		seen[a] = struct{}{}
		h.Full = append(h.Full, a)
		h.BySource[source]++
	}

	deviceSeeds := 0
	for _, seed := range w.HitlistSeeds(r.Derive("seeds")) {
		add(seed.Addr, seed.Source)
		deviceSeeds++
		// CDN edges answer on whole blocks: expand aliases.
		if seed.Device != nil && seed.Device.Profile.Name == "cdn-edge" {
			for _, alias := range w.AliasAddrs(seed.Device, cdnAliases) {
				add(alias, "alias")
			}
		}
	}

	// Stale mass: DNS entries whose hosts are gone, mapped into
	// announced space so AS statistics stay realistic.
	stale := deviceSeeds * staleFactor
	sr := r.Derive("stale")
	for i := 0; i < stale; i++ {
		add(w.RandomUnroutedAddr(sr), "stale")
	}

	sort.Slice(h.Full, func(i, j int) bool { return h.Full[i].Less(h.Full[j]) })
	return h
}

// Len returns the full list's size.
func (h *Hitlist) Len() int { return len(h.Full) }

// LivenessPorts are probed by the responsiveness filter. A SYN answered
// with either an accept or a reset proves a live host; silence (drops,
// unrouted space) does not. Firewalled consumer gear that only exposes
// one high-traffic service still shows up through that port.
var LivenessPorts = []uint16{80, 443, 22}

// Probe reports whether addr appears alive from src: any accepted or
// refused connection counts, timeouts do not.
func Probe(ctx context.Context, fabric *netsim.Network, src, addr netip.Addr, timeout time.Duration) bool {
	// On a manual clock the fabric resolves every dial synchronously —
	// blackholes fail immediately — so the per-port timeout context
	// would only allocate, never fire.
	_, logical := fabric.Clock().(*netsim.ManualClock)
	for _, port := range LivenessPorts {
		pctx, cancel := ctx, context.CancelFunc(nil)
		if !logical {
			pctx, cancel = context.WithTimeout(ctx, timeout)
		}
		conn, err := fabric.DialTCP(pctx, src, netip.AddrPortFrom(addr, port))
		if cancel != nil {
			cancel()
		}
		if err == nil {
			conn.Close()
			return true
		}
		if errors.Is(err, netsim.ErrConnRefused) {
			return true
		}
	}
	return false
}

// AliasedPrefixes runs aliased-prefix detection: /64 networks holding
// at least threshold full-list entries are considered aliased (every
// address in the block answers — CDN front ends), as the TUM hitlist's
// APD step does.
func (h *Hitlist) AliasedPrefixes(threshold int) map[netip.Prefix]struct{} {
	counts := make(map[netip.Prefix]int)
	for _, a := range h.Full {
		counts[ipv6x.Prefix64(a)]++
	}
	out := make(map[netip.Prefix]struct{})
	for p, n := range counts {
		if n >= threshold {
			out[p] = struct{}{}
		}
	}
	return out
}

// Dealias caps addrs to at most keep entries per aliased /64, the
// treatment the published responsive list applies to aliased blocks.
// Order is preserved.
func (h *Hitlist) Dealias(addrs []netip.Addr, threshold, keep int) []netip.Addr {
	aliased := h.AliasedPrefixes(threshold)
	kept := make(map[netip.Prefix]int)
	var out []netip.Addr
	for _, a := range addrs {
		p := ipv6x.Prefix64(a)
		if _, isAliased := aliased[p]; isAliased {
			if kept[p] >= keep {
				continue
			}
			kept[p]++
		}
		out = append(out, a)
	}
	return out
}

// Public filters the full list down to responsive addresses — the
// published variant of the TUM hitlist. alive[i] is Probe's verdict on
// Full[i]. The result preserves the full list's order.
func (h *Hitlist) Public(alive []bool) []netip.Addr {
	var out []netip.Addr
	for i, ok := range alive {
		if ok {
			out = append(out, h.Full[i])
		}
	}
	return out
}
