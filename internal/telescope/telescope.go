// Package telescope implements the paper's §5 methodology for catching
// NTP-sourcing scanners in the act: continuously query NTP Pool servers,
// using a distinct IPv6 source address per query, capture all traffic
// arriving in the monitored prefix, and attribute every inbound scan
// packet to the NTP query that leaked the address. The surrounding
// address space is monitored for scatter so random scanning cannot be
// mistaken for NTP-based sourcing.
package telescope

import (
	"net/netip"
	"sort"
	"sync"
	"time"

	"ntpscan/internal/ipv6x"
	"ntpscan/internal/netsim"
	"ntpscan/internal/ntp"
)

// PoolServerEntry is one NTP server the observer queries, as it would
// appear in the pool's zone listings.
type PoolServerEntry struct {
	Addr netip.AddrPort
	// Owner labels the operator for ground-truth checks in tests; the
	// observer never reads it during attribution.
	Owner string
}

// QueryRecord remembers which server was queried from which source
// address at what time.
type QueryRecord struct {
	Server netip.AddrPort
	Time   time.Time
	OK     bool // server answered
}

// Observer owns a monitored prefix and performs the querying.
type Observer struct {
	fabric *netsim.Network
	clock  netsim.Clock
	prefix netip.Prefix // monitored space, e.g. a /56

	mu      sync.Mutex
	queries map[netip.Addr]QueryRecord
	inbound []netsim.PacketInfo
	nextSrc uint64
	cancel  func()
}

// NewObserver arms the telescope on prefix. Call Close to stop
// capturing.
func NewObserver(fabric *netsim.Network, prefix netip.Prefix) *Observer {
	o := &Observer{
		fabric:  fabric,
		clock:   fabric.Clock(),
		prefix:  prefix.Masked(),
		queries: make(map[netip.Addr]QueryRecord),
	}
	o.cancel = fabric.Sniff(o.prefix, func(pi netsim.PacketInfo) {
		// Our own outbound NTP responses arrive here too; keep
		// everything and let attribution separate NTP replies from
		// scans.
		o.mu.Lock()
		o.inbound = append(o.inbound, pi)
		o.mu.Unlock()
	})
	return o
}

// Close stops capturing.
func (o *Observer) Close() { o.cancel() }

// nextSource allocates a fresh, never-used source address inside the
// monitored prefix. The low half of the space is used for queries; the
// upper half stays dark as the scatter control.
func (o *Observer) nextSource() netip.Addr {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nextSrc++
	hi, _ := ipv6x.Parts(o.prefix.Addr())
	return ipv6x.FromParts(hi, o.nextSrc)
}

// QueryServer sends one NTP query to the server from a fresh source
// address and records the association.
func (o *Observer) QueryServer(entry PoolServerEntry, timeout time.Duration) (netip.Addr, error) {
	src := o.nextSource()
	_, err := ntp.QuerySim(o.fabric, netip.AddrPortFrom(src, 40123), entry.Addr, o.clock.Now, timeout)
	o.mu.Lock()
	o.queries[src] = QueryRecord{Server: entry.Addr, Time: o.clock.Now(), OK: err == nil}
	o.mu.Unlock()
	return src, err
}

// QueryAll queries every listed server once and returns how many
// answered (the paper saw ~86 % response rates).
func (o *Observer) QueryAll(servers []PoolServerEntry, timeout time.Duration) (answered int) {
	for _, s := range servers {
		if _, err := o.QueryServer(s, timeout); err == nil {
			answered++
		}
	}
	return answered
}

// Campaign is one attributed scanning operation: scan traffic grouped by
// the source /32 (one operator's address space).
type Campaign struct {
	SourceNet netip.Prefix // /32 of the scan sources
	Sources   []netip.Addr // distinct scanning addresses
	// Servers are the NTP servers whose queries leaked the scanned
	// addresses.
	Servers []netip.AddrPort
	// Ports are the distinct destination ports probed, ascending.
	Ports []uint16
	// Packets is the total scan packets captured.
	Packets int
	// Targets is the number of distinct monitored addresses probed.
	Targets int
	// FirstDelay is the shortest observed query→scan delay; Spread is
	// the span between first and last packet.
	FirstDelay time.Duration
	Spread     time.Duration
}

// Report is the telescope's attribution summary.
type Report struct {
	QueriesSent     int
	QueriesAnswered int
	ScanPackets     int
	// MatchedPackets could be attributed to an NTP query (the paper
	// matched all of them).
	MatchedPackets int
	// ScatterPackets hit never-used addresses — evidence of random
	// scanning rather than NTP sourcing (the paper saw none).
	ScatterPackets int
	Campaigns      []Campaign
}

// Analyze attributes captured traffic. NTP responses from queried
// servers are recognised (same address pair, UDP 123) and excluded from
// scan accounting.
func (o *Observer) Analyze() *Report {
	o.mu.Lock()
	defer o.mu.Unlock()

	rep := &Report{QueriesSent: len(o.queries)}
	for _, q := range o.queries {
		if q.OK {
			rep.QueriesAnswered++
		}
	}

	type camKey struct{ net netip.Prefix }
	type camAgg struct {
		sources map[netip.Addr]struct{}
		servers map[netip.AddrPort]struct{}
		ports   map[uint16]struct{}
		targets map[netip.Addr]struct{}
		packets int
		first   time.Duration
		start   time.Time
		end     time.Time
	}
	cams := map[camKey]*camAgg{}

	for _, pi := range o.inbound {
		dst := pi.Dst.Addr()
		q, queried := o.queries[dst]
		// NTP responses from the queried server are protocol traffic,
		// not scans.
		if queried && pi.Src == q.Server {
			continue
		}
		rep.ScanPackets++
		if !queried {
			rep.ScatterPackets++
			continue
		}
		rep.MatchedPackets++

		key := camKey{net: ipv6x.Prefix32(pi.Src.Addr())}
		agg := cams[key]
		if agg == nil {
			agg = &camAgg{
				sources: map[netip.Addr]struct{}{},
				servers: map[netip.AddrPort]struct{}{},
				ports:   map[uint16]struct{}{},
				targets: map[netip.Addr]struct{}{},
				first:   1 << 62,
				start:   pi.Time,
				end:     pi.Time,
			}
			cams[key] = agg
		}
		agg.sources[pi.Src.Addr()] = struct{}{}
		agg.servers[q.Server] = struct{}{}
		agg.ports[pi.Dst.Port()] = struct{}{}
		agg.targets[dst] = struct{}{}
		agg.packets++
		if d := pi.Time.Sub(q.Time); d < agg.first {
			agg.first = d
		}
		if pi.Time.Before(agg.start) {
			agg.start = pi.Time
		}
		if pi.Time.After(agg.end) {
			agg.end = pi.Time
		}
	}

	for key, agg := range cams {
		c := Campaign{
			SourceNet:  key.net,
			Packets:    agg.packets,
			Targets:    len(agg.targets),
			FirstDelay: agg.first,
			Spread:     agg.end.Sub(agg.start),
		}
		for s := range agg.sources {
			c.Sources = append(c.Sources, s)
		}
		sort.Slice(c.Sources, func(i, j int) bool { return c.Sources[i].Less(c.Sources[j]) })
		for s := range agg.servers {
			c.Servers = append(c.Servers, s)
		}
		sort.Slice(c.Servers, func(i, j int) bool {
			return c.Servers[i].Addr().Less(c.Servers[j].Addr())
		})
		for p := range agg.ports {
			c.Ports = append(c.Ports, p)
		}
		sort.Slice(c.Ports, func(i, j int) bool { return c.Ports[i] < c.Ports[j] })
		rep.Campaigns = append(rep.Campaigns, c)
	}
	sort.Slice(rep.Campaigns, func(i, j int) bool {
		return rep.Campaigns[i].SourceNet.Addr().Less(rep.Campaigns[j].SourceNet.Addr())
	})
	return rep
}
