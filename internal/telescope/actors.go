package telescope

import (
	"context"
	"net/netip"
	"sync"
	"time"

	"ntpscan/internal/netsim"
	"ntpscan/internal/ntp"
	"ntpscan/internal/rng"
)

// ActorProfile parameterises a third-party NTP-sourcing scanner, with
// presets matching the two operations the paper caught (§5.2).
type ActorProfile struct {
	Name string
	// Servers is how many capture-enabled pool servers the actor runs.
	Servers int
	// ServerNet and ScanNet are the /32s hosting the actor's NTP
	// servers and scan sources. The covert actor splits them across
	// two cloud providers; the research actor does not hide.
	ServerNet netip.Prefix
	ScanNet   netip.Prefix
	// Ports scanned per captured address.
	Ports []uint16
	// PortSubset, when non-zero, scans only this many randomly chosen
	// ports per address (the covert actor's partial coverage).
	PortSubset int
	// StartDelay is how long after capture scanning begins; Spread
	// stretches the probes of one address over this span.
	StartDelay time.Duration
	Spread     time.Duration
	// Identified actors publish rDNS/web pages identifying the
	// operation (the research actor). Carried through for reports.
	Identified bool
}

// ResearchActorProfile models the Georgia-Tech-style measurement
// operation: 15 servers, 1011 ports, scanning within the hour for about
// ten minutes, openly identified.
func ResearchActorProfile(serverNet, scanNet netip.Prefix) ActorProfile {
	ports := make([]uint16, 0, 1011)
	for p := uint16(1); len(ports) < 1011; p += 13 {
		ports = append(ports, p)
	}
	return ActorProfile{
		Name:       "research",
		Servers:    15,
		ServerNet:  serverNet,
		ScanNet:    scanNet,
		Ports:      ports,
		StartDelay: 45 * time.Minute,
		Spread:     10 * time.Minute,
		Identified: true,
	}
}

// CovertActorProfile models the anonymous operation: servers and
// scanners in two different cloud ASes, security-sensitive ports only,
// multi-day spread, partial port coverage per address.
func CovertActorProfile(serverNet, scanNet netip.Prefix) ActorProfile {
	return ActorProfile{
		Name:      "covert",
		Servers:   4,
		ServerNet: serverNet,
		ScanNet:   scanNet,
		Ports: []uint16{
			443, 3388, 3389, 5900, 5901, 6000, 6001, 8443, 9200, 27017,
		},
		PortSubset: 4,
		StartDelay: 6 * time.Hour,
		Spread:     72 * time.Hour,
		Identified: false,
	}
}

// Actor is a running third-party scanner: its pool servers capture
// client addresses and it probes them according to its profile.
type Actor struct {
	Profile ActorProfile
	fabric  *netsim.Network
	rng     *rng.Stream

	mu       sync.Mutex
	captured []capturedAddr
	entries  []PoolServerEntry
}

type capturedAddr struct {
	addr netip.Addr
	at   time.Time
}

// NewActor deploys the actor's NTP servers onto the fabric and returns
// the pool entries to advertise.
func NewActor(fabric *netsim.Network, profile ActorProfile, seed uint64) *Actor {
	a := &Actor{
		Profile: profile,
		fabric:  fabric,
		rng:     rng.New(seed ^ uint64(rng.NewHash().String(profile.Name))),
	}
	hi := prefHi(profile.ServerNet)
	for i := 0; i < profile.Servers; i++ {
		addr := addrIn(hi, uint64(i)+1)
		srv := ntp.NewServer(ntp.ServerConfig{
			Now: fabric.Clock().Now,
			Capture: func(client netip.AddrPort, at time.Time) {
				a.mu.Lock()
				a.captured = append(a.captured, capturedAddr{addr: client.Addr(), at: at})
				a.mu.Unlock()
			},
		})
		fabric.Register(addr, netsim.NewHost(profile.Name+"-ntp").HandleUDP(ntp.Port, srv.Handle))
		a.entries = append(a.entries, PoolServerEntry{
			Addr:  netip.AddrPortFrom(addr, ntp.Port),
			Owner: profile.Name,
		})
	}
	return a
}

// PoolEntries returns the actor's advertised servers.
func (a *Actor) PoolEntries() []PoolServerEntry { return a.entries }

// RunScans probes every captured address per the profile. In the
// simulation the logical clock is advanced by the driver; probe
// timestamps are synthesised by temporarily advancing a manual clock
// when one is in use, otherwise stamps are taken as-is.
func (a *Actor) RunScans(clock *netsim.ManualClock) {
	a.mu.Lock()
	captured := append([]capturedAddr(nil), a.captured...)
	a.captured = a.captured[:0]
	a.mu.Unlock()

	p := a.Profile
	scanHi := prefHi(p.ScanNet)
	for _, c := range captured {
		ports := p.Ports
		if p.PortSubset > 0 && p.PortSubset < len(ports) {
			perm := a.rng.Perm(len(ports))
			sub := make([]uint16, p.PortSubset)
			for i := range sub {
				sub[i] = ports[perm[i]]
			}
			ports = sub
		}
		// Scans begin StartDelay after capture and spread over Spread.
		if clock != nil {
			target := c.at.Add(p.StartDelay)
			if target.After(clock.Now()) {
				clock.Set(target)
			}
		}
		src := netip.AddrPortFrom(addrIn(scanHi, 0x100+a.rng.Uint64n(16)), 51234)
		for i, port := range ports {
			if clock != nil && p.Spread > 0 && len(ports) > 1 {
				clock.Advance(p.Spread / time.Duration(len(ports)))
			}
			_ = i
			// A SYN probe: the connection attempt itself is what the
			// telescope observes; the actor never waits for answers
			// (pre-cancelled context, so blackholes return instantly).
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if conn, err := a.fabric.DialTCP(ctx, src.Addr(), netip.AddrPortFrom(c.addr, port)); err == nil {
				conn.Close()
			}
		}
	}
}

// prefHi returns the upper 64 bits of a prefix base address.
func prefHi(p netip.Prefix) uint64 {
	b := p.Masked().Addr().As16()
	var hi uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
	}
	return hi
}

// addrIn builds an address under the /64 implied by hi.
func addrIn(hi, iid uint64) netip.Addr {
	var b [16]byte
	for i := 7; i >= 0; i-- {
		b[i] = byte(hi)
		hi >>= 8
	}
	for i := 15; i >= 8; i-- {
		b[i] = byte(iid)
		iid >>= 8
	}
	return netip.AddrFrom16(b)
}
