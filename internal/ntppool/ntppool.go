// Package ntppool models the NTP Pool: country zones, server
// registration with operator-configurable netspeed weights, monitor
// scoring, and the weighted client→server mapping (following the
// behaviour documented by Moura et al. and relied on in the paper's
// §3.1: clients resolve to servers in their country zone, falling back
// to larger zones when the country zone is empty).
//
// Third-party pool servers are aggregated per zone as background weight:
// the simulation only needs to know how often a client lands on *our*
// capture servers versus anyone else's.
package ntppool

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"ntpscan/internal/rng"
)

// MinScore is the monitor score below which the pool stops handing out a
// server (the real pool uses 10 on a -100..20 scale).
const MinScore = 10

// Server is one pool member operated by us (capture-capable deployments
// are plain Servers whose Handle feeds an ntp.Server).
type Server struct {
	ID       string
	Country  string // ISO code of the zone the server is registered in
	Addr     netip.Addr
	NetSpeed float64 // operator-configured relative weight ("netspeed")
	Score    float64 // monitor score; starts at 20 (healthy)
}

// Pool is the zone directory. All methods are safe for concurrent use.
type Pool struct {
	mu sync.RWMutex
	// background holds the aggregate netspeed of third-party servers
	// per country zone.
	background map[string]float64
	// globalBackground is third-party weight reachable via the global
	// zone (continent/global fallback).
	globalBackground float64
	servers          map[string]*Server // by ID
	byZone           map[string][]*Server
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{
		background: make(map[string]float64),
		servers:    make(map[string]*Server),
		byZone:     make(map[string][]*Server),
	}
}

// SetBackground records the aggregate third-party server weight for a
// country zone (0 models an empty zone).
func (p *Pool) SetBackground(country string, weight float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.background[country] = weight
}

// SetGlobalBackground records third-party weight in the global fallback
// zone.
func (p *Pool) SetGlobalBackground(weight float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.globalBackground = weight
}

// AddServer registers one of our servers in its country zone. The server
// starts with a healthy monitor score.
func (p *Pool) AddServer(s *Server) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.servers[s.ID]; dup {
		return fmt.Errorf("ntppool: duplicate server id %q", s.ID)
	}
	if s.Score == 0 {
		s.Score = 20
	}
	p.servers[s.ID] = s
	p.byZone[s.Country] = append(p.byZone[s.Country], s)
	return nil
}

// Server returns a registered server by ID.
func (p *Pool) Server(id string) (*Server, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s, ok := p.servers[id]
	return s, ok
}

// SetNetSpeed adjusts a server's weight — the knob the paper turns until
// the capture rate matches the scanning budget.
func (p *Pool) SetNetSpeed(id string, speed float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.servers[id]; ok {
		s.NetSpeed = speed
	}
}

// SetScore updates a server's monitor score; unhealthy servers stop
// receiving clients.
func (p *Pool) SetScore(id string, score float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.servers[id]; ok {
		s.Score = score
	}
}

// MapClient resolves which server a syncing client in the given country
// is directed to. It returns (server, true) when the client lands on one
// of our capture servers, and (nil, false) when a third-party background
// server absorbs the query. Selection is weight-proportional within the
// country zone; an entirely empty country zone falls back to the global
// zone, matching pool behaviour.
func (p *Pool) MapClient(country string, r *rng.Stream) (*Server, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()

	ours := p.byZone[country]
	bg := p.background[country]
	total := bg
	for _, s := range ours {
		if s.Score >= MinScore {
			total += s.NetSpeed
		}
	}
	if total <= 0 {
		// Empty zone: global fallback over all our servers plus global
		// background.
		return p.mapGlobalLocked(r)
	}
	target := r.Float64() * total
	for _, s := range ours {
		if s.Score < MinScore {
			continue
		}
		target -= s.NetSpeed
		if target < 0 {
			return s, true
		}
	}
	return nil, false // background server
}

func (p *Pool) mapGlobalLocked(r *rng.Stream) (*Server, bool) {
	total := p.globalBackground
	ids := make([]string, 0, len(p.servers))
	for id := range p.servers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if s := p.servers[id]; s.Score >= MinScore {
			total += s.NetSpeed
		}
	}
	if total <= 0 {
		return nil, false
	}
	target := r.Float64() * total
	for _, id := range ids {
		s := p.servers[id]
		if s.Score < MinScore {
			continue
		}
		target -= s.NetSpeed
		if target < 0 {
			return s, true
		}
	}
	return nil, false
}

// ShareEstimate returns the fraction of a country's sync traffic our
// servers currently attract, for the netspeed controller.
func (p *Pool) ShareEstimate(country string) float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ours := 0.0
	for _, s := range p.byZone[country] {
		if s.Score >= MinScore {
			ours += s.NetSpeed
		}
	}
	total := ours + p.background[country]
	if total <= 0 {
		return 0
	}
	return ours / total
}

// ConfiguredShare is ShareEstimate ignoring monitor health: the share
// the operator's netspeed configuration would attract with every
// server healthy. Campaign budgets are computed from this — a budget
// must not depend on the transient health the monitor happens to see
// at planning time, or a resumed run would plan a different campaign
// than the one it is resuming.
func (p *Pool) ConfiguredShare(country string) float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ours := 0.0
	for _, s := range p.byZone[country] {
		ours += s.NetSpeed
	}
	total := ours + p.background[country]
	if total <= 0 {
		return 0
	}
	return ours / total
}

// Healthy reports whether the server's monitor score keeps it in
// rotation. Unknown IDs are unhealthy.
func (p *Pool) Healthy(id string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s, ok := p.servers[id]
	return ok && s.Score >= MinScore
}

// Score returns the server's current monitor score (0 for unknown
// IDs).
func (p *Pool) Score(id string) float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if s, ok := p.servers[id]; ok {
		return s.Score
	}
	return 0
}
