package zgrab

import (
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// BreakerConfig tunes the per-prefix circuit breaker that sheds probe
// load from dark space. Aggregation is per routing prefix: a run of
// all-silent targets under one /48 is far more likely a dark or
// filtered aggregate than many coincidentally dead hosts.
type BreakerConfig struct {
	// PrefixBits is the aggregation width (default /48).
	PrefixBits int
	// Threshold is how much accumulated darkness (silent targets, with
	// older slices decaying by half) trips the breaker. Default 64.
	Threshold int
	// Cooldown is how long a tripped prefix stays open before a
	// probation slice is admitted. Default 14 h (two campaign slices)
	// of logical time.
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.PrefixBits <= 0 || c.PrefixBits > 128 {
		c.PrefixBits = 48
	}
	if c.Threshold <= 0 {
		c.Threshold = 64
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 14 * time.Hour
	}
	return c
}

// Breaker states.
const (
	breakerClosed  int32 = iota // normal operation
	breakerOpen                 // shedding: targets are skipped
	breakerProbing              // probation slice: admit everything, judge at the boundary
)

// breakerEntry is one prefix's state. Outcome counters for the current
// slice accumulate atomically from any worker; windowed totals and
// state transitions are touched only by Advance, which the scanner
// calls at the drain barrier — so transitions are a pure function of
// (slice outcomes, schedule), independent of worker interleaving.
type breakerEntry struct {
	dark  atomic.Int64 // this slice: targets with no sign of life
	alive atomic.Int64 // this slice: targets that answered somehow

	state    atomic.Int32
	openedAt time.Time
	winDark  int64 // decayed window of darkness
	winAlive int64
}

// Breaker is the per-prefix circuit breaker. Allow/Record are safe for
// any concurrency; Advance must be called from the drain barrier (one
// goroutine, scans quiescent).
type Breaker struct {
	cfg BreakerConfig

	mu      sync.RWMutex
	entries map[netip.Prefix]*breakerEntry

	// met, when set (by the owning scanner), receives transition
	// counters and the open-set gauge from Advance. Transitions only
	// happen at the drain barrier, so the counts are a pure function of
	// the schedule.
	met *Metrics
}

// NewBreaker returns a breaker with cfg (zero fields take defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), entries: make(map[netip.Prefix]*breakerEntry)}
}

func (b *Breaker) prefixOf(addr netip.Addr) netip.Prefix {
	p, _ := addr.Prefix(b.cfg.PrefixBits)
	return p
}

func (b *Breaker) entry(pfx netip.Prefix, create bool) *breakerEntry {
	b.mu.RLock()
	e := b.entries[pfx]
	b.mu.RUnlock()
	if e != nil || !create {
		return e
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if e = b.entries[pfx]; e == nil {
		e = &breakerEntry{}
		b.entries[pfx] = e
	}
	return e
}

// Allow reports whether addr's prefix admits probes right now. An open
// prefix sheds; closed and probing prefixes admit.
func (b *Breaker) Allow(addr netip.Addr) bool {
	e := b.entry(b.prefixOf(addr), false)
	return e == nil || e.state.Load() != breakerOpen
}

// Record accumulates one target's fate: alive if any module got an
// answer (success, refusal, or a garbled banner), dark if every module
// met silence.
func (b *Breaker) Record(addr netip.Addr, alive bool) {
	e := b.entry(b.prefixOf(addr), true)
	if alive {
		e.alive.Add(1)
	} else {
		e.dark.Add(1)
	}
}

// Advance folds the slice's outcomes into the decayed windows and runs
// state transitions. Call from the drain barrier with now = the
// logical slice time.
//
// Transitions: closed trips open when the dark window reaches
// Threshold with no sign of life; open waits out Cooldown, then admits
// one whole probation slice; probation closes on any life, re-opens on
// continued darkness, and idles if nothing was probed.
func (b *Breaker) Advance(now time.Time) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	open := int64(0)
	for _, e := range b.entries {
		sliceDark := e.dark.Swap(0)
		sliceAlive := e.alive.Swap(0)
		e.winDark = e.winDark/2 + sliceDark
		e.winAlive = e.winAlive/2 + sliceAlive
		switch e.state.Load() {
		case breakerClosed:
			if e.winDark >= int64(b.cfg.Threshold) && e.winAlive == 0 {
				e.state.Store(breakerOpen)
				e.openedAt = now
				if b.met != nil {
					b.met.BreakerOpened.Inc()
				}
			}
		case breakerOpen:
			if now.Sub(e.openedAt) >= b.cfg.Cooldown {
				e.state.Store(breakerProbing)
				if b.met != nil {
					b.met.BreakerProbation.Inc()
				}
			}
		case breakerProbing:
			switch {
			case sliceAlive > 0:
				e.state.Store(breakerClosed)
				e.winDark = 0
				if b.met != nil {
					b.met.BreakerClosed.Inc()
				}
			case sliceDark > 0:
				e.state.Store(breakerOpen)
				e.openedAt = now
				if b.met != nil {
					b.met.BreakerReopened.Inc()
				}
			}
		}
		if e.state.Load() == breakerOpen {
			open++
		}
	}
	if b.met != nil {
		b.met.BreakerOpen.Set(open)
	}
}

// BreakerEntryState is one prefix's checkpointed state. OpenedAt is
// always written: encoding/json does not omit a struct.
type BreakerEntryState struct {
	Prefix   netip.Prefix `json:"prefix"`
	State    int32        `json:"state"`
	OpenedAt time.Time    `json:"opened_at"`
	WinDark  int64        `json:"win_dark,omitempty"`
	WinAlive int64        `json:"win_alive,omitempty"`
}

// Snapshot exports all prefix states in canonical (prefix string)
// order. Call from a quiescent point (after Advance): mid-slice
// counters must be zero, and are not captured.
func (b *Breaker) Snapshot() []BreakerEntryState {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]BreakerEntryState, 0, len(b.entries))
	for pfx, e := range b.entries {
		out = append(out, BreakerEntryState{
			Prefix: pfx, State: e.state.Load(),
			OpenedAt: e.openedAt, WinDark: e.winDark, WinAlive: e.winAlive,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.String() < out[j].Prefix.String() })
	return out
}

// Restore replaces the breaker's state with a snapshot.
func (b *Breaker) Restore(states []BreakerEntryState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.entries = make(map[netip.Prefix]*breakerEntry, len(states))
	for _, st := range states {
		e := &breakerEntry{openedAt: st.OpenedAt, winDark: st.WinDark, winAlive: st.WinAlive}
		e.state.Store(st.State)
		b.entries[st.Prefix] = e
	}
}
