package zgrab

import (
	"fmt"
	"net/netip"
	"testing"
	"time"
)

var breakerT0 = time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)

func darkAddrs(n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = netip.MustParseAddr(fmt.Sprintf("2001:db8:dead::%x", i+1))
	}
	return out
}

// openPrefixes counts the prefixes currently shedding.
func openPrefixes(b *Breaker) int {
	n := 0
	for _, e := range b.Snapshot() {
		if e.State == breakerOpen {
			n++
		}
	}
	return n
}

func TestBreakerTripsOnDarkness(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 8, Cooldown: 2 * time.Hour})
	for _, a := range darkAddrs(8) {
		if !b.Allow(a) {
			t.Fatal("closed breaker refused a probe")
		}
		b.Record(a, false)
	}
	b.Advance(breakerT0)
	if openPrefixes(b) != 1 {
		t.Fatalf("Open = %d after %d dark targets, want 1", openPrefixes(b), 8)
	}
	if b.Allow(darkAddrs(1)[0]) {
		t.Fatal("open breaker admitted a probe")
	}
}

func TestBreakerLifePreventsTrip(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 8, Cooldown: 2 * time.Hour})
	addrs := darkAddrs(16)
	for _, a := range addrs[:15] {
		b.Record(a, false)
	}
	b.Record(addrs[15], true) // one live host in the aggregate
	b.Advance(breakerT0)
	if openPrefixes(b) != 0 {
		t.Fatal("breaker tripped despite a live host in the prefix")
	}
}

func TestBreakerCooldownProbationRecovery(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 4, Cooldown: 2 * time.Hour})
	addrs := darkAddrs(4)
	for _, a := range addrs {
		b.Record(a, false)
	}
	now := breakerT0
	b.Advance(now)
	if openPrefixes(b) != 1 {
		t.Fatal("did not trip")
	}

	// Before cooldown: still shedding.
	now = now.Add(time.Hour)
	b.Advance(now)
	if b.Allow(addrs[0]) {
		t.Fatal("admitted before cooldown")
	}

	// After cooldown: probation admits the whole slice.
	now = now.Add(2 * time.Hour)
	b.Advance(now)
	if !b.Allow(addrs[0]) {
		t.Fatal("probation slice not admitted after cooldown")
	}

	// Probation finds life → closes and forgives the dark window.
	b.Record(addrs[0], true)
	b.Advance(now.Add(time.Hour))
	if openPrefixes(b) != 0 {
		t.Fatal("breaker did not close after probation found life")
	}
}

func TestBreakerProbationReopensOnDarkness(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 4, Cooldown: time.Hour})
	addrs := darkAddrs(4)
	for _, a := range addrs {
		b.Record(a, false)
	}
	now := breakerT0
	b.Advance(now)
	now = now.Add(2 * time.Hour)
	b.Advance(now) // open → probing
	if !b.Allow(addrs[0]) {
		t.Fatal("probation not admitting")
	}
	b.Record(addrs[0], false) // probe met silence again
	b.Advance(now.Add(time.Hour))
	if openPrefixes(b) != 1 {
		t.Fatal("probation darkness did not re-open the breaker")
	}
}

func TestBreakerWindowDecays(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 8, Cooldown: time.Hour})
	// 5 dark now; decays to 2 next slice, 1 after — never reaches 8.
	for _, a := range darkAddrs(5) {
		b.Record(a, false)
	}
	now := breakerT0
	for i := 0; i < 4; i++ {
		b.Advance(now)
		now = now.Add(time.Hour)
	}
	if openPrefixes(b) != 0 {
		t.Fatal("decayed darkness should not trip the breaker")
	}
	// But sustained darkness accumulates past the threshold:
	// 5 + 5/2... converges above 8? 5+2=7, 7/2+5=8 → trips.
	for i := 0; i < 3; i++ {
		for _, a := range darkAddrs(5) {
			b.Record(a, false)
		}
		b.Advance(now)
		now = now.Add(time.Hour)
	}
	if openPrefixes(b) != 1 {
		t.Fatal("sustained darkness should trip the breaker")
	}
}

func TestBreakerSnapshotRestoreRoundTrip(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 4, Cooldown: time.Hour})
	for _, a := range darkAddrs(4) {
		b.Record(a, false)
	}
	b.Record(netip.MustParseAddr("2001:db8:beef::1"), true)
	b.Advance(breakerT0)

	snap := b.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}

	b2 := NewBreaker(BreakerConfig{Threshold: 4, Cooldown: time.Hour})
	b2.Restore(snap)
	snap2 := b2.Snapshot()
	if fmt.Sprintf("%+v", snap2) != fmt.Sprintf("%+v", snap) {
		t.Fatalf("restore round trip diverges:\n got %+v\nwant %+v", snap2, snap)
	}
	if openPrefixes(b2) != openPrefixes(b) {
		t.Fatalf("restored Open = %d, want %d", openPrefixes(b2), openPrefixes(b))
	}
	// The restored breaker behaves identically: still shedding the dark
	// prefix, still admitting the live one.
	if b2.Allow(netip.MustParseAddr("2001:db8:dead::99")) {
		t.Fatal("restored breaker admits the open prefix")
	}
	if !b2.Allow(netip.MustParseAddr("2001:db8:beef::2")) {
		t.Fatal("restored breaker sheds the healthy prefix")
	}
}
