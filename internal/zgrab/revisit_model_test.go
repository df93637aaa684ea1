package zgrab

import (
	"encoding/json"
	"math/rand/v2"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"time"
)

// revisitModel is the brute-force reference for Revisit: one map, and a
// Sweep that walks all of it.
type revisitModel struct {
	after time.Duration
	last  map[netip.Addr]time.Time
}

func newRevisitModel(after time.Duration) *revisitModel {
	return &revisitModel{after: after, last: map[netip.Addr]time.Time{}}
}

func (m *revisitModel) allow(addr netip.Addr, now time.Time) bool {
	if t, seen := m.last[addr]; seen && now.Sub(t) < m.after {
		return false
	}
	m.last[addr] = now
	return true
}

func (m *revisitModel) sweep(now time.Time) int {
	n := 0
	for addr, t := range m.last {
		if now.Sub(t) >= m.after {
			delete(m.last, addr)
			n++
		}
	}
	return n
}

func (m *revisitModel) snapshot() []RevisitEntry {
	var out []RevisitEntry
	for addr, t := range m.last {
		out = append(out, RevisitEntry{Addr: addr, Last: t})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.Less(out[j].Addr) })
	return out
}

func (m *revisitModel) clone() *revisitModel {
	c := newRevisitModel(m.after)
	for a, t := range m.last {
		c.last[a] = t
	}
	return c
}

// revisitEvent is one step of the model test's stream: an Allow of
// addr, or with sweep set a Sweep, at at.
type revisitEvent struct {
	sweep bool
	addr  netip.Addr
	at    time.Time
}

// revisitStream draws n events over a few dozen addresses. Times sit on
// a whole-hour grid, so a Sweep often lands exactly one holdoff after
// an admission. Every Sweep and a third of the Allows move the clock,
// and a fifth of the moves go back in time, as a stepped RealClock
// can; the other Allows share the instant before them, as one
// SubmitBatch's do, so admissions pile into one bucket.
func revisitStream(seed uint64, n int) []revisitEvent {
	r := rand.New(rand.NewPCG(seed, 46))
	addrs := make([]netip.Addr, 40)
	for i := range addrs {
		addrs[i] = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)})
	}
	now := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	evs := make([]revisitEvent, n)
	for i := range evs {
		sweep := r.IntN(3) == 0
		if sweep || r.IntN(3) == 0 {
			if r.IntN(5) == 0 {
				now = now.Add(-time.Duration(r.IntN(48)) * time.Hour)
			} else {
				now = now.Add(time.Duration(r.IntN(24)) * time.Hour)
			}
		}
		evs[i] = revisitEvent{sweep: sweep, addr: addrs[r.IntN(len(addrs))], at: now}
	}
	return evs
}

// sameEntries compares two snapshots. A time restored from JSON is the
// same instant in the same zone, not always the same Time value.
func sameEntries(a, b []RevisitEntry) bool {
	return slices.EqualFunc(a, b, func(x, y RevisitEntry) bool {
		return x.Addr == y.Addr && x.Last.Equal(y.Last) && x.Last.Location() == y.Last.Location()
	})
}

// stepRevisit applies ev to rv and the model and fails on any
// difference in answer, eviction count or snapshot.
func stepRevisit(t *testing.T, label string, k int, rv *Revisit, m *revisitModel, ev revisitEvent) {
	t.Helper()
	if ev.sweep {
		if got, want := rv.Sweep(ev.at), m.sweep(ev.at); got != want {
			t.Fatalf("%s event %d: Sweep(%v) evicted %d, the full-map walk %d", label, k, ev.at, got, want)
		}
	} else if got, want := rv.Allow(ev.addr, ev.at), m.allow(ev.addr, ev.at); got != want {
		t.Fatalf("%s event %d: Allow(%v, %v) = %v, the full map says %v", label, k, ev.addr, ev.at, got, want)
	}
	if got, want := rv.Snapshot(), m.snapshot(); !sameEntries(got, want) {
		t.Fatalf("%s event %d: snapshot\n got %v\nwant %v", label, k, got, want)
	}
}

// restoredRevisit is rv's snapshot after a trip through JSON, restored
// into a fresh Revisit: what a resumed campaign's scanner holds.
func restoredRevisit(t *testing.T, rv *Revisit) *Revisit {
	t.Helper()
	b, err := json.Marshal(rv.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var entries []RevisitEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatal(err)
	}
	c := NewRevisit(rv.after)
	c.Restore(entries)
	return c
}

// TestRevisitMatchesFullMapModel drives Revisit and the full-map
// reference with one seeded stream of Allows and Sweeps, in time order
// and out of it. After every event their answers, eviction counts and
// snapshots are equal. At every event the state also goes through
// Snapshot → JSON → Restore, and the restored Revisit must follow the
// reference over the next events as the uninterrupted one does.
func TestRevisitMatchesFullMapModel(t *testing.T) {
	const lookahead = 16
	for _, seed := range []uint64{1, 2} {
		evs := revisitStream(seed, 1000)
		rv, m := NewRevisit(revisitAfter), newRevisitModel(revisitAfter)
		for k, ev := range evs {
			stepRevisit(t, "uninterrupted", k, rv, m, ev)
			rc, mc := restoredRevisit(t, rv), m.clone()
			for j := k + 1; j < min(k+1+lookahead, len(evs)); j++ {
				stepRevisit(t, "restored", j, rc, mc, evs[j])
			}
		}
	}
}

// TestRevisitOneBucketPerInstant pins the shape the sweep's cost rests
// on: the Allows of one instant share one heap bucket, and a popped
// bucket is reused by the next instant rather than allocated again.
func TestRevisitOneBucketPerInstant(t *testing.T) {
	rv := NewRevisit(revisitAfter)
	t0 := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	admit := func(at time.Time, lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if !rv.Allow(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: byte(i >> 8), 15: byte(i)}), at) {
				t.Fatalf("address %d refused at %v", i, at)
			}
		}
	}
	admit(t0, 0, 300)
	admit(t0.Add(time.Hour), 300, 600)
	if len(rv.order) != 2 {
		t.Fatalf("two instants pushed %d buckets, want 2", len(rv.order))
	}
	if n := rv.Sweep(t0.Add(revisitAfter)); n != 300 || len(rv.order) != 1 || len(rv.free) != 1 {
		t.Fatalf("sweep evicted %d, left %d buckets and %d free; want 300, 1 and 1", n, len(rv.order), len(rv.free))
	}
	spent := rv.free[0]
	admit(t0.Add(revisitAfter), 0, 300)
	if len(rv.free) != 0 || rv.top != spent {
		t.Fatal("the next instant did not reuse the spent bucket")
	}
}
