package world

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"ntpscan/internal/rng"
)

// sameDevice asserts field-identity between two materializations of
// one device.
func sameDevice(t *testing.T, w *World, a, b *Device) {
	t.Helper()
	if a.ID != b.ID || a.Profile.Name != b.Profile.Name || a.Country != b.Country ||
		a.AS.Number != b.AS.Number || a.role != b.role {
		t.Fatalf("device %d placement differs: %+v vs %+v", a.ID, a, b)
	}
	if a.MAC != b.MAC || a.HasMAC != b.HasMAC {
		t.Fatalf("device %d MAC differs: %v/%v vs %v/%v", a.ID, a.MAC, a.HasMAC, b.MAC, b.HasMAC)
	}
	if a.TLSEnabled != b.TLSEnabled || a.AuthOn != b.AuthOn || a.PatchRev != b.PatchRev ||
		a.CertSerial != b.CertSerial || a.KeyID != b.KeyID || a.KeySlot != b.KeySlot {
		t.Fatalf("device %d identity differs", a.ID)
	}
	if a.epochLen != b.epochLen || a.phase != b.phase {
		t.Fatalf("device %d churn params differ", a.ID)
	}
	for _, epoch := range []int64{0, 1, 7} {
		if ea, eb := w.AddrAt(a, epoch), w.AddrAt(b, epoch); ea != eb {
			t.Fatalf("device %d epoch %d address differs: %v vs %v", a.ID, epoch, ea, eb)
		}
	}
}

// TestArenaMatchesDerivation is the golden walk: every global ID of the
// SCALE=1 world — every country, AS, and /48 it occupies — resolved
// through an arena, in shuffled order with repeats, must be
// field-identical to a fresh derivation of the same ID. The pure
// function is the reference; a one-slot arena recycles its slot on
// every miss, a 64 KiB one mixes hits, misses and clock evictions.
func TestArenaMatchesDerivation(t *testing.T) {
	w := New(testCfg(1))
	order := make([]int32, 0, 2*int(w.deviceTotal))
	for gid := int32(0); gid < w.deviceTotal; gid++ {
		order = append(order, gid, gid)
	}
	rng.New(7).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	var want Device
	var r rng.Stream
	for _, budget := range []int{1, 1 << 16} {
		m := w.NewMaterializer(budget)
		for _, gid := range order {
			w.materializeInto(gid, &want, &r)
			sameDevice(t, w, &want, m.Device(gid))
		}
	}

	// The resident reachable population is the same derivation plus
	// fabric state.
	if len(w.Reachable()) == 0 {
		t.Fatal("no reachable devices")
	}
	for _, d := range w.Reachable() {
		w.materializeInto(int32(d.ID), &want, &r)
		sameDevice(t, w, &want, d)
	}
}

// TestSampleClientID: the weighted client draw consumes exactly one
// variate per draw from a populated country and none from an empty one,
// lands where the cumulative-weight index says it should, and the
// per-country masses are the sums over the indexed clients.
func TestSampleClientID(t *testing.T) {
	w := New(testCfg(1))
	r, ref := rng.New(42), rng.New(42)
	for i := 0; i < 500; i++ {
		for _, country := range []string{"IN", "DE", "US", "XX"} {
			gid := w.SampleClientID(country, r)
			cum := w.cumSync[country]
			if len(cum) == 0 {
				if gid != -1 {
					t.Fatalf("%s: no clients, sampled %d", country, gid)
				}
				continue
			}
			idx := sort.SearchFloat64s(cum, ref.Float64()*cum[len(cum)-1])
			if want := w.clientIDs[country][idx]; gid != want {
				t.Fatalf("%s draw %d: sampled id %d, index says %d", country, i, gid, want)
			}
		}
		if r.State() != ref.State() {
			t.Fatalf("draw %d: sampling consumed a different number of variates than one per populated country", i)
		}
	}

	m := w.NewMaterializer(1 << 16)
	for _, country := range []string{"IN", "DE", "US"} {
		var sync float64
		var epochs int64
		for _, gid := range w.clientIDs[country] {
			p := m.Device(gid).Profile
			sync += p.SyncWeight
			e := p.PrefixEpochs
			if e < 1 {
				e = 1
			}
			epochs += int64(e)
		}
		if sync == 0 || sync != w.SyncMass(country) || epochs != w.ClientEpochMass(country) {
			t.Fatalf("%s masses: index sums %v/%d, world reports %v/%d",
				country, sync, epochs, w.SyncMass(country), w.ClientEpochMass(country))
		}
	}
}

// TestArenaHitPathAllocates pins the arena hit path at zero
// allocations: resolving a resident device must not touch the heap.
func TestArenaHitPathAllocates(t *testing.T) {
	w := New(testCfg(1))
	m := w.NewMaterializer(1 << 16)
	gid := w.SampleClientID("IN", rng.New(1))
	if gid < 0 {
		t.Fatal("no client to sample")
	}
	m.Device(gid)
	if avg := testing.AllocsPerRun(200, func() { m.Device(gid) }); avg != 0 {
		t.Fatalf("arena hit path allocates %.1f objects per lookup", avg)
	}
}

// TestArenaEviction drives a one-slot arena and checks the conservation
// law the obs invariants rely on: materializations - evictions ==
// resident devices, and hits + materializations == lookups.
func TestArenaEviction(t *testing.T) {
	w := New(testCfg(1))
	m := w.NewMaterializer(1) // clamps to one slot
	if len(m.slots) != 1 {
		t.Fatalf("capacity = %d, want 1", len(m.slots))
	}
	a := m.Device(0)
	if a.ID != 0 {
		t.Fatalf("materialized device %d, want 0", a.ID)
	}
	m.Device(0) // hit
	b := m.Device(1)
	if b.ID != 1 {
		t.Fatalf("materialized device %d, want 1", b.ID)
	}
	st := m.TakeStats()
	if st.Materializations != 2 || st.Hits != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 materializations, 1 hit, 1 eviction", st)
	}
	if m.ResidentBytes() != slotBytes {
		t.Fatalf("resident bytes = %d, want %d", m.ResidentBytes(), slotBytes)
	}
	if got := m.TakeStats(); got != (ArenaStats{}) {
		t.Fatalf("TakeStats did not reset: %+v", got)
	}
}

// TestArenaSnapshotRestore: a restored arena must continue the exact
// hit/miss/eviction sequence the original would have produced.
func TestArenaSnapshotRestore(t *testing.T) {
	w := New(testCfg(1))
	ids := w.clientIDs["IN"]
	if len(ids) < 8 {
		t.Fatalf("too few IN clients: %d", len(ids))
	}
	budget := 4 * slotBytes

	drive := func(m *Materializer, seq []int32) ArenaStats {
		var total ArenaStats
		for _, gid := range seq {
			m.Device(gid)
			s := m.TakeStats()
			total.Materializations += s.Materializations
			total.Hits += s.Hits
			total.Evictions += s.Evictions
		}
		return total
	}

	warm := []int32{ids[0], ids[1], ids[2], ids[3], ids[1], ids[4]}
	tail := []int32{ids[5], ids[1], ids[6], ids[2], ids[7], ids[0], ids[1]}

	// Uninterrupted run.
	full := w.NewMaterializer(budget)
	drive(full, warm)
	wantTail := drive(full, tail)

	// Snapshot after the warmup, restore into a fresh arena, replay.
	orig := w.NewMaterializer(budget)
	drive(orig, warm)
	snap := orig.Snapshot()
	resumed := w.NewMaterializer(budget)
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if gotTail := drive(resumed, tail); gotTail != wantTail {
		t.Fatalf("resumed tail stats %+v, want %+v", gotTail, wantTail)
	}

	// Capacity mismatch is rejected, not silently misread.
	if err := w.NewMaterializer(budget * 2).Restore(snap); err == nil {
		t.Fatal("restore across a different byte budget succeeded")
	}
}

// TestArenaRestoreRejectsBadSnapshots: a snapshot is checkpoint input
// from disk. IDs below -1 (which Snapshot would re-emit verbatim), IDs
// outside the population, and an ID resident in two slots (whose first
// eviction would delete the other slot's index entry) are all refused,
// and a refused snapshot leaves the arena exactly as it was.
func TestArenaRestoreRejectsBadSnapshots(t *testing.T) {
	w := New(testCfg(1))
	budget := 4 * slotBytes
	good := func() *ArenaState {
		return &ArenaState{Slots: []int32{3, -1, 9, 4}, Refs: []byte{0b0101}, Hand: 2}
	}
	cases := []struct {
		name   string
		mutate func(*ArenaState)
	}{
		{"gid below -1", func(st *ArenaState) { st.Slots[1] = -2 }},
		{"gid outside population", func(st *ArenaState) { st.Slots[1] = w.deviceTotal }},
		{"gid in two slots", func(st *ArenaState) { st.Slots[3] = 3 }},
		{"hand out of range", func(st *ArenaState) { st.Hand = 4 }},
		{"negative hand", func(st *ArenaState) { st.Hand = -1 }},
		{"slot count differs", func(st *ArenaState) { st.Slots = st.Slots[:3] }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := w.NewMaterializer(budget)
			m.Device(7)
			m.Device(8)
			before := m.Snapshot()
			st := good()
			c.mutate(st)
			if err := m.Restore(st); err == nil {
				t.Fatal("bad snapshot restored without error")
			}
			if after := m.Snapshot(); !reflect.DeepEqual(before, after) || m.ResidentBytes() != 2*slotBytes {
				t.Fatalf("rejected restore changed the arena: %+v -> %+v", before, after)
			}
		})
	}

	// The unmutated snapshot restores, round-trips exactly, and keeps
	// the books: materializations - evictions == change in residency.
	m := w.NewMaterializer(budget)
	if err := m.Restore(good()); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot(); !reflect.DeepEqual(got, good()) {
		t.Fatalf("snapshot after restore = %+v, want %+v", got, good())
	}
	resident := uint64(m.ResidentBytes() / slotBytes)
	for gid := int32(20); gid < 40; gid++ {
		m.Device(gid)
	}
	st := m.TakeStats()
	if got := uint64(m.ResidentBytes() / slotBytes); resident+st.Materializations-st.Evictions != got {
		t.Fatalf("resident %d + %d materializations - %d evictions != %d resident",
			resident, st.Materializations, st.Evictions, got)
	}
}

// retainedHeap reports the live heap a world built from cfg keeps
// reachable.
func retainedHeap(cfg Config) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := New(cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// TestWorldRetainsNoAddressOnlyDevices: growing the address-only
// population 33x must not grow what world.New keeps resident anywhere
// near linearly — only the per-client sampling index (a few words per
// NTP client) scales with it. A resident Device per ID made this 2.6x.
func TestWorldRetainsNoAddressOnlyDevices(t *testing.T) {
	small := retainedHeap(Config{Seed: 1, DeviceScale: 3e-3, AddrScale: 6e-6})
	big := retainedHeap(Config{Seed: 1, DeviceScale: 3e-3, AddrScale: 2e-4})
	t.Logf("retained: %d bytes at addr-scale 6e-6, %d at 2e-4", small, big)
	if small == 0 || big >= 2*small {
		t.Fatalf("world.New retains %d bytes at addr-scale 2e-4 vs %d at 6e-6 (want under 2x)", big, small)
	}
}
