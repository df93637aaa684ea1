package world

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
	"time"
	"unsafe"

	"ntpscan/internal/ipv6x"
	"ntpscan/internal/rng"
)

// On-demand materialization: device state is a pure function of
// (world seed, global device ID). The global ID space is partitioned
// into contiguous segments, one per (profile, role) block in catalog
// order, so the profile and role of any ID follow from a binary search
// and everything else — country, AS, /48 slot, MAC, keys, churn phase —
// is derived from a per-device stream seeded by the ID. Nothing about a
// device depends on any other device, which is what lets the world hold
// a population in the hundreds of millions without resident structs.
//
// The only whole-population work left at New is a counting pass that
// replays just the placement draws (country, AS) of every ID: it sizes
// the per-AS customer /48 pools and builds the per-country sync-
// sampling indexes. That pass allocates a few words per NTP client, not
// a Device, so memory grows with the index, two orders of magnitude
// below a resident population.

// deviceSalt seeds the per-device derivation stream.
const deviceSalt = 0x6d61747a // "matz"

// segment maps a contiguous global-ID range onto one (profile, role)
// block of the catalog.
type segment struct {
	p       *Profile
	role    Role
	base    int32
	n       int32
	weights []float64 // country placement weights, shared per shape
}

// weightKey identifies one shape of country-placement weights: profiles
// share a weight vector when region and role treatment agree.
type weightKey struct {
	region      Region
	vantageOnly bool
	linear      bool
}

// buildSegments lays out the global ID space in catalog order —
// responsive, hitlist-only, then address-only per profile.
func (w *World) buildSegments() {
	tab := map[weightKey][]float64{}
	var base int32
	for _, p := range allProfiles() {
		add := func(full int, scale float64, role Role) {
			if full <= 0 {
				return
			}
			n := int32(scaleCount(full, scale, 1))
			key := weightKey{
				region:      p.Region,
				vantageOnly: role != RoleHitlistOnly,
				linear:      role == RoleAddrOnly,
			}
			ws, ok := tab[key]
			if !ok {
				ws = w.countryWeights(key)
				tab[key] = ws
			}
			w.segments = append(w.segments, segment{p: p, role: role, base: base, n: n, weights: ws})
			base += n
		}
		add(p.CountResponsive, w.Cfg.DeviceScale, RoleResponsive)
		add(p.CountHitlistOnly, w.Cfg.DeviceScale, RoleHitlistOnly)
		add(p.CountAddrOnly, w.Cfg.AddrScale, RoleAddrOnly)
	}
	w.deviceTotal = base
}

// countryWeights precomputes the placement weight vector for one shape.
func (w *World) countryWeights(key weightKey) []float64 {
	weights := make([]float64, len(w.Countries))
	for i, c := range w.Countries {
		if key.vantageOnly && !c.Spec.Vantage {
			continue
		}
		weights[i] = regionWeight(key.region, c.Spec, key.linear)
	}
	return weights
}

// segmentOf locates the segment containing gid.
func (w *World) segmentOf(gid int32) *segment {
	idx := sort.Search(len(w.segments), func(i int) bool {
		return w.segments[i].base > gid
	}) - 1
	return &w.segments[idx]
}

// deviceStream reseeds r as the per-device derivation stream for gid.
func (w *World) deviceStream(gid int32, r *rng.Stream) {
	r.Reseed(w.Cfg.Seed ^ deviceSalt ^ uint64(gid)*0x9e3779b97f4a7c15)
}

// placeDevice draws the placement prefix of gid's derivation stream:
// the country and AS. The counting pass and materializeInto both start
// from exactly these draws, so placement observed while sizing pools is
// the placement a later materialization reproduces.
func (w *World) placeDevice(seg *segment, r *rng.Stream) (*Country, *AS) {
	idx := r.WeightedIndex(seg.weights)
	if idx < 0 {
		idx = 0
	}
	c := w.Countries[idx]
	return c, w.pickAS(c, seg.p.ASTyp, r)
}

// countPlacement replays every device's placement draws without
// materializing anything: it counts devices per AS (sizing the customer
// /48 pools) and builds the per-country sync-sampling and epoch-mass
// indexes over the address-only NTP-client population. Responsive NTP
// devices stay out of the indexes: DeviceScale and AddrScale differ, so
// volume-sampling them would grossly overweight their share of the
// captured address mass; the collection driver captures them through a
// dedicated channel instead (see core).
func (w *World) countPlacement() {
	var r rng.Stream
	for si := range w.segments {
		seg := &w.segments[si]
		for i := int32(0); i < seg.n; i++ {
			gid := seg.base + i
			w.deviceStream(gid, &r)
			c, a := w.placeDevice(seg, &r)
			a.deviceCount++
			if seg.role != RoleAddrOnly || !seg.p.NTPClient {
				continue
			}
			code := c.Spec.Code
			w.clientIDs[code] = append(w.clientIDs[code], gid)
			w.syncMass[code] += seg.p.SyncWeight
			w.cumSync[code] = append(w.cumSync[code], w.syncMass[code])
			epochs := seg.p.PrefixEpochs
			if epochs < 1 {
				epochs = 1
			}
			w.epochMass[code] += int64(epochs)
		}
	}
	// Size customer /48 pools now that per-AS device counts are known.
	for _, c := range w.Countries {
		for _, lst := range [][]*AS{c.Eyeball, c.Content, c.NSP, c.Entpr} {
			for _, a := range lst {
				a.Cust48Pool = cust48Pool(a, c.Spec.EyeballDensity)
			}
		}
	}
}

// materializeInto derives the full device state for gid into d, writing
// every field so an arena slot can be recycled without clearing. r is
// caller-provided scratch; its prior state is irrelevant.
func (w *World) materializeInto(gid int32, d *Device, r *rng.Stream) {
	seg := w.segmentOf(gid)
	p := seg.p
	w.deviceStream(gid, r)

	d.ID = int(gid)
	d.Profile = p
	d.role = seg.role
	d.Country, d.AS = func() (string, *AS) {
		c, a := w.placeDevice(seg, r)
		return c.Spec.Code, a
	}()

	// Hardware address. An empty Vendor with HasUniversalMAC models
	// manufacturers absent from the IEEE registry (the paper's
	// "unlisted" class): the unique bit is set but no OUI record
	// exists.
	d.MAC = ipv6x.MAC{}
	d.HasMAC = false
	if p.AddrMode == AddrEUI64 && p.HasUniversalMAC {
		var block [3]byte
		if p.Vendor != "" {
			ouis := w.OUIReg.OUIs(p.Vendor)
			block = ouis[r.Intn(len(ouis))]
		} else {
			r.Bytes(block[:])
			block[0] &^= 0x03 // universal unicast, but unregistered
		}
		var serial [3]byte
		r.Bytes(serial[:])
		d.MAC = ipv6x.MAC{block[0], block[1], block[2], serial[0], serial[1], serial[2]}
		d.HasMAC = true
	}

	// Identity and posture. Reuse pools shrink with DeviceScale so the
	// devices-per-key ratio stays at its full-scale calibration (~60
	// addresses per leaked image key, §6).
	d.CertSerial = r.Uint64()
	d.KeySlot = -1
	if p.KeyReuseProb > 0 && r.Bool(p.KeyReuseProb) && p.KeyReusePoolSize > 0 {
		pool := int(float64(p.KeyReusePoolSize) * w.Cfg.DeviceScale)
		if pool < 1 {
			pool = 1
		}
		// Zipf-skewed slot choice: the most widespread firmware image
		// accounts for a large share of the reuse population (the
		// paper's single key on 45 377 hosts).
		d.KeySlot = r.Zipf(pool, 1.4)
		d.KeyID = reuseKeyID(p.Name, d.KeySlot)
	} else {
		binary.LittleEndian.PutUint64(d.KeyID[:8], r.Uint64())
		binary.LittleEndian.PutUint64(d.KeyID[8:], r.Uint64())
	}
	d.TLSEnabled = r.Bool(p.TLSProb)
	d.AuthOn = r.Bool(p.AuthProb)
	d.PatchRev = 0
	if p.SSH != nil && !p.SSH.NoPatch {
		lag := int(r.ExpFloat64() * p.OutdatedBias * 1.2)
		d.PatchRev = p.SSH.MaxRev - lag
		if d.PatchRev < 0 {
			d.PatchRev = 0
		}
	}

	// Churn parameters.
	epochs := p.PrefixEpochs
	if epochs < 1 {
		epochs = 1
	}
	d.epochLen = CollectionWindow / time.Duration(epochs)
	d.phase = time.Duration(r.Uint64n(uint64(d.epochLen)))
	d.lastEpoch = -1
	d.lastAddr = netip.Addr{}
	d.host = nil
}

// buildReachable materializes the scan-reachable population — the only
// devices with mutable fabric state, and the only ones held resident.
// Their count scales with DeviceScale, not AddrScale, so they stay
// resident at every rung of the scale ladder.
func (w *World) buildReachable() {
	var r rng.Stream
	for si := range w.segments {
		seg := &w.segments[si]
		if seg.role == RoleAddrOnly {
			continue
		}
		for i := int32(0); i < seg.n; i++ {
			d := &Device{}
			w.materializeInto(seg.base+i, d, &r)
			if len(seg.p.Services) > 0 {
				d.host = w.buildHost(d)
			} else {
				// Profile with no services (core routers): registered so
				// the address is routed, but every port is closed.
				d.host = w.emptyHost(d)
			}
			w.reachable = append(w.reachable, d)
		}
	}
}

// Reachable returns every scan-reachable device (responsive and
// hitlist-only roles) in global-ID order. The slice is shared and must
// not be mutated.
func (w *World) Reachable() []*Device { return w.reachable }

// ClientEpochMass returns the summed address-epoch count of a country's
// address-only NTP clients — the number of distinct addresses that
// population can expose over the collection window.
func (w *World) ClientEpochMass(country string) int64 { return w.epochMass[country] }

// SampleClientID draws one NTP-client device ID from a country's
// syncing population, weighted by per-profile sync frequency. It
// returns -1 (consuming nothing from r) when the country has no NTP
// clients. Resolve the ID through a Materializer.
func (w *World) SampleClientID(country string, r *rng.Stream) int32 {
	cum := w.cumSync[country]
	if len(cum) == 0 {
		return -1
	}
	target := r.Float64() * cum[len(cum)-1]
	idx := sort.SearchFloat64s(cum, target)
	if idx >= len(cum) {
		idx = len(cum) - 1
	}
	return w.clientIDs[country][idx]
}

// arenaSlot is one clock-ring entry of a Materializer.
type arenaSlot struct {
	gid int32
	ref bool
	dev Device
}

// slotBytes is the resident cost the arena accounts per slot.
var slotBytes = int(unsafe.Sizeof(arenaSlot{}))

// SlotBytes reports the per-slot resident cost arenas account against
// their budget. Exported so the observability conservation law
// (materializations - evictions == resident bytes / slot size) can be
// asserted outside this package.
func SlotBytes() int { return slotBytes }

// ArenaStats is the materialization activity of an arena since the last
// TakeStats call.
type ArenaStats struct {
	Materializations uint64
	Hits             uint64
	Evictions        uint64
}

// ArenaState is a Materializer checkpoint: together with the world
// configuration it reconstructs the arena bit-exactly, because slot
// contents are re-derivable from the IDs alone.
type ArenaState struct {
	Slots []int32 `json:"slots"` // resident gid per slot; -1 = empty
	Refs  []byte  `json:"refs"`  // clock reference bits, packed
	Hand  int     `json:"hand"`
}

// Materializer resolves global device IDs to materialized Devices
// through a bounded arena with clock (second-chance) eviction. Hot
// devices stay resident; cold ones are re-derived on demand. It is not
// safe for concurrent use — shard owners hold one each — and a returned
// *Device is valid only until the same arena materializes another
// device into its slot, so callers must not retain pointers across
// lookups beyond the arena's capacity.
type Materializer struct {
	w       *World
	index   map[int32]int32 // gid -> slot
	slots   []arenaSlot
	hand    int
	stats   ArenaStats
	scratch rng.Stream
}

// NewMaterializer builds an arena holding at most budgetBytes of
// materialized device state (minimum one slot).
func (w *World) NewMaterializer(budgetBytes int) *Materializer {
	capSlots := budgetBytes / slotBytes
	if capSlots < 1 {
		capSlots = 1
	}
	m := &Materializer{
		w:     w,
		index: make(map[int32]int32, capSlots),
		slots: make([]arenaSlot, capSlots),
	}
	for i := range m.slots {
		m.slots[i].gid = -1
	}
	return m
}

// ResidentBytes returns the bytes of device state currently resident.
func (m *Materializer) ResidentBytes() int { return len(m.index) * slotBytes }

// TakeStats returns the activity since the previous call and resets the
// deltas. Shard drains fold these into the obs counters in a
// deterministic order.
func (m *Materializer) TakeStats() ArenaStats {
	s := m.stats
	m.stats = ArenaStats{}
	return s
}

// Device materializes gid, from cache when resident.
func (m *Materializer) Device(gid int32) *Device {
	if si, ok := m.index[gid]; ok {
		s := &m.slots[si]
		s.ref = true
		m.stats.Hits++
		return &s.dev
	}
	// Clock sweep: clear reference bits until an unreferenced slot
	// turns up, then recycle it.
	var si int
	for {
		si = m.hand
		m.hand++
		if m.hand == len(m.slots) {
			m.hand = 0
		}
		if s := &m.slots[si]; s.gid >= 0 && s.ref {
			s.ref = false
			continue
		}
		break
	}
	s := &m.slots[si]
	if s.gid >= 0 {
		delete(m.index, s.gid)
		m.stats.Evictions++
	}
	s.gid = gid
	s.ref = true
	m.index[gid] = int32(si)
	m.stats.Materializations++
	m.w.materializeInto(gid, &s.dev, &m.scratch)
	return &s.dev
}

// Snapshot captures the arena's resident set and clock position.
// Pending stats deltas are not captured: drains fold them into the obs
// registry before a checkpoint is cut.
func (m *Materializer) Snapshot() *ArenaState {
	st := &ArenaState{
		Slots: make([]int32, len(m.slots)),
		Refs:  make([]byte, (len(m.slots)+7)/8),
		Hand:  m.hand,
	}
	for i := range m.slots {
		st.Slots[i] = m.slots[i].gid
		if m.slots[i].ref {
			st.Refs[i/8] |= 1 << (i % 8)
		}
	}
	return st
}

// Restore rebuilds the arena from a snapshot, re-deriving every
// resident device. The snapshot must come from an arena of the same
// capacity (i.e. the same byte budget). Snapshots are read back from
// disk, so the whole of it is validated before the arena is touched: a
// rejected snapshot leaves the arena as it was.
func (m *Materializer) Restore(st *ArenaState) error {
	if len(st.Slots) != len(m.slots) {
		return fmt.Errorf("world: arena snapshot has %d slots, arena has %d (byte budget changed?)",
			len(st.Slots), len(m.slots))
	}
	if st.Hand < 0 || st.Hand >= len(m.slots) {
		return fmt.Errorf("world: arena snapshot hand %d out of range", st.Hand)
	}
	index := make(map[int32]int32, len(m.slots))
	for i, gid := range st.Slots {
		if gid == -1 {
			continue
		}
		// Snapshot re-emits slot IDs verbatim, so an ID below -1 would
		// drift checkpoint bytes; a repeated ID would have its live index
		// entry deleted by the first eviction of either slot.
		if gid < 0 || gid >= m.w.deviceTotal {
			return fmt.Errorf("world: arena snapshot slot %d: gid %d outside population %d", i, gid, m.w.deviceTotal)
		}
		if prev, dup := index[gid]; dup {
			return fmt.Errorf("world: arena snapshot slots %d and %d both hold gid %d", prev, i, gid)
		}
		index[gid] = int32(i)
	}
	m.index = index
	m.hand = st.Hand
	m.stats = ArenaStats{}
	for i := range m.slots {
		s := &m.slots[i]
		s.gid = st.Slots[i]
		s.ref = len(st.Refs) > i/8 && st.Refs[i/8]&(1<<(i%8)) != 0
		if s.gid >= 0 {
			m.w.materializeInto(s.gid, &s.dev, &m.scratch)
		}
	}
	return nil
}
