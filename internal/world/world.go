// Package world generates and operates the synthetic IPv6 Internet
// population the reproduction measures. It stands in for the paper's
// actual measurement subject — roughly three billion observed client
// addresses behind the NTP Pool — which cannot be reached from here.
//
// The world is generated from device profiles (consumer CPE, phones,
// servers, IoT brokers, CDN edges, routers; see profiles.go) placed into
// countries and autonomous systems, with per-profile addressing
// behaviour (EUI-64, privacy rotation, manual numbering), dynamic-prefix
// churn, service exposure, and security posture. Every downstream number
// is re-measured through the NTP capture servers and the scan pipeline;
// nothing reads the generator's ground truth directly.
//
// Two scale knobs keep experiments tractable: DeviceScale scales the
// scan-responsive population (the paper's Tables 2/3 universe) and
// AddrScale scales the address-only eyeball population that dominates
// collection volume (Table 1/7 universe). EXPERIMENTS.md compares shapes,
// never absolute counts.
package world

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"ntpscan/internal/asn"
	"ntpscan/internal/geo"
	"ntpscan/internal/ipv6x"
	"ntpscan/internal/netsim"
	"ntpscan/internal/oui"
	"ntpscan/internal/rng"
)

// CollectionWindow is the paper's address-collection span (July 20 to
// August 16, 2024: four weeks).
const CollectionWindow = 28 * 24 * time.Hour

// Config tunes world generation.
type Config struct {
	// Seed makes the whole world reproducible.
	Seed uint64
	// DeviceScale multiplies the scan-responsive populations
	// (default 0.01).
	DeviceScale float64
	// AddrScale multiplies the address-only eyeball populations
	// (default 1e-5, yielding ~30k distinct collected addresses).
	AddrScale float64
	// ASScale multiplies per-country AS counts (default 0.05).
	ASScale float64
	// Start is the collection start instant (default 2024-07-20 UTC).
	Start time.Time
	// DialTimeout is the fabric's blackhole patience (default 5 ms;
	// mass experiments drop it to ~100 µs — the fabric has no real
	// latency, so a silent address is silent immediately).
	DialTimeout time.Duration
}

func (c *Config) fillDefaults() {
	if c.DeviceScale == 0 {
		c.DeviceScale = 0.01
	}
	if c.AddrScale == 0 {
		c.AddrScale = 1e-5
	}
	if c.ASScale == 0 {
		c.ASScale = 0.05
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Millisecond
	}
}

// CountrySpec describes one country's population parameters. ClientPop
// follows the paper's Table 7 ordering (captured addresses per vantage
// country: India dominates by two orders of magnitude over the
// Netherlands).
type CountrySpec struct {
	Code      string
	Name      string
	ClientPop float64 // relative syncing-client mass in the zone
	PoolBG    float64 // third-party pool servers (background weight)
	Vantage   bool    // the paper deploys a capture server here
	// AS counts at full scale.
	EyeballASes, ContentASes, NSPASes, EnterpriseASes int
	// EyeballDensity is how many devices share a /48 in eyeball ASes
	// (mobile carriers pack customers densely; DSL sparsely).
	EyeballDensity int
}

// countries is the world's country table: the 11 vantage countries plus
// a tail of others whose clients rarely reach our servers (global-zone
// fallback only).
func countrySpecs() []CountrySpec {
	return []CountrySpec{
		// Vantage countries; ClientPop shaped after Table 7.
		{Code: "IN", Name: "India", ClientPop: 2569, PoolBG: 40, Vantage: true,
			EyeballASes: 900, ContentASes: 400, NSPASes: 150, EnterpriseASes: 300, EyeballDensity: 420},
		{Code: "BR", Name: "Brazil", ClientPop: 224, PoolBG: 60, Vantage: true,
			EyeballASes: 2200, ContentASes: 500, NSPASes: 200, EnterpriseASes: 400, EyeballDensity: 40},
		{Code: "JP", Name: "Japan", ClientPop: 69, PoolBG: 80, Vantage: true,
			EyeballASes: 500, ContentASes: 450, NSPASes: 140, EnterpriseASes: 350, EyeballDensity: 25},
		{Code: "ZA", Name: "South Africa", ClientPop: 37, PoolBG: 25, Vantage: true,
			EyeballASes: 300, ContentASes: 150, NSPASes: 60, EnterpriseASes: 120, EyeballDensity: 30},
		{Code: "ES", Name: "Spain", ClientPop: 33, PoolBG: 70, Vantage: true,
			EyeballASes: 350, ContentASes: 250, NSPASes: 80, EnterpriseASes: 200, EyeballDensity: 12},
		{Code: "GB", Name: "United Kingdom", ClientPop: 31, PoolBG: 140, Vantage: true,
			EyeballASes: 450, ContentASes: 500, NSPASes: 120, EnterpriseASes: 350, EyeballDensity: 10},
		{Code: "DE", Name: "Germany", ClientPop: 26, PoolBG: 220, Vantage: true,
			EyeballASes: 550, ContentASes: 700, NSPASes: 160, EnterpriseASes: 450, EyeballDensity: 6},
		{Code: "US", Name: "United States", ClientPop: 24, PoolBG: 480, Vantage: true,
			EyeballASes: 1500, ContentASes: 1800, NSPASes: 400, EnterpriseASes: 900, EyeballDensity: 8},
		{Code: "PL", Name: "Poland", ClientPop: 19, PoolBG: 55, Vantage: true,
			EyeballASes: 600, ContentASes: 250, NSPASes: 90, EnterpriseASes: 180, EyeballDensity: 12},
		{Code: "AU", Name: "Australia", ClientPop: 10, PoolBG: 60, Vantage: true,
			EyeballASes: 350, ContentASes: 300, NSPASes: 80, EnterpriseASes: 200, EyeballDensity: 10},
		{Code: "NL", Name: "the Netherlands", ClientPop: 9, PoolBG: 130, Vantage: true,
			EyeballASes: 250, ContentASes: 500, NSPASes: 100, EnterpriseASes: 250, EyeballDensity: 6},
		// Non-vantage tail: their clients stay with background servers.
		{Code: "FR", Name: "France", ClientPop: 30, PoolBG: 150,
			EyeballASes: 400, ContentASes: 450, NSPASes: 110, EnterpriseASes: 300, EyeballDensity: 8},
		{Code: "IT", Name: "Italy", ClientPop: 22, PoolBG: 90,
			EyeballASes: 350, ContentASes: 300, NSPASes: 90, EnterpriseASes: 250, EyeballDensity: 10},
		{Code: "CN", Name: "China", ClientPop: 400, PoolBG: 45,
			EyeballASes: 500, ContentASes: 400, NSPASes: 150, EnterpriseASes: 300, EyeballDensity: 300},
		{Code: "KR", Name: "South Korea", ClientPop: 25, PoolBG: 35,
			EyeballASes: 150, ContentASes: 200, NSPASes: 60, EnterpriseASes: 150, EyeballDensity: 40},
		{Code: "CA", Name: "Canada", ClientPop: 9, PoolBG: 80,
			EyeballASes: 250, ContentASes: 300, NSPASes: 80, EnterpriseASes: 200, EyeballDensity: 8},
		{Code: "SE", Name: "Sweden", ClientPop: 6, PoolBG: 70,
			EyeballASes: 150, ContentASes: 250, NSPASes: 60, EnterpriseASes: 150, EyeballDensity: 6},
		{Code: "CH", Name: "Switzerland", ClientPop: 5, PoolBG: 75,
			EyeballASes: 120, ContentASes: 250, NSPASes: 50, EnterpriseASes: 150, EyeballDensity: 6},
		{Code: "VN", Name: "Vietnam", ClientPop: 60, PoolBG: 15,
			EyeballASes: 120, ContentASes: 80, NSPASes: 40, EnterpriseASes: 80, EyeballDensity: 200},
		{Code: "TH", Name: "Thailand", ClientPop: 40, PoolBG: 20,
			EyeballASes: 140, ContentASes: 90, NSPASes: 40, EnterpriseASes: 90, EyeballDensity: 150},
		{Code: "MX", Name: "Mexico", ClientPop: 20, PoolBG: 25,
			EyeballASes: 200, ContentASes: 120, NSPASes: 50, EnterpriseASes: 120, EyeballDensity: 50},
	}
}

// Country is a generated country with its AS lists.
type Country struct {
	Spec    CountrySpec
	Index   int
	Eyeball []*AS
	Content []*AS
	NSP     []*AS
	Entpr   []*AS
}

// AS is one generated autonomous system.
type AS struct {
	Number  uint32
	Country string
	Type    asn.Type
	// Hi32 is the top 32 bits of the /32 allocation.
	Hi32 uint32
	// Cust48Pool is the number of distinct customer /48s addresses are
	// spread over.
	Cust48Pool int
	// deviceCount tracks how many devices landed here (for pool
	// sizing).
	deviceCount int
}

// Prefix returns the AS's announced /32.
func (a *AS) Prefix() netip.Prefix {
	return netip.PrefixFrom(ipv6x.FromParts(uint64(a.Hi32)<<32, 0), 32)
}

// Device is one simulated machine.
type Device struct {
	ID      int
	Profile *Profile
	AS      *AS
	Country string
	role    Role

	// MAC is the embedded hardware address for universal-MAC EUI-64
	// devices; locally administered EUI devices derive a fresh MAC per
	// address epoch.
	MAC    ipv6x.MAC
	HasMAC bool

	// Security/identity material (responsive devices only).
	TLSEnabled bool
	AuthOn     bool
	PatchRev   int
	CertSerial uint64
	KeyID      [16]byte // shared across devices when reused
	KeySlot    int      // -1 = unique key, else reuse-pool slot

	// epochLen/phase drive address churn.
	epochLen time.Duration
	phase    time.Duration

	// registration state for responsive devices. mu serialises epoch
	// rollovers so sharded collection workers can resolve the same
	// device concurrently; the address itself is a pure function of
	// (seed, device, epoch), so whichever worker wins sees the same
	// value.
	mu        sync.Mutex
	lastEpoch int64
	lastAddr  netip.Addr
	host      *netsim.Host
}

// World is the generated population plus its registries and fabric.
type World struct {
	Cfg       Config
	fabric    *netsim.Network
	clock     *netsim.ManualClock
	ASReg     *asn.Registry
	Geo       *geo.DB
	OUIReg    *oui.Registry
	Countries []*Country

	// segments partitions the global device-ID space by (profile,
	// role); device state is derived on demand from the ID alone (see
	// materialize.go). deviceTotal is the ID-space size.
	segments    []segment
	deviceTotal int32
	// reachable holds the scan-reachable population (the devices with
	// fabric state) — the only devices the world keeps resident.
	reachable []*Device

	// Per-country sync-sampling indexes over the address-only NTP
	// clients: device IDs with cumulative sync weights for O(log n)
	// weighted sampling, total sync mass, and summed address epochs.
	clientIDs map[string][]int32
	cumSync   map[string][]float64
	syncMass  map[string]float64
	epochMass map[string]int64

	root *rng.Stream
}

// New builds a world. Generation is deterministic in cfg.
func New(cfg Config) *World {
	cfg.fillDefaults()
	root := rng.New(cfg.Seed ^ 0x776f726c64)
	clock := netsim.NewManualClock(cfg.Start)
	w := &World{
		Cfg:       cfg,
		fabric:    netsim.New(netsim.Config{Clock: clock, DialTimeout: cfg.DialTimeout, Seed: cfg.Seed}),
		clock:     clock,
		ASReg:     asn.NewRegistry(),
		Geo:       geo.NewDB(),
		OUIReg:    oui.Default(),
		clientIDs: make(map[string][]int32),
		cumSync:   make(map[string][]float64),
		syncMass:  make(map[string]float64),
		epochMass: make(map[string]int64),
		root:      root,
	}
	w.buildTopology(root.Derive("topology"))
	w.buildSegments()
	w.countPlacement()
	w.buildReachable()
	return w
}

// Fabric returns the network fabric the world is registered on.
func (w *World) Fabric() *netsim.Network { return w.fabric }

// Clock returns the world's logical clock.
func (w *World) Clock() *netsim.ManualClock { return w.clock }

// buildTopology creates countries, ASes, announcements, and geo mapping.
func (w *World) buildTopology(r *rng.Stream) {
	specs := countrySpecs()
	nextASN := uint32(201000)
	for ci, spec := range specs {
		c := &Country{Spec: spec, Index: ci}
		mk := func(n int, typ asn.Type, dst *[]*AS) {
			count := scaleCount(n, w.Cfg.ASScale, 1)
			for i := 0; i < count; i++ {
				a := &AS{
					Number:  nextASN,
					Country: spec.Code,
					Type:    typ,
					Hi32:    0x2a000000 | uint32(ci)<<16 | uint32(len(*dst)) | uint32(typeOffset(typ))<<12,
				}
				nextASN++
				*dst = append(*dst, a)
				w.ASReg.Register(asn.AS{
					Number: a.Number, Country: spec.Code, Type: typ,
					Name: fmt.Sprintf("%s-%s-%d", spec.Code, typ, i),
				})
				w.ASReg.Announce(a.Prefix(), a.Number)
				w.Geo.MapPrefix(a.Prefix(), spec.Code)
			}
		}
		mk(spec.EyeballASes, asn.TypeCableDSLISP, &c.Eyeball)
		mk(spec.ContentASes, asn.TypeContent, &c.Content)
		mk(spec.NSPASes, asn.TypeNSP, &c.NSP)
		mk(spec.EnterpriseASes, asn.TypeEnterprise, &c.Entpr)
		w.Countries = append(w.Countries, c)
	}
	_ = r
}

// typeOffset separates AS index spaces per type within a country block
// so /32s never collide.
func typeOffset(t asn.Type) int {
	switch t {
	case asn.TypeCableDSLISP:
		return 0
	case asn.TypeContent:
		return 4
	case asn.TypeNSP:
		return 8
	case asn.TypeEnterprise:
		return 12
	default:
		return 14
	}
}

// scaleCount scales a full-scale count down, with probabilistic rounding
// replaced by deterministic floor + minimum.
func scaleCount(full int, scale float64, min int) int {
	n := int(float64(full) * scale)
	if n < min {
		n = min
	}
	return n
}
