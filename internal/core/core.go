// Package core orchestrates the paper's end-to-end measurement
// pipeline — the primary contribution being reproduced:
//
//  1. deploy capture-enabled NTP servers into underserved pool zones
//     and tune their netspeed until the capture rate matches the scan
//     budget (§3.1);
//  2. collect client addresses for the four-week window, feeding every
//     new address to the zgrab scanner in real time (§4.1);
//  3. build and batch-scan the TUM-style hitlist in the final week for
//     comparison;
//  4. run an R&L-era collection for the Table 1 replication column;
//  5. hand everything to the analysis package.
//
// The collect→scan hot path is sharded: the capture stream is split
// into Config.CollectShards deterministic sub-streams executed by up to
// Config.Workers goroutines, and merged in canonical shard order. The
// decomposition is part of the experiment definition (like Seed);
// Workers only sets concurrency and never affects output. See DESIGN.md
// "Concurrency & determinism".
package core

import (
	"net/netip"
	"sync/atomic"
	"time"

	"ntpscan/internal/analysis"
	"ntpscan/internal/ipv6x"
	"ntpscan/internal/netsim"
	"ntpscan/internal/netsim/link"
	"ntpscan/internal/ntp"
	"ntpscan/internal/ntppool"
	"ntpscan/internal/obs"
	"ntpscan/internal/rng"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
	"ntpscan/internal/zgrab"
)

// Config tunes the pipeline.
type Config struct {
	// Seed drives everything; same seed, same experiment.
	Seed uint64
	// World generation parameters.
	World world.Config
	// CaptureBudget is the number of volume-channel capture events
	// (address-only eyeball syncs reaching our servers). Zero derives
	// ~3 events per expected distinct address.
	CaptureBudget int
	// Workers for the scan pool and the collection fan-out. Workers is
	// pure concurrency: any value produces bit-identical output for a
	// given (Seed, scales, CollectShards).
	Workers int
	// CollectShards is the number of deterministic sub-streams the
	// collection is decomposed into (default 32). It is part of the
	// experiment definition like Seed — changing it changes the sampled
	// stream — and bounds the useful collection parallelism.
	CollectShards int
	// ArenaBytes is each collection shard's device-arena byte budget
	// (default 256 KiB). Sampled client devices are materialized on
	// demand into the arena and evicted clock-wise when it fills, so the
	// pipeline's resident device state is bounded regardless of how
	// large the address-only population grows. Like CollectShards, the
	// budget is part of the experiment definition: checkpoints snapshot
	// arena contents and only resume onto the same budget.
	ArenaBytes int
	// Timeout per scan connection; UDPTimeout for connectionless
	// probes.
	Timeout    time.Duration
	UDPTimeout time.Duration
	// Faults, when set, is installed on the fabric at construction: the
	// campaign runs under the plan's scheduled outages, loss bursts,
	// slow links and garbled banners. The (Seed, Faults) pair defines
	// the experiment exactly as Seed alone does a clean one.
	Faults *netsim.FaultPlan
	// Retry gives each scan probe retries with exponential backoff
	// (nil: single attempt, the pre-robustness behaviour).
	Retry *zgrab.RetryPolicy
	// Breaker enables the scanner's per-prefix circuit breaker.
	Breaker *zgrab.BreakerConfig
}

// targetShare is the per-zone traffic share the netspeed controller
// aims for (the paper tuned netspeed until the request rate matched the
// scanning budget).
const targetShare = 0.08

// responsiveDupRate is the expected number of *extra* captures of a
// responsive device in later address epochs (dynamic addresses
// re-captured; drives the addrs-per-cert ratio of Table 2).
const responsiveDupRate = 0.8

func (c *Config) fillDefaults() {
	c.World.Seed = c.Seed
	if c.Workers < 1 {
		c.Workers = 64
	}
	if c.CollectShards < 1 {
		c.CollectShards = 32
	}
	if c.ArenaBytes < 1 {
		c.ArenaBytes = 256 << 10
	}
	if c.Timeout == 0 {
		c.Timeout = 50 * time.Millisecond
	}
	if c.UDPTimeout == 0 {
		c.UDPTimeout = 2 * time.Millisecond
	}
	if c.World.DialTimeout == 0 {
		c.World.DialTimeout = 100 * time.Microsecond
	}
}

// VantageServer is one of our capture deployments.
type VantageServer struct {
	ID      string
	Country string
	Addr    netip.Addr
	NTP     *ntp.Server

	// idx is the server's position in Pipeline.Servers; the dense index
	// behind the per-vantage counter slices and the shards' server
	// tables (hot paths index instead of hashing country strings).
	idx int
}

// Pipeline is a deployed experiment.
type Pipeline struct {
	Cfg  Config
	W    *world.World
	Pool *ntppool.Pool
	Ctx  *analysis.Context
	// Monitor is the pool's health monitor. The collection driver
	// probes every vantage once per slice; a blacked-out vantage drops
	// below MinScore, its capture stream pauses, and the zone's traffic
	// re-maps to the remaining weights until it recovers.
	Monitor *ntppool.Monitor
	// Obs is the pipeline's metrics registry: every subsystem the
	// pipeline assembles (collection, scanner, pool monitor, NTP
	// servers, fabric faults) registers here, campaign checkpoints
	// snapshot it, and the campaign's telemetry stream serialises it
	// once per slice.
	Obs *obs.Registry

	Servers []*VantageServer

	// Collection outputs. Summary and EUI are fed at each slice's drain
	// barrier (and by a resume's capture-log replay), always on the
	// campaign goroutine; PerCountry and Captures are published at the
	// end of each Collect.
	Summary    *analysis.AddrSummary
	EUI        *analysis.EUI64Stats
	PerCountry map[string]int // distinct addresses per vantage country
	Captures   int            // total capture events

	rng *rng.Stream
	// respCache memoises the responsive NTP population; respServers
	// holds, at the same index, the vantage that captures each device
	// (nil when its country has none), so the per-slice walk resolves
	// no country.
	respCache   []*world.Device
	respServers []*VantageServer

	// serverByCountry indexes Servers by country code.
	serverByCountry map[string]*VantageServer

	// Counters behind PerCountry and Captures. perCountryN is indexed
	// by VantageServer.idx, sized at deploy time (the vantage set is
	// fixed), and like Summary/EUI only moves on the campaign goroutine.
	// captures is atomic because a fabric-registered vantage server
	// books stray NTP traffic on whichever goroutine sent it (see
	// deployServers).
	captures    atomic.Int64
	perCountryN []int

	// respCaptured tracks which responsive devices have had their
	// guaranteed first capture. Indexed like responsive(); shard i owns
	// indices ≡ i (mod nshards), so concurrent writes never touch the
	// same element. A device whose slice fell inside a vantage outage
	// stays unmarked and is caught up in the next healthy slice — the
	// self-healing that lets faulted campaigns converge to clean ones.
	respCaptured []bool

	// recordCaps turns on the capture log feeding checkpoints and the
	// campaign's sink: each first-seen (addr, country) pair, in capture
	// order. Replaying the log into fresh accumulators reproduces
	// Summary/EUI/PerCountry exactly on resume.
	recordCaps bool
	capLog     []store.CaptureRow

	// feedBuf is commitShard's reusable scratch: one shard's slice feed
	// (every captured address, duplicates included) built from its event
	// buffer and handed to the scan batch callback at the barrier.
	feedBuf []netip.Addr

	// dispatch, when set, replaces the built-in worker pool as the
	// executor of each slice's shard tasks (see CampaignOpts.Dispatch).
	// refs caches the ShardRef handles handed to it. dispatchErr holds
	// the first error a dispatcher returned: once set, the remaining
	// slices are skipped and RunCampaign fails with it.
	dispatch    DispatchFunc
	dispatchErr error
	refs        []ShardRef

	// restoreCp, when set, seeds makeCollectShards with checkpointed
	// stream positions instead of fresh derivations, and restoreArenas
	// with the shard arenas restore() already rebuilt from it (there,
	// because a bad arena snapshot is an error ResumeCampaign returns).
	restoreCp     *Checkpoint
	restoreArenas []*world.Materializer

	// met holds the pipeline's metric handles (see obsmetrics.go).
	met *pipelineMetrics
}

// NewPipeline builds the world and deploys the vantage servers.
func NewPipeline(cfg Config) *Pipeline {
	cfg.fillDefaults()
	w := world.New(cfg.World)
	p := &Pipeline{
		Cfg:  cfg,
		W:    w,
		Pool: ntppool.New(),
		Ctx: &analysis.Context{
			AS:  w.ASReg,
			Geo: w.Geo,
			OUI: w.OUIReg,
		},
		serverByCountry: make(map[string]*VantageServer),
		rng:             rng.New(cfg.Seed ^ 0xc0fe),
	}
	p.Summary = analysis.NewAddrSummary(p.Ctx)
	p.EUI = analysis.NewEUI64Stats(p.Ctx)
	p.Obs = obs.NewRegistry()
	p.met = newPipelineMetrics(p.Obs)
	p.Monitor = ntppool.NewMonitor(p.Pool)
	p.Monitor.SetMetrics(p.met.pool)
	p.deployServers()
	w.Fabric().SetFaultMetrics(netsim.NewFaultMetrics(p.Obs))
	w.Fabric().SetLinkMetrics(link.NewMetrics(p.Obs))
	if cfg.Faults != nil {
		w.Fabric().InstallFaults(cfg.Faults)
	}
	return p
}

// InstallFaults installs (or, with nil, removes) a fault plan on the
// running pipeline's fabric. Install before the campaign starts; the
// same plan must be installed on a fresh pipeline before resuming one
// of its checkpoints.
func (p *Pipeline) InstallFaults(plan *netsim.FaultPlan) {
	p.Cfg.Faults = plan
	p.W.Fabric().InstallFaults(plan)
}

// deployServers places one capture server per vantage country (§3.1
// selected countries with few pool servers relative to routed space)
// and runs the netspeed controller.
func (p *Pipeline) deployServers() {
	for _, c := range p.W.Countries {
		spec := c.Spec
		p.Pool.SetBackground(spec.Code, spec.PoolBG)
		if !spec.Vantage {
			continue
		}
		country := spec.Code
		addr := ipv6x.FromParts(0x2a10_0000_0000_0000|uint64(c.Index)<<32, 0x123)
		vs := &VantageServer{ID: "ours-" + country, Country: country, Addr: addr, idx: len(p.Servers)}
		srv := ntp.NewServer(ntp.ServerConfig{
			Now:     p.W.Clock().Now,
			Metrics: p.met.ntp,
			// The campaign's own syncs go through the shard clones of
			// this server (makeCollectShards), whose hooks buffer into
			// their shard. What reaches the registered address is stray
			// fabric traffic: there is no shard and no barrier to defer
			// to, so it is only counted.
			Capture: func(netip.AddrPort, time.Time) {
				p.captures.Add(1)
				p.met.captures.Inc()
			},
		})
		vs.NTP = srv
		p.W.Fabric().Register(addr, netsim.NewHost("vantage-"+country).HandleUDP(ntp.Port, srv.Handle))
		p.Servers = append(p.Servers, vs)
		p.serverByCountry[country] = vs
		p.Pool.AddServer(&ntppool.Server{
			ID: vs.ID, Country: country, Addr: addr, NetSpeed: 1,
		})
		p.tuneNetspeed(vs)
	}
	p.Pool.SetGlobalBackground(5000)
	p.perCountryN = make([]int, len(p.Servers))
	p.PerCountry = make(map[string]int, len(p.Servers))
	codes := make([]string, len(p.Servers))
	for i, vs := range p.Servers {
		codes[i] = vs.Country
	}
	p.met.registerVantage(p.Obs, codes)
}

// tuneNetspeed raises the server's weight step by step until its zone
// share reaches the target — the monitor-and-increase loop of §3.1.
func (p *Pipeline) tuneNetspeed(vs *VantageServer) {
	speed := 1.0
	for i := 0; i < 64; i++ {
		if p.Pool.ShareEstimate(vs.Country) >= targetShare {
			return
		}
		speed *= 1.5
		p.Pool.SetNetSpeed(vs.ID, speed)
	}
}

// ServerByCountry returns the vantage deployment for a country.
func (p *Pipeline) ServerByCountry(code string) (*VantageServer, bool) {
	vs, ok := p.serverByCountry[code]
	return vs, ok
}

// captureVia routes one client sync through the shard's clone of the
// vantage server: admit plus an exchange of one (the responsive
// channel). It reports whether the sync was answered. The request is
// encoded and the response received in the shard's scratch buffers —
// zero heap allocations per capture in steady state (asserted by
// TestCaptureFastPathZeroAlloc). The clone runs the same ntp.Server
// logic as the fabric-registered server;
// TestCodecCaptureMatchesFabricExchange holds the two to each other.
func (p *Pipeline) captureVia(sh *collectShard, vs *VantageServer, client netip.Addr) bool {
	now := p.W.Clock().Now()
	return p.admit(sh, vs, client, now) && p.exchange(sh, vs, now) == 1
}

// volumeBatch emits n volume-channel events for one vantage: admit per
// sampled client, then one exchange for all of them. Every client in a
// frozen slice sends the same mode-3 request, so the slab is encoded by
// stride copy, decoded once, and answered with one RespondBatch call
// instead of n codec round-trips.
func (p *Pipeline) volumeBatch(sh *collectShard, vs *VantageServer, n int) {
	now := p.W.Clock().Now()
	for i := 0; i < n; i++ {
		gid := p.W.SampleClientID(vs.Country, sh.vol)
		if gid < 0 {
			continue
		}
		p.admit(sh, vs, p.W.CurrentAddr(sh.arena.Device(gid), now), now)
	}
	p.exchange(sh, vs, now)
}

// admit draws the client's source port and queues its sync for the
// next exchange, unless the vantage is blacked out by the fault plan or
// the link layer blocks the round trip (request through the vantage's
// link, response through the client's; the codec call does not cross
// the fabric, so it is modelled here). A sync that fails either check
// is a drop. The port is drawn first, so the shard's stream schedule
// does not depend on the plan's timing, and the link admit hash
// excludes the payload, so both channels agree on which exchanges
// survive.
func (p *Pipeline) admit(sh *collectShard, vs *VantageServer, client netip.Addr, now time.Time) bool {
	port := 40000 + uint16(sh.ports.Intn(20000))
	fabric := p.W.Fabric()
	if !fabric.HostUp(vs.Addr, now) || !fabric.LinkAdmit(client, vs.Addr, port) {
		sh.dropped[vs.idx]++
		return false
	}
	sh.clients = append(sh.clients, netip.AddrPortFrom(client, port))
	return true
}

// exchange sends every queued client's request to the vantage in one
// RespondBatch call and empties the queue. A request left unanswered
// is a drop. It returns how many were answered.
func (p *Pipeline) exchange(sh *collectShard, vs *VantageServer, now time.Time) int {
	clients := sh.clients
	sh.clients = clients[:0]
	if len(clients) == 0 {
		return 0
	}
	req := ntp.ClientPacket(now)
	pkts := sh.pkts[:0]
	for range clients {
		pkts = append(pkts, req)
	}
	sh.pkts = pkts
	sh.reqBuf = ntp.EncodeBatch(pkts, sh.reqBuf[:0])
	var answered int
	sh.respBuf, answered = sh.ntp[vs.idx].RespondBatch(clients, sh.reqBuf, sh.respBuf[:0], nil)
	sh.dropped[vs.idx] += int64(len(clients) - answered)
	return answered
}
