package core

import (
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ntpscan/internal/analysis"
	"ntpscan/internal/ntp"
	"ntpscan/internal/obs"
	"ntpscan/internal/rng"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
)

// collectShard is one deterministic sub-stream of the collection. Each
// shard owns derived rng streams (a pure function of the root seed and
// the shard index), per-vantage NTP server clones whose capture hooks
// tag this shard, and a feed buffer of captured addresses. Shards never
// share mutable state, so any number of them can run concurrently; the
// slice driver merges feed buffers in ascending shard order.
type collectShard struct {
	idx   int
	vol   *rng.Stream // volume-channel sampling
	resp  *rng.Stream // responsive-channel re-capture draws
	ports *rng.Stream // client source ports
	// ntp holds the shard's clone of every vantage's capture server,
	// indexed by VantageServer.idx; their hooks record into this shard.
	ntp []*ntp.Server
	// arena bounds the shard's resident device state: sampled clients
	// are materialized on demand and clock-evicted when the byte budget
	// fills. One arena per shard keeps lookups lock-free and the
	// hit/miss sequence a pure function of the shard's draw stream, so
	// the folded counters stay byte-identical across worker counts.
	arena *world.Materializer
	// reqBuf/respBuf are the shard's reusable NTP wire buffers: every
	// exchange encodes its request slab and receives its response slab
	// here, so steady-state captures allocate nothing. Owned by exactly
	// one shard, never shared — pooling per shard keeps the buffers out
	// of any cross-goroutine ordering.
	reqBuf  []byte
	respBuf []byte
	// pkts/clients are the exchange's scratch: the requests of the
	// clients admit queued, for one RespondBatch call. High-water
	// capacity is kept across slices.
	pkts    []ntp.Packet
	clients []netip.AddrPort
	// events buffers this shard's captures within the current slice —
	// address, vantage, and channel, in exact capture order.
	// Preallocated from the capture budget so steady-state appends
	// never grow it. Nothing global is touched while a shard executes:
	// the drain barrier replays each shard's events into the shared
	// accumulators in ascending shard order (commitShard), which makes
	// first-seen attribution — and so the checkpoint capture log and
	// the store's capture rows — a pure function of the experiment,
	// never of worker scheduling, and lets an external dispatcher
	// discard a fenced execution without a trace.
	events []capEvent
	// dropped counts capture attempts lost per vantage this slice,
	// folded into the capture_dropped_total vector at the barrier.
	dropped []int64
	// ntpMet is the shard's private NTP-counter buffer: the per-shard
	// server clones account here, and the barrier folds the deltas into
	// the fleet-wide families.
	ntpMet *ntp.ServerMetrics
	// respSet holds responsive-population indices whose guaranteed
	// first capture landed this slice; committed into the shared bitmap
	// at the barrier. Each index is visited at most once per slice, so
	// deferring the bitmap write never changes an execution's reads.
	respSet []int32
	// volumeStats gates collection statistics: only volume-channel
	// captures count toward Tables 1/4/7 and Figures 1/4. The
	// responsive channel is a DeviceScale population — at full scale it
	// contributes a negligible sliver of the 3B collected addresses,
	// but at bench scale ratios it would swamp the AddrScale-denominated
	// statistics (see DESIGN.md on the two-scale substitution).
	volumeStats bool
}

// capEvent is one buffered capture: the facts the barrier needs to
// replay the event against the shared accumulators.
type capEvent struct {
	addr    netip.Addr
	vantage int32
	volume  bool
}

// makeCollectShards derives the shard set. Shard i's streams are
// Derive("volume/shard/i") etc. off the pipeline stream — stable across
// runs and independent of the worker count. On a resumed pipeline the
// streams are fast-forwarded to their checkpointed positions instead.
func (p *Pipeline) makeCollectShards() []*collectShard {
	shards := make([]*collectShard, p.Cfg.CollectShards)
	// Size each shard's feed for its slice share of the capture budget
	// (volume events split across slices and shards, plus headroom for
	// the responsive channel) so steady-state appends never regrow it.
	feedCap := p.captureBudget()/(collectSlices*len(shards)) + 64
	for i := range shards {
		sh := &collectShard{
			idx:     i,
			vol:     p.rng.DeriveIndexed("volume/shard", i),
			resp:    p.rng.DeriveIndexed("responsive/shard", i),
			ports:   p.rng.DeriveIndexed("ports/shard", i),
			ntp:     make([]*ntp.Server, len(p.Servers)),
			reqBuf:  make([]byte, 0, ntp.PacketSize),
			respBuf: make([]byte, 0, ntp.PacketSize),
			events:  make([]capEvent, 0, feedCap),
			dropped: make([]int64, len(p.Servers)),
			ntpMet: &ntp.ServerMetrics{
				Requests:    obs.LocalCounter(),
				Answered:    obs.LocalCounter(),
				RateLimited: obs.LocalCounter(),
			},
		}
		if p.restoreCp != nil {
			st := p.restoreCp.Shards[i]
			sh.vol.SetState(st.Vol)
			sh.resp.SetState(st.Resp)
			sh.ports.SetState(st.Ports)
			sh.arena = p.restoreArenas[i]
		} else {
			sh.arena = p.W.NewMaterializer(p.Cfg.ArenaBytes)
		}
		for _, vs := range p.Servers {
			vi := vs.idx
			sh.ntp[vi] = ntp.NewServer(ntp.ServerConfig{
				Now: p.W.Clock().Now,
				// Shard clones account into the shard's private buffer;
				// the barrier folds the deltas into the same books as the
				// fabric-registered vantage servers, so totals read per
				// fleet.
				Metrics: sh.ntpMet,
				// Captures buffer in the shard until the drain barrier
				// (see collectShard.events).
				Capture: func(client netip.AddrPort, _ time.Time) {
					sh.events = append(sh.events, capEvent{addr: client.Addr(), vantage: int32(vi), volume: sh.volumeStats})
				},
			})
		}
		shards[i] = sh
	}
	return shards
}

// captureBudget resolves Config.CaptureBudget with its default.
func (p *Pipeline) captureBudget() int {
	if p.Cfg.CaptureBudget != 0 {
		return p.Cfg.CaptureBudget
	}
	return 3 * p.expectedDistinct()
}

// collectQuota is one vantage country's volume-channel event budget.
type collectQuota struct {
	vs     *VantageServer
	events int
}

// Collect runs the four-week address collection. Capture events arrive
// on two channels:
//
//   - the volume channel samples the address-only eyeball population
//     per country, weighted by sync mass and the tuned zone share —
//     this produces the Table 1/7 address bulk;
//   - the responsive channel captures every scan-reachable NTP client
//     at least once (their sync cadence over four weeks makes capture
//     near-certain; see DESIGN.md), plus extra captures in later
//     address epochs with rate responsiveDupRate — dynamic addresses
//     re-observed, the mechanism behind addrs > certs in Table 2.
//
// feed, when non-nil, receives every captured address (the real-time
// scan feed) at each slice's barrier, one batch per shard in ascending
// shard order; the batch is reused once feed returns. The logical clock
// advances across the window as events are generated.
func (p *Pipeline) Collect(feed func([]netip.Addr)) {
	p.collectFrom(0, feed, nil, nil)
}

// collectSlices is the collection window's time resolution: 7-hour
// steps across four weeks. Also the granularity of monitor sweeps,
// breaker transitions, and checkpoints.
const collectSlices = 96

// CollectSlices exports the collection window's slice count so plan
// builders (link route-churn schedules are slice-indexed) can align
// their grids with the campaign's without duplicating the constant.
const CollectSlices = collectSlices

// sliceTime maps a slice index onto the logical timeline.
func (p *Pipeline) sliceTime(s int) time.Time {
	return p.W.Cfg.Start.Add(world.CollectionWindow * time.Duration(s) / collectSlices)
}

// collectFrom is the sharded collection driver, starting at an
// arbitrary slice (resume path). batch, when non-nil, receives each
// slice's captures merged in shard order; drain, when non-nil, runs
// after each slice's batches — the campaign uses it to complete all
// in-flight scans before the clock moves. onSlice, when non-nil, runs
// after each slice is fully drained — the quiescent point where the
// checkpointer snapshots shard streams.
func (p *Pipeline) collectFrom(startSlice int, batch func([]netip.Addr), drain func(), onSlice func(next int, shards []*collectShard)) {
	budget := p.captureBudget()
	clock := p.W.Clock()

	// Per-country event quotas: sync mass x tuned share. The share is
	// the score-blind configured one — budgets are part of the
	// experiment definition and must not bend to whatever health the
	// monitor sees at planning time (a resumed campaign re-plans here
	// and has to land on the identical quota set).
	var quotas []collectQuota
	totalWeight := 0.0
	for _, vs := range p.Servers {
		totalWeight += p.W.SyncMass(vs.Country) * p.Pool.ConfiguredShare(vs.Country)
	}
	if totalWeight > 0 {
		for _, vs := range p.Servers {
			w := p.W.SyncMass(vs.Country) * p.Pool.ConfiguredShare(vs.Country)
			quotas = append(quotas, collectQuota{vs: vs, events: int(float64(budget) * w / totalWeight)})
		}
	}

	// Warm the responsive-population cache (and its capture bitmap)
	// before fanning out.
	p.responsive()

	shards := p.makeCollectShards()

	// Interleave: walk the window in slices, emitting each country's
	// proportional share per slice so time advances monotonically and
	// dynamic devices rotate through their epochs. Within a slice the
	// clock is frozen: shards run in parallel, their feeds are merged
	// in shard order, and drain completes the slice's scans before the
	// next Set.
	lastCaptures := p.captures.Load()
	for s := startSlice; s < collectSlices; s++ {
		if st := p.sliceTime(s); st.After(clock.Now()) {
			clock.Set(st)
		}
		// Monitor sweep: one health probe per vantage per slice. On a
		// clean run every probe succeeds and scores stay pinned at the
		// maximum; under an outage fault the score collapses below
		// MinScore within one slice (asymmetric penalty), pausing the
		// vantage's capture stream, and recovers two slices after the
		// fault lifts.
		for _, vs := range p.Servers {
			p.Monitor.Check(vs.ID, p.W.Fabric().HostUp(vs.Addr, clock.Now()))
		}
		// Pin the link layer's churn slice and book its events. The
		// canonical slice time goes in, not clock.Now(): cluster
		// heartbeats can leave the clock past the boundary, and the
		// pinned slice must be a pure function of s so every execution
		// mode draws the same queues.
		p.W.Fabric().NoteLinkSlice(p.sliceTime(s))
		p.runShards(shards, s, collectSlices, quotas)
		// Drain barrier: commit per-shard effect buffers (capture
		// events, dedup attribution, drop and NTP counter deltas, the
		// responsive bitmap) and fold the arenas' activity deltas into
		// the obs counters, all in ascending shard order. Nothing global
		// moved while shards executed, so the shared state sequence —
		// including first-seen attribution and the capture log the store
		// persists — is byte-stable across worker counts and node
		// schedules. Folding here — before telemetry and checkpoints run
		// in onSlice — keeps every shard's pending delta at zero whenever
		// a snapshot is cut, so resumed runs repeat the counter sequence
		// exactly.
		var resident int64
		for _, sh := range shards {
			p.commitShard(sh, batch)
			st := sh.arena.TakeStats()
			p.met.arenaMat.Add(int64(st.Materializations))
			p.met.arenaHits.Add(int64(st.Hits))
			p.met.arenaEvict.Add(int64(st.Evictions))
			resident += int64(sh.arena.ResidentBytes())
		}
		p.met.arenaResident.Set(resident)
		if drain != nil {
			drain()
		}
		// Slice accounting at the quiescent point, before onSlice runs:
		// telemetry lines and checkpoints taken there must already see
		// this slice's totals.
		p.met.slices.Inc()
		cur := p.captures.Load()
		p.met.sliceCaps.Observe(cur - lastCaptures)
		lastCaptures = cur
		if onSlice != nil {
			onSlice(s+1, shards)
		}
	}

	// Publish the collection outputs in canonical order. PerCountry is
	// reused across publishes: cleared and refilled in place, with the
	// deploy-time server-count capacity (the only keys it can ever hold).
	p.Captures = int(p.captures.Load())
	if p.PerCountry == nil {
		p.PerCountry = make(map[string]int, len(p.Servers))
	} else {
		clear(p.PerCountry)
	}
	for i, v := range p.perCountryN {
		if v > 0 {
			p.PerCountry[p.Servers[i].Country] = v
		}
	}
}

// commitShard replays one shard's buffered slice effects against the
// pipeline's shared state: capture and distinct counters, the dedup
// accumulators (whose first-seen attribution decides the checkpoint
// capture log and the store's capture rows), per-vantage drop counts,
// the shard clones' NTP counter deltas, the responsive first-capture
// bitmap, and the scan feed. Called only at the drain barrier, in
// ascending shard order — the single point where shard execution
// touches global state. Until a shard is committed its execution can
// be discarded and re-run (cluster fencing) with no global trace.
func (p *Pipeline) commitShard(sh *collectShard, batch func([]netip.Addr)) {
	if n := len(sh.events); n > 0 {
		p.captures.Add(int64(n))
		p.met.captures.Add(int64(n))
	}
	feed := p.feedBuf[:0]
	for i := range sh.events {
		ev := &sh.events[i]
		if ev.volume {
			vi := int(ev.vantage)
			country := p.Servers[vi].Country
			p.met.capEvents.Inc(vi)
			if p.Summary.Add(ev.addr) {
				// Summary's set is the campaign's one first-sighting
				// set: EUI sees each address once, from here or from a
				// resume's capture-log replay.
				p.EUI.Add(ev.addr, country)
				p.perCountryN[vi]++
				p.met.capDistinct.Inc(vi)
				if p.recordCaps {
					// First sighting: log it so a resume can replay the
					// accumulator state. Only fresh addresses are logged —
					// re-Adding each exactly once restores every dedup'd
					// statistic.
					p.capLog = append(p.capLog, store.CaptureRow{Addr: ev.addr, Vantage: country})
				}
			}
		}
		feed = append(feed, ev.addr)
	}
	p.feedBuf = feed
	if batch != nil && len(feed) > 0 {
		batch(feed)
	}
	sh.events = sh.events[:0]
	for vi := range sh.dropped {
		if n := sh.dropped[vi]; n > 0 {
			p.met.capDropped.Add(vi, n)
			sh.dropped[vi] = 0
		}
	}
	p.met.ntp.Requests.Add(sh.ntpMet.Requests.Take())
	p.met.ntp.Answered.Add(sh.ntpMet.Answered.Take())
	p.met.ntp.RateLimited.Add(sh.ntpMet.RateLimited.Take())
	for _, i := range sh.respSet {
		p.respCaptured[i] = true
	}
	sh.respSet = sh.respSet[:0]
}

// discardShardSlice drops a shard's uncommitted slice effects — the
// forget half of the commit/discard pair external dispatchers use when
// an execution is fenced. Stream and arena state are restored
// separately (ShardRef.Restore); this only empties the effect buffers.
func (sh *collectShard) discardSliceEffects() {
	sh.events = sh.events[:0]
	for i := range sh.dropped {
		sh.dropped[i] = 0
	}
	sh.ntpMet.Requests.Take()
	sh.ntpMet.Answered.Take()
	sh.ntpMet.RateLimited.Take()
	sh.respSet = sh.respSet[:0]
	sh.volumeStats = false
}

// vantageUp reports whether the vantage is in pool rotation (monitor
// score above the cutoff). Collection pauses for drained vantages; the
// zone's sync traffic falls to the background servers meanwhile.
func (p *Pipeline) vantageUp(vs *VantageServer) bool {
	return p.Pool.Healthy(vs.ID)
}

// runShards executes one slice across the shard set on Workers
// goroutines. Shards are independent, so pickup order is irrelevant. A
// campaign dispatcher, when installed, replaces the pool wholesale —
// the cluster path, where leased nodes decide who runs what.
func (p *Pipeline) runShards(shards []*collectShard, s, slices int, quotas []collectQuota) {
	if p.dispatch != nil {
		if p.dispatchErr != nil {
			// A previous slice's dispatch failed fatally: the campaign is
			// aborting. Running more slices against an undefined placement
			// would only produce output the caller must discard anyway.
			return
		}
		refs := p.shardRefs(shards)
		if err := p.dispatch(s, refs, func(r ShardRef) {
			p.runShardSlice(r.sh, s, slices, len(shards), quotas)
		}); err != nil {
			p.dispatchErr = err
		}
		return
	}
	ForEach(p.Cfg.Workers, len(shards), func(i int) {
		p.runShardSlice(shards[i], s, slices, len(shards), quotas)
	})
}

// ForEach calls fn(0) … fn(n-1) from up to workers goroutines (at
// least one, at most n) and returns when all calls have. Indices are
// picked up dynamically, so a slow call does not hold back the rest.
// The collection slices, the cluster's node executors and the
// public-hitlist probes all run on it.
func ForEach(workers, n int, fn func(i int)) {
	workers = max(1, min(workers, n))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runShardSlice emits shard sh's portion of one time slice: its split
// of every country's volume quota, then its subset of the responsive
// population.
func (p *Pipeline) runShardSlice(sh *collectShard, s, slices, nshards int, quotas []collectQuota) {
	for _, q := range quotas {
		if !p.vantageUp(q.vs) {
			// Drained by the monitor: no sync lands on this vantage
			// this slice — background servers absorb the zone's
			// traffic, and these capture events simply never happen.
			continue
		}
		// The slice's event count for this country...
		n := q.events / slices
		if s < q.events%slices {
			n++
		}
		// ...split evenly across shards.
		sn := n / nshards
		if sh.idx < n%nshards {
			sn++
		}
		sh.volumeStats = true
		p.volumeBatch(sh, q.vs, sn)
		sh.volumeStats = false
	}
	p.responsiveShardSlice(sh, s, slices, nshards)
}

// responsiveShardSlice captures the shard's portion of the responsive
// population for one slice. Device i belongs to shard i%nshards, which
// alone walks it, and is due for its first capture in slice i%slices
// (spreading the population over the window); if that slice falls
// while the device's vantage is drained, or the sync itself is lost,
// the capture is retried every following slice until it lands (the
// device keeps syncing — a four-week window makes eventual capture
// near-certain even under faults). Once captured, dynamic devices are
// re-captured in later epochs with probability derived from
// responsiveDupRate — drawn from the shard's own stream, so the
// decision sequence is fixed per shard regardless of worker count.
func (p *Pipeline) responsiveShardSlice(sh *collectShard, s, slices, nshards int) {
	clock := p.W.Clock()
	resp := p.responsive()
	for i := sh.idx; i < len(resp); i += nshards {
		first := i % slices
		if s < first {
			continue
		}
		vs := p.respServers[i]
		if vs == nil {
			continue
		}
		dev := resp[i]
		if !p.respCaptured[i] {
			// First capture, or catch-up after an outage/loss ate it.
			// Shard sh owns index i and visits it once per slice, so
			// buffering the bitmap write until the barrier never changes
			// what this execution reads.
			if p.vantageUp(vs) {
				addr := p.W.CurrentAddr(dev, clock.Now())
				if p.captureVia(sh, vs, addr) {
					sh.respSet = append(sh.respSet, int32(i))
				}
			}
			continue
		}
		if s > first && dev.Profile.PrefixEpochs > 1 {
			// Dynamic devices may be re-captured after renumbering. The
			// stream is drawn before the health check so the shard's
			// draw schedule does not depend on the fault plan's timing.
			perSlice := responsiveDupRate / float64(slices-first)
			if sh.resp.Bool(perSlice) && p.vantageUp(vs) {
				addr := p.W.CurrentAddr(dev, clock.Now())
				p.captureVia(sh, vs, addr)
			}
		}
	}
}

// responsive caches the responsive NTP population, resolves each
// device's vantage and sizes the first-capture bitmap.
func (p *Pipeline) responsive() []*world.Device {
	if p.respCache == nil {
		p.respCache = p.W.ResponsiveNTP()
		p.respServers = make([]*VantageServer, len(p.respCache))
		for i, dev := range p.respCache {
			p.respServers[i] = p.serverByCountry[dev.Country]
		}
		p.respCaptured = make([]bool, len(p.respCache))
	}
	return p.respCache
}

// expectedDistinct estimates the distinct-address yield of the
// address-only population (devices x epochs), for auto-sizing the
// capture budget. It reads the world's precomputed per-country epoch
// masses — no device enumeration, since the population is never
// resident.
func (p *Pipeline) expectedDistinct() int {
	var total int64
	for _, c := range p.W.Countries {
		if !c.Spec.Vantage {
			continue
		}
		total += p.W.ClientEpochMass(c.Spec.Code)
	}
	if total < 1000 {
		total = 1000
	}
	return int(total)
}

// PerCountrySorted returns Table 7: distinct captured addresses per
// vantage country, descending.
func (p *Pipeline) PerCountrySorted() []CountryCount {
	out := make([]CountryCount, 0, len(p.PerCountry))
	for c, n := range p.PerCountry {
		out = append(out, CountryCount{Country: c, Addrs: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addrs != out[j].Addrs {
			return out[i].Addrs > out[j].Addrs
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// CountryCount is one Table 7 row.
type CountryCount struct {
	Country string
	Addrs   int
}

// AdvanceWorld moves the logical clock forward and re-registers every
// reachable dynamic device at its now-current address, blackholing the
// addresses they held before — the world as a scanner finds it some
// time after the collection window (the staleness the §6 discussion
// warns static lists suffer from).
func (p *Pipeline) AdvanceWorld(d time.Duration) {
	now := p.W.Clock().Advance(d)
	for _, dev := range p.W.Reachable() {
		if dev.Profile.PrefixEpochs > 1 {
			p.W.CurrentAddr(dev, now)
		}
	}
}

// RLCollect runs a Rye-and-Levin-era collection for the Table 1
// comparison column: 27 vantage countries (every generated country,
// vantage or not, plus repeats), an earlier address-epoch base (the
// 2022 measurement period), and a partially drifted device population
// (a quarter of today's devices did not exist then). Only the address
// summary is produced — R&L did not scan.
func (p *Pipeline) RLCollect(budget int) *analysis.AddrSummary {
	if budget == 0 {
		// Seven months vs four weeks. Derived from the campaign budget
		// (identical when Config.CaptureBudget is unset) so a pinned
		// budget pins the R&L era with it — fixed measurement effort
		// stays fixed when only the world grows.
		budget = 2 * p.captureBudget()
	}
	summary := analysis.NewAddrSummary(p.Ctx)
	r := p.rng.Derive("rl-era")
	// A private arena keeps the 2022-era walk off the shard arenas (and
	// out of their obs counters): this runs outside the campaign.
	arena := p.W.NewMaterializer(p.Cfg.ArenaBytes)
	countries := make([]string, 0, len(p.W.Countries))
	for _, c := range p.W.Countries {
		countries = append(countries, c.Spec.Code)
	}
	perCountry := budget / len(countries)
	for _, code := range countries {
		for i := 0; i < perCountry; i++ {
			gid := p.W.SampleClientID(code, r)
			if gid < 0 {
				continue
			}
			dev := arena.Device(gid)
			// Population drift: 2022's population misses a quarter of
			// today's devices (and vice versa, devices retired since).
			if dev.ID%4 == 0 {
				continue
			}
			// Earlier era: epochs shifted far before the 2024 window.
			epoch := dev.EpochAt(p.W.Cfg.Start, p.W.Cfg.Start) - 180 - int64(r.Intn(60))
			summary.Add(p.W.AddrAt(dev, epoch))
		}
	}
	return summary
}
