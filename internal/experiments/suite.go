// Package experiments reproduces every table and figure of the paper's
// evaluation. A Suite runs the full pipeline once (collection,
// real-time NTP scan, hitlist build + batch scan, R&L-era comparison
// run) and renders each table/figure from the shared results, exactly
// as the paper derives all of its outputs from one measurement
// campaign.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"ntpscan/internal/analysis"
	"ntpscan/internal/cluster"
	"ntpscan/internal/cluster/transport"
	"ntpscan/internal/core"
	"ntpscan/internal/hitlist"
	"ntpscan/internal/netsim"
	"ntpscan/internal/netsim/link"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
)

// Options sizes a suite run.
type Options struct {
	// Seed drives the whole experiment.
	Seed uint64
	// DeviceScale/AddrScale/ASScale forward to world generation. Zero
	// values select the bench defaults (DeviceScale 3e-3, AddrScale
	// 6e-6, ASScale 0.03), which run the full suite in tens of
	// seconds.
	DeviceScale float64
	AddrScale   float64
	ASScale     float64
	// Workers for scanning.
	Workers int
	// StoreDir, when non-empty, persists the NTP campaign's captures
	// and results to a columnar store directory there (see
	// internal/store; readable by cmd/analyze). Attaching the store
	// does not change the campaign's dataset or tables.
	StoreDir string
	// CaptureBudget pins the campaign's volume-channel capture count
	// (core.Config.CaptureBudget). Zero keeps the default, which scales
	// with the world's client mass; the scale ladder pins it so
	// measurement effort stays fixed while only the world grows.
	CaptureBudget int
	// Nodes runs the NTP campaign through an internal/cluster of that
	// many campaign nodes (coordinator, shard leases, heartbeats).
	// Like Workers it is pure execution placement: every dataset and
	// table is byte-identical at any node count. Zero or one keeps the
	// single-process campaign.
	Nodes int
	// ClusterURL switches the campaign to multi-process node mode: the
	// NTP campaign runs as a full deterministic replica whose control
	// plane is the clusterd fabric at this base URL (cluster.RunNode
	// over the wire transport). Nodes must carry the cluster's total
	// node count and NodeID this process's index. The replica's outputs
	// are byte-identical to a single-process run; the fabric decides
	// only which shard-slice submissions this node is authoritative
	// for.
	ClusterURL string
	// NodeID is this process's node index under ClusterURL (0-based).
	NodeID int
	// LinkPlan, when non-nil, puts the campaign's flows behind the
	// deterministic queued-link emulation (internal/netsim/link):
	// bandwidth, propagation delay, finite queues, and route churn, all
	// stamped on the logical clock. Installed as the pipeline's fault
	// plan before the campaign starts; outputs stay byte-identical at
	// any Workers/Nodes count because queue outcomes are pure functions
	// of (seed, link, flow, slice).
	LinkPlan *link.Plan
}

func (o *Options) fill() {
	if o.Seed == 0 {
		o.Seed = 20240720
	}
	if o.DeviceScale == 0 {
		o.DeviceScale = 3e-3
	}
	if o.AddrScale == 0 {
		o.AddrScale = 6e-6
	}
	if o.ASScale == 0 {
		o.ASScale = 0.03
	}
	if o.Workers == 0 {
		o.Workers = 64
	}
}

// newPipeline builds the pipeline every suite entry point runs on:
// the world and campaign sized by opts, with opts.LinkPlan installed as
// the fault plan. A nil plan leaves the pipeline untouched (no fabric
// intervention at all), so zero-link suites stay byte-identical to
// pre-link ones. A plan without a time grid inherits the campaign's:
// epoch at the collection start, one churn slice per collection slice.
func newPipeline(opts Options) *core.Pipeline {
	p := core.NewPipeline(core.Config{
		Seed: opts.Seed,
		World: world.Config{
			DeviceScale: opts.DeviceScale,
			AddrScale:   opts.AddrScale,
			ASScale:     opts.ASScale,
		},
		Workers:       opts.Workers,
		CaptureBudget: opts.CaptureBudget,
	})
	if lp := opts.LinkPlan; lp != nil {
		if lp.Epoch.IsZero() {
			lp.Epoch = p.W.Cfg.Start
		}
		if lp.SliceLen <= 0 {
			lp.SliceLen = world.CollectionWindow / core.CollectSlices
		}
		p.InstallFaults(&netsim.FaultPlan{Seed: lp.Seed, Links: lp})
	}
	return p
}

// Suite is one executed campaign with all derived datasets. A suite
// with only Opts, Ctx, NTP and Hitlist set (cmd/analyze builds one from
// saved results) renders every scan-side section; the collection
// sections need P.
type Suite struct {
	Opts Options
	P    *core.Pipeline
	// Ctx resolves addresses for the scan-side analyses; Run and
	// CollectOnly set it from the pipeline.
	Ctx *analysis.Context
	// Err is set when the optional store sink failed (open or write);
	// the datasets are not usable in that case.
	Err error

	NTP     *analysis.Dataset // real-time NTP-sourced scan results
	Hitlist *analysis.Dataset // batch hitlist scan results

	HL         *hitlist.Hitlist
	HitFullSum *analysis.AddrSummary
	HitPubSum  *analysis.AddrSummary
	RLSum      *analysis.AddrSummary
	PublicLen  int
}

// Run executes the campaign.
func Run(opts Options) *Suite {
	opts.fill()
	p := newPipeline(opts)
	s := &Suite{Opts: opts, P: p, Ctx: p.Ctx}
	ctx := context.Background()

	runCampaign := func(copts core.CampaignOpts) (*analysis.Dataset, error) {
		if opts.ClusterURL != "" {
			api := transport.NewClient(opts.ClusterURL, opts.NodeID, nil)
			ds, _, err := cluster.RunNode(ctx, p, api, opts.NodeID,
				cluster.Config{Nodes: opts.Nodes}, copts)
			return ds, err
		}
		if opts.Nodes > 1 {
			ds, _, err := cluster.Run(ctx, p, cluster.Config{Nodes: opts.Nodes}, copts)
			return ds, err
		}
		return p.RunCampaign(ctx, copts)
	}
	if opts.StoreDir != "" {
		st, err := store.Open(opts.StoreDir, store.Options{Obs: p.Obs})
		if err == nil {
			s.NTP, err = runCampaign(core.CampaignOpts{Store: st})
		}
		if err != nil {
			s.Err = err
			return s
		}
	} else {
		var err error
		s.NTP, err = runCampaign(core.CampaignOpts{})
		if err != nil {
			s.Err = err
			return s
		}
	}
	s.HL = p.BuildHitlist(hitlist.Config{})
	s.Hitlist = p.ScanHitlist(ctx, s.HL)

	pub := p.PublicHitlist(ctx, s.HL)
	s.PublicLen = len(pub)
	s.HitFullSum = p.SummarizeHitlist(s.HL.Full)
	s.HitPubSum = p.SummarizeHitlist(pub)
	s.RLSum = p.RLCollect(0)
	return s
}

// CollectOnly runs just the collection phases (enough for Table 1,
// Figure 1, Table 4, Figure 4, Table 7) — much faster than Run.
func CollectOnly(opts Options) *Suite {
	opts.fill()
	p := newPipeline(opts)
	s := &Suite{Opts: opts, P: p, Ctx: p.Ctx}
	p.CollectOnly()
	s.HL = p.BuildHitlist(hitlist.Config{})
	s.HitFullSum = p.SummarizeHitlist(s.HL.Full)
	pub := p.PublicHitlist(context.Background(), s.HL)
	s.PublicLen = len(pub)
	s.HitPubSum = p.SummarizeHitlist(pub)
	s.RLSum = p.RLCollect(0)
	return s
}

// section renders a titled block.
func section(title, body string) string {
	var b strings.Builder
	b.WriteString("== " + title + " ==\n")
	b.WriteString(body)
	if !strings.HasSuffix(body, "\n") {
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	return b.String()
}

// All renders every table and figure the suite has the inputs for:
// the collection sections need the pipeline, the scan-side ones the
// datasets.
func (s *Suite) All() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ntpscan experiment suite (seed=%d, device-scale=%g, addr-scale=%g)\n\n",
		s.Opts.Seed, s.Opts.DeviceScale, s.Opts.AddrScale)
	if s.P != nil {
		b.WriteString(s.Table1())
		b.WriteString(s.Figure1())
	}
	if s.NTP != nil {
		b.WriteString(s.Table2())
		b.WriteString(s.Table3())
		b.WriteString(s.Figure2())
		b.WriteString(s.Figure3())
		b.WriteString(s.Headline())
		b.WriteString(s.KeyReuse())
		b.WriteString(s.Table5())
		b.WriteString(s.Table6())
		b.WriteString(s.Figure5())
		b.WriteString(s.Figure6())
		b.WriteString(s.Table8())
	}
	if s.P != nil {
		b.WriteString(s.Table4())
		b.WriteString(s.Figure4())
		b.WriteString(s.Table7())
	}
	return b.String()
}
