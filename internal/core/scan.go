package core

import (
	"context"
	"io"
	"net/netip"

	"ntpscan/internal/analysis"
	"ntpscan/internal/hitlist"
	"ntpscan/internal/zgrab"
)

// ScanSource is the address our scan host probes from. Its reverse DNS
// and web page identify the research scan in the real deployment; here
// it identifies us to the telescope.
var ScanSource = netip.MustParseAddr("2a10:ffff:5ca::1")

// ScanConfig is the one scanner assembly: the pipeline's fabric, clock,
// registry, timeouts, retry policy and breaker. The campaign, the
// hitlist scan and cmd/v6scan's simulated scan all start from it.
func (p *Pipeline) ScanConfig() zgrab.Config {
	return zgrab.Config{
		Fabric:     p.W.Fabric(),
		Clock:      p.W.Clock(),
		Source:     ScanSource,
		Obs:        p.Obs,
		Timeout:    p.Cfg.Timeout,
		UDPTimeout: p.Cfg.UDPTimeout,
		Workers:    p.Cfg.Workers,
		Retry:      p.Cfg.Retry,
		Breaker:    p.Cfg.Breaker,
	}
}

// newScanner builds the campaign's scanner over ScanConfig, delivering
// results to add.
func (p *Pipeline) newScanner(add func(worker int, r *zgrab.Result)) *zgrab.Scanner {
	cfg := p.ScanConfig()
	cfg.OnResultWorker = add
	return zgrab.NewScanner(cfg)
}

// ScanBatch is the one way to scan a list: a fresh scanner over cfg
// scans addrs, and the results come back in submission (Seq) order —
// written to out, when it is not nil, as one JSON line each. Results
// are ordered and written once, after the scan has drained, so both are
// a function of the input alone at any worker count. There is no
// mid-scan Drain: it would tick the breaker and the revisit sweep and
// move the results of a faulted scan. The returned rows are complete
// even when the write fails.
func ScanBatch(ctx context.Context, cfg zgrab.Config, addrs []netip.Addr, out io.Writer) ([]*zgrab.Result, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1 // the sink has one run per scanner worker
	}
	sink := newOrderedSink(cfg.Workers, out != nil)
	cfg.OnResultWorker = sink.add
	scanner := zgrab.NewScanner(cfg)
	scanner.Start(ctx)
	scanner.SubmitBatch(addrs)
	scanner.Close()
	err := sink.flush()
	if err == nil && len(sink.jsonl) > 0 {
		_, err = out.Write(sink.jsonl)
	}
	return sink.all, err
}

// RunNTPCampaign performs the §4.1 core experiment: collect addresses
// for the full window while scanning every newly seen address in real
// time. Each collection slice's captures are batch-submitted in shard
// order and drained before the logical clock moves, so the dataset is
// bit-identical for a given (seed, scale) at any worker count. It
// returns the scan dataset; collection statistics live on the pipeline
// afterwards. (This is RunCampaign with no output writer and no
// checkpoints.)
func (p *Pipeline) RunNTPCampaign(ctx context.Context) *analysis.Dataset {
	ds, _ := p.RunCampaign(ctx, CampaignOpts{})
	return ds
}

// CollectOnly runs the collection without scanning (Table 1 runs).
func (p *Pipeline) CollectOnly() {
	p.Collect(nil)
}

// BuildHitlist constructs the TUM-style list against the current world
// state (call after collection so dyndns seeds carry current
// addresses). Static deployments are registered first.
func (p *Pipeline) BuildHitlist(cfg hitlist.Config) *hitlist.Hitlist {
	if cfg.Seed == 0 {
		cfg.Seed = p.Cfg.Seed ^ 0x411
	}
	p.W.RegisterStatic()
	return hitlist.Build(p.W, cfg)
}

// ScanList batch-scans addrs over the pipeline's scanner assembly and
// returns the results, in submission (Seq) order, as the dataset called
// name.
func (p *Pipeline) ScanList(ctx context.Context, name string, addrs []netip.Addr) *analysis.Dataset {
	// With no writer the flush only merges, and cannot fail.
	rows, _ := ScanBatch(ctx, p.ScanConfig(), addrs, nil)
	return analysis.NewDataset(name, rows)
}

// ScanHitlist batch-scans the full hitlist (the paper scans the
// unfiltered variant, §4.1) and returns the dataset.
func (p *Pipeline) ScanHitlist(ctx context.Context, h *hitlist.Hitlist) *analysis.Dataset {
	return p.ScanList(ctx, "hitlist", h.Full)
}

// PublicHitlist applies the responsiveness filter plus aliased-prefix
// dealiasing, producing the published variant for Table 1's "public"
// column (TUM's public list excludes aliased blocks).
func (p *Pipeline) PublicHitlist(ctx context.Context, h *hitlist.Hitlist) []netip.Addr {
	alive := make([]bool, len(h.Full))
	ForEach(p.Cfg.Workers, len(h.Full), func(i int) {
		alive[i] = hitlist.Probe(ctx, p.W.Fabric(), ScanSource, h.Full[i], p.Cfg.Timeout)
	})
	return h.Dealias(h.Public(alive), 8, 2)
}

// SummarizeHitlist builds address summaries for hitlist variants.
func (p *Pipeline) SummarizeHitlist(addrs []netip.Addr) *analysis.AddrSummary {
	return analysis.SummarizeAddrs(p.Ctx, addrs)
}
