package core

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"ntpscan/internal/analysis"
	"ntpscan/internal/hitlist"
	"ntpscan/internal/rng"
)

// digest folds every result — in the merged, seq-ordered dataset
// order — into one hash. Any reordering, dropped result, or field
// difference between two runs changes the value.
func datasetDigest(t *testing.T, d *analysis.Dataset) uint64 {
	t.Helper()
	h := rng.NewHash()
	for _, r := range d.Results {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		h = h.Bytes(b).Byte('\n')
	}
	return uint64(h)
}

// The tentpole acceptance check: the same (seed, scale) experiment must
// be bit-identical at any worker count. Workers is pure concurrency;
// CollectShards (fixed by default) is the experiment-defining knob.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (*Pipeline, *analysis.Dataset) {
		cfg := testConfig(11)
		cfg.Workers = workers
		cfg.CaptureBudget = 3000
		p := NewPipeline(cfg)
		return p, p.RunNTPCampaign(context.Background())
	}

	p1, d1 := run(1)
	base := datasetDigest(t, d1)
	stats1 := fmt.Sprintf("%+v", p1.Summary.Stats())
	if len(d1.Results) == 0 {
		t.Fatal("campaign produced no scan results")
	}

	// 3 does not divide the shard count evenly; 8 exercises the usual
	// multi-core path.
	for _, workers := range []int{3, 8} {
		p, d := run(workers)
		if got := fmt.Sprintf("%+v", p.Summary.Stats()); got != stats1 {
			t.Errorf("workers=%d Summary diverges:\n got %s\nwant %s", workers, got, stats1)
		}
		if p.Captures != p1.Captures {
			t.Errorf("workers=%d Captures = %d, want %d", workers, p.Captures, p1.Captures)
		}
		if len(p.PerCountry) != len(p1.PerCountry) {
			t.Errorf("workers=%d PerCountry has %d countries, want %d",
				workers, len(p.PerCountry), len(p1.PerCountry))
		}
		for c, n := range p1.PerCountry {
			if p.PerCountry[c] != n {
				t.Errorf("workers=%d PerCountry[%s] = %d, want %d", workers, c, p.PerCountry[c], n)
			}
		}
		if len(d.Results) != len(d1.Results) {
			t.Errorf("workers=%d dataset has %d results, want %d", workers, len(d.Results), len(d1.Results))
		}
		if got := datasetDigest(t, d); got != base {
			t.Errorf("workers=%d dataset digest %x, want %x", workers, got, base)
		}
	}
}

// Hitlist scanning goes through the same batched scanner path and must
// be equally order-stable.
func TestHitlistScanDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) uint64 {
		cfg := testConfig(5)
		cfg.Workers = workers
		cfg.CaptureBudget = 1000
		p := NewPipeline(cfg)
		p.CollectOnly()
		h := p.BuildHitlist(hitlist.Config{})
		return datasetDigest(t, p.ScanHitlist(context.Background(), h))
	}
	base := run(1)
	if got := run(8); got != base {
		t.Fatalf("hitlist dataset digest differs across workers: %x vs %x", got, base)
	}
}
