package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ntpscan/internal/store"
	"ntpscan/internal/zgrab"
)

// countingAggregator is a minimal SliceAggregator: it tallies rows,
// enough to pin the feed and the resume replay without internal/query
// (which has its own end-to-end byte-identity suite against this
// interface).
type countingAggregator struct {
	Caps     int64
	Results  int64
	Slices   int // calls, not slices: a replayed slice may arrive in several
	TailSeen bool
	failFeed bool
}

func (a *countingAggregator) AggregateSlice(slice int, caps []store.CaptureRow, results []*zgrab.Result) error {
	if a.failFeed {
		return errors.New("aggregator feed boom")
	}
	a.Caps += int64(len(caps))
	a.Results += int64(len(results))
	a.Slices++
	if slice == collectSlices {
		a.TailSeen = true
	}
	return nil
}

// The aggregator sees exactly the rows the store appends — same
// barrier, same data — and the tail flush arrives as the synthetic
// slice past the last collection slice.
func TestAggregatorSeesStoreRows(t *testing.T) {
	cfg := testConfig(45)
	cfg.CaptureBudget = 1500
	p := NewPipeline(cfg)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Obs: p.Obs})
	if err != nil {
		t.Fatal(err)
	}
	agg := &countingAggregator{}
	if _, err := p.RunCampaign(context.Background(), CampaignOpts{Store: st, Aggregates: agg}); err != nil {
		t.Fatal(err)
	}
	caps, results, err := st.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Caps != caps || agg.Results != results {
		t.Errorf("aggregator saw %d/%d rows, store holds %d/%d", agg.Caps, agg.Results, caps, results)
	}
	if !agg.TailSeen {
		t.Error("tail flush never reached the aggregator")
	}
	if agg.Caps == 0 || agg.Results == 0 {
		t.Fatalf("empty campaign (caps=%d results=%d)", agg.Caps, agg.Results)
	}

	// A store-less aggregator campaign feeds identical totals: the
	// capture-row build must run for the aggregator alone too.
	p2 := NewPipeline(cfg)
	agg2 := &countingAggregator{}
	if _, err := p2.RunCampaign(context.Background(), CampaignOpts{Aggregates: agg2}); err != nil {
		t.Fatal(err)
	}
	if agg2.Caps != agg.Caps || agg2.Results != agg.Results || agg2.Slices != agg.Slices {
		t.Errorf("store-less feed diverges: %+v vs %+v", agg2, agg)
	}
}

// A checkpoint holds nothing of the aggregator: resume rewinds the
// store and feeds it back through AggregateSlice, and the resumed run
// finishes with the uninterrupted run's totals.
func TestAggregatorCheckpointResume(t *testing.T) {
	cfg := testConfig(46)
	cfg.CaptureBudget = 1500
	var cps []*Checkpoint
	p := NewPipeline(cfg)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Obs: p.Obs})
	if err != nil {
		t.Fatal(err)
	}
	full := &countingAggregator{}
	if _, err := p.RunCampaign(context.Background(), CampaignOpts{
		Store:           st,
		Aggregates:      full,
		CheckpointEvery: 32,
		OnCheckpoint:    func(cp *Checkpoint) { cps = append(cps, cp) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints")
	}

	// Every segment the first checkpoint pins survived compaction and
	// Seal (32 is a multiple of the compaction cadence), so the finished
	// directory rewinds to it.
	resume := func(agg *countingAggregator) error {
		p := NewPipeline(cfg)
		st, err := store.Open(dir, store.Options{Obs: p.Obs})
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.ResumeCampaign(context.Background(), cps[0], CampaignOpts{Store: st, Aggregates: agg})
		return err
	}
	resumed := &countingAggregator{}
	if err := resume(resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.Caps != full.Caps || resumed.Results != full.Results || resumed.TailSeen != full.TailSeen {
		t.Errorf("resumed totals %+v, want %+v", resumed, full)
	}

	// A replay error surfaces before the slice loop starts.
	if err := resume(&countingAggregator{failFeed: true}); err == nil || !strings.Contains(err.Error(), "feed boom") {
		t.Errorf("resume swallowed a replay error: %v", err)
	}

	// The store is the record: an aggregator with no store to replay is
	// refused, not silently started empty.
	p2 := NewPipeline(cfg)
	if _, err := p2.ResumeCampaign(context.Background(), cps[0], CampaignOpts{Aggregates: &countingAggregator{}}); err == nil {
		t.Error("resume accepted an aggregator with no store attached")
	}
}

// An aggregator error fails the campaign instead of silently
// desynchronising the materialized view.
func TestAggregatorErrorsFailCampaign(t *testing.T) {
	cfg := testConfig(47)
	cfg.CaptureBudget = 1000
	p := NewPipeline(cfg)
	_, err := p.RunCampaign(context.Background(), CampaignOpts{Aggregates: &countingAggregator{failFeed: true}})
	if err == nil || !strings.Contains(err.Error(), "feed boom") {
		t.Errorf("feed error not surfaced: %v", err)
	}
}
