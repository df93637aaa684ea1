package store_test

import (
	"bytes"
	"context"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"ntpscan/internal/analysis"
	"ntpscan/internal/chaos"
	"ntpscan/internal/core"
	"ntpscan/internal/store"
	"ntpscan/internal/targetgen"
	"ntpscan/internal/zgrab"
)

// The store as analysis substrate: a campaign persisted to both JSONL
// and the columnar store must yield the same dataset either way —
// same analysis tables, same hitlist of responsive addresses, and a
// targetgen model trained on the store-queried addresses generates
// exactly what the JSONL-derived model does.
func TestAnalysisRoundTripThroughStore(t *testing.T) {
	cfg := chaos.Config(51)
	p := core.NewPipeline(cfg)
	st, err := store.Open(t.TempDir(), store.Options{Obs: p.Obs})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := p.RunCampaign(context.Background(), core.CampaignOpts{Store: st, Out: &out}); err != nil {
		t.Fatal(err)
	}

	// JSONL-derived dataset (the legacy path).
	var dsJSON *analysis.Dataset
	{
		d := analysis.NewDataset("ntp", nil)
		if err := zgrab.DecodeJSONL(bytes.NewReader(out.Bytes()), func(r *zgrab.Result) error {
			d.Add(r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		dsJSON = d
	}

	// Store-queried dataset (the query-engine path).
	dsStore := analysis.NewDataset("ntp", nil)
	it := st.Scan(store.Pred{Kind: store.KindResults})
	for it.Next() {
		dsStore.Add(it.Row().Result)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(dsStore.Results) == 0 || len(dsStore.Results) != len(dsJSON.Results) {
		t.Fatalf("store dataset has %d results, JSONL %d", len(dsStore.Results), len(dsJSON.Results))
	}
	if s := it.Stats(); s.BlocksSkipped == 0 || s.BytesSkipped == 0 {
		t.Fatalf("result-only query skipped nothing (capture blocks must be pruned): %+v", s)
	}

	// Identical analysis tables.
	if got, want := analysis.Table2(dsStore), analysis.Table2(dsJSON); !reflect.DeepEqual(got, want) {
		t.Fatalf("Table2 diverges:\nstore %+v\njsonl %+v", got, want)
	}
	gotHR1, gotHR2, _ := analysis.HitRate(dsStore)
	wantHR1, wantHR2, _ := analysis.HitRate(dsJSON)
	if gotHR1 != wantHR1 || gotHR2 != wantHR2 {
		t.Fatalf("hit rate diverges: store %d/%d, jsonl %d/%d", gotHR1, gotHR2, wantHR1, wantHR2)
	}

	// Identical hitlists (distinct responsive addresses, sorted).
	hitlist := func(d *analysis.Dataset) []netip.Addr {
		seen := make(map[netip.Addr]struct{})
		for _, r := range d.Results {
			if r.Success() {
				seen[r.IP] = struct{}{}
			}
		}
		addrs := make([]netip.Addr, 0, len(seen))
		for a := range seen {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
		return addrs
	}
	hlStore, hlJSON := hitlist(dsStore), hitlist(dsJSON)
	if !reflect.DeepEqual(hlStore, hlJSON) {
		t.Fatalf("hitlists diverge: store %d addrs, jsonl %d", len(hlStore), len(hlJSON))
	}
	if len(hlStore) == 0 {
		t.Fatal("empty hitlist")
	}

	// Identical targetgen behaviour from either substrate.
	mStore, mJSON := targetgen.Train(hlStore), targetgen.Train(hlJSON)
	if mStore.SeedCount() != mJSON.SeedCount() || mStore.Prefixes() != mJSON.Prefixes() {
		t.Fatalf("models diverge: store (%d seeds, %d prefixes), jsonl (%d, %d)",
			mStore.SeedCount(), mStore.Prefixes(), mJSON.SeedCount(), mJSON.Prefixes())
	}
	gen1, gen2 := mStore.Generate(512, 7), mJSON.Generate(512, 7)
	if !reflect.DeepEqual(gen1, gen2) {
		t.Fatal("targetgen generation diverges between store-trained and JSONL-trained models")
	}
}
