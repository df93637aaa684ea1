package main

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ntpscan/internal/analysis"
	"ntpscan/internal/core"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
)

// analyze is the result encoder's one consumer outside the process: it
// reads back the JSONL the campaign's sink wrote (Result.AppendJSON,
// decoded by encoding/json) or the store directory (envelope columns
// plus the Result.AppendGrabs value). One small campaign written both
// ways must load to the same rows and the same Table 2 — the table the
// campaign's own in-memory dataset gives.
func TestLoadDatasetJSONLAndStoreAgree(t *testing.T) {
	dir := t.TempDir()
	jsonlPath, storeDir := filepath.Join(dir, "ntp.jsonl"), filepath.Join(dir, "ntp.store")

	p := core.NewPipeline(core.Config{
		Seed:          7,
		World:         world.Config{DeviceScale: 1e-3, AddrScale: 1e-6, ASScale: 0.02},
		Workers:       4,
		CaptureBudget: 1500,
	})
	f, err := os.Create(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	out := bufio.NewWriter(f)
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := p.RunCampaign(context.Background(), core.CampaignOpts{Out: out, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fromJSONL, err := loadDataset("ntp", jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := loadDataset("ntp", storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(mem.Results); n == 0 || len(fromJSONL.Results) != n || len(fromStore.Results) != n {
		t.Fatalf("rows: campaign %d, JSONL %d, store %d", n, len(fromJSONL.Results), len(fromStore.Results))
	}
	want := analysis.Table2(mem)
	successes := 0
	for _, row := range want {
		successes += row.Addrs
	}
	if successes == 0 {
		t.Fatal("campaign had no successful grab: Table 2 is empty and proves nothing")
	}
	if got := analysis.Table2(fromJSONL); !reflect.DeepEqual(got, want) {
		t.Errorf("Table 2 from JSONL %+v, from the campaign %+v", got, want)
	}
	if got := analysis.Table2(fromStore); !reflect.DeepEqual(got, want) {
		t.Errorf("Table 2 from the store %+v, from the campaign %+v", got, want)
	}

	if _, err := loadDataset("ntp", filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("a missing input loaded")
	}
}
