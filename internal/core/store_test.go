package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ntpscan/internal/store"
)

// copyDir copies every regular file in src to dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A store-backed campaign's directory and telemetry must be
// bit-identical at any worker count.
func TestStoreCampaignBitIdenticalAcrossWorkers(t *testing.T) {
	var wantDigest, wantTel string
	for _, workers := range []int{1, 3, 8} {
		cfg := testConfig(41)
		cfg.CaptureBudget = 2000
		cfg.Workers = workers
		p := NewPipeline(cfg)
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{Obs: p.Obs})
		if err != nil {
			t.Fatal(err)
		}
		var tel bytes.Buffer
		if _, err := p.RunCampaign(context.Background(), CampaignOpts{Store: st, Telemetry: &tel}); err != nil {
			t.Fatal(err)
		}
		digest := store.DirDigest(t, dir)
		if wantDigest == "" {
			wantDigest, wantTel = digest, tel.String()
			continue
		}
		if digest != wantDigest {
			t.Errorf("workers=%d: store directory diverges", workers)
		}
		if tel.String() != wantTel {
			t.Errorf("workers=%d: telemetry (with store counters) diverges", workers)
		}
	}
}

// The store must carry exactly the campaign's output: an unfiltered
// JSONL export reproduces the Out stream byte-for-byte.
func TestStoreExportMatchesCampaignJSONL(t *testing.T) {
	cfg := testConfig(42)
	cfg.CaptureBudget = 1500
	p := NewPipeline(cfg)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := p.RunCampaign(context.Background(), CampaignOpts{Store: st, Out: &out}); err != nil {
		t.Fatal(err)
	}
	var exported bytes.Buffer
	if err := st.ExportJSONL(&exported, store.Pred{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exported.Bytes(), out.Bytes()) {
		t.Fatalf("store export (%d bytes) diverges from campaign JSONL (%d bytes)",
			exported.Len(), out.Len())
	}
}

// Kill-and-resume with the store attached: the campaign is "crashed"
// at a late checkpoint (directory copied mid-run, retired compaction
// inputs and all), resumed from an *earlier* checkpoint — so ResetTo
// must rewind across a compaction — and the resumed run's final
// directory and output tail must be bit-identical to the
// uninterrupted run's.
func TestStoreResumeReproducesDirectory(t *testing.T) {
	cfg := testConfig(43)
	cfg.CaptureBudget = 2000

	var full bytes.Buffer
	var cps []*Checkpoint
	crashDir := t.TempDir()
	fullDir := t.TempDir()
	p1 := NewPipeline(cfg)
	st1, err := store.Open(fullDir, store.Options{Obs: p1.Obs})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p1.RunCampaign(context.Background(), CampaignOpts{
		Store:           st1,
		Out:             &full,
		CheckpointEvery: 24,
		OnCheckpoint: func(cp *Checkpoint) {
			cps = append(cps, cp)
			if len(cps) == 3 {
				// Simulate the crash point: the directory as a later victim
				// process would leave it, well past the resume checkpoint.
				copyDir(t, fullDir, crashDir)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 3 {
		t.Fatalf("expected 3 checkpoints, got %d", len(cps))
	}
	wantDigest := store.DirDigest(t, fullDir)

	cp := cps[0]
	if cp.Store == nil {
		t.Fatal("checkpoint carries no store manifest")
	}
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}

	var rest bytes.Buffer
	p2 := NewPipeline(cfg)
	st2, err := store.Open(crashDir, store.Options{Obs: p2.Obs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.ResumeCampaign(context.Background(), &back, CampaignOpts{Store: st2, Out: &rest}); err != nil {
		t.Fatal(err)
	}
	if got := store.DirDigest(t, crashDir); got != wantDigest {
		t.Error("resumed store directory diverges from uninterrupted run")
	}
	if want := full.Bytes()[cp.OutOffset:]; !bytes.Equal(rest.Bytes(), want) {
		t.Errorf("resumed output %d bytes, want %d", rest.Len(), len(want))
	}
}

// A store-attached resume refuses a checkpoint that has no manifest.
func TestStoreResumeRequiresManifest(t *testing.T) {
	cfg := testConfig(44)
	cfg.CaptureBudget = 1000
	var cps []*Checkpoint
	p := NewPipeline(cfg)
	if _, err := p.RunCampaign(context.Background(), CampaignOpts{
		CheckpointEvery: 48,
		OnCheckpoint:    func(cp *Checkpoint) { cps = append(cps, cp) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints")
	}
	p2 := NewPipeline(cfg)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.ResumeCampaign(context.Background(), cps[0], CampaignOpts{Store: st}); err == nil {
		t.Error("resume accepted a manifest-less checkpoint with a store attached")
	}
}
