package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"ntpscan/internal/analysis"
	"ntpscan/internal/netsim"
	"ntpscan/internal/world"
	"ntpscan/internal/zgrab"
)

// RunCampaign with zero options must be RunNTPCampaign exactly.
func TestRunCampaignMatchesNTPCampaign(t *testing.T) {
	cfg := testConfig(11)
	cfg.CaptureBudget = 2000

	p1 := NewPipeline(cfg)
	d1 := p1.RunNTPCampaign(context.Background())

	p2 := NewPipeline(cfg)
	d2, err := p2.RunCampaign(context.Background(), CampaignOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := datasetDigest(t, d2), datasetDigest(t, d1); got != want {
		t.Fatalf("RunCampaign digest %x, want RunNTPCampaign's %x", got, want)
	}
}

// The JSONL writer must carry the same results as the returned dataset,
// in the same order.
func TestCampaignOutputIsOrderedJSONL(t *testing.T) {
	cfg := testConfig(12)
	cfg.CaptureBudget = 1500
	var out bytes.Buffer
	p := NewPipeline(cfg)
	ds, err := p.RunCampaign(context.Background(), CampaignOpts{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, r := range ds.Results {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatalf("JSONL output (%d bytes) diverges from dataset encoding (%d bytes)",
			out.Len(), want.Len())
	}
}

// Clean kill-and-resume: a fresh pipeline resumed from any checkpoint
// reproduces the uninterrupted run's remaining output byte-for-byte.
func TestResumeReproducesCleanCampaign(t *testing.T) {
	cfg := testConfig(14)
	cfg.CaptureBudget = 2000

	var full bytes.Buffer
	var cps []*Checkpoint
	p1 := NewPipeline(cfg)
	_, err := p1.RunCampaign(context.Background(), CampaignOpts{
		Out:             &full,
		CheckpointEvery: 24,
		OnCheckpoint:    func(cp *Checkpoint) { cps = append(cps, cp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 3 {
		t.Fatalf("expected 3 checkpoints, got %d", len(cps))
	}

	for i, cp := range cps {
		var rest bytes.Buffer
		p2 := NewPipeline(cfg)
		_, err := p2.ResumeCampaign(context.Background(), cp, CampaignOpts{Out: &rest})
		if err != nil {
			t.Fatal(err)
		}
		want := full.Bytes()[cp.OutOffset:]
		if !bytes.Equal(rest.Bytes(), want) {
			t.Errorf("checkpoint %d (slice %d): resumed output %d bytes, want %d",
				i, cp.NextSlice, rest.Len(), len(want))
			continue
		}
		if p2.Captures != p1.Captures {
			t.Errorf("checkpoint %d: resumed Captures = %d, want %d", i, p2.Captures, p1.Captures)
		}
		if got, want := fmt.Sprintf("%+v", p2.Summary.Stats()), fmt.Sprintf("%+v", p1.Summary.Stats()); got != want {
			t.Errorf("checkpoint %d: resumed Summary diverges", i)
		}
	}
}

// A checkpoint refuses to resume onto a mismatched pipeline.
func TestResumeValidation(t *testing.T) {
	cfg := testConfig(15)
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
	cp := cps[0]

	bad := testConfig(16) // wrong seed
	bad.CaptureBudget = 1000
	if _, err := NewPipeline(bad).ResumeCampaign(context.Background(), cp, CampaignOpts{}); err == nil {
		t.Error("resume accepted a checkpoint from a different seed")
	}
	if _, err := p.ResumeCampaign(context.Background(), cp, CampaignOpts{}); err == nil {
		t.Error("resume accepted a non-fresh pipeline")
	}
}

// euiTables renders every figure the Table 4 / Figure 4 renderers read
// from EUI64Stats.
func euiTables(e *analysis.EUI64Stats) string {
	s := fmt.Sprintf("addrs %d eui %d unique %d macs %d listed %d vendors %+v",
		e.AddrsTotal, e.AddrsEUI, e.AddrsUnique, e.DistinctMACs(), e.ListedMACs(), e.TopVendors(1<<20))
	for c := analysis.MACClass(0); c < analysis.NMACClasses; c++ {
		countries, shares := e.OriginDistribution(c)
		s += fmt.Sprintf(" %v:%v%v", c, countries, shares)
	}
	return s
}

// EUI64Stats keeps no first-sighting set of its own: the campaign feeds
// it behind AddrSummary.Add. Every address Summary counts must reach EUI
// exactly once, on a clean and on a faulted campaign (a vantage blackout
// and a loss window, so first captures are lost and caught up later),
// and a resume from slices 8, 48 and 88 — whose capture-log replay
// feeds EUI a second way — must end on the uninterrupted run's tables.
func TestEUISeesEachFirstSightingOnce(t *testing.T) {
	faulted := func(p *Pipeline) {
		start := p.W.Cfg.Start
		plan := &netsim.FaultPlan{Seed: 11}
		plan.Add(netsim.Fault{
			Kind: netsim.FaultOutage, Addr: p.Servers[0].Addr,
			From: start.Add(world.CollectionWindow / 4), Until: start.Add(world.CollectionWindow / 2),
		})
		plan.Add(netsim.Fault{
			Kind: netsim.FaultLoss, Prefix: netip.MustParsePrefix("::/0"),
			From: start, Until: start.Add(2 * world.CollectionWindow), Prob: 0.2,
		})
		p.InstallFaults(plan)
	}
	for _, tc := range []struct {
		name   string
		faults func(*Pipeline)
	}{
		{"clean", func(*Pipeline) {}},
		{"faulted", faulted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(11)
			cfg.CaptureBudget = 4000
			check := func(label string, p *Pipeline) string {
				t.Helper()
				if got, want := p.EUI.AddrsTotal, p.Summary.Stats().Addrs; got != want {
					t.Fatalf("%s: EUI.AddrsTotal = %d, want Summary's %d distinct addresses", label, got, want)
				}
				return euiTables(p.EUI)
			}
			p1 := NewPipeline(cfg)
			tc.faults(p1)
			cps := map[int]*Checkpoint{}
			if _, err := p1.RunCampaign(context.Background(), CampaignOpts{
				CheckpointEvery: 8,
				OnCheckpoint:    func(cp *Checkpoint) { cps[cp.NextSlice] = cp },
			}); err != nil {
				t.Fatal(err)
			}
			want := check("uninterrupted", p1)
			if p1.EUI.AddrsEUI == 0 {
				t.Fatal("the campaign captured no EUI-64 address; the test has nothing to compare")
			}
			for _, s := range []int{8, 48, 88} {
				cp := cps[s]
				if cp == nil {
					t.Fatalf("no checkpoint at slice %d", s)
				}
				p2 := NewPipeline(cfg)
				tc.faults(p2)
				if _, err := p2.ResumeCampaign(context.Background(), cp, CampaignOpts{}); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("resumed from slice %d", s)
				if got := check(label, p2); got != want {
					t.Errorf("%s: EUI tables\n%s\nwant the uninterrupted run's\n%s", label, got, want)
				}
			}
		})
	}
}

// TestCampaignDatasetIsItsRows holds the dataset a campaign returns,
// folded slice by slice in its sink jobs, to the one NewDataset builds
// over the campaign's JSONL read back: the same number of rows, the
// same successes module by module (as JSON) and the same hit rate. It
// runs at Workers 1 and 3 and on a resume from slice 48, where both
// sides hold only the rows written after the checkpoint.
func TestCampaignDatasetIsItsRows(t *testing.T) {
	check := func(t *testing.T, ds *analysis.Dataset, jsonl []byte) {
		t.Helper()
		var rows []*zgrab.Result
		if err := zgrab.DecodeJSONL(bytes.NewReader(jsonl), func(r *zgrab.Result) error {
			rows = append(rows, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := analysis.NewDataset("ntp", rows)
		if len(ds.Results) != len(rows) {
			t.Fatalf("dataset holds %d rows, its JSONL %d", len(ds.Results), len(rows))
		}
		successes := 0
		for _, m := range zgrab.AllModules() {
			got, exp := ds.Successes(m.Name()), want.Successes(m.Name())
			if !slices.EqualFunc(got, exp, sameRow) {
				t.Errorf("module %s: %d successes, the JSONL's %d (or a different row)", m.Name(), len(got), len(exp))
			}
			successes += len(exp)
		}
		if successes == 0 {
			t.Fatal("no successful grab to compare")
		}
		gr, gs, grate := analysis.HitRate(ds)
		wr, ws, wrate := analysis.HitRate(want)
		if gr != wr || gs != ws || grate != wrate {
			t.Errorf("HitRate = %d/%d (%v), the JSONL's %d/%d (%v)", gr, gs, grate, wr, ws, wrate)
		}
	}
	run := func(t *testing.T, workers int, opts CampaignOpts) (*analysis.Dataset, []byte) {
		t.Helper()
		cfg := testConfig(51)
		cfg.Workers = workers
		var out bytes.Buffer
		opts.Out = &out
		ds, err := NewPipeline(cfg).RunCampaign(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return ds, out.Bytes()
	}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			ds, jsonl := run(t, workers, CampaignOpts{})
			check(t, ds, jsonl)
		})
	}
	t.Run("resume48", func(t *testing.T) {
		var cp *Checkpoint
		run(t, 2, CampaignOpts{CheckpointEvery: 48, OnCheckpoint: func(c *Checkpoint) {
			if c.NextSlice == 48 {
				cp = c
			}
		}})
		if cp == nil {
			t.Fatal("no checkpoint at slice 48")
		}
		cfg := testConfig(51)
		cfg.Workers = 2
		var rest bytes.Buffer
		ds, err := NewPipeline(cfg).ResumeCampaign(context.Background(), cp, CampaignOpts{Out: &rest})
		if err != nil {
			t.Fatal(err)
		}
		check(t, ds, rest.Bytes())
	})
}

// sameRow reports whether two rows encode to the same JSON.
func sameRow(a, b *zgrab.Result) bool {
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	return erra == nil && errb == nil && bytes.Equal(ja, jb)
}
