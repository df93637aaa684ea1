package query_test

import (
	"context"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"ntpscan/internal/cluster"
	"ntpscan/internal/core"
	"ntpscan/internal/query"
	"ntpscan/internal/store"
)

// coldChildEnv marks the re-executed test binary (read here only).
const coldChildEnv = "NTPSCAN_COLD_CHILD"

// A process's first durable campaign must allocate like its tenth.
// encoding/json builds a type's reflective encoder on first use; when
// that happens inside a campaign — the checkpoint document, a grab
// payload — the first campaign carries a thousand allocations the
// others do not, and a harness that holds allocations per result to a
// thousandth of their median reads it as a fault. The result encoder
// is hand-written and what a campaign still reflects over (the
// checkpoint, the grab payload's decode side) is warmed at package
// load, so the construction is nobody's campaign.
//
// The test re-executes its own binary so every cache is cold, then in
// the child runs one clean campaign and three durable ones (store,
// aggregates, telemetry, a checkpoint every 8 slices framed by
// cluster.EncodeCheckpoint) and holds the first durable campaign's
// malloc count to 0.05 % of the later ones' median.
func TestFirstDurableCampaignAllocatesLikeLater(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops a quarter of its Puts at random: malloc counts do not repeat")
			}
		}
	}
	if os.Getenv(coldChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFirstDurableCampaignAllocatesLikeLater$", "-test.v")
		cmd.Env = append(os.Environ(), coldChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("cold child: %v\n%s", err, out)
		}
		t.Logf("cold child:\n%s", out)
		return
	}

	// Two thirds of the default world: ~570 k allocations a campaign, so
	// 0.05 % is ~280 — above the ~150 that scheduling moves between
	// identical campaigns, a quarter of one reflective encoder set.
	cfg := campaignConfig(53, 2)
	cfg.World.DeviceScale, cfg.World.AddrScale, cfg.CaptureBudget = 2e-3, 3e-6, 0
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	campaign := func(durable bool) uint64 {
		p := core.NewPipeline(cfg)
		opts := core.CampaignOpts{Out: io.Discard}
		if durable {
			st, err := store.Open(t.TempDir(), store.Options{Obs: p.Obs})
			if err != nil {
				t.Fatal(err)
			}
			opts.Store, opts.Aggregates, opts.Telemetry = st, query.NewAggregates(), io.Discard
			opts.CheckpointEvery = 8
			opts.OnCheckpoint = func(cp *core.Checkpoint) {
				if err := cluster.EncodeCheckpoint(io.Discard, cp); err != nil {
					t.Error(err)
				}
			}
		}
		// Two collections empty every sync.Pool, so each campaign starts
		// with the same (no) pooled buffers.
		runtime.GC()
		runtime.GC()
		m0 := mallocs()
		ds, err := p.RunCampaign(context.Background(), opts)
		n := mallocs() - m0
		if err != nil || len(ds.Results) == 0 {
			t.Fatalf("campaign: %d results, err %v", len(ds.Results), err)
		}
		return n
	}

	campaign(false)
	first := float64(campaign(true))
	later := []float64{float64(campaign(true)), float64(campaign(true)), float64(campaign(true))}
	sort.Float64s(later)
	median := later[1]
	t.Logf("mallocs: first durable campaign %.0f, later %.0f (excess %+.0f, %.4f %%)",
		first, later, first-median, 100*(first-median)/median)
	if d := first - median; d > 0.0005*median || d < -0.0005*median {
		t.Fatalf("first durable campaign made %.0f allocations, later ones %.0f: %+.0f is beyond 0.05 %% — something is built on first use inside the campaign",
			first, later, d)
	}
}
