package ntpscan_test

import (
	"bytes"
	"context"
	"os"
	"sync"
	"testing"

	"ntpscan/internal/chaos"
	"ntpscan/internal/core"
	"ntpscan/internal/query"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
)

// growthPoint is a durable campaign as it stood at one checkpoint: the
// live heap, the checkpoint's encoded size, and the count each growing
// structure held, so a ratchet that trips names its culprit.
type growthPoint struct {
	heap       float64 // live heap the campaign added, bytes
	checkpoint int     // Checkpoint.AppendJSON bytes
	rows       int     // rows written, which the sink's dataset holds
	successes  int     // of those, successes
	capLog     int     // capture-log records
	revisit    int     // revisit entries
}

// rowCounter is the campaign's Out: it counts rows and successes and
// keeps no bytes.
type rowCounter struct{ rows, successes int }

func (c *rowCounter) Write(p []byte) (int, error) {
	c.rows += bytes.Count(p, []byte("\n"))
	c.successes += bytes.Count(p, []byte(`"status":"success"`))
	return len(p), nil
}

// growthSlices are the two checkpoints the ratchets compare: the first
// and the last a CheckpointEvery-8 campaign takes.
const growthEarly, growthLate = 8, 88

// campaignGrowth runs one campaign at the benchmark's scale (seed
// 20240720, Workers 2) with a store, aggregates and a checkpoint every
// 8 slices attached, and measures it at slices 8 and 88. Both ratchets
// read the one run.
var campaignGrowth = sync.OnceValues(func() (map[int]growthPoint, error) {
	dir, err := os.MkdirTemp("", "ntpscan-growth-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// What the process held before, so the ratio does not move with the
	// tests that ran earlier in it.
	base := liveHeap()
	p := core.NewPipeline(core.Config{
		Seed:    20240720,
		World:   world.Config{DeviceScale: 3e-3, AddrScale: 6e-6, ASScale: 0.03},
		Workers: 2,
	})
	st, err := store.Open(dir, store.Options{Obs: p.Obs})
	if err != nil {
		return nil, err
	}
	out := &rowCounter{}
	points := map[int]growthPoint{}
	var cpErr error
	_, err = p.RunCampaign(context.Background(), core.CampaignOpts{
		Out:             out,
		Store:           st,
		Aggregates:      query.NewAggregates(),
		CheckpointEvery: 8,
		OnCheckpoint: func(cp *core.Checkpoint) {
			if cp.NextSlice != growthEarly && cp.NextSlice != growthLate {
				return
			}
			b, err := cp.AppendJSON(nil)
			if err != nil {
				cpErr = err
			}
			points[cp.NextSlice] = growthPoint{
				heap: liveHeap() - base, checkpoint: len(b),
				rows: out.rows, successes: out.successes,
				capLog: len(cp.CapLog), revisit: len(cp.Scan.Revisit),
			}
		},
	})
	if err == nil {
		err = cpErr
	}
	return points, err
})

// growth runs or reuses the measured campaign and logs both points.
func growth(t *testing.T) (early, late growthPoint) {
	t.Helper()
	chaos.NoGoroutineLeaks(t)
	points, err := campaignGrowth()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{growthEarly, growthLate} {
		pt, ok := points[s]
		if !ok {
			t.Fatalf("no checkpoint at slice %d", s)
		}
		t.Logf("slice %2d: live heap %.1f MB, checkpoint %d KB; %d rows held (%d successes), %d capture-log records, %d revisit entries",
			s, pt.heap/1e6, pt.checkpoint/1000, pt.rows, pt.successes, pt.capLog, pt.revisit)
	}
	return points[growthEarly], points[growthLate]
}

// TestLiveHeapGrowthRatchet bounds how much more live heap a campaign
// holds at slice 88 than at slice 8, the world included. It grows
// because every row is
// held until the campaign returns. A change that makes a campaign hold
// more per slice fails here; one that holds less lowers the bound in
// the same commit, towards a heap that does not grow with history.
func TestLiveHeapGrowthRatchet(t *testing.T) {
	const bound = 2.44
	early, late := growth(t)
	if ratio := late.heap / early.heap; ratio > bound {
		t.Fatalf("live heap at slice %d is %.2fx slice %d's (%.1f vs %.1f MB), bound %.2fx",
			growthLate, ratio, growthEarly, late.heap/1e6, early.heap/1e6, bound)
	} else {
		t.Logf("ratio %.2fx, bound %.2fx", ratio, bound)
	}
}

// TestCheckpointGrowthRatchet bounds how much larger the slice-88
// checkpoint is than the slice-8 one. It grows with the capture log,
// which every checkpoint copies whole. The bound only ever goes down,
// towards a checkpoint of constant size.
func TestCheckpointGrowthRatchet(t *testing.T) {
	const bound = 2.96
	early, late := growth(t)
	if ratio := float64(late.checkpoint) / float64(early.checkpoint); ratio > bound {
		t.Fatalf("checkpoint at slice %d is %.2fx slice %d's (%d vs %d bytes), bound %.2fx",
			growthLate, ratio, growthEarly, late.checkpoint, early.checkpoint, bound)
	} else {
		t.Logf("ratio %.2fx, bound %.2fx", ratio, bound)
	}
}
