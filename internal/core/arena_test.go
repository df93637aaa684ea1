package core

import (
	"context"
	"strings"
	"testing"
)

// TestCampaignArenaCountersAcrossWorkers re-runs the worker-count
// identity check on the arena books: per-shard arenas keep the
// materialization sequence inside each shard's own stream, so worker
// scheduling must not leak into the dataset or the arena counters.
func TestCampaignArenaCountersAcrossWorkers(t *testing.T) {
	run := func(workers int) (uint64, map[string]int64) {
		cfg := testConfig(11)
		cfg.Workers = workers
		cfg.CaptureBudget = 3000
		p := NewPipeline(cfg)
		d := p.RunNTPCampaign(context.Background())
		arena := map[string]int64{
			"mat":      p.met.arenaMat.Value(),
			"hits":     p.met.arenaHits.Value(),
			"evict":    p.met.arenaEvict.Value(),
			"resident": p.met.arenaResident.Value(),
		}
		return datasetDigest(t, d), arena
	}

	base, arena1 := run(1)
	if arena1["mat"] == 0 {
		t.Fatal("campaign never materialized a device through the arenas")
	}
	for _, workers := range []int{3, 8} {
		got, arena := run(workers)
		if got != base {
			t.Errorf("workers=%d dataset digest %x, want %x", workers, got, base)
		}
		for k, v := range arena1 {
			if arena[k] != v {
				t.Errorf("workers=%d arena %s = %d, want %d", workers, k, arena[k], v)
			}
		}
	}
}

// TestResumeRejectsCorruptArenaSnapshot: a checkpoint whose arena
// section was damaged on disk must come back from ResumeCampaign as an
// error naming the shard — not as a panic once the shards are built.
func TestResumeRejectsCorruptArenaSnapshot(t *testing.T) {
	cfg := testConfig(11)
	cfg.CaptureBudget = 3000
	var cp *Checkpoint
	if _, err := NewPipeline(cfg).RunCampaign(context.Background(), CampaignOpts{
		CheckpointEvery: 48,
		OnCheckpoint:    func(c *Checkpoint) { cp = c },
	}); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("campaign took no checkpoint")
	}
	for name, corrupt := range map[string]func([]int32){
		"gid below -1":     func(slots []int32) { slots[0] = -2 },
		"gid in two slots": func(slots []int32) { slots[0], slots[1] = 5, 5 },
	} {
		t.Run(name, func(t *testing.T) {
			bad := *cp
			bad.Shards = append([]ShardSnap(nil), cp.Shards...)
			arena := *cp.Shards[3].Arena
			arena.Slots = append([]int32(nil), arena.Slots...)
			corrupt(arena.Slots)
			bad.Shards[3].Arena = &arena
			_, err := NewPipeline(cfg).ResumeCampaign(context.Background(), &bad, CampaignOpts{})
			if err == nil || !strings.Contains(err.Error(), "shard 3") {
				t.Fatalf("ResumeCampaign error = %v, want one naming shard 3", err)
			}
		})
	}
}
