package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ntpscan/internal/chaos"
	"ntpscan/internal/cluster"
	"ntpscan/internal/core"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
	"ntpscan/internal/zgrab"
)

// checkpointGolden is the SHA-256 of the framed slice-48 checkpoint of
// TestCheckpointJSONRoundTrip's durable campaign, as json.Marshal wrote
// it before the checkpoint had an encoder of its own.
const checkpointGolden = "99d38a085503bd0265693ca3e09b5cf34d425230a15e563d7e40021b2339c30e"

// Checkpoints survive a JSON round trip unchanged, and the checkpoint
// file is json.Marshal's document: for every checkpoint of three
// campaigns — a durable one (store manifest), a faulted one (breaker
// state) and a clustered one (the coordinator's lease epochs) —
// cluster.EncodeCheckpoint writes exactly the frame of json.Marshal(cp),
// and what DecodeCheckpoint reads back marshals to the same bytes. One
// frame is held to a digest recorded from the json.Marshal encoder.
func TestCheckpointJSONRoundTrip(t *testing.T) {
	cfg := core.Config{
		Seed:          13,
		World:         world.Config{DeviceScale: 1e-3, AddrScale: 1e-6, ASScale: 0.02},
		Workers:       4,
		CaptureBudget: 1000,
		Retry:         zgrab.DefaultRetryPolicy(),
		Breaker:       &zgrab.BreakerConfig{},
	}
	campaigns := map[string]func(core.CampaignOpts) error{
		"durable": func(opts core.CampaignOpts) error {
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				return err
			}
			opts.Store = st
			_, err = core.NewPipeline(cfg).RunCampaign(context.Background(), opts)
			return err
		},
		"faulted": func(opts core.CampaignOpts) error {
			_, err := chaos.FaultedPipeline(cfg, 14, chaos.DefaultSpec()).RunCampaign(context.Background(), opts)
			return err
		},
		"clustered": func(opts core.CampaignOpts) error {
			_, _, err := cluster.Run(context.Background(), core.NewPipeline(cfg), cluster.Config{Nodes: 3}, opts)
			return err
		},
	}
	for name, run := range campaigns {
		var cps []*core.Checkpoint
		if err := run(core.CampaignOpts{
			CheckpointEvery: 8,
			OnCheckpoint:    func(cp *core.Checkpoint) { cps = append(cps, cp) },
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cps) != 11 {
			t.Fatalf("%s: %d checkpoints, want 11", name, len(cps))
		}
		breaker := 0
		for _, cp := range cps {
			want, err := json.Marshal(cp)
			if err != nil {
				t.Fatal(err)
			}
			var frame bytes.Buffer
			if err := cluster.EncodeCheckpoint(&frame, cp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame.Bytes(), cluster.AppendFrame(nil, [4]byte{'n', 't', 'p', 'c'}, want)) {
				t.Errorf("%s slice %d: EncodeCheckpoint is not the frame of json.Marshal(cp) (%d bytes, body %d)",
					name, cp.NextSlice, frame.Len(), len(want))
			}
			back, err := cluster.DecodeCheckpoint(bytes.NewReader(frame.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if again, err := json.Marshal(back); err != nil || !bytes.Equal(again, want) {
				t.Errorf("%s slice %d: checkpoint changed across the round trip (err %v)", name, cp.NextSlice, err)
			}
			switch {
			case name == "durable" && cp.Store == nil, name == "clustered" && cp.Cluster == nil:
				t.Errorf("%s slice %d: the section the campaign exists for is missing", name, cp.NextSlice)
			case name == "durable" && cp.NextSlice == 48:
				if sum := sha256.Sum256(frame.Bytes()); hex.EncodeToString(sum[:]) != checkpointGolden {
					t.Errorf("durable slice 48: frame SHA-256 %x, want %s", sum, checkpointGolden)
				}
			}
			breaker += len(cp.Scan.Breaker)
		}
		if name == "faulted" && breaker == 0 {
			t.Error("faulted: no checkpoint holds breaker state")
		}
	}
}
