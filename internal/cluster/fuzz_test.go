package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"ntpscan/internal/core"
	"ntpscan/internal/obs"
)

const fuzzShards = 4

// fuzzCheckpoint frames a small clustered checkpoint for a
// fuzzShards-shard pipeline — the canonical corpus entry.
func fuzzCheckpoint(tb testing.TB, cs *core.ClusterState) []byte {
	var buf bytes.Buffer
	cp := &core.Checkpoint{Seed: 11, CollectShards: fuzzShards, NextSlice: 24, Cluster: cs}
	if err := EncodeCheckpoint(&buf, cp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCheckpointDecode hardens the boundary a coordinator crosses when
// it comes back from disk: arbitrary bytes must never panic the
// decoder; a frame-level failure (truncation, bad magic, CRC) must be
// the typed ErrTruncatedCheckpoint; whatever does decode must
// re-encode to the frame of json.Marshal's bytes (or be refused by
// both encoders), so the hand-written checkpoint writer is refereed on
// every document the reader accepts; and it must either restore onto a
// coordinator cleanly — the lease table then holds exactly the
// checkpoint's epochs, none of them zero — or be refused whole with
// ErrLeaseTableMismatch.
func FuzzCheckpointDecode(f *testing.F) {
	// The committed corpus under testdata/fuzz covers the branch
	// points; these inline seeds duplicate the shapes for -fuzz runs
	// from a clean tree.
	valid := fuzzCheckpoint(f, &core.ClusterState{
		Epochs: []uint64{1, 3, 2, 1},
		Obs:    obs.Snapshot{"cluster_epoch_rejections_total": {3}},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated frame
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0x01
	f.Add(badCRC)
	f.Add(fuzzCheckpoint(f, nil))                                                  // no cluster section
	f.Add(fuzzCheckpoint(f, &core.ClusterState{Epochs: []uint64{1, 0, 2, 1}}))     // zero epoch
	f.Add(fuzzCheckpoint(f, &core.ClusterState{Epochs: []uint64{1, 2}}))           // wrong shard count
	f.Add(AppendFrame(nil, checkpointMagic, []byte(`{"cluster":{"epochs":"x"}}`))) // sound frame, bad body

	// restore touches only the table and the registry, so the
	// coordinator is built without a pipeline: with a whole simulated
	// world live in each fuzz worker, input minimization stalled the
	// run (~1k execs in 10 s against ~200k without).
	c := &Coordinator{table: newLeaseTable(fuzzShards, 2), Obs: obs.NewRegistry()}
	c.met = newMetrics(c.Obs, 2)

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			// Bounded by the input, as the decoder is: a length field
			// declaring more than is there must not be allocated.
			_, ferr := DecodeFrame(bytes.NewReader(data), checkpointMagic, uint32(len(data))+1)
			if ferr != nil && !errors.Is(err, ErrTruncatedCheckpoint) {
				t.Fatalf("frame failure (%v) decoded to untyped error: %v", ferr, err)
			}
			return
		}
		want, wantErr := json.Marshal(cp)
		var frame bytes.Buffer
		err = EncodeCheckpoint(&frame, cp)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("EncodeCheckpoint error %v, json.Marshal error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(frame.Bytes(), AppendFrame(nil, checkpointMagic, want)) {
			t.Fatalf("re-encoded frame differs from json.Marshal's:\n got %q\nwant %s", frame.Bytes(), want)
		}
		before := c.table.epochs()
		if err := c.restore(cp); err != nil {
			if !errors.Is(err, ErrLeaseTableMismatch) {
				t.Fatalf("restore failed with untyped error: %v", err)
			}
			if got := c.table.epochs(); !reflect.DeepEqual(got, before) {
				t.Fatalf("refused restore changed the lease table: %v → %v", before, got)
			}
			return
		}
		got := c.table.epochs()
		if !reflect.DeepEqual(got, cp.Cluster.Epochs) {
			t.Fatalf("restored epochs %v, checkpoint has %v", got, cp.Cluster.Epochs)
		}
		for sh, e := range got {
			if e == 0 {
				t.Fatalf("restore accepted epoch 0 for shard %d", sh)
			}
		}
	})
}
