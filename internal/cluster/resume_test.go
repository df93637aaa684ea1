package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ntpscan/internal/chaos"
	"ntpscan/internal/cluster"
	"ntpscan/internal/core"
	"ntpscan/internal/netsim"
	"ntpscan/internal/query"
	"ntpscan/internal/store"
)

// partitionAt returns the plan mutation used by the resume tests: a
// partition of node 2 spanning slices [40, 52) — zombie executions and
// fencing happen both before and after the checkpoint the tests resume
// from.
func partitionAt(p *core.Pipeline) {
	from, _ := p.SliceWindow(40)
	until, _ := p.SliceWindow(52)
	p.Cfg.Faults.AddNode(netsim.NodeFault{
		Kind: netsim.NodePartition, Node: 2, From: from, Until: until,
	})
}

// Kill-and-resume for the cluster: a fresh coordinator restored from a
// mid-campaign checkpoint — carried through the framed on-disk
// encoding — reproduces the uninterrupted clustered run's remaining
// output byte-for-byte, with the fencing epochs continued.
func TestClusterResumeReproducesOutput(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	seed := chaos.Seeds()[0]
	cfg := cluster.Config{Nodes: 3}

	var full bytes.Buffer
	var cps []*core.Checkpoint
	p1 := chaos.FaultedPipeline(chaos.Config(seed), seed+1, chaos.DefaultSpec())
	partitionAt(p1)
	_, coord1, err := cluster.Run(context.Background(), p1, cfg, core.CampaignOpts{
		Out:             &full,
		CheckpointEvery: 24,
		OnCheckpoint:    func(cp *core.Checkpoint) { cps = append(cps, cp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 3 {
		t.Fatalf("expected >=3 checkpoints, got %d", len(cps))
	}
	if coord1.EpochRejections() == 0 {
		t.Fatal("partition produced no epoch rejections — fault window missed the run")
	}

	// The checkpoint after the partition window opened: epochs > 1 for
	// the fenced shards. Round-trip it through the framed encoding, as
	// a real kill+resume would through disk.
	src := cps[1]
	if src.Cluster == nil {
		t.Fatal("clustered checkpoint carries no cluster section")
	}
	var frame bytes.Buffer
	if err := cluster.EncodeCheckpoint(&frame, src); err != nil {
		t.Fatal(err)
	}
	cp, err := cluster.DecodeCheckpoint(bytes.NewReader(frame.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	var rest bytes.Buffer
	p2 := chaos.FaultedPipeline(chaos.Config(seed), seed+1, chaos.DefaultSpec())
	partitionAt(p2)
	_, coord2, err := cluster.Resume(context.Background(), p2, cp, cfg, core.CampaignOpts{Out: &rest})
	if err != nil {
		t.Fatal(err)
	}
	want := full.Bytes()[cp.OutOffset:]
	if !bytes.Equal(rest.Bytes(), want) {
		t.Fatalf("resumed cluster output diverges: %d bytes vs %d expected", rest.Len(), len(want))
	}
	if p2.Captures != p1.Captures {
		t.Errorf("resumed Captures = %d, want %d", p2.Captures, p1.Captures)
	}
	if g, w := fmt.Sprintf("%+v", p2.Summary.Stats()), fmt.Sprintf("%+v", p1.Summary.Stats()); g != w {
		t.Errorf("resumed Summary diverges:\n got %s\nwant %s", g, w)
	}
	claimed, completed, fenced, lost := coord2.TaskCounts()
	if claimed != completed+fenced+lost {
		t.Errorf("resumed task conservation violated: %d != %d+%d+%d", claimed, completed, fenced, lost)
	}
}

// With a store attached, a clustered campaign delivers each checkpoint
// once the sink job of its slice is joined — after the next slice has
// been dispatched — yet the checkpoint is the one taken at its barrier.
// Its Obs and everything but its store and cluster sections equal, byte
// for byte, those of the same campaign run with no store and no
// aggregates. The cluster section is held by resuming: checkpoints
// every 8 slices put one at slice 40, right before node 2's partition
// opens, one at 48 inside it and one at 56 after it, and resuming the
// durable run from each reproduces its JSONL tail, its store directory,
// and the coordinator's final metrics and task counts — those the
// checkpoint fixes. It carries the fencing epochs and the counters, not
// who holds each lease or what each node believes it holds: a resumed
// coordinator grants every lease afresh, and a node partitioned across
// the resume point runs none of the zombie work it would have. The
// series that count those (leaseSeries) are left out.
func TestClusterCheckpointsAreTakenAtTheBarrier(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	seed := chaos.Seeds()[0]
	cfg := cluster.Config{Nodes: 3}
	leaseSeries := []string{"cluster_leases_granted_total", "cluster_leases_expired_total",
		"cluster_tasks_claimed_total", "cluster_epoch_rejections_total"}
	type run struct {
		out             bytes.Buffer
		cps             []*core.Checkpoint
		dirs            map[int]string // the store directory as each checkpoint pinned it
		obs             []byte         // the coordinator's metrics once the run ended
		completed, lost int64          // its task counts outside leaseSeries
	}
	finish := func(r *run, coord *cluster.Coordinator) {
		snap := coord.Obs.Snapshot()
		for _, name := range leaseSeries {
			delete(snap, name)
		}
		var err error
		if r.obs, err = json.Marshal(snap); err != nil {
			t.Fatal(err)
		}
		_, r.completed, _, r.lost = coord.TaskCounts()
	}
	pipeline := func() *core.Pipeline {
		p := chaos.FaultedPipeline(chaos.Config(seed), seed+1, chaos.DefaultSpec())
		partitionAt(p)
		return p
	}
	campaign := func(dir string) *run {
		r := &run{dirs: map[int]string{}}
		opts := core.CampaignOpts{Out: &r.out, CheckpointEvery: 8}
		if dir != "" {
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts.Store, opts.Aggregates = st, query.NewAggregates()
		}
		opts.OnCheckpoint = func(cp *core.Checkpoint) {
			r.cps = append(r.cps, cp)
			if dir != "" {
				at := filepath.Join(t.TempDir(), "store")
				if err := os.CopyFS(at, os.DirFS(dir)); err != nil {
					t.Fatal(err)
				}
				r.dirs[cp.NextSlice] = at
			}
		}
		_, coord, err := cluster.Run(context.Background(), pipeline(), cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		finish(r, coord)
		return r
	}
	dir := t.TempDir()
	plain, durable := campaign(""), campaign(dir)
	if !bytes.Equal(durable.out.Bytes(), plain.out.Bytes()) {
		t.Fatal("the durable run's JSONL differs from the plain run's")
	}
	if len(durable.cps) != len(plain.cps) || len(plain.cps) != core.CollectSlices/8-1 {
		t.Fatalf("%d durable and %d plain checkpoints, want %d", len(durable.cps), len(plain.cps), core.CollectSlices/8-1)
	}
	for i, cp := range durable.cps {
		want := *plain.cps[i]
		rest := *cp
		rest.Store, rest.Cluster, want.Cluster = nil, nil, nil // the sections the resumes below hold
		for name, pair := range map[string][2]any{
			"Obs":                    {cp.Obs, want.Obs},
			"rest of the checkpoint": {&rest, &want},
		} {
			got, err := json.Marshal(pair[0])
			if err != nil {
				t.Fatal(err)
			}
			exp, err := json.Marshal(pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, exp) {
				t.Errorf("checkpoint at slice %d: %s differs from the one taken at the barrier", cp.NextSlice, name)
			}
		}
	}
	if t.Failed() {
		return
	}

	digest := store.DirDigest(t, dir)
	for _, src := range durable.cps {
		if n := src.NextSlice; n != 40 && n != 48 && n != 56 {
			continue
		}
		var frame bytes.Buffer
		if err := cluster.EncodeCheckpoint(&frame, src); err != nil {
			t.Fatal(err)
		}
		cp, err := cluster.DecodeCheckpoint(bytes.NewReader(frame.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		at := durable.dirs[cp.NextSlice]
		st, err := store.Open(at, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := &run{}
		_, coord, err := cluster.Resume(context.Background(), pipeline(), cp, cfg, core.CampaignOpts{
			Out: &r.out, Store: st, Aggregates: query.NewAggregates(),
		})
		if err != nil {
			t.Fatal(err)
		}
		finish(r, coord)
		if !bytes.Equal(r.out.Bytes(), durable.out.Bytes()[cp.OutOffset:]) {
			t.Errorf("resume at slice %d: JSONL tail diverges", cp.NextSlice)
		}
		if store.DirDigest(t, at) != digest {
			t.Errorf("resume at slice %d: store directory diverges", cp.NextSlice)
		}
		if !bytes.Equal(r.obs, durable.obs) {
			t.Errorf("resume at slice %d: coordinator metrics diverge:\n got %s\nwant %s", cp.NextSlice, r.obs, durable.obs)
		}
		if r.completed != durable.completed || r.lost != durable.lost {
			t.Errorf("resume at slice %d: %d tasks completed and %d lost, want %d and %d",
				cp.NextSlice, r.completed, r.lost, durable.completed, durable.lost)
		}
	}
}

// A checkpoint from a non-clustered campaign has no cluster section;
// resuming a cluster from it must fail loudly with the typed error,
// not silently start with fresh epochs.
func TestClusterResumeRejectsMissingSection(t *testing.T) {
	seed := chaos.Seeds()[0]
	var cps []*core.Checkpoint
	p := chaos.FaultedPipeline(chaos.Config(seed), seed+1, chaos.DefaultSpec())
	if _, err := p.RunCampaign(context.Background(), core.CampaignOpts{
		CheckpointEvery: 32,
		OnCheckpoint:    func(cp *core.Checkpoint) { cps = append(cps, cp) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints")
	}
	p2 := chaos.FaultedPipeline(chaos.Config(seed), seed+1, chaos.DefaultSpec())
	_, _, err := cluster.Resume(context.Background(), p2, cps[0], cluster.Config{Nodes: 3}, core.CampaignOpts{})
	if !errors.Is(err, cluster.ErrLeaseTableMismatch) {
		t.Fatalf("resume from non-cluster checkpoint: err = %v, want ErrLeaseTableMismatch", err)
	}
}

// An epoch table that does not fit the pipeline is rejected with the
// typed error: the wrong length (a checkpoint from a differently-sharded
// campaign), or a zero epoch, which would hand the resumed table a
// value the fence is built never to hold.
func TestClusterResumeRejectsLeaseTableMismatch(t *testing.T) {
	seed := chaos.Seeds()[0]
	for name, mangle := range map[string]func(epochs []uint64) []uint64{
		"truncated epoch table": func(e []uint64) []uint64 { return e[:len(e)/2] },
		"zero epoch":            func(e []uint64) []uint64 { e[len(e)-1] = 0; return e },
	} {
		cp := clusterCheckpoint(t, seed)
		cp.Cluster.Epochs = mangle(cp.Cluster.Epochs)
		p := chaos.FaultedPipeline(chaos.Config(seed), seed+1, chaos.DefaultSpec())
		_, _, err := cluster.Resume(context.Background(), p, cp, cluster.Config{Nodes: 3}, core.CampaignOpts{})
		if !errors.Is(err, cluster.ErrLeaseTableMismatch) {
			t.Errorf("resume with %s: err = %v, want ErrLeaseTableMismatch", name, err)
		}
	}
}

// clusterCheckpoint runs a short clustered campaign and returns its
// first checkpoint (JSON round-tripped, as a stored one would be).
func clusterCheckpoint(t *testing.T, seed uint64) *core.Checkpoint {
	t.Helper()
	var cps []*core.Checkpoint
	p := chaos.FaultedPipeline(chaos.Config(seed), seed+1, chaos.DefaultSpec())
	_, _, err := cluster.Run(context.Background(), p, cluster.Config{Nodes: 3}, core.CampaignOpts{
		CheckpointEvery: 32,
		OnCheckpoint:    func(cp *core.Checkpoint) { cps = append(cps, cp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints")
	}
	blob, err := json.Marshal(cps[0])
	if err != nil {
		t.Fatal(err)
	}
	cp := new(core.Checkpoint)
	if err := json.Unmarshal(blob, cp); err != nil {
		t.Fatal(err)
	}
	return cp
}

// The framed coordinator checkpoint fails loudly on every kind of torn
// or corrupt frame: cut anywhere (header, body, trailer), bad magic,
// or a flipped body byte — always the typed ErrTruncatedCheckpoint,
// never half a lease table.
func TestCheckpointFrameRejectsTruncationAndCorruption(t *testing.T) {
	seed := chaos.Seeds()[0]
	cp := clusterCheckpoint(t, seed)

	var frame bytes.Buffer
	if err := cluster.EncodeCheckpoint(&frame, cp); err != nil {
		t.Fatal(err)
	}
	whole := frame.Bytes()

	rt, err := cluster.DecodeCheckpoint(bytes.NewReader(whole))
	if err != nil {
		t.Fatalf("round-trip decode: %v", err)
	}
	if rt.Cluster == nil || len(rt.Cluster.Epochs) != len(cp.Cluster.Epochs) {
		t.Fatal("round-trip lost the cluster section")
	}

	for _, cut := range []int{0, 3, 8, len(whole) / 2, len(whole) - 3, len(whole) - 1} {
		if _, err := cluster.DecodeCheckpoint(bytes.NewReader(whole[:cut])); !errors.Is(err, cluster.ErrTruncatedCheckpoint) {
			t.Errorf("decode of %d/%d bytes: err = %v, want ErrTruncatedCheckpoint", cut, len(whole), err)
		}
	}

	bad := append([]byte(nil), whole...)
	bad[0] ^= 0xff // magic
	if _, err := cluster.DecodeCheckpoint(bytes.NewReader(bad)); !errors.Is(err, cluster.ErrTruncatedCheckpoint) {
		t.Errorf("decode with bad magic: err = %v, want ErrTruncatedCheckpoint", err)
	}

	bad = append([]byte(nil), whole...)
	bad[len(bad)/2] ^= 0x20 // body corruption caught by the CRC
	if _, err := cluster.DecodeCheckpoint(bytes.NewReader(bad)); !errors.Is(err, cluster.ErrTruncatedCheckpoint) {
		t.Errorf("decode with flipped body byte: err = %v, want ErrTruncatedCheckpoint", err)
	}
}
