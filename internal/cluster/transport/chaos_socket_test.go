package transport_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ntpscan/internal/chaos"
	"ntpscan/internal/cluster"
	"ntpscan/internal/cluster/transport"
	"ntpscan/internal/core"
	"ntpscan/internal/netsim"
	"ntpscan/internal/obs"
	"ntpscan/internal/store"
)

// The PR's acceptance oracle: the cluster campaign with its control
// plane routed over a real loopback socket — coordinator served by the
// HTTP transport, every node a transport.Client — must produce the
// byte-exact output of the single-process, no-cluster run, at any node
// count, under mid-campaign node loss and a control-plane partition.
// Epoch fencing must provably happen ON THE SERVER side of the wire
// (the zombies' stale submissions travel the socket and come back
// ErrStaleEpoch).

// pinPartition mirrors the chaos suite's pinned partition: node 2 over
// slices [40, 52), guaranteeing zombie submissions.
func pinPartition(p *core.Pipeline) {
	from, _ := p.SliceWindow(40)
	until, _ := p.SliceWindow(52)
	p.Cfg.Faults.AddNode(netsim.NodeFault{
		Kind: netsim.NodePartition, Node: 2, From: from, Until: until,
	})
}

// socketCluster builds a coordinator for p, serves it on a loopback
// socket, and dials every node's control handle back through the wire.
// Returns the coordinator (dispatch-ready) and the shared client
// registry; teardown is registered on t.
func socketCluster(t *testing.T, p *core.Pipeline, nodes int) (*cluster.Coordinator, *obs.Registry, *transport.Server) {
	t.Helper()
	coord, err := cluster.NewCoordinator(p, cluster.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(coord, nil)
	ep, err := transport.ListenLoopback(srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := ep.Close(); err != nil {
			t.Errorf("endpoint close: %v", err)
		}
	})
	clientReg := obs.NewRegistry()
	coord.SetDial(transport.Dial(ep.URL, clientReg))
	return coord, clientReg, srv
}

func TestClusterOverSocketByteIdentical(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	ctx := context.Background()
	for _, seed := range chaos.Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Oracle: data-plane faults only, single process, no cluster,
			// no socket.
			var want bytes.Buffer
			base := chaos.FaultedPipeline(chaos.Config(seed), seed+1, chaos.DefaultSpec())
			if _, err := base.RunCampaign(ctx, core.CampaignOpts{Out: &want}); err != nil {
				t.Fatal(err)
			}

			for _, nodes := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
					spec := chaos.DefaultSpec()
					if nodes > 1 {
						spec = chaos.NodeLossSpec(nodes, 1)
					}
					p := chaos.FaultedPipeline(chaos.Config(seed), seed+1, spec)
					if nodes > 1 {
						pinPartition(p)
					}
					coord, _, _ := socketCluster(t, p, nodes)

					var got bytes.Buffer
					if _, err := coord.Run(ctx, core.CampaignOpts{Out: &got}); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Errorf("socket cluster JSONL diverges from single-process run (%d vs %d bytes)",
							got.Len(), want.Len())
					}
					claimed, completed, fenced, lost := coord.TaskCounts()
					if nodes > 1 && fenced == 0 {
						t.Error("no epoch rejections crossed the wire — zombies were not fenced server-side")
					}
					if claimed != completed+fenced+lost {
						t.Errorf("task conservation violated over the socket: claimed %d != completed %d + fenced %d + lost %d",
							claimed, completed, fenced, lost)
					}
				})
			}
		})
	}
}

// Store directories are part of the contract too: a store-backed
// campaign over the socket, with a kill and a partition in flight,
// leaves the exact directory bytes of the single-process run.
func TestClusterStoreDirIdenticalOverSocket(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	ctx := context.Background()
	seed := chaos.Seeds()[0]

	runDir := func(t *testing.T, nodes int) string {
		dir := t.TempDir()
		spec := chaos.DefaultSpec()
		if nodes > 1 {
			spec = chaos.NodeLossSpec(nodes, 1)
		}
		p := chaos.FaultedPipeline(chaos.Config(seed), seed+1, spec)
		st, err := store.Open(dir, store.Options{Obs: p.Obs})
		if err != nil {
			t.Fatal(err)
		}
		if nodes == 1 {
			if _, err := p.RunCampaign(ctx, core.CampaignOpts{Store: st}); err != nil {
				t.Fatal(err)
			}
			return dir
		}
		pinPartition(p)
		coord, _, _ := socketCluster(t, p, nodes)
		if _, err := coord.Run(ctx, core.CampaignOpts{Store: st}); err != nil {
			t.Fatal(err)
		}
		if coord.EpochRejections() == 0 {
			t.Errorf("nodes=%d: no epoch rejections — zombie fencing untested over the socket", nodes)
		}
		return dir
	}

	want := store.DirDigest(t, runDir(t, 1))
	for _, nodes := range []int{3, 8} {
		if got := store.DirDigest(t, runDir(t, nodes)); got != want {
			t.Errorf("nodes=%d: socket-cluster store directory diverges from single-process run", nodes)
		}
	}
}
