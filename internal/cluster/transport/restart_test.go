package transport

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"ntpscan/internal/chaos"
	"ntpscan/internal/cluster"
	"ntpscan/internal/core"
	"ntpscan/internal/obs"
)

// restartAPI drives a Client and, the first time the campaign reaches
// trigger's slice, kills the endpoint — a coordinator process restart,
// in-memory lease table lost. The client under it
// must bridge the gap with retry/backoff: its first backoff wait is
// where the NEW fabric comes up on the same address, so the outage is
// seen by exactly the retry loop and takes no wall-clock delay.
type restartAPI struct {
	*Client
	t       *testing.T
	ep      *Endpoint
	shards  int
	nodes   int
	trigger int

	once sync.Once
	mu   sync.Mutex
	fab2 *cluster.Fabric // the replacement, once it listens
}

func (r *restartAPI) maybeRestart(slice int) {
	if slice < r.trigger {
		return
	}
	r.once.Do(func() {
		if err := r.ep.Close(); err != nil {
			r.t.Errorf("endpoint close: %v", err)
		}
		addr := strings.TrimPrefix(r.ep.URL, "http://")
		r.Client.sleep = func(time.Duration) {
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.fab2 != nil {
				return
			}
			fab2, err := cluster.NewFabric(r.shards, cluster.Config{Nodes: r.nodes})
			if err != nil {
				r.t.Error(err)
				return
			}
			// Rebinding the freed port is the whole point (the node's
			// base URL must stay valid); a bind that fails is tried
			// again on the client's next retry.
			ep2, err := ListenAddr(NewServer(fab2, fab2.Obs), addr)
			if err != nil {
				r.t.Logf("rebind %s: %v", addr, err)
				return
			}
			r.fab2 = fab2
			r.t.Cleanup(func() {
				if err := ep2.Close(); err != nil {
					r.t.Errorf("restarted endpoint close: %v", err)
				}
			})
		}
	})
}

func (r *restartAPI) Claim(node, slice int) ([]cluster.Grant, error) {
	r.maybeRestart(slice)
	return r.Client.Claim(node, slice)
}

func (r *restartAPI) Heartbeat(node, slice int) ([]cluster.Grant, error) {
	r.maybeRestart(slice)
	return r.Client.Heartbeat(node, slice)
}

// The coordinator dies mid-campaign and a cold replacement (empty
// lease table, epochs back at 1) takes over the same address. The
// replica's client retries across the outage, re-claims against the
// new fabric, and the campaign output does not move by a byte.
func TestNodeReplicaSurvivesFabricRestart(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	ctx := context.Background()
	seed := chaos.Seeds()[0]

	var want bytes.Buffer
	base := core.NewPipeline(chaos.Config(seed))
	if _, err := base.RunCampaign(ctx, core.CampaignOpts{Out: &want}); err != nil {
		t.Fatal(err)
	}

	fab, err := cluster.NewFabric(base.Cfg.CollectShards, cluster.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := ListenLoopback(NewServer(fab, fab.Obs))
	if err != nil {
		t.Fatal(err)
	}
	// No cleanup-close for ep: the restart path closes it mid-test.

	clientReg := obs.NewRegistry()
	client := NewClient(ep.URL, 0, clientReg)
	defer client.CloseIdle()
	// Generous budget: the outage ends inside the first backoff wait,
	// the rest is room for a rebind that has to be tried twice.
	client.Retries = 30

	api := &restartAPI{
		Client:  client,
		t:       t,
		ep:      ep,
		shards:  base.Cfg.CollectShards,
		nodes:   1,
		trigger: 25,
	}
	p := core.NewPipeline(chaos.Config(seed))
	var got bytes.Buffer
	_, stats, err := cluster.RunNode(ctx, p, api, 0, cluster.Config{Nodes: 1},
		core.CampaignOpts{Out: &got})
	if err != nil {
		t.Fatal(err)
	}
	fab2 := api.fab2
	if fab2 == nil {
		t.Fatal("fabric restart failed")
	}

	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("replica output moved across a coordinator restart (%d vs %d bytes)",
			got.Len(), want.Len())
	}
	retries := clientReg.Snapshot()["transport_client_retries_total"]
	if len(retries) != 1 || retries[0] == 0 {
		t.Errorf("transport_client_retries_total = %v, want non-zero — the outage was never bridged by backoff", retries)
	}
	if stats.Accepted == 0 {
		t.Error("no submissions accepted after the restart")
	}
	// Both incarnations keep their own books; each must balance.
	for i, f := range []*cluster.Fabric{fab, fab2} {
		claimed, completed, fenced := f.TaskCounts()
		if claimed != completed+fenced {
			t.Errorf("fabric incarnation %d conservation violated: %d != %d + %d",
				i, claimed, completed, fenced)
		}
	}
	t.Logf("restart bridged with %d retries, %d offline slices", retries[0], stats.Offline)
}
