package transport_test

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"testing"

	"ntpscan/internal/chaos"
	"ntpscan/internal/cluster"
	"ntpscan/internal/cluster/transport"
	"ntpscan/internal/core"
	"ntpscan/internal/obs"
)

// Mode B: the multi-process shape. One Fabric served on a loopback
// socket, each campaign node a full deterministic replica driven by
// cluster.RunNode through its own transport.Client. These tests run
// the replicas as goroutines — cmd/clusterd's test covers the
// separate-process wiring — but every control call crosses the real
// socket.

// fabricEndpoint serves a fresh Fabric for the pipeline's shard count
// and returns it with its live endpoint.
func fabricEndpoint(t *testing.T, shards, nodes int) (*cluster.Fabric, *transport.Endpoint) {
	t.Helper()
	fab, err := cluster.NewFabric(shards, cluster.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := transport.ListenLoopback(transport.NewServer(fab, fab.Obs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := ep.Close(); err != nil {
			t.Errorf("endpoint close: %v", err)
		}
	})
	return fab, ep
}

// Three replica drivers against one wire fabric: every node's JSONL is
// byte-identical to the single-process campaign, and the fabric's
// ledger shows each task accepted exactly once cluster-wide.
func TestNodeReplicasOverSocketByteIdentical(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	ctx := context.Background()
	const nodes = 3
	seed := chaos.Seeds()[0]

	var want bytes.Buffer
	base := core.NewPipeline(chaos.Config(seed))
	if _, err := base.RunCampaign(ctx, core.CampaignOpts{Out: &want}); err != nil {
		t.Fatal(err)
	}

	fab, ep := fabricEndpoint(t, base.Cfg.CollectShards, nodes)
	clientReg := obs.NewRegistry()
	outs := make([]bytes.Buffer, nodes)
	stats := make([]*cluster.NodeStats, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			api := transport.NewClient(ep.URL, n, clientReg)
			defer api.CloseIdle()
			p := core.NewPipeline(chaos.Config(seed))
			_, stats[n], errs[n] = cluster.RunNode(ctx, p, api, n,
				cluster.Config{Nodes: nodes}, core.CampaignOpts{Out: &outs[n]})
		}()
	}
	wg.Wait()

	var accepted int64
	for n := 0; n < nodes; n++ {
		if errs[n] != nil {
			t.Fatalf("node %d: %v", n, errs[n])
		}
		if !bytes.Equal(outs[n].Bytes(), want.Bytes()) {
			t.Errorf("node %d wire replica diverges from single-process run (%d vs %d bytes)",
				n, outs[n].Len(), want.Len())
		}
		accepted += stats[n].Accepted
	}
	claimed, completed, fenced := fab.TaskCounts()
	if completed != accepted {
		t.Errorf("fabric completed %d != nodes' accepted sum %d", completed, accepted)
	}
	if claimed != completed+fenced {
		t.Errorf("fabric conservation violated over the socket: %d != %d + %d",
			claimed, completed, fenced)
	}
	t.Logf("wire cluster: claimed %d = completed %d + fenced %d", claimed, completed, fenced)
}

// A well-formed frame on an unmounted path is a routing error, not a
// hang: the mux answers 404/405 and the client does not retry it into
// oblivion (http-level errors are responses, not transport failures).
func TestUnmountedPathAnswers(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	_, ep := fabricEndpoint(t, 2, 1)
	frame := cluster.AppendFrame(nil, [4]byte{'n', 't', 'p', 'w'}, []byte(`{"node":0,"slice":0}`))
	resp, err := http.Post(ep.URL+"/v1/cluster/nope", "application/x-ntpscan-frame",
		bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unmounted path status = %d, want 404", resp.StatusCode)
	}
	// GET on a mounted POST path: method not allowed.
	g, err := http.Get(ep.URL + "/v1/cluster/claim")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST path status = %d, want 405", g.StatusCode)
	}
}
