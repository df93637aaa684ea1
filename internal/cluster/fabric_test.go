package cluster

import (
	"errors"
	"testing"
)

// Fabric wiring tests. The lease rules are the shared table's, proven
// against a model in lease_model_test.go; these check what the Fabric
// adds: the TTL sweep on its heard/swept clock, argument validation,
// and the claimed == completed + fenced ledger.

func TestFabricGrantsAndFencing(t *testing.T) {
	f, err := NewFabric(4, Config{Nodes: 2, LeaseTTL: 2})
	if err != nil {
		t.Fatal(err)
	}

	// First contact: node 0 is the only node heard from, takes all.
	g0, err := f.Claim(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g0) != 4 {
		t.Fatalf("node 0 first claim got %d shards, want all 4", len(g0))
	}

	// Node 1 joins the same slice: everything is owned, nothing yet.
	g1, err := f.Claim(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != 0 {
		t.Errorf("node 1 claim while all shards held got %d shards, want 0", len(g1))
	}

	// Node 0 submits under its grants: accepted.
	for _, g := range g0 {
		if err := f.SubmitSlice(0, g.Shard, 0, g.Epoch); err != nil {
			t.Fatalf("submit shard %d: %v", g.Shard, err)
		}
	}
	// Node 1 submits the same shard under the same epoch: not the
	// holder, fenced.
	if err := f.SubmitSlice(1, g0[0].Shard, 0, g0[0].Epoch); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("non-holder submit = %v, want ErrStaleEpoch", err)
	}

	// An out-of-range shard is a rejected call, not a task.
	if err := f.SubmitSlice(0, 9, 0, 1); err == nil || errors.Is(err, ErrStaleEpoch) {
		t.Errorf("out-of-range shard submit = %v, want a non-fencing error", err)
	}

	claimed, completed, fenced := f.TaskCounts()
	if claimed != 5 || completed != 4 || fenced != 1 {
		t.Errorf("fabric ledger claimed=%d completed=%d fenced=%d, want 5/4/1", claimed, completed, fenced)
	}
}

// A renewal must never shorten a lease: a heartbeat that arrives late,
// carrying an older slice than one already processed, keeps the later
// expiry — or the next sweep would fence a node that renewed one slice
// ago.
func TestFabricLateHeartbeatKeepsLease(t *testing.T) {
	f, err := NewFabric(2, Config{Nodes: 1, LeaseTTL: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Heartbeat(0, 9); err != nil {
		t.Fatal(err)
	}
	late, err := f.Heartbeat(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range late {
		if g.ExpiresSlice != 11 {
			t.Errorf("late heartbeat re-granted shard %d through slice %d, want 11", g.Shard, g.ExpiresSlice)
		}
		if err := f.SubmitSlice(0, g.Shard, 10, g.Epoch); err != nil {
			t.Errorf("slice-10 submit under a lease renewed at slice 9: %v", err)
		}
	}
}

// A node that stops renewing loses its shards after the TTL: they
// fence (epoch bump) and rebalance to nodes still calling in, and the
// late holder's submissions are rejected.
func TestFabricExpiryFencesSilentNode(t *testing.T) {
	f, err := NewFabric(4, Config{Nodes: 2, LeaseTTL: 2})
	if err != nil {
		t.Fatal(err)
	}
	g0, err := f.Claim(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Claim(1, 0); err != nil {
		t.Fatal(err)
	}

	// Node 0 goes silent; node 1 keeps heartbeating. The lazy liveness
	// clock keeps node 0 in the candidate set for LeaseTTL slices after
	// its last call, so full takeover needs two sweep rounds: the first
	// (slice 2) fences everything node 0 held and reassigns a share
	// back to its still-within-window shadow; the second (slice 4)
	// fences that share too, with only node 1 left live.
	for s := 1; s <= 3; s++ {
		if _, err := f.Heartbeat(1, s); err != nil {
			t.Fatal(err)
		}
	}
	g1, err := f.Heartbeat(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != 4 {
		t.Fatalf("survivor got %d shards after expiry, want all 4", len(g1))
	}
	for _, g := range g1 {
		if g.Epoch < 2 {
			t.Errorf("rebalanced shard %d epoch %d, want >= 2 (fenced at least once)", g.Shard, g.Epoch)
		}
	}

	// The silent node wakes up and submits under its old view: fenced.
	for _, g := range g0 {
		if err := f.SubmitSlice(0, g.Shard, 5, g.Epoch); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("zombie submit shard %d = %v, want ErrStaleEpoch", g.Shard, err)
		}
	}
	if exp := f.Obs.Snapshot()["cluster_leases_expired_total"]; len(exp) != 1 || exp[0] == 0 {
		t.Errorf("cluster_leases_expired_total = %v, want one non-zero series", exp)
	}

	// Roles swap: node 1 goes silent, node 0 rejoins after node 1's
	// leases (renewed through 4+TTL) expire — a fresh Claim re-acquires
	// everything.
	g0b, err := f.Claim(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(g0b) != 4 {
		t.Errorf("rejoined node re-acquired %d shards, want all 4", len(g0b))
	}
}

func TestFabricRejectsBadArguments(t *testing.T) {
	f, err := NewFabric(2, Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Claim(5, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("claim unknown node = %v, want ErrUnknownNode", err)
	}
	if err := f.SubmitSlice(0, 7, 0, 1); err == nil {
		t.Error("out-of-range shard submit accepted")
	}
	if err := f.Release(3); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("release unknown node = %v, want ErrUnknownNode", err)
	}
	if _, err := NewFabric(0, Config{}); err == nil {
		t.Error("NewFabric(0 shards) accepted")
	}
}

// Release books every lease it hands back, and a straggler submission
// under a released lease is a fenced task in the ledger.
func TestFabricReleaseFencesStragglers(t *testing.T) {
	f, err := NewFabric(2, Config{Nodes: 2, LeaseTTL: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.Claim(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Release(0); err != nil {
		t.Fatal(err)
	}
	if got := f.met.released.Value(); got != 2 {
		t.Errorf("released = %d, want both leases", got)
	}
	for _, gr := range g {
		if err := f.SubmitSlice(0, gr.Shard, 1, gr.Epoch); !errors.Is(err, ErrStaleEpoch) {
			t.Errorf("straggler submit after release = %v, want ErrStaleEpoch", err)
		}
	}
	if claimed, completed, fenced := f.TaskCounts(); claimed != 2 || completed != 0 || fenced != 2 {
		t.Errorf("fabric ledger claimed=%d completed=%d fenced=%d, want 2/0/2", claimed, completed, fenced)
	}
}
