package cluster

import (
	"errors"
	"testing"

	"ntpscan/internal/chaos"
	"ntpscan/internal/core"
)

// Coordinator wiring tests. The lease rules themselves (fencing,
// placement, renewal) are proven once, against a model, in
// lease_model_test.go; what is checked here is what the Coordinator
// adds around the table: argument validation and the metrics ledger.

func testCoordinator(t *testing.T, nodes int) *Coordinator {
	t.Helper()
	p := core.NewPipeline(chaos.Config(11))
	c, err := NewCoordinator(p, Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Every SubmitSlice verdict lands in the ledger exactly once, and a
// call that is not a verdict (unknown node, shard out of range) lands
// nowhere.
func TestSubmitSliceFencesStaleEpochs(t *testing.T) {
	c := testCoordinator(t, 3)
	c.live[1] = true
	c.rebalance(0)
	grants, err := c.Claim(1, 0)
	if err != nil || len(grants) != c.p.Cfg.CollectShards {
		t.Fatalf("only live node claimed %d shards (err %v), want all %d", len(grants), err, c.p.Cfg.CollectShards)
	}
	g := grants[0]
	c.met.claimed.Add(3)
	c.met.inflight.Add(3)

	if err := c.SubmitSlice(1, g.Shard, 0, g.Epoch+1); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("wrong epoch: err = %v, want ErrStaleEpoch", err)
	}
	if err := c.SubmitSlice(2, g.Shard, 0, g.Epoch); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("right epoch, wrong holder: err = %v, want ErrStaleEpoch", err)
	}
	if err := c.SubmitSlice(1, g.Shard, 0, g.Epoch); err != nil {
		t.Errorf("current holder, current epoch: err = %v, want nil", err)
	}
	if err := c.SubmitSlice(1, 99, 0, g.Epoch); err == nil || errors.Is(err, ErrStaleEpoch) {
		t.Errorf("out-of-range shard: err = %v, want a non-fencing error", err)
	}
	if err := c.SubmitSlice(3, g.Shard, 0, g.Epoch); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node: err = %v, want ErrUnknownNode", err)
	}
	claimed, completed, fenced, lost := c.TaskCounts()
	if claimed != 3 || completed != 1 || fenced != 2 || lost != 0 {
		t.Errorf("ledger claimed=%d completed=%d fenced=%d lost=%d, want 3/1/2/0", claimed, completed, fenced, lost)
	}
	if got := c.met.inflight.Value(); got != 0 {
		t.Errorf("inflight = %d after every task settled, want 0", got)
	}
	if got := c.met.granted.Value(); got != int64(len(grants)) {
		t.Errorf("granted = %d, want %d", got, len(grants))
	}
}

func TestEpochsStartAtOne(t *testing.T) {
	c := testCoordinator(t, 1)
	for sh, e := range c.state().Epochs {
		if e != 1 {
			t.Fatalf("shard %d epoch %d, want 1 (zero must never pass the fence)", sh, e)
		}
	}
}
