package cluster

import (
	"errors"
	"testing"
	"time"

	"ntpscan/internal/core"
	"ntpscan/internal/netsim"
)

// recordAPI records every call that made it through the seam.
type recordAPI struct {
	claims, heartbeats, submits, releases int
}

func (r *recordAPI) Claim(node, slice int) ([]Grant, error) {
	r.claims++
	return []Grant{{Shard: 0, Epoch: 1, ExpiresSlice: slice + 2}}, nil
}
func (r *recordAPI) Heartbeat(node, slice int) ([]Grant, error) {
	r.heartbeats++
	return nil, nil
}
func (r *recordAPI) SubmitSlice(node, shard, slice int, epoch uint64) error {
	r.submits++
	return nil
}
func (r *recordAPI) Release(node int) error {
	r.releases++
	return nil
}

// The seam's fault mapping, call by call: crash refuses everything but
// Release, partition blackholes only the control channel, a slow
// heartbeat within grace is stamped and passes, past grace it times
// out. All decisions at the slice window start.
func TestNodeWireFaultMapping(t *testing.T) {
	t0 := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	window := func(slice int) (time.Time, time.Time) {
		from := t0.Add(time.Duration(slice) * time.Hour)
		return from, from.Add(time.Hour)
	}
	var plan netsim.FaultPlan
	plan.AddNode(netsim.NodeFault{Kind: netsim.NodeCrash, Node: 0,
		From: t0.Add(1 * time.Hour), Until: t0.Add(2 * time.Hour)})
	plan.AddNode(netsim.NodeFault{Kind: netsim.NodePartition, Node: 0,
		From: t0.Add(2 * time.Hour), Until: t0.Add(3 * time.Hour)})
	plan.AddNode(netsim.NodeFault{Kind: netsim.NodeSlowHeartbeat, Node: 0, Delay: 5 * time.Minute,
		From: t0.Add(3 * time.Hour), Until: t0.Add(4 * time.Hour)})
	plan.AddNode(netsim.NodeFault{Kind: netsim.NodeSlowHeartbeat, Node: 0, Delay: 2 * time.Hour,
		From: t0.Add(4 * time.Hour), Until: t0.Add(5 * time.Hour)})

	base := &recordAPI{}
	var faults []WireFaultKind
	var delays []time.Duration
	w := NewNodeWire(base, 0, &plan, window)
	w.onFault = func(k WireFaultKind) { faults = append(faults, k) }
	w.onDelay = func(d time.Duration) { delays = append(delays, d) }

	// Slice 0: no fault window — everything passes.
	if _, err := w.Claim(0, 0); err != nil {
		t.Fatalf("clean claim: %v", err)
	}
	if err := w.SubmitSlice(0, 0, 0, 1); err != nil {
		t.Fatalf("clean submit: %v", err)
	}

	// Slice 1: crashed. Control and data plane both refused.
	if _, err := w.Claim(0, 1); err == nil {
		t.Error("claim during crash passed")
	}
	if err := w.SubmitSlice(0, 0, 1, 1); err == nil {
		t.Error("submit during crash passed")
	}

	// Slice 2: partitioned. Control blackholed, data plane passes — the
	// zombie path.
	if _, err := w.Heartbeat(0, 2); err == nil {
		t.Error("heartbeat during partition passed")
	}
	if err := w.SubmitSlice(0, 0, 2, 1); err != nil {
		t.Errorf("submit during partition = %v, want pass-through (zombie data plane)", err)
	}

	// Slice 3: 5m delay, 30m grace — stamped, passes.
	if _, err := w.Heartbeat(0, 3); err != nil {
		t.Errorf("in-grace slow heartbeat = %v, want pass", err)
	}
	// Slice 4: 2h delay past grace — late, suppressed.
	if _, err := w.Heartbeat(0, 4); err == nil {
		t.Error("past-grace heartbeat passed")
	}

	// Release always passes, whatever window the node is in.
	if err := w.Release(0); err != nil {
		t.Errorf("release = %v, want unconditional pass", err)
	}

	wantFaults := []WireFaultKind{WireRefused, WireRefused, WireBlackholed, WireLate}
	if len(faults) != len(wantFaults) {
		t.Fatalf("fault interventions = %v, want %v", faults, wantFaults)
	}
	for i, k := range wantFaults {
		if faults[i] != k {
			t.Errorf("fault %d = %s, want %s", i, faults[i], k)
		}
	}
	if len(delays) != 1 || delays[0] != 5*time.Minute {
		t.Errorf("stamped delays = %v, want [5m]", delays)
	}
	if base.claims != 1 || base.heartbeats != 1 || base.submits != 2 || base.releases != 1 {
		t.Errorf("base saw claims=%d heartbeats=%d submits=%d releases=%d, want 1/1/2/1",
			base.claims, base.heartbeats, base.submits, base.releases)
	}
}

func TestNodeWireNilPlanPassesEverything(t *testing.T) {
	base := &recordAPI{}
	w := NewNodeWire(base, 3, nil, nil) // window unused
	if _, err := w.Claim(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Heartbeat(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.SubmitSlice(3, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestWireFaultKindStrings(t *testing.T) {
	cases := map[WireFaultKind]string{
		WireRefused:      "refused",
		WireBlackholed:   "blackhole",
		WireLate:         "late",
		WireFaultKind(9): "unknown",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// SetDial reroutes the coordinator's per-node handles: after SetDial,
// control calls reach the dialed API, not the coordinator's own
// methods, and the cached handles are rebuilt.
func TestCoordinatorSetDialReroutesHandles(t *testing.T) {
	p := core.NewPipeline(nodeTestConfig(7))
	c, err := NewCoordinator(p, Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	direct := c.handles()
	if len(direct) != 2 {
		t.Fatalf("handles() = %d entries, want 2", len(direct))
	}

	dialed := make([]*recordAPI, 2)
	c.SetDial(func(node int) API {
		dialed[node] = &recordAPI{}
		return dialed[node]
	})
	rerouted := c.handles()
	if len(rerouted) != 2 {
		t.Fatalf("rerouted handles() = %d entries, want 2", len(rerouted))
	}
	if _, err := rerouted[1].Claim(1, 0); err != nil {
		t.Fatal(err)
	}
	if dialed[1] == nil || dialed[1].claims != 1 {
		t.Error("claim through rerouted handle did not reach the dialed API")
	}
	if dialed[0] != nil && dialed[0].claims != 0 {
		t.Error("claim leaked to the wrong node's handle")
	}
	if c.cfg.Nodes != 2 {
		t.Errorf("Nodes = %d, want 2", c.cfg.Nodes)
	}
}

// errors.Is sanity for the sentinels the wire maps to codes.
func TestSentinelIdentity(t *testing.T) {
	for _, err := range []error{ErrStaleEpoch, ErrUnknownNode, ErrBadFrame, ErrFrameTooLarge} {
		if !errors.Is(err, err) {
			t.Errorf("%v does not match itself", err)
		}
	}
}
