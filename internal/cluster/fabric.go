package cluster

import (
	"fmt"
	"sync"

	"ntpscan/internal/obs"
)

// Fabric is the standalone lease service for multi-process clusters:
// the lease table's serve-only adapter. It holds the same table
// (lease.go) as the in-process Coordinator — same fencing epochs, same
// contiguous-placement rule — but with no pipeline and no dispatch
// loop: authority is decided purely by the calls that arrive over the
// wire. cmd/clusterd serves one Fabric; node processes (RunNode) each
// run a full deterministic campaign replica and use their grants only
// to decide which shard-slice submissions they are authoritative for.
//
// Liveness without a driver: the Fabric cannot observe a missed
// heartbeat directly (nothing arrives), so leases expire by TTL — a
// sweep at the front of every call fences any lease whose holder has
// not renewed it past the caller's slice. A node that crashes or
// partitions simply stops renewing; LeaseTTL slices later its shards
// fence and rebalance to nodes still calling in. This is the same
// fencing guarantee on a lazier clock: a zombie's submissions carry
// the pre-bump epoch and are rejected exactly as the Coordinator
// rejects them.
type Fabric struct {
	cfg Config

	// Obs carries the same cluster_* lease and fencing families the
	// Coordinator exposes, plus heartbeat arrival counts per node.
	Obs *obs.Registry
	met *metrics

	mu    sync.Mutex
	table *leaseTable
	heard []int // highest slice each node has called in at (-1 never)
	swept int   // highest slice the expiry sweep has run for
}

// NewFabric builds a lease service over a decomposition of `shards`
// shards for cfg.Nodes nodes. Unlike NewCoordinator it needs no
// pipeline — only the shard count, which must match the decomposition
// the node processes run (CollectShards), or their submissions will be
// rejected as out of range.
func NewFabric(shards int, cfg Config) (*Fabric, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: fabric needs at least one shard, got %d", shards)
	}
	cfg.fillDefaults()
	f := &Fabric{
		cfg:   cfg,
		Obs:   obs.NewRegistry(),
		table: newLeaseTable(shards, cfg.LeaseTTL),
		heard: make([]int, cfg.Nodes),
		swept: -1,
	}
	for i := range f.heard {
		f.heard[i] = -1
	}
	f.met = newMetrics(f.Obs, cfg.Nodes)
	return f, nil
}

// Nodes returns the configured node count.
func (f *Fabric) Nodes() int { return f.cfg.Nodes }

// checkNode validates and records the caller.
func (f *Fabric) checkNode(node, slice int) error {
	if node < 0 || node >= f.cfg.Nodes {
		return ErrUnknownNode
	}
	if slice > f.heard[node] {
		f.heard[node] = slice
	}
	return nil
}

// sweepLocked advances the expiry clock to slice: every lease not
// renewed past it fences (epoch bump), then unowned shards rebalance
// contiguously over the nodes heard from recently — within LeaseTTL
// slices, the same window a lease survives without renewal.
func (f *Fabric) sweepLocked(slice int) {
	if slice <= f.swept {
		return
	}
	f.swept = slice
	f.met.expired.Add(int64(f.table.fenceExpired(slice)))
	var live []int
	for n, h := range f.heard {
		if h >= 0 && h >= slice-f.cfg.LeaseTTL {
			live = append(live, n)
		}
	}
	f.met.live.Set(int64(len(live)))
	f.table.place(live, slice)
}

// Claim implements API: registration or rejoin. The sweep runs first
// so a rejoining node is offered its share of whatever just fenced.
func (f *Fabric) Claim(node, slice int) ([]Grant, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkNode(node, slice); err != nil {
		return nil, err
	}
	f.met.heartbeats.Inc(node)
	f.sweepLocked(slice)
	grants := f.table.renew(node, slice)
	f.met.granted.Add(int64(len(grants)))
	return grants, nil
}

// Heartbeat implements API: renewal. Same motion as Claim — the
// distinction is the caller's (a fresh process Claims, a steady one
// Heartbeats) and is kept for parity with the Coordinator's protocol.
func (f *Fabric) Heartbeat(node, slice int) ([]Grant, error) {
	return f.Claim(node, slice)
}

// SubmitSlice implements API: the table's fencing gate — current
// holder under the current epoch or ErrStaleEpoch — after the sweep, so
// a lease that ran out by this slice is already fenced. Every verdict
// is one offered task in the ledger.
func (f *Fabric) SubmitSlice(node, shard, slice int, epoch uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkNode(node, slice); err != nil {
		return err
	}
	f.sweepLocked(slice)
	err := f.table.admit(node, shard, slice, epoch)
	if f.met.settle(err) {
		f.met.claimed.Inc()
	}
	return err
}

// Release implements API: voluntary handover with the usual epoch
// bump, so any straggler submission under the released leases fences.
func (f *Fabric) Release(node int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if node < 0 || node >= f.cfg.Nodes {
		return ErrUnknownNode
	}
	f.met.released.Add(int64(f.table.fenceHolder(node)))
	return nil
}

// TaskCounts returns (claimed, completed, fenced) — submissions
// offered, accepted, and rejected at the fence. The fabric has no
// mid-slice loss channel, so there is no lost counter: claimed ==
// completed + fenced is its conservation law.
func (f *Fabric) TaskCounts() (claimed, completed, fenced int64) {
	return f.met.claimed.Value(), f.met.completed.Value(), f.met.fenced.Value()
}
