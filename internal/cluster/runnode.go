package cluster

import (
	"context"
	"errors"
	"fmt"

	"ntpscan/internal/analysis"
	"ntpscan/internal/core"
)

// RunNode runs one campaign node as its own process: a full
// deterministic campaign replica whose control plane is the given API
// — in practice a transport.Client dialing a clusterd fabric.
//
// The replica executes every shard of every slice locally. That is
// what makes multi-process output byte-identical with no data plane:
// all world and device state is a pure function of (seed, global ID),
// so N replicas of the same configuration produce N identical stores
// regardless of what the lease service decides. Grants decide only
// authority — which shard-slice submissions this node offers the
// fabric as its own — which is the accounting the cluster invariants
// check (across nodes, each task accepted exactly once).
//
// Failure handling mirrors a real deployment:
//
//   - A control-plane failure (coordinator restarting, transient
//     refusal) is tolerated: the node keeps executing under its last
//     grant view while the grants' ExpiresSlice holds — the same
//     self-fencing window a partitioned in-process node gets — and
//     re-Claims on the next successful contact.
//   - ErrStaleEpoch on submission means another node now holds the
//     shard; the submission is simply not authoritative. Not an error.
//   - ErrUnknownNode or a bad-request rejection is a configuration
//     mismatch (wrong node index, wrong shard decomposition) and aborts
//     the campaign through the dispatch error path.
//
// The returned NodeStats summarize the node's view of the protocol.
func RunNode(ctx context.Context, p *core.Pipeline, api API, nodeID int, cfg Config, opts core.CampaignOpts) (*analysis.Dataset, *NodeStats, error) {
	cfg.fillDefaults()
	if nodeID < 0 || nodeID >= cfg.Nodes {
		return nil, nil, fmt.Errorf("%w: node %d of %d", ErrUnknownNode, nodeID, cfg.Nodes)
	}
	nd := &nodeDriver{api: api, id: nodeID, workers: workersPerNode(p.Cfg.Workers, cfg.Nodes)}
	opts.Dispatch = nd.dispatch
	ds, err := p.RunCampaign(ctx, opts)
	if err == nil {
		// Graceful decommission; a failure here is a stat, not an error
		// (the fabric will expire our leases by TTL anyway).
		if rerr := api.Release(nodeID); rerr != nil {
			nd.stats.Offline++
		}
	}
	return ds, &nd.stats, err
}

// NodeStats is one node's protocol accounting. Slices counts dispatch
// invocations; Executed counts shard-slice executions (always
// slices × shards — the replica executes everything); Submitted splits
// into Accepted + Fenced + Offline-lost sends.
type NodeStats struct {
	Slices    int64
	Executed  int64
	Granted   int64 // grants received across all renewals
	Submitted int64 // submissions offered to the fabric
	Accepted  int64 // submissions the fabric committed to this node
	Fenced    int64 // submissions rejected as stale (another holder)
	Offline   int64 // control calls lost to transport failure, tolerated
}

// nodeDriver is the replica's slice dispatcher.
type nodeDriver struct {
	api     API
	id      int
	workers int

	claimed bool    // first successful contact made
	offline bool    // last control call failed: next contact re-Claims
	view    []Grant // last grant list received
	stats   NodeStats
}

func (d *nodeDriver) dispatch(s int, shards []core.ShardRef, run func(core.ShardRef)) error {
	d.stats.Slices++

	// Control: Claim on first contact or after an offline stretch,
	// Heartbeat when steady.
	var grants []Grant
	var err error
	if !d.claimed || d.offline {
		grants, err = d.api.Claim(d.id, s)
	} else {
		grants, err = d.api.Heartbeat(d.id, s)
	}
	switch {
	case err == nil:
		d.claimed, d.offline = true, false
		d.view = grants
		d.stats.Granted += int64(len(grants))
	case errors.Is(err, ErrUnknownNode):
		return fmt.Errorf("cluster: node %d rejected by fabric: %w", d.id, err)
	default:
		// Transport failure: tolerate, keep the (self-fencing) view.
		d.offline = true
		d.stats.Offline++
	}

	// Execute every shard — the replica's whole point.
	core.ForEach(d.workers, len(shards), func(i int) { run(shards[i]) })
	d.stats.Executed += int64(len(shards))

	// Submit the shard-slices we believe we hold. A grant view past its
	// expiry self-fences: the node stops claiming authority it can no
	// longer verify, exactly like a partitioned in-process node.
	for _, g := range d.view {
		if g.ExpiresSlice <= s {
			continue
		}
		d.stats.Submitted++
		serr := d.api.SubmitSlice(d.id, g.Shard, s, g.Epoch)
		switch {
		case serr == nil:
			d.stats.Accepted++
		case errors.Is(serr, ErrStaleEpoch):
			d.stats.Fenced++ // another node holds it now; not ours to commit
		case errors.Is(serr, ErrUnknownNode):
			return fmt.Errorf("cluster: node %d rejected by fabric: %w", d.id, serr)
		default:
			// Transport failure mid-slice: the fabric never saw it, so
			// nothing to roll back — our store is a full replica either
			// way.
			d.offline = true
			d.stats.Offline++
		}
	}
	return nil
}
