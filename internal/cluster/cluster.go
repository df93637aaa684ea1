// Package cluster turns a single-process campaign into an in-process
// cluster: a coordinator that owns the campaign checkpoint and a lease
// table over the collection's shard decomposition, and N campaign
// nodes that claim shard leases, execute their shards against the
// shared netsim fabric, heartbeat on the logical clock, and stream
// per-slice results back through the campaign's existing drain
// barrier.
//
// A lease is (shard, epoch, logical-clock expiry). Heartbeats renew
// leases once per slice; a missed heartbeat expires them — the
// coordinator bumps the shards' fencing epochs, so anything a dead
// holder later submits carries a stale epoch and is rejected
// (ErrStaleEpoch), then reassigns the shards to live nodes. Because a
// shard's slice execution touches only shard-local state until the
// barrier commits it (core's dispatch SPI), a fenced execution is
// rolled back bit-exactly and re-run by the new holder: campaign
// output stays byte-identical across node counts and across
// mid-campaign node loss.
//
// Node failure is driven by the fault plan, not wall-clock accident:
// netsim.FaultPlan's node faults (crash, partition, slow heartbeat)
// schedule which nodes miss which heartbeats on the logical timeline,
// so `make chaos` can kill nodes mid-campaign and still demand
// byte-identical output. See DESIGN.md "Cluster & leases".
//
// The node↔coordinator surface is the RPC-shaped API interface
// (Claim/Heartbeat/SubmitSlice/Release): in-process the Coordinator
// implements it directly; a real transport slots in behind the same
// four calls.
package cluster

import (
	"context"
	"errors"

	"ntpscan/internal/analysis"
	"ntpscan/internal/core"
)

// Typed protocol and restore errors. Tests (and operators) match on
// these with errors.Is.
var (
	// ErrStaleEpoch rejects a submission whose lease epoch is no longer
	// the shard's current one — the fencing check that keeps zombie
	// nodes from landing results after their lease expired.
	ErrStaleEpoch = errors.New("cluster: submission epoch is stale (lease fenced)")
	// ErrUnknownNode rejects control calls from node indices outside
	// the configured cluster.
	ErrUnknownNode = errors.New("cluster: unknown node index")
	// ErrLeaseTableMismatch rejects resuming from a checkpoint whose
	// lease table does not fit the pipeline (missing cluster section,
	// or an epoch count that disagrees with the shard decomposition).
	ErrLeaseTableMismatch = errors.New("cluster: checkpoint lease table does not match shard decomposition")
	// ErrTruncatedCheckpoint rejects a framed coordinator checkpoint
	// whose body is cut short or fails its integrity check.
	ErrTruncatedCheckpoint = errors.New("cluster: coordinator checkpoint truncated or corrupt")
)

// Grant is one leased shard as a node sees it: the fencing epoch to
// submit under and the slice bound the lease is valid through. A node
// whose heartbeats stop being answered keeps working only while
// slice < ExpiresSlice, then self-fences.
type Grant struct {
	Shard        int
	Epoch        uint64
	ExpiresSlice int
}

// API is the node↔coordinator control surface. All calls are keyed by
// the caller's node index; slice is the logical slice the call is made
// in. In-process dispatch drives these directly — a remote deployment
// would put a wire protocol behind the same shape.
type API interface {
	// Claim registers the node (first contact or rejoin after a crash)
	// and returns its current grants.
	Claim(node, slice int) ([]Grant, error)
	// Heartbeat renews the node's leases and returns them re-granted
	// with a fresh expiry.
	Heartbeat(node, slice int) ([]Grant, error)
	// SubmitSlice offers one executed shard-slice for commit. A stale
	// epoch returns ErrStaleEpoch and the execution must be rolled
	// back; nil means the barrier will commit it.
	SubmitSlice(node, shard, slice int, epoch uint64) error
	// Release hands the node's leases back voluntarily (graceful
	// decommission). Epochs still advance so stragglers fence.
	Release(node int) error
}

// Config tunes the cluster.
type Config struct {
	// Nodes is the campaign-node count (default 1). Output is
	// byte-identical for any value: nodes, like workers, are pure
	// execution placement.
	Nodes int
	// LeaseTTL is how many slices a grant stays valid without renewal
	// (default 2). The coordinator expires leases on the first missed
	// heartbeat regardless; the TTL bounds how long a partitioned node
	// keeps zombie-executing before it self-fences.
	LeaseTTL int
}

func (c *Config) fillDefaults() {
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	if c.LeaseTTL < 1 {
		c.LeaseTTL = 2
	}
}

// workersPerNode is each node's shard concurrency: the pipeline's
// workers split evenly over the nodes, at least one each.
func workersPerNode(pipelineWorkers, nodes int) int {
	if w := pipelineWorkers / nodes; w > 1 {
		return w
	}
	return 1
}

// Run executes a campaign on a fresh pipeline through a cluster of
// cfg.Nodes nodes. The returned Coordinator exposes the cluster's
// metrics registry (fencing and lease counters) for inspection; the
// dataset and error are RunCampaign's.
func Run(ctx context.Context, p *core.Pipeline, cfg Config, opts core.CampaignOpts) (*analysis.Dataset, *Coordinator, error) {
	coord, err := NewCoordinator(p, cfg)
	if err != nil {
		return nil, nil, err
	}
	ds, err := coord.Run(ctx, opts)
	return ds, coord, err
}

// Run executes the campaign on this coordinator's pipeline with the
// coordinator installed as slice dispatcher. Callers that need to wire
// a transport between construction and execution (serve the API, then
// SetDial the clients) use this instead of the package-level Run.
func (c *Coordinator) Run(ctx context.Context, opts core.CampaignOpts) (*analysis.Dataset, error) {
	return c.p.RunCampaign(ctx, c.campaignOpts(opts))
}

// Resume continues a checkpointed campaign on this coordinator,
// restoring its lease epochs and metrics from the checkpoint's cluster
// section first.
func (c *Coordinator) Resume(ctx context.Context, cp *core.Checkpoint, opts core.CampaignOpts) (*analysis.Dataset, error) {
	if err := c.restore(cp); err != nil {
		return nil, err
	}
	return c.p.ResumeCampaign(ctx, cp, c.campaignOpts(opts))
}

// Resume continues a checkpointed cluster campaign on a fresh
// pipeline. The checkpoint must carry a cluster section whose lease
// table fits the pipeline's shard decomposition (ErrLeaseTableMismatch
// otherwise): fencing epochs continue from where the interrupted
// coordinator left them, so stragglers from before the interruption
// stay fenced after it.
func Resume(ctx context.Context, p *core.Pipeline, cp *core.Checkpoint, cfg Config, opts core.CampaignOpts) (*analysis.Dataset, *Coordinator, error) {
	coord, err := NewCoordinator(p, cfg)
	if err != nil {
		return nil, nil, err
	}
	ds, err := coord.Resume(ctx, cp, opts)
	return ds, coord, err
}
