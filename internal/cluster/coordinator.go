package cluster

import (
	"fmt"
	"sync"
	"time"

	"ntpscan/internal/core"
	"ntpscan/internal/obs"
)

// Coordinator owns the campaign's control plane: it is the lease
// table's in-process adapter. The table (lease.go) holds the leases and
// the fencing rules; the Coordinator adds the lock, the metrics ledger,
// node liveness as the fault plan dictates it (a missed heartbeat), the
// per-slice dispatch loop, and the cluster section of the campaign
// checkpoint. It implements API and plugs into the campaign as its
// slice dispatcher.
//
// Every control decision is a pure function of (fault plan, slice,
// node index): heartbeat outcomes come from the plan's node faults on
// the logical clock, expiry and reassignment follow deterministically,
// and execution concurrency never feeds back into the protocol — so a
// clustered campaign is exactly as replayable as a single-process one.
type Coordinator struct {
	p       *core.Pipeline
	cfg     Config
	workers int                // each node's shard concurrency
	dial    func(node int) API // transport seam (SetDial); nil = in-process

	// Obs is the cluster's own metrics registry — separate from the
	// pipeline's, so campaign telemetry stays byte-identical across
	// node counts while lease/heartbeat/fencing families remain fully
	// observable (and ride the checkpoint's cluster section).
	Obs *obs.Registry
	met *metrics

	mu    sync.Mutex
	table *leaseTable
	live  []bool
	seen  []bool    // node has claimed at least once (Claim vs Heartbeat)
	views [][]Grant // each node's last-received grant list (its lease belief)

	apis []API // per-node control handles (fault seam over Dial or self)

	// every is the campaign's checkpoint cadence (0: no checkpoints are
	// delivered). A checkpoint reaches the caller after the slice that
	// follows its barrier has been dispatched, so dispatch records the
	// checkpoint section as it begins each slice whose barrier took one:
	// marked, taken as slice markSlice began.
	every, markSlice int
	marked           *core.ClusterState
}

// NewCoordinator builds the control plane for a pipeline. The
// pipeline must not have started a campaign yet. Nothing here can fail
// today; the error result is part of the signature benchmark/ calls.
func NewCoordinator(p *core.Pipeline, cfg Config) (*Coordinator, error) {
	cfg.fillDefaults()
	c := &Coordinator{
		p:       p,
		cfg:     cfg,
		workers: workersPerNode(p.Cfg.Workers, cfg.Nodes),
		Obs:     obs.NewRegistry(),
		table:   newLeaseTable(p.Cfg.CollectShards, cfg.LeaseTTL),
		live:    make([]bool, cfg.Nodes),
		seen:    make([]bool, cfg.Nodes),
		views:   make([][]Grant, cfg.Nodes),
	}
	c.met = newMetrics(c.Obs, cfg.Nodes)
	return c, nil
}

// SetDial installs the node→coordinator control path after
// construction. The transport wiring order needs this: build the
// coordinator, serve its API on a listener, then point each node's
// dial back at that endpoint. Must be called before the campaign
// starts; it resets any handles built under the previous dial.
func (c *Coordinator) SetDial(d func(node int) API) {
	c.dial = d
	c.apis = nil
}

// handles builds (once) the per-node control handles the dispatcher
// calls through: the configured dial — or the coordinator's own
// methods — wrapped in the wire-fault seam, so a node's crash,
// partition, or heartbeat delay manifests as transport behavior
// identically whether the base is an in-process call or a socket.
func (c *Coordinator) handles() []API {
	if c.apis != nil {
		return c.apis
	}
	plan := c.p.Cfg.Faults
	c.apis = make([]API, c.cfg.Nodes)
	for n := range c.apis {
		base := API(c)
		if c.dial != nil {
			base = c.dial(n)
		}
		w := NewNodeWire(base, n, plan, c.p.SliceWindow)
		w.onFault = func(k WireFaultKind) { c.met.wireFaults.Inc(int(k)) }
		w.onDelay = func(d time.Duration) { c.met.hbDelay.Observe(d.Milliseconds()) }
		c.apis[n] = w
	}
	return c.apis
}

// EpochRejections returns the fencing counter — submissions rejected
// for carrying a stale lease epoch.
func (c *Coordinator) EpochRejections() int64 { return c.met.fenced.Value() }

// TaskCounts returns the task-conservation counters
// (claimed, completed, fenced, lost).
func (c *Coordinator) TaskCounts() (claimed, completed, fenced, lost int64) {
	return c.met.claimed.Value(), c.met.completed.Value(),
		c.met.fenced.Value(), c.met.lost.Value()
}

// campaignOpts wires the coordinator into campaign options: it becomes
// the slice dispatcher, and checkpoints grow the cluster section
// (lease epochs + cluster registry) before reaching the caller. The
// section is the state at the checkpoint's barrier: the one dispatch
// marked when it began slice NextSlice, which every delivered
// checkpoint's slice has been.
func (c *Coordinator) campaignOpts(opts core.CampaignOpts) core.CampaignOpts {
	opts.Dispatch = c.dispatch
	c.every, c.markSlice, c.marked = 0, 0, nil
	user := opts.OnCheckpoint
	if user != nil {
		c.every = opts.CheckpointEvery
		opts.OnCheckpoint = func(cp *core.Checkpoint) {
			if c.markSlice != cp.NextSlice {
				panic(fmt.Sprintf("cluster: checkpoint for slice %d, but the section was marked at slice %d", cp.NextSlice, c.markSlice))
			}
			cp.Cluster = c.marked
			user(cp)
		}
	}
	return opts
}

// mark records the checkpoint section at slice s's barrier when that
// barrier took a checkpoint. dispatch calls it before slice s moves
// anything.
func (c *Coordinator) mark(s int) {
	if c.every > 0 && s%c.every == 0 {
		c.marked, c.markSlice = c.state(), s
	}
}

// state snapshots the coordinator's checkpoint section.
func (c *Coordinator) state() *core.ClusterState {
	c.mu.Lock()
	epochs := c.table.epochs()
	c.mu.Unlock()
	return &core.ClusterState{Epochs: epochs, Obs: c.Obs.Snapshot()}
}

// restore validates and applies a checkpoint's cluster section: the
// fencing epochs continue from the interrupted run (stragglers fenced
// before the interruption stay fenced after it), and the cluster
// registry resumes its counter sequence.
func (c *Coordinator) restore(cp *core.Checkpoint) error {
	if cp.Cluster == nil {
		return fmt.Errorf("%w: checkpoint carries no cluster section", ErrLeaseTableMismatch)
	}
	c.mu.Lock()
	err := c.table.setEpochs(cp.Cluster.Epochs)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.Obs.Restore(cp.Cluster.Obs)
	return nil
}

// Claim implements API: first contact (or rejoin after a crash). The
// node's stale lease belief is discarded and replaced with its current
// grants.
func (c *Coordinator) Claim(node, slice int) ([]Grant, error) {
	if node < 0 || node >= c.cfg.Nodes {
		return nil, ErrUnknownNode
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen[node] = true
	return c.renewLocked(node, slice), nil
}

// Heartbeat implements API: renews the node's leases and returns them
// with a fresh expiry.
func (c *Coordinator) Heartbeat(node, slice int) ([]Grant, error) {
	if node < 0 || node >= c.cfg.Nodes {
		return nil, ErrUnknownNode
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.renewLocked(node, slice), nil
}

// renewLocked re-grants every lease the node holds and books the
// grants.
func (c *Coordinator) renewLocked(node, slice int) []Grant {
	grants := c.table.renew(node, slice)
	c.met.granted.Add(int64(len(grants)))
	return grants
}

// SubmitSlice implements API: the fencing gate. A submission under the
// shard's current epoch by its current holder is accepted for the
// barrier; anything else — a zombie node's work after its lease
// expired, a straggler from before a resume — is rejected with
// ErrStaleEpoch and must be rolled back by the caller.
func (c *Coordinator) SubmitSlice(node, shard, slice int, epoch uint64) error {
	if node < 0 || node >= c.cfg.Nodes {
		return ErrUnknownNode
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.table.admit(node, shard, slice, epoch)
	if c.met.settle(err) {
		c.met.inflight.Add(-1)
	}
	return err
}

// Release implements API: voluntary lease handover. Epochs advance so
// any straggler submission under the released leases still fences.
func (c *Coordinator) Release(node int) error {
	if node < 0 || node >= c.cfg.Nodes {
		return ErrUnknownNode
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met.released.Add(int64(c.table.fenceHolder(node)))
	c.views[node] = nil
	return nil
}

// expire fences every lease the node holds (it missed a heartbeat or
// died mid-slice) and books the expiries.
func (c *Coordinator) expire(node int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met.expired.Add(int64(c.table.fenceHolder(node)))
}

// rebalance places every unowned shard over the nodes currently live.
func (c *Coordinator) rebalance(slice int) {
	var live []int
	for n, ok := range c.live {
		if ok {
			live = append(live, n)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.table.place(live, slice)
}
