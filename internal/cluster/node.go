package cluster

import (
	"sync"

	"ntpscan/internal/core"
)

// dispatch is the campaign's slice driver (core.DispatchFunc): the
// whole node-loss protocol runs here, once per slice, in a fixed phase
// order so every control decision is a pure function of (fault plan,
// slice, node index). Every node→coordinator call goes through the
// node's wire handle (c.handles()): in-process that is the fault seam
// over the coordinator's own methods; after SetDial it is the
// same seam over a transport client, so the protocol below runs
// unchanged over a real socket. The lease table (lease.go) makes every
// lease decision; this loop decides only when to ask it.
//
//  1. Heartbeats: each node's probe is sent through its wire handle; a
//     call the seam refuses, blackholes, or times out is a miss.
//  2. Expiry: leases held by nodes that missed fence (epoch bump).
//  3. Zombies: a partitioned node cannot hear that its leases expired;
//     while its own grant view is unexpired it keeps executing. Those
//     executions are fenced at SubmitSlice (ErrStaleEpoch) and rolled
//     back bit-exactly from a pre-execution snapshot.
//  4. Rebalance: unowned shards spread contiguously over live nodes in
//     node order; rejoining nodes Claim, steady nodes Heartbeat.
//  5. Execution: per-node worker pools run the granted tasks. A node
//     whose crash window opens mid-slice loses its dispatched tasks
//     before submission; the loop fences it and re-dispatches its
//     shards to the survivors. With no live nodes at all the
//     coordinator executes the remainder inline (fallback), so the
//     campaign converges regardless of the kill schedule.
//
// The core barrier then commits every shard's effects in ascending
// shard order — by the time dispatch returns, each shard has exactly
// one surviving execution.
func (c *Coordinator) dispatch(s int, shards []core.ShardRef, run func(core.ShardRef)) error {
	c.mark(s)
	plan := c.p.Cfg.Faults
	from, until := c.p.SliceWindow(s)
	nodes := c.cfg.Nodes
	apis := c.handles()

	// Phase 1: heartbeats, probed through each node's wire handle. The
	// seam turns the plan's faults into call outcomes (refused,
	// blackholed, past-grace timeout), so "missed" means exactly "the
	// coordinator heard nothing in time" — in-process and over a socket
	// alike.
	prevLive := append([]bool(nil), c.live...)
	liveCount := 0
	for n := 0; n < nodes; n++ {
		_, herr := apis[n].Heartbeat(n, s)
		ok := herr == nil
		if ok {
			c.met.heartbeats.Inc(n)
			liveCount++
		} else {
			c.met.missed.Inc(n)
			if plan.NodeDown(n, from) {
				c.views[n] = nil // a crash loses the lease view with the process
			}
		}
		c.live[n] = ok
	}
	c.met.live.Set(int64(liveCount))

	// Phase 2: expire (fence) everything held by a node that missed.
	for n := 0; n < nodes; n++ {
		if !c.live[n] {
			c.expire(n)
		}
	}

	// Phase 3: zombie executions by partitioned nodes, fenced and
	// rolled back. Runs strictly before live execution so `run` is
	// never concurrent for the same shard.
	for n := 0; n < nodes; n++ {
		if c.live[n] || plan == nil || !plan.NodePartitioned(n, from) || plan.NodeDown(n, from) {
			continue
		}
		for _, g := range c.views[n] {
			if g.ExpiresSlice <= s {
				continue // grant view expired: the node self-fences
			}
			ref := shards[g.Shard]
			snap := ref.Snapshot()
			c.met.claimed.Inc()
			c.met.inflight.Add(1)
			run(ref)
			// The submission rides the data plane: a partition cuts the
			// control channel, not this path, so the zombie's stale epoch
			// reaches the coordinator and is fenced server-side.
			if err := apis[n].SubmitSlice(n, g.Shard, s, g.Epoch); err == nil {
				panic("cluster: partitioned node's submission passed the fence")
			}
			if err := ref.Restore(snap); err != nil {
				panic("cluster: rollback of fenced execution failed: " + err.Error())
			}
		}
	}

	// Phases 4–5: assign and execute until every shard has a surviving
	// execution.
	dying := make([]bool, nodes)
	for n := 0; n < nodes; n++ {
		dying[n] = plan.NodeDiesWithin(n, from, until)
	}
	committed := make([]bool, len(shards))
	left := len(shards)
	for left > 0 {
		if liveCount == 0 {
			for sh := range shards {
				if !committed[sh] {
					c.met.fallback.Inc()
					run(shards[sh])
					committed[sh] = true
					left--
				}
			}
			break
		}
		c.rebalance(s)
		tasks := make([][]Grant, nodes)
		executing := make([]bool, nodes)
		for n := 0; n < nodes; n++ {
			if !c.live[n] {
				continue
			}
			var grants []Grant
			var err error
			if !c.seen[n] || !prevLive[n] {
				grants, err = apis[n].Claim(n, s)
			} else {
				grants, err = apis[n].Heartbeat(n, s)
			}
			if err != nil {
				panic("cluster: control call failed for configured node: " + err.Error())
			}
			prevLive[n] = true
			c.views[n] = grants
			for _, g := range grants {
				if !committed[g.Shard] {
					tasks[n] = append(tasks[n], g)
				}
			}
		}
		var wg sync.WaitGroup
		for n := 0; n < nodes; n++ {
			if !c.live[n] || len(tasks[n]) == 0 {
				continue
			}
			k := int64(len(tasks[n]))
			c.met.claimed.Add(k)
			c.met.inflight.Add(k)
			if dying[n] {
				// Mid-slice crash: the dispatched tasks are lost before
				// submission; fence the node and put its shards back in
				// the pool for the survivors.
				c.met.lost.Add(k)
				c.met.inflight.Add(-k)
				c.expire(n)
				c.live[n] = false
				c.views[n] = nil
				liveCount--
				continue
			}
			executing[n] = true
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The node's worker pool: run each granted task and submit
				// it through the fencing gate. A live node being fenced is
				// a protocol invariant violation, not a runtime condition —
				// its leases were renewed this very slice — so it panics
				// rather than silently dropping work.
				core.ForEach(c.workers, len(tasks[n]), func(i int) {
					g := tasks[n][i]
					run(shards[g.Shard])
					if err := apis[n].SubmitSlice(n, g.Shard, s, g.Epoch); err != nil {
						panic("cluster: live node's submission fenced: " + err.Error())
					}
				})
			}()
		}
		wg.Wait()
		for n := 0; n < nodes; n++ {
			if executing[n] {
				for _, g := range tasks[n] {
					committed[g.Shard] = true
					left--
				}
			}
		}
	}
	c.met.live.Set(int64(liveCount))
	return nil
}
