package cluster

import (
	"errors"
	"fmt"

	"ntpscan/internal/obs"
)

// metrics is the cluster's observability bundle. It lives on the
// coordinator's own registry, not the pipeline's: per-node families
// (and every lease/fencing count) necessarily differ across node
// counts and kill schedules, while the campaign telemetry stream must
// stay byte-identical across both. Checkpoints carry this registry in
// the checkpoint's cluster section, so resumed coordinators continue
// the counter sequence exactly.
//
// Conservation law, checked by the invariant suite and the chaos
// node-loss tests: every dispatched shard-slice task is accounted for
// exactly once —
//
//	cluster_tasks_claimed_total == cluster_tasks_completed_total
//	                             + cluster_epoch_rejections_total
//	                             + cluster_tasks_lost_total
//
// with cluster_tasks_inflight back at zero at every drain barrier
// (claimed tasks are either committed, fenced as zombie work, or lost
// with a mid-slice crash and re-dispatched under a fresh claim).
type metrics struct {
	claimed   *obs.Counter // shard-slice tasks dispatched under a lease
	completed *obs.Counter // tasks accepted for commit at the barrier
	fenced    *obs.Counter // submissions rejected by the epoch check
	lost      *obs.Counter // tasks dispatched to a node that died mid-slice

	granted  *obs.Counter // lease grants (incl. per-slice renewals)
	expired  *obs.Counter // leases expired on missed heartbeats
	released *obs.Counter // leases handed back voluntarily
	fallback *obs.Counter // slices the coordinator executed itself (no live nodes)

	heartbeats *obs.CounterVec // heartbeats arrived, per node
	missed     *obs.CounterVec // heartbeats missed (crash/partition/late), per node

	wireFaults *obs.CounterVec // control calls intercepted at the wire-fault seam, by kind
	hbDelay    *obs.Histogram  // injected heartbeat latency stamped (never slept), ms

	live     *obs.Gauge // nodes currently considered live
	inflight *obs.Gauge // dispatched tasks not yet completed/fenced/lost
}

func newMetrics(r *obs.Registry, nodes int) *metrics {
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	return &metrics{
		claimed: r.NewCounter("cluster_tasks_claimed_total",
			"shard-slice tasks dispatched to a node under a lease"),
		completed: r.NewCounter("cluster_tasks_completed_total",
			"shard-slice tasks accepted for commit at the drain barrier"),
		fenced: r.NewCounter("cluster_epoch_rejections_total",
			"submissions rejected by the lease epoch check (zombie fencing)"),
		lost: r.NewCounter("cluster_tasks_lost_total",
			"dispatched tasks lost to a mid-slice node crash"),
		granted: r.NewCounter("cluster_leases_granted_total",
			"shard leases granted, including per-slice renewals"),
		expired: r.NewCounter("cluster_leases_expired_total",
			"shard leases expired on missed heartbeats"),
		released: r.NewCounter("cluster_leases_released_total",
			"shard leases handed back voluntarily"),
		fallback: r.NewCounter("cluster_coordinator_fallbacks_total",
			"shard-slice tasks the coordinator executed itself for lack of live nodes"),
		heartbeats: r.NewCounterVec("cluster_heartbeats_total",
			"heartbeats arrived per node", "node", names),
		missed: r.NewCounterVec("cluster_heartbeats_missed_total",
			"heartbeats missed per node (crash, partition, or past grace)", "node", names),
		wireFaults: r.NewCounterVec("cluster_wire_faults_total",
			"node control calls intercepted at the wire-fault seam", "kind",
			[]string{WireRefused.String(), WireBlackholed.String(), WireLate.String()}),
		hbDelay: r.NewHistogram("cluster_heartbeat_delay_ms",
			"injected heartbeat latency stamped at the wire seam (never slept)",
			[]int64{100, 1_000, 10_000, 60_000, 600_000}),
		live: r.NewGauge("cluster_nodes_live",
			"nodes currently holding a live heartbeat"),
		inflight: r.NewGauge("cluster_tasks_inflight",
			"dispatched tasks not yet completed, fenced, or lost"),
	}
}

// settle books one verdict of the lease table's fencing gate: a nil
// error is a completed task, ErrStaleEpoch a fenced one. It reports
// whether err was a verdict at all — any other error (an out-of-range
// shard) is a rejected call, not a task, and books nothing.
func (m *metrics) settle(err error) bool {
	switch {
	case err == nil:
		m.completed.Inc()
	case errors.Is(err, ErrStaleEpoch):
		m.fenced.Inc()
	default:
		return false
	}
	return true
}
