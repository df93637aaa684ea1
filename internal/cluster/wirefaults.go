package cluster

import (
	"time"

	"ntpscan/internal/netsim"
)

// The wire-fault seam: every node→coordinator control call goes
// through a per-node NodeWire, which reifies the fault plan's node
// faults as transport behavior —
//
//	NodeCrash         → connection refused (netsim.DialRefused): a dead
//	                    process opens no sockets, so nothing is sent.
//	NodePartition     → request blackholed (netsim.DialTimeout) for
//	                    Claim/Heartbeat: the control channel is cut and
//	                    the caller times out. SubmitSlice still passes —
//	                    the data-plane path the zombie scenario needs:
//	                    a partitioned node's submissions arrive carrying
//	                    their stale epoch and are fenced server-side,
//	                    exactly as in PR 7's in-process protocol.
//	NodeSlowHeartbeat → latency stamped, never slept: a delay within the
//	                    coordinator's grace is recorded in the delay
//	                    histogram and the call proceeds; a delay beyond
//	                    it reads as a timeout (netsim.DialTimeout), so
//	                    the heartbeat never arrives as far as the
//	                    protocol can tell.
//
// Because the seam evaluates the plan at the slice-frozen window start
// — the same instant the in-process driver used — liveness, lease
// expiry, and zombie fencing are bit-equal whether the base API is the
// coordinator's methods or an HTTP client pointed at a served socket.

// heartbeatGrace is the largest heartbeat delay still counted as
// arrived; a slow-heartbeat fault beyond it reads as a miss.
const heartbeatGrace = 30 * time.Minute

// WireFaultKind names the seam's interventions for the
// cluster_wire_faults_total counter.
type WireFaultKind uint8

const (
	// WireRefused is a control call suppressed because the node's crash
	// window covers the slice (connection refused).
	WireRefused WireFaultKind = iota
	// WireBlackholed is a control call suppressed because the node is
	// partitioned (request sent, nothing returns).
	WireBlackholed
	// WireLate is a heartbeat suppressed because its injected delay
	// exceeds the coordinator's grace.
	WireLate
)

// String names the kind for the metric label.
func (k WireFaultKind) String() string {
	switch k {
	case WireRefused:
		return "refused"
	case WireBlackholed:
		return "blackhole"
	case WireLate:
		return "late"
	}
	return "unknown"
}

// NodeWire is one node's fault-injecting control-plane handle. It
// implements API over a base API (the coordinator directly, or a
// transport client dialing a served coordinator) and owns no protocol
// state of its own — every decision is a pure function of (plan, node,
// slice window), so the seam cannot desynchronize driver and server.
type NodeWire struct {
	base API
	node int
	plan *netsim.FaultPlan
	win  func(slice int) (from, until time.Time)

	// onFault and onDelay, when non-nil, feed the owner's metrics:
	// interventions by kind, and stamped heartbeat latency.
	onFault func(WireFaultKind)
	onDelay func(time.Duration)
}

// NewNodeWire builds the fault seam for one node. plan may be nil (no
// faults: every call passes). window maps a slice index to its span on
// the logical clock — core.Pipeline.SliceWindow in campaign use.
func NewNodeWire(base API, node int, plan *netsim.FaultPlan, window func(slice int) (from, until time.Time)) *NodeWire {
	return &NodeWire{base: base, node: node, plan: plan, win: window}
}

// gate applies the control-channel fault mapping for a call made in
// slice's window. A nil return means the call goes through.
func (w *NodeWire) gate(slice int) error {
	if w.plan == nil {
		return nil
	}
	at, _ := w.win(slice)
	if w.plan.NodeDown(w.node, at) {
		w.fault(WireRefused)
		return netsim.DialRefused()
	}
	if w.plan.NodePartitioned(w.node, at) {
		w.fault(WireBlackholed)
		return netsim.DialTimeout()
	}
	if d := w.plan.HeartbeatDelay(w.node, at); d > 0 {
		if d > heartbeatGrace {
			w.fault(WireLate)
			return netsim.DialTimeout()
		}
		if w.onDelay != nil {
			w.onDelay(d)
		}
	}
	return nil
}

func (w *NodeWire) fault(k WireFaultKind) {
	if w.onFault != nil {
		w.onFault(k)
	}
}

// Claim implements API with the control-channel gate applied.
func (w *NodeWire) Claim(node, slice int) ([]Grant, error) {
	if err := w.gate(slice); err != nil {
		return nil, err
	}
	return w.base.Claim(node, slice)
}

// Heartbeat implements API with the control-channel gate applied.
func (w *NodeWire) Heartbeat(node, slice int) ([]Grant, error) {
	if err := w.gate(slice); err != nil {
		return nil, err
	}
	return w.base.Heartbeat(node, slice)
}

// SubmitSlice implements API. Only a crash suppresses submissions — a
// partitioned node's data plane still reaches the coordinator, which
// is precisely how its stale-epoch submissions get fenced rather than
// silently lost.
func (w *NodeWire) SubmitSlice(node, shard, slice int, epoch uint64) error {
	if w.plan != nil {
		if at, _ := w.win(slice); w.plan.NodeDown(w.node, at) {
			w.fault(WireRefused)
			return netsim.DialRefused()
		}
	}
	return w.base.SubmitSlice(node, shard, slice, epoch)
}

// Release implements API. Release is the graceful-decommission call —
// it carries no slice, and a node in a fault window never makes it —
// so it passes through unconditionally.
func (w *NodeWire) Release(node int) error {
	return w.base.Release(node)
}
