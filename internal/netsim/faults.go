// Deterministic fault injection. A FaultPlan is a schedule of
// logical-clock-windowed network pathologies — host outages, bursty
// per-prefix loss, slow links, garbled responses — installed on the
// fabric before (or during) a run. Every stochastic decision the plan
// makes is a pure hash of (plan seed, flow identity, logical time,
// dial attempt), never a draw from a shared stream: goroutine
// interleaving cannot change which packets die, so a faulted campaign
// is exactly as replayable as a clean one.
package netsim

import (
	"context"
	"io"
	"net"
	"net/netip"
	"time"

	"ntpscan/internal/netsim/link"
	"ntpscan/internal/rng"
)

// FaultKind selects the pathology a Fault injects.
type FaultKind uint8

const (
	// FaultOutage takes the scoped hosts fully offline for the window:
	// TCP dials blackhole, UDP vanishes in both directions. Models
	// reboots, link failures, and vantage-server blackouts.
	FaultOutage FaultKind = iota
	// FaultLoss drops each packet to or from the scope with probability
	// Prob for the window — the bursty, prefix-correlated loss real
	// IPv6 paths exhibit, as opposed to Config.LossProb's uniform rain.
	FaultLoss
	// FaultSlow adds Latency to the path. When the injected latency
	// exceeds the dialer's patience (Config.DialTimeout) the connection
	// attempt times out; otherwise it only shifts timestamps.
	FaultSlow
	// FaultGarble corrupts responses from the scoped hosts: TCP streams
	// are truncated mid-banner with a flipped trailing byte, UDP
	// responses are clipped and corrupted. Requests go through intact —
	// the host is up but broken.
	FaultGarble
)

// String names the kind for logs and test output.
func (k FaultKind) String() string {
	switch k {
	case FaultOutage:
		return "outage"
	case FaultLoss:
		return "loss"
	case FaultSlow:
		return "slow"
	case FaultGarble:
		return "garble"
	}
	return "unknown"
}

// Fault is one scheduled event. Scope is either a single address
// (Addr valid) or every address under Prefix (Prefix valid); the
// window is [From, Until) on the fabric's logical clock.
type Fault struct {
	Kind FaultKind  `json:"kind"`
	Addr netip.Addr `json:"addr,omitempty"`
	// Prefix scopes the fault to a routing aggregate (e.g. a /48 going
	// dark). Ignored when Addr is valid.
	Prefix  netip.Prefix  `json:"prefix,omitempty"`
	From    time.Time     `json:"from"`
	Until   time.Time     `json:"until"`
	Prob    float64       `json:"prob,omitempty"`    // FaultLoss drop probability
	Latency time.Duration `json:"latency,omitempty"` // FaultSlow injected delay
}

func (f *Fault) activeAt(at time.Time) bool {
	return !at.Before(f.From) && at.Before(f.Until)
}

// NodeFaultKind selects the control-plane pathology a NodeFault
// injects. Node faults scope to campaign-cluster nodes (by node index)
// rather than fabric addresses: the cluster coordinator queries the
// plan at each slice boundary, so node loss is as windowed,
// deterministic and replayable as packet loss.
type NodeFaultKind uint8

const (
	// NodeCrash kills the node for the window: it stops executing and
	// stops heartbeating. A crash window opening strictly inside a
	// slice models death-after-claim — the node's dispatched tasks are
	// lost and re-dispatched within the slice. When the window closes
	// the node rejoins and is re-leased from the coordinator's state.
	NodeCrash NodeFaultKind = iota
	// NodePartition isolates the node's control channel: heartbeats are
	// lost, but the node keeps executing whatever leases it still
	// believes valid — the zombie scenario. Its submissions carry the
	// fenced epoch and are rejected; after its lease TTL passes it
	// self-fences and idles until the window closes.
	NodePartition
	// NodeSlowHeartbeat delays the node's heartbeats by Delay. A delay
	// beyond the coordinator's grace reads as a miss: leases expire and
	// the node flaps without ever being down.
	NodeSlowHeartbeat
)

// String names the kind for logs and test output.
func (k NodeFaultKind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case NodePartition:
		return "node-partition"
	case NodeSlowHeartbeat:
		return "node-slow-heartbeat"
	}
	return "unknown"
}

// NodeFault is one scheduled node-level event; the window is
// [From, Until) on the logical clock, like Fault's.
type NodeFault struct {
	Kind  NodeFaultKind `json:"kind"`
	Node  int           `json:"node"`
	From  time.Time     `json:"from"`
	Until time.Time     `json:"until"`
	Delay time.Duration `json:"delay,omitempty"` // NodeSlowHeartbeat added latency
}

func (f *NodeFault) activeAt(at time.Time) bool {
	return !at.Before(f.From) && at.Before(f.Until)
}

// FaultPlan is an immutable schedule of faults plus the seed that
// drives their stochastic decisions. Build one with Add, then install
// it with Network.InstallFaults; do not mutate a plan after
// installation.
type FaultPlan struct {
	Seed   uint64  `json:"seed"`
	Faults []Fault `json:"faults"`
	// Nodes holds the plan's node-level faults. The fabric ignores them
	// entirely — they gate nothing on the packet path — so a plan with
	// only node faults leaves a single-process campaign untouched.
	Nodes []NodeFault `json:"nodes,omitempty"`
	// Links, when set, routes every flow through the deterministic
	// link-layer emulation (queues, bandwidth, propagation delay, route
	// churn — see internal/netsim/link). Links compose with the fault
	// vocabulary above: faults decide first whether a packet exists at
	// all, links decide how long it queues and whether it survives the
	// queue.
	Links *link.Plan `json:"links,omitempty"`

	// Indexes, built by InstallFaults: exact-address faults by address,
	// prefix faults as a linear list (plans hold few prefixes).
	byAddr   map[netip.Addr][]int
	byPrefix []int
}

// Add appends a fault to the plan.
func (p *FaultPlan) Add(f Fault) {
	p.Faults = append(p.Faults, f)
}

// AddNode appends a node-level fault to the plan.
func (p *FaultPlan) AddNode(f NodeFault) {
	p.Nodes = append(p.Nodes, f)
}

// NodeDown reports whether a crash window covers the node at the
// instant.
func (p *FaultPlan) NodeDown(node int, at time.Time) bool {
	if p == nil {
		return false
	}
	for i := range p.Nodes {
		f := &p.Nodes[i]
		if f.Kind == NodeCrash && f.Node == node && f.activeAt(at) {
			return true
		}
	}
	return false
}

// NodePartitioned reports whether a partition window covers the node
// at the instant.
func (p *FaultPlan) NodePartitioned(node int, at time.Time) bool {
	if p == nil {
		return false
	}
	for i := range p.Nodes {
		f := &p.Nodes[i]
		if f.Kind == NodePartition && f.Node == node && f.activeAt(at) {
			return true
		}
	}
	return false
}

// HeartbeatDelay returns the largest slow-heartbeat delay covering the
// node at the instant (zero when none).
func (p *FaultPlan) HeartbeatDelay(node int, at time.Time) time.Duration {
	if p == nil {
		return 0
	}
	var d time.Duration
	for i := range p.Nodes {
		f := &p.Nodes[i]
		if f.Kind == NodeSlowHeartbeat && f.Node == node && f.activeAt(at) && f.Delay > d {
			d = f.Delay
		}
	}
	return d
}

// NodeDiesWithin reports whether a crash window *opens* strictly
// inside (from, until] — the node looked alive at the slice's
// heartbeat instant but dies before its dispatched work completes.
// The cluster counts such tasks as lost and re-dispatches them.
func (p *FaultPlan) NodeDiesWithin(node int, from, until time.Time) bool {
	if p == nil {
		return false
	}
	for i := range p.Nodes {
		f := &p.Nodes[i]
		if f.Kind == NodeCrash && f.Node == node && f.From.After(from) && !f.From.After(until) {
			return true
		}
	}
	return false
}

// build prepares the lookup indexes.
func (p *FaultPlan) build() {
	if p.Links != nil {
		p.Links.Build()
	}
	p.byAddr = make(map[netip.Addr][]int)
	p.byPrefix = p.byPrefix[:0]
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.Addr.IsValid() {
			p.byAddr[f.Addr] = append(p.byAddr[f.Addr], i)
		} else if f.Prefix.IsValid() {
			p.byPrefix = append(p.byPrefix, i)
		}
	}
}

// faultEffects is the combined active pathology on a path at an
// instant.
type faultEffects struct {
	down    bool
	loss    float64 // max active burst-loss probability
	latency time.Duration
	garble  bool
}

// effectsOn folds every fault scoped to addr and active at the given
// time.
func (p *FaultPlan) effectsOn(addr netip.Addr, at time.Time) faultEffects {
	var e faultEffects
	for _, i := range p.byAddr[addr] {
		p.apply(&e, &p.Faults[i], at)
	}
	for _, i := range p.byPrefix {
		f := &p.Faults[i]
		if f.Prefix.Contains(addr) {
			p.apply(&e, f, at)
		}
	}
	return e
}

func (p *FaultPlan) apply(e *faultEffects, f *Fault, at time.Time) {
	if !f.activeAt(at) {
		return
	}
	switch f.Kind {
	case FaultOutage:
		e.down = true
	case FaultLoss:
		if f.Prob > e.loss {
			e.loss = f.Prob
		}
	case FaultSlow:
		if f.Latency > e.latency {
			e.latency = f.Latency
		}
	case FaultGarble:
		e.garble = true
	}
}

// InstallFaults atomically installs plan on the fabric (nil removes
// all faults). The plan's indexes are built here; the plan must not be
// mutated afterwards.
func (n *Network) InstallFaults(plan *FaultPlan) {
	if plan != nil {
		plan.build()
	}
	n.faults.Store(&faultBox{plan: plan})
}

// faultBox wraps the plan pointer so a nil plan can be stored
// atomically.
type faultBox struct{ plan *FaultPlan }

func (n *Network) plan() *FaultPlan {
	if b := n.faults.Load(); b != nil {
		return b.plan
	}
	return nil
}

// HostUp reports whether addr is free of an active outage fault at the
// given time. It says nothing about whether a host is registered there
// — it answers "is this address blacked out by the plan".
func (n *Network) HostUp(addr netip.Addr, at time.Time) bool {
	p := n.plan()
	if p == nil {
		return true
	}
	return !p.effectsOn(addr, at).down
}

// attemptKey carries the dialer's retry attempt number through context
// so a retried probe re-rolls its fault hashes (a fresh SYN takes a
// fresh path through the loss process).
type attemptKey struct{}

// WithAttempt tags ctx with a retry attempt number (0 = first try).
func WithAttempt(ctx context.Context, attempt int) context.Context {
	if attempt == 0 {
		return ctx
	}
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// AttemptFrom extracts the attempt number tagged by WithAttempt.
func AttemptFrom(ctx context.Context) int {
	if v, ok := ctx.Value(attemptKey{}).(int); ok {
		return v
	}
	return 0
}

// --- hash-based stochastic decisions -------------------------------
//
// Loss and garble decisions are rng.Hash chains over the packet's
// identity, never draws from a shared stream (see package rng).

// roll compares the hash's fraction against prob.
func roll(h rng.Hash, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return h.Float64() < prob
}

// dropTCP decides whether a SYN dies under burst loss.
func dropTCP(seed uint64, src netip.Addr, dst netip.AddrPort, at time.Time, attempt int, prob float64) bool {
	h := rng.NewHash().Word(seed).Byte('t')
	h = h.Addr(src).Addr(dst.Addr()).Word(uint64(dst.Port()))
	h = h.Word(uint64(at.UnixNano()))
	h = h.Word(uint64(attempt))
	return roll(h, prob)
}

// dropUDP decides whether a datagram dies (burst loss or the fabric's
// uniform LossProb). dir distinguishes request from response so the
// two directions roll independently.
func dropUDP(seed uint64, dir byte, src, dst netip.Addr, dstPort uint16, payload []byte, at time.Time, prob float64) bool {
	h := rng.NewHash().Word(seed).Byte(dir)
	h = h.Addr(src).Addr(dst).Word(uint64(dstPort))
	h = h.Bytes(payload)
	h = h.Word(uint64(at.UnixNano()))
	return roll(h, prob)
}

// --- garbling -------------------------------------------------------

// garbleCut derives where a garbled stream is truncated: enough bytes
// to look like a banner started, never enough to finish one.
func garbleCut(seed uint64, dst netip.AddrPort, at time.Time, attempt int) int {
	h := rng.NewHash().Word(seed).Byte('g')
	h = h.Addr(dst.Addr()).Word(uint64(dst.Port()))
	h = h.Word(uint64(at.UnixNano()))
	h = h.Word(uint64(attempt))
	return 5 + int(h.Mix()%56) // 5..60 bytes
}

// garbledConn truncates what the peer sends after cut bytes, flipping
// the final delivered byte — a banner that starts plausibly and dies
// mid-line. Writes pass through untouched.
type garbledConn struct {
	net.Conn
	remain int
}

func (g *garbledConn) Read(p []byte) (int, error) {
	if g.remain <= 0 {
		return 0, io.EOF
	}
	if len(p) > g.remain {
		p = p[:g.remain]
	}
	n, err := g.Conn.Read(p)
	g.remain -= n
	if n > 0 && g.remain == 0 {
		p[n-1] ^= 0x3f
	}
	return n, err
}

// garbleUDP corrupts a response datagram: clipped to half length (at
// least one byte) with the final byte flipped.
func garbleUDP(payload []byte) []byte {
	n := len(payload) / 2
	if n < 1 {
		n = len(payload)
	}
	if n == 0 {
		return payload
	}
	out := make([]byte, n)
	copy(out, payload[:n])
	out[n-1] ^= 0x3f
	return out
}
