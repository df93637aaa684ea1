// Package link is netsim's deterministic link-layer emulation. Every
// flow whose destination resolves to an emulated link traverses a
// finite queue with a bandwidth term (serialization delay per byte),
// propagation delay, seeded jitter, and a drop-tail policy, plus a
// route-churn schedule of per-prefix announce/withdraw events that flip
// reachability and reset queue state at slice boundaries.
//
// Nothing here sleeps and nothing holds mutable queue state. A packet's
// traversal is a pure function of (plan, destination, flow identity,
// logical time): the cross-traffic backlog it finds is sampled from a
// geometric occupancy distribution — P(depth >= k) = Utilization^k, the
// steady-state M/M/1 queue-length law — via a seeded hash, so the queue
// a packet "joins" never depends on goroutine interleaving or on which
// worker sent the neighbouring packet. Queueing delay is stamped onto
// the outcome, never slept: a fully congested campaign runs at the same
// wall-clock speed as a clean one, and a sojourn past the flow's
// deadline surfaces as a timeout instead of a pause.
package link

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"sort"
	"time"

	"ntpscan/internal/rng"
)

// CrossPacketBytes is the modelled size of one cross-traffic packet in
// a link queue: the backlog a packet finds is Depth of these.
const CrossPacketBytes = 512

// DefaultQueuePackets bounds a queue whose Params left QueuePackets
// zero.
const DefaultQueuePackets = 64

// Params describes one emulated link. The zero value is an ideal link:
// unbounded-by-bytes default-depth queue, infinite bandwidth, no
// propagation delay, no cross traffic, no jitter — traversal always
// succeeds with zero sojourn.
type Params struct {
	// QueuePackets is the queue capacity in packets (drop-tail beyond
	// it). Zero selects DefaultQueuePackets.
	QueuePackets int `json:"queue_packets,omitempty"`
	// QueueBytes optionally bounds the queue in bytes: a packet that
	// would push the backlog past it is tail-dropped. Zero disables the
	// byte bound.
	QueueBytes int `json:"queue_bytes,omitempty"`
	// BytesPerSec is the serialization rate: each queued byte (backlog
	// plus the packet itself) costs 1/BytesPerSec seconds of sojourn.
	// Zero means infinite bandwidth.
	BytesPerSec int64 `json:"bytes_per_sec,omitempty"`
	// PropDelay is the propagation delay added to every traversal.
	PropDelay time.Duration `json:"prop_delay_ns,omitempty"`
	// Utilization is the cross-traffic intensity rho in [0, 1]: the
	// backlog a packet finds is geometric with P(depth >= k) = rho^k.
	// 1 saturates the queue (clamped just below 1 internally, so
	// almost every arrival tail-drops).
	Utilization float64 `json:"utilization,omitempty"`
	// JitterMax bounds the seeded per-packet jitter added to the
	// sojourn, uniform in [0, JitterMax].
	JitterMax time.Duration `json:"jitter_max_ns,omitempty"`
}

func (p *Params) validate(scope string) error {
	if p.QueuePackets < 0 {
		return fmt.Errorf("link: %s: negative queue_packets %d", scope, p.QueuePackets)
	}
	if p.QueueBytes < 0 {
		return fmt.Errorf("link: %s: negative queue_bytes %d", scope, p.QueueBytes)
	}
	if p.BytesPerSec < 0 {
		return fmt.Errorf("link: %s: negative bytes_per_sec %d", scope, p.BytesPerSec)
	}
	if p.PropDelay < 0 {
		return fmt.Errorf("link: %s: negative prop_delay %v", scope, p.PropDelay)
	}
	if p.JitterMax < 0 {
		return fmt.Errorf("link: %s: negative jitter_max %v", scope, p.JitterMax)
	}
	if p.Utilization < 0 || p.Utilization > 1 || math.IsNaN(p.Utilization) {
		return fmt.Errorf("link: %s: utilization %v outside [0, 1]", scope, p.Utilization)
	}
	return nil
}

// ChurnEvent is one route-churn entry: at the start of Slice the prefix
// is withdrawn (reachability flips off, queues drain into the void) or
// re-announced (reachability returns, queues restart empty — the churn
// epoch below folds into the occupancy hash, which is the "reset").
type ChurnEvent struct {
	Prefix netip.Prefix `json:"prefix"`
	Slice  int          `json:"slice"`
	// Withdraw selects the direction: true withdraws the prefix, false
	// (re-)announces it.
	Withdraw bool `json:"withdraw,omitempty"`
}

// Plan is a link-layer schedule: per-vantage and per-/48 link
// parameters plus the route-churn schedule. Like a FaultPlan it is pure
// data — build it (or Decode it), install it via netsim.FaultPlan.Links,
// and never mutate it afterwards.
type Plan struct {
	// Seed drives every stochastic traversal decision. Independent of
	// the fault-plan seed so link and fault draws never correlate.
	Seed uint64 `json:"seed"`
	// Default, when set, is the link every destination traverses unless
	// a more specific entry matches. Each destination /48 gets its own
	// default queue.
	Default *Params `json:"default,omitempty"`
	// Vantages maps exact addresses (vantage servers, scan sources) to
	// their access link.
	Vantages map[netip.Addr]Params `json:"vantages,omitempty"`
	// Prefixes maps /48 routing aggregates to their link.
	Prefixes map[netip.Prefix]Params `json:"prefixes,omitempty"`
	// Churn is the route-churn schedule, applied in slice order;
	// entries at the same slice apply in list order.
	Churn []ChurnEvent `json:"churn,omitempty"`
	// Epoch anchors the slice grid Churn is scheduled on; SliceLen is
	// the grid pitch. SliceOf(at) = (at - Epoch) / SliceLen.
	Epoch    time.Time     `json:"epoch,omitempty"`
	SliceLen time.Duration `json:"slice_len_ns,omitempty"`

	// churnByPrefix indexes Churn entries per masked prefix, in
	// schedule order. Built by Build.
	churnByPrefix map[netip.Prefix][]int
}

// Validate checks the plan's shape: parameter ranges, /48-only prefix
// scopes, and a positive slice grid whenever churn is scheduled.
func (p *Plan) Validate() error {
	if p.Default != nil {
		if err := p.Default.validate("default"); err != nil {
			return err
		}
	}
	for a, prm := range p.Vantages {
		if !a.IsValid() {
			return fmt.Errorf("link: invalid vantage address")
		}
		if err := prm.validate("vantage " + a.String()); err != nil {
			return err
		}
	}
	for pfx, prm := range p.Prefixes {
		if !pfx.IsValid() || pfx.Bits() != 48 {
			return fmt.Errorf("link: prefix scope %v is not a /48", pfx)
		}
		if err := prm.validate("prefix " + pfx.String()); err != nil {
			return err
		}
	}
	for i, ev := range p.Churn {
		if !ev.Prefix.IsValid() || ev.Prefix.Bits() != 48 {
			return fmt.Errorf("link: churn[%d] prefix %v is not a /48", i, ev.Prefix)
		}
		if ev.Slice < 0 {
			return fmt.Errorf("link: churn[%d] negative slice %d", i, ev.Slice)
		}
	}
	if len(p.Churn) > 0 {
		if p.SliceLen <= 0 {
			return fmt.Errorf("link: churn scheduled but slice_len_ns is %d", p.SliceLen)
		}
		if p.Epoch.IsZero() {
			return fmt.Errorf("link: churn scheduled but epoch is unset")
		}
	}
	if p.SliceLen < 0 {
		return fmt.Errorf("link: negative slice_len_ns %d", p.SliceLen)
	}
	return nil
}

// Build prepares the churn index. Call once before traversals; Decode
// calls it for you. The plan must not be mutated afterwards.
func (p *Plan) Build() {
	p.churnByPrefix = make(map[netip.Prefix][]int)
	for i := range p.Churn {
		k := p.Churn[i].Prefix.Masked()
		p.churnByPrefix[k] = append(p.churnByPrefix[k], i)
	}
	for _, idxs := range p.churnByPrefix {
		sort.SliceStable(idxs, func(a, b int) bool {
			return p.Churn[idxs[a]].Slice < p.Churn[idxs[b]].Slice
		})
	}
}

// Encode serialises the plan as canonical JSON: map keys marshal
// through their text form and encoding/json sorts them, so equal plans
// encode to equal bytes.
func (p *Plan) Encode() ([]byte, error) {
	return json.Marshal(p)
}

// Decode parses, validates, and builds a plan. Unknown fields are
// rejected — a plan file with a typoed knob must not silently emulate
// an ideal network.
func Decode(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	p := new(Plan)
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("link: decode: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil {
		return nil, fmt.Errorf("link: decode: trailing data after plan")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Build()
	return p, nil
}

// SliceOf maps an instant onto the plan's churn slice grid (clamped at
// zero before the epoch; always zero when no grid is configured).
func (p *Plan) SliceOf(at time.Time) int {
	if p.SliceLen <= 0 {
		return 0
	}
	d := at.Sub(p.Epoch)
	if d < 0 {
		return 0
	}
	return int(d / p.SliceLen)
}

// churnState folds the prefix's schedule up to and including slice s:
// whether the prefix is currently withdrawn, and the churn epoch (how
// many events have applied — folded into the occupancy hash so each
// flap restarts the queue process).
func (p *Plan) churnState(pfx netip.Prefix, s int) (withdrawn bool, epoch int) {
	for _, i := range p.churnByPrefix[pfx] {
		ev := &p.Churn[i]
		if ev.Slice > s {
			break
		}
		withdrawn = ev.Withdraw
		epoch++
	}
	return withdrawn, epoch
}

// EventsAt counts the churn events that apply exactly at slice s — the
// per-boundary accounting the campaign driver folds into the
// link_churn_events_total counter.
func (p *Plan) EventsAt(s int) int {
	n := 0
	for i := range p.Churn {
		if p.Churn[i].Slice == s {
			n++
		}
	}
	return n
}

// WithdrawnAt counts the prefixes withdrawn as of slice s (the
// link_withdrawn_prefixes gauge).
func (p *Plan) WithdrawnAt(s int) int {
	n := 0
	for pfx := range p.churnByPrefix {
		if w, _ := p.churnState(pfx, s); w {
			n++
		}
	}
	return n
}

// resolve finds the link governing a destination: exact vantage match,
// then the /48 prefix map, then the default. The returned identity
// seeds the occupancy hash — per-vantage links queue per address,
// prefix and default links queue per destination /48.
func (p *Plan) resolve(dst netip.Addr) (prm Params, id netip.Addr, ok bool) {
	if prm, ok = p.Vantages[dst]; ok {
		return prm, dst, true
	}
	pfx, err := dst.Prefix(48)
	if err != nil {
		return Params{}, netip.Addr{}, false
	}
	if prm, ok = p.Prefixes[pfx]; ok {
		return prm, pfx.Addr(), true
	}
	if p.Default != nil {
		return *p.Default, pfx.Addr(), true
	}
	return Params{}, netip.Addr{}, false
}

// Outcome is one packet's traversal result.
type Outcome struct {
	// Hit reports whether a link governed the flow at all; every other
	// field is meaningful only when it is set.
	Hit bool
	// Withdrawn: the destination's prefix is withdrawn by route churn —
	// the packet fell into the void before reaching any queue.
	Withdrawn bool
	// DropTail: the packet found the queue full and was tail-dropped.
	DropTail bool
	// Depth is the cross-traffic backlog (in packets) the packet found;
	// for tail drops, the capacity it bounced off.
	Depth int
	// Sojourn is the stamped queueing + serialization + propagation +
	// jitter delay of a delivered packet.
	Sojourn time.Duration
	// Late: delivered, but the sojourn exceeds the flow's patience —
	// the flow sees a timeout.
	Late bool
}

// Dropped reports whether the packet never came out of the link.
func (o Outcome) Dropped() bool { return o.Withdrawn || o.DropTail }

// Blocked reports whether the flow fails: dropped, or delivered too
// late to matter.
func (o Outcome) Blocked() bool { return o.Dropped() || o.Late }

// Traverse runs one packet of pktBytes through the link resolved for
// dst during churn slice s (see SliceOf; callers that track slices
// themselves — the campaign driver does — pass their own index, which
// is what keeps single-process and cluster runs agreeing even when
// their intra-slice clock readings differ). flow is the
// caller-supplied flow-identity hash (addresses, port, payload,
// attempt — never ephemeral state); patience, when positive, is the
// deadline that turns a long sojourn into a Late outcome. Pure: equal
// arguments yield equal outcomes.
func (p *Plan) Traverse(dst netip.Addr, flow uint64, pktBytes int, s int, patience time.Duration) Outcome {
	prm, id, ok := p.resolve(dst)
	if !ok {
		return Outcome{}
	}
	out := Outcome{Hit: true}

	var epoch int
	if pfx, err := dst.Prefix(48); err == nil && len(p.churnByPrefix) > 0 {
		var withdrawn bool
		withdrawn, epoch = p.churnState(pfx, s)
		if withdrawn {
			out.Withdrawn = true
			return out
		}
	}

	capacity := prm.QueuePackets
	if capacity <= 0 {
		capacity = DefaultQueuePackets
	}
	// Stochastic draws fold the slice index, never a raw instant. The
	// queue process advances once per slice and resets with each churn
	// epoch.
	h := rng.NewHash().Word(p.Seed).Byte('Q')
	h = h.Addr(id).Word(flow).Word(uint64(epoch)).Word(uint64(s))
	depth := occupancy(h.Float64(), prm.Utilization)
	if depth >= capacity {
		out.DropTail = true
		out.Depth = capacity
		return out
	}
	backlog := depth * CrossPacketBytes
	if prm.QueueBytes > 0 && backlog+pktBytes > prm.QueueBytes {
		out.DropTail = true
		out.Depth = depth
		return out
	}
	out.Depth = depth

	soj := prm.PropDelay
	if prm.BytesPerSec > 0 {
		soj += time.Duration((int64(backlog) + int64(pktBytes)) * int64(time.Second) / prm.BytesPerSec)
	}
	if prm.JitterMax > 0 {
		j := rng.NewHash().Word(p.Seed).Byte('J').Addr(id).Word(flow).Word(uint64(epoch)).Word(uint64(s))
		soj += time.Duration(j.Mix() % uint64(prm.JitterMax+1))
	}
	out.Sojourn = soj
	out.Late = patience > 0 && soj > patience
	return out
}

// occupancy samples the geometric queue-occupancy law P(depth >= k) =
// rho^k from a hash fraction u, uniform in [0, 1) and lifted off 0:
// depth = floor(log u / log rho).
func occupancy(u, rho float64) int {
	if rho <= 0 {
		return 0
	}
	if rho >= 1 {
		rho = 1 - 1e-9 // saturated: effectively every arrival queues deep
	}
	if u <= 0 {
		u = 1.0 / (1 << 53)
	}
	d := math.Log(u) / math.Log(rho)
	if d < 0 {
		return 0
	}
	if d > 1<<20 {
		return 1 << 20
	}
	return int(d)
}
