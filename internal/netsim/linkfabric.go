// Fabric-side glue for the deterministic link-layer emulation
// (internal/netsim/link). The installed FaultPlan may carry a
// link.Plan; every TCP dial and UDP exchange then traverses the link
// resolved for its destination, with the queueing delay stamped on the
// logical clock and outcomes booked on the link metrics. Flow identity
// hashing mirrors the fault engine's rules: server-side addresses,
// ports, payloads and the dial attempt participate; client ephemeral
// ports never do (bind order under concurrency is not deterministic).
package netsim

import (
	"net/netip"
	"time"

	"ntpscan/internal/netsim/link"
	"ntpscan/internal/rng"
)

// linkSliceOf reads the pinned churn slice. The campaign driver pins it
// at each slice boundary via NoteLinkSlice; every traversal between two
// boundaries uses the pinned value, so intra-slice clock nudges (the
// cluster's heartbeat schedule advances the logical clock mid-slice)
// can never shift a flow onto a different queue draw.
func (n *Network) linkSliceOf() int {
	return int(n.linkSlice.Load())
}

// Modelled packet sizes for link serialization delay: a TCP handshake
// segment, and an NTP request/response datagram with v6+UDP framing.
const (
	linkSynBytes    = 80
	linkNTPBytes    = 96
	linkUDPOverhead = 48
)

// SetLinkMetrics attaches the link-traversal accounting surface.
// Outcomes are booked only while a plan with links is installed.
func (n *Network) SetLinkMetrics(m *link.Metrics) {
	n.lm.Store(m)
}

func (n *Network) linkMetrics() *link.Metrics {
	return n.lm.Load()
}

// links returns the installed link plan, if any.
func (n *Network) links() *link.Plan {
	if plan := n.plan(); plan != nil {
		return plan.Links
	}
	return nil
}

// traverseTCP runs a dial's SYN through the destination's link. The
// flow hashes the endpoints, the server port and the dial attempt —
// retries of a timed-out dial are distinct packets that may find a
// different queue. Temporal variation comes from the link plan's slice
// grid inside Traverse, never from the raw instant: the exact
// nanosecond an exchange runs at can differ between single-process and
// cluster modes, and byte-identity across them is part of the
// contract.
func (n *Network) traverseTCP(src netip.Addr, dst netip.AddrPort, attempt int) link.Outcome {
	lp := n.links()
	if lp == nil {
		return link.Outcome{}
	}
	flow := rng.NewHash().Word(lp.Seed).Byte('T').
		Addr(src).Addr(dst.Addr()).
		Word(uint64(dst.Port())).
		Word(uint64(attempt)).
		Mix()
	out := lp.Traverse(dst.Addr(), flow, linkSynBytes, n.linkSliceOf(), n.cfg.DialTimeout)
	n.linkMetrics().Account(out)
	return out
}

// traverseUDP runs one datagram through the link resolved for its
// receiver. dir separates the request ('q') and response ('r')
// directions, exactly like dropDatagram.
func (n *Network) traverseUDP(dir byte, from, to netip.Addr, serverPort uint16, payload []byte, patience time.Duration) link.Outcome {
	lp := n.links()
	if lp == nil {
		return link.Outcome{}
	}
	flow := rng.NewHash().Word(lp.Seed).Byte(dir).
		Addr(from).Addr(to).
		Word(uint64(serverPort)).
		Bytes(payload).
		Mix()
	out := lp.Traverse(to, flow, linkUDPOverhead+len(payload), n.linkSliceOf(), patience)
	n.linkMetrics().Account(out)
	return out
}

// LinkAdmit models the full NTP request/response round trip for the
// codec fast path, which bypasses SendUDP entirely: the request
// traverses the vantage's link, the response traverses the client's,
// and the response's patience is whatever the request's sojourn left
// of the dialer's budget. Reports whether the exchange survives. The
// flow hash deliberately excludes the payload — both capture channels
// must admit identically for the same (client, vantage, port, slice)
// however many requests share the exchange's slab.
func (n *Network) LinkAdmit(client, vantage netip.Addr, serverPort uint16) bool {
	lp := n.links()
	if lp == nil {
		return true
	}
	m := n.linkMetrics()
	s := n.linkSliceOf()
	reqFlow := rng.NewHash().Word(lp.Seed).Byte('q').
		Addr(client).Addr(vantage).
		Word(uint64(serverPort)).
		Mix()
	req := lp.Traverse(vantage, reqFlow, linkNTPBytes, s, n.cfg.DialTimeout)
	m.Account(req)
	if req.Hit && req.Blocked() {
		return false
	}
	patience := n.cfg.DialTimeout - req.Sojourn
	respFlow := rng.NewHash().Word(lp.Seed).Byte('r').
		Addr(vantage).Addr(client).
		Word(uint64(serverPort)).
		Mix()
	resp := lp.Traverse(client, respFlow, linkNTPBytes, s, patience)
	m.Account(resp)
	return !(resp.Hit && resp.Blocked())
}

// NoteLinkSlice pins the link layer's churn slice to the one containing
// the instant and books the schedule's per-slice accounting: events
// applying at that slice, and the gauge of currently-withdrawn
// prefixes. The campaign driver calls it once per collection slice at
// the frozen boundary clock, so both the pinned slice and the numbers
// are independent of worker count and intra-slice clock nudges.
func (n *Network) NoteLinkSlice(at time.Time) {
	lp := n.links()
	if lp == nil {
		return
	}
	s := lp.SliceOf(at)
	n.linkSlice.Store(int64(s))
	m := n.linkMetrics()
	if m == nil {
		return
	}
	if ev := lp.EventsAt(s); ev > 0 {
		m.ChurnEvents.Add(int64(ev))
	}
	m.Withdrawn.Set(int64(lp.WithdrawnAt(s)))
}
