// Package netsim is the virtual IPv6 Internet the reproduction runs on.
//
// It stands in for the paper's actual measurement substrate — the public
// Internet — which is not available here. Hosts register addresses and
// per-port handlers; scanners dial them through a net-compatible API and
// cannot distinguish the fabric from real sockets: streams implement
// net.Conn with deadlines, closed ports refuse, filtered hosts time out,
// unrouted space blackholes, and links can drop packets.
//
// Hosts are passive. No goroutine exists for a host until something
// connects to it, so populations of millions of devices cost only their
// descriptors.
package netsim

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"ntpscan/internal/netsim/link"
)

// StreamHandler serves one accepted stream connection, like the argument
// to a net/http-style server loop. The handler owns conn and must close
// it when done (the dialer side closes independently).
type StreamHandler func(conn net.Conn)

// PacketHandler handles one inbound UDP datagram addressed to a host
// port. Returned slices are sent back to the source as individual
// datagrams; nil means no response.
type PacketHandler func(from netip.AddrPort, payload []byte) [][]byte

// Host is a simulated machine. A host may be registered under several
// addresses (multi-homing, dynamic renumbering). The zero value is a host
// with every port closed.
type Host struct {
	// Name is a diagnostic label (device model, role).
	Name string
	// TCP maps open TCP ports to their handlers.
	TCP map[uint16]StreamHandler
	// UDP maps open UDP ports to their handlers.
	UDP map[uint16]PacketHandler
	// Filtered selects firewall behaviour for non-open ports: true
	// drops probes silently (scanner sees a timeout), false refuses
	// (scanner sees ECONNREFUSED). Consumer CPE typically filters.
	Filtered bool
}

// NewHost returns an empty host with the given label.
func NewHost(name string) *Host {
	return &Host{Name: name, TCP: map[uint16]StreamHandler{}, UDP: map[uint16]PacketHandler{}}
}

// HandleTCP opens a TCP port with the given handler and returns the host
// for chaining.
func (h *Host) HandleTCP(port uint16, fn StreamHandler) *Host {
	if h.TCP == nil {
		h.TCP = map[uint16]StreamHandler{}
	}
	h.TCP[port] = fn
	return h
}

// HandleUDP opens a UDP port with the given handler.
func (h *Host) HandleUDP(port uint16, fn PacketHandler) *Host {
	if h.UDP == nil {
		h.UDP = map[uint16]PacketHandler{}
	}
	h.UDP[port] = fn
	return h
}

// PacketInfo describes one observed transport event for sniffers: a TCP
// connection attempt (SYN equivalent) or a UDP datagram.
type PacketInfo struct {
	Time    time.Time
	Proto   string // "tcp" or "udp"
	Src     netip.AddrPort
	Dst     netip.AddrPort
	Payload []byte // UDP payload; nil for TCP attempts
}

// SnifferFunc receives packets destined to a monitored prefix. It runs
// synchronously on the sender's path, so implementations must be fast and
// must not dial back into the network inline.
type SnifferFunc func(PacketInfo)

// Config tunes fabric behaviour.
type Config struct {
	// Clock stamps sniffed packets and connection events. Defaults to
	// RealClock.
	Clock Clock
	// DialTimeout bounds how long a blackholed dial blocks when the
	// caller's context has no deadline. Defaults to 2 seconds.
	DialTimeout time.Duration
	// LossProb drops each UDP datagram with this probability. The
	// decision is a pure hash of the datagram's flow identity and Seed,
	// so it is independent of goroutine interleaving.
	LossProb float64
	// Seed seeds the fabric's internal randomness (loss decisions).
	Seed uint64
}

// Network is the fabric. All methods are safe for concurrent use.
type Network struct {
	cfg   Config
	clock Clock

	mu    sync.RWMutex
	hosts map[netip.Addr]*Host
	// prefixHosts answer for every address in a /64 (aliased prefixes:
	// CDN front ends where the whole block responds).
	prefixHosts map[netip.Prefix]*Host
	udpBinds    map[netip.AddrPort]*UDPConn
	// bindsAt counts udpBinds by address, so Silent asks whether any
	// socket is bound at an address with one lookup.
	bindsAt  map[netip.Addr]int
	sniffers []snifferEntry
	// sniffing counts the live entries of sniffers, so a send with
	// nobody listening builds no PacketInfo and takes no lock for one.
	sniffing atomic.Int32

	// faults holds the installed FaultPlan (nil box or nil plan = no
	// faults). Atomic so plans can be swapped mid-run.
	faults atomic.Pointer[faultBox]

	// fm, when set, counts fault-plan interventions (see obsmetrics.go).
	fm atomic.Pointer[FaultMetrics]
	// lm, when set, books link-traversal outcomes (see linkfabric.go).
	lm atomic.Pointer[link.Metrics]
	// linkSlice is the pinned route-churn slice, advanced by
	// NoteLinkSlice at campaign slice boundaries.
	linkSlice atomic.Int64
}

type snifferEntry struct {
	prefix netip.Prefix
	fn     SnifferFunc
}

// New returns an empty network.
func New(cfg Config) *Network {
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	return &Network{
		cfg:         cfg,
		clock:       cfg.Clock,
		hosts:       make(map[netip.Addr]*Host),
		prefixHosts: make(map[netip.Prefix]*Host),
		udpBinds:    make(map[netip.AddrPort]*UDPConn),
		bindsAt:     make(map[netip.Addr]int),
	}
}

// Clock returns the fabric clock.
func (n *Network) Clock() Clock { return n.clock }

// Register binds addr to host. Registering an address twice replaces the
// previous binding (address reassignment).
func (n *Network) Register(addr netip.Addr, h *Host) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[addr] = h
}

// Unregister removes the binding for addr, turning it into unrouted
// space.
func (n *Network) Unregister(addr netip.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.hosts, addr)
}

// RegisterPrefix binds every address in the /64 containing p's base to
// host (aliased-prefix semantics). Exact-address bindings take
// precedence. Prefixes other than /64 are rejected — real aliased
// detection operates at /64 and wider blocks are unrealistic to answer
// wholesale.
func (n *Network) RegisterPrefix(p netip.Prefix, h *Host) error {
	if p.Bits() != 64 {
		return fmt.Errorf("netsim: RegisterPrefix wants a /64, got %v", p)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.prefixHosts[p.Masked()] = h
	return nil
}

// HostAt returns the host currently answering at addr: an exact binding
// if one exists, otherwise an aliased-prefix binding.
func (n *Network) HostAt(addr netip.Addr) (*Host, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.hostAtLocked(addr)
}

func (n *Network) hostAtLocked(addr netip.Addr) (*Host, bool) {
	if h, ok := n.hosts[addr]; ok {
		return h, true
	}
	if len(n.prefixHosts) > 0 {
		if p, err := addr.Prefix(64); err == nil {
			if h, ok := n.prefixHosts[p]; ok {
				return h, true
			}
		}
	}
	return nil, false
}

// Silent reports whether no probe of addr can answer or be counted: no
// host is registered at addr or its /64, no sniffer is listening, no
// socket is bound at addr, and the installed plan, if any, has no links
// and no fault acting on addr now. Every TCP dial to addr then
// blackholes and every datagram to it vanishes, with nothing booked on
// the fault or link metrics, so a scanner on a manual clock may write
// the timeout each probe would end in without sending it. A plan of
// node faults alone leaves addr silent: the fabric ignores them.
func (n *Network) Silent(addr netip.Addr) bool {
	if n.sniffing.Load() > 0 {
		return false
	}
	if plan := n.plan(); plan != nil &&
		(plan.Links != nil || plan.effectsOn(addr, n.clock.Now()) != faultEffects{}) {
		return false
	}
	n.mu.RLock()
	_, host := n.hostAtLocked(addr)
	bound := n.bindsAt[addr] > 0
	n.mu.RUnlock()
	return !host && !bound
}

// Sniff registers fn for all traffic destined into prefix (the
// telescope's tcpdump). It returns a function removing the sniffer.
func (n *Network) Sniff(prefix netip.Prefix, fn SnifferFunc) (cancel func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := snifferEntry{prefix: prefix.Masked(), fn: fn}
	n.sniffers = append(n.sniffers, e)
	n.sniffing.Add(1)
	idx := len(n.sniffers) - 1
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if idx < len(n.sniffers) && n.sniffers[idx].fn != nil {
			n.sniffers[idx].fn = nil
			n.sniffing.Add(-1)
		}
	}
}

func (n *Network) notifySniffers(pi PacketInfo) {
	n.mu.RLock()
	entries := n.sniffers
	n.mu.RUnlock()
	for _, e := range entries {
		if e.fn != nil && e.prefix.Contains(pi.Dst.Addr()) {
			e.fn(pi)
		}
	}
}

// DialTCP attempts a TCP connection from src to dst. Error semantics:
//
//   - open port: success, the host's handler runs in a new goroutine;
//   - closed port on a non-filtered host: ErrConnRefused immediately;
//   - closed port on a filtered host, or no host at dst: blocks until
//     ctx is done or the dial timeout elapses, then ErrTimeout.
//
// Installed faults intervene before the host is consulted: an outage
// or a lost SYN blackholes the dial, excess injected latency times it
// out, and a garble fault wraps the returned stream so the response is
// truncated mid-banner.
func (n *Network) DialTCP(ctx context.Context, src netip.Addr, dst netip.AddrPort) (net.Conn, error) {
	now := n.clock.Now()
	// The flow's source port, hashed once and only for a sniffer or an
	// open port (ephemeralPort never returns 0).
	var sport uint16
	if n.sniffing.Load() > 0 {
		sport = ephemeralPort(src, dst)
		n.notifySniffers(PacketInfo{
			Time: now, Proto: "tcp",
			Src: netip.AddrPortFrom(src, sport), Dst: dst,
		})
	}

	var eff faultEffects
	attempt := AttemptFrom(ctx)
	if plan := n.plan(); plan != nil {
		eff = plan.effectsOn(dst.Addr(), now)
		if eff.down || eff.latency > n.cfg.DialTimeout ||
			dropTCP(plan.Seed, src, dst, now, attempt, eff.loss) {
			if m := n.faultMetrics(); m != nil {
				m.DialBlackholes.Inc()
			}
			return n.blackholeDial(ctx)
		}
	}
	// The SYN then traverses the destination's emulated link: a tail
	// drop or a withdrawn route blackholes the dial, and a sojourn past
	// the dialer's patience is a timeout — stamped, never slept.
	if out := n.traverseTCP(src, dst, attempt); out.Hit && out.Blocked() {
		return n.blackholeDial(ctx)
	}

	n.mu.RLock()
	host, ok := n.hostAtLocked(dst.Addr())
	n.mu.RUnlock()

	if ok {
		if handler, open := host.TCP[dst.Port()]; open {
			if sport == 0 {
				sport = ephemeralPort(src, dst)
			}
			client, server := NewConnPair(netip.AddrPortFrom(src, sport), dst)
			if _, logical := n.clock.(*ManualClock); logical {
				client.ignoreDeadlines = true
				server.ignoreDeadlines = true
			}
			go handler(server)
			if eff.garble {
				plan := n.plan()
				if m := n.faultMetrics(); m != nil {
					m.Garbles.Inc()
				}
				return &garbledConn{
					Conn:   client,
					remain: garbleCut(plan.Seed, dst, now, attempt),
				}, nil
			}
			return client, nil
		}
		if !host.Filtered {
			return nil, errDialRefused
		}
	}
	return n.blackholeDial(ctx)
}

// blackholeDial waits out the caller's patience. On a manual clock the
// timeout is a logical-time event — no packet can arrive while the
// dial blocks (delivery is synchronous), so burning wall time here
// only throttles the simulation and the dial fails immediately.
func (n *Network) blackholeDial(ctx context.Context) (net.Conn, error) {
	if _, logical := n.clock.(*ManualClock); logical {
		return nil, errDialTimeout
	}
	timer := time.NewTimer(n.cfg.DialTimeout)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return nil, errDialTimeout
	case <-timer.C:
		return nil, errDialTimeout
	}
}

// ephemeralPort derives a stable pseudo-ephemeral source port for a flow
// so logs and sniffer output are reproducible.
func ephemeralPort(src netip.Addr, dst netip.AddrPort) uint16 {
	b := src.As16()
	d := dst.Addr().As16()
	var h uint32 = 2166136261
	for _, x := range b {
		h = (h ^ uint32(x)) * 16777619
	}
	for _, x := range d {
		h = (h ^ uint32(x)) * 16777619
	}
	h = (h ^ uint32(dst.Port())) * 16777619
	return uint16(32768 + h%28232)
}

// dropDatagram applies the fabric's uniform loss plus any active
// burst-loss fault to one datagram. dir separates the request and
// response directions; the decision is a pure flow hash (see
// faults.go), so it never depends on goroutine interleaving. Client
// ephemeral ports are excluded from the hash — bind order under
// concurrency is not deterministic — so both directions hash the
// server-side port.
// byFault distinguishes plan-injected burst loss from the fabric's
// uniform background loss, so fault accounting counts only the former.
func (n *Network) dropDatagram(dir byte, from, to netip.Addr, serverPort uint16, payload []byte, burstLoss float64, at time.Time) (drop, byFault bool) {
	if n.cfg.LossProb > 0 &&
		dropUDP(n.cfg.Seed, dir, from, to, serverPort, payload, at, n.cfg.LossProb) {
		return true, false
	}
	if burstLoss > 0 {
		plan := n.plan()
		d := dropUDP(plan.Seed, dir|0x80, from, to, serverPort, payload, at, burstLoss)
		return d, d
	}
	return false, false
}

// SendUDP delivers one datagram from src to dst, outside any bound
// socket (fire-and-forget). Responses from host handlers are delivered to
// the UDPConn bound at src, if any; otherwise they are dropped.
//
// Faults scoped to the destination govern both directions of the
// exchange: an outage swallows everything, burst loss rolls per
// datagram, excess injected latency drops the exchange (nothing comes
// back within any deadline), and garble corrupts the responses.
func (n *Network) SendUDP(src, dst netip.AddrPort, payload []byte) {
	now := n.clock.Now()
	if n.sniffing.Load() > 0 {
		n.notifySniffers(PacketInfo{
			Time: now, Proto: "udp", Src: src, Dst: dst, Payload: payload,
		})
	}

	var eff faultEffects
	if plan := n.plan(); plan != nil {
		eff = plan.effectsOn(dst.Addr(), now)
		if eff.down || eff.latency > n.cfg.DialTimeout {
			if m := n.faultMetrics(); m != nil {
				m.UDPDrops.Inc()
			}
			return
		}
	}
	if drop, byFault := n.dropDatagram('q', src.Addr(), dst.Addr(), dst.Port(), payload, eff.loss, now); drop {
		if byFault {
			if m := n.faultMetrics(); m != nil {
				m.UDPDrops.Inc()
			}
		}
		return
	}
	// The request then traverses the destination's emulated link. A
	// blocked outcome — dropped, or delivered past the dialer's
	// patience — swallows the whole exchange before the handler runs:
	// delivery is synchronous on the logical clock, so a datagram that
	// cannot beat the deadline must never generate server-side effects.
	req := n.traverseUDP('q', src.Addr(), dst.Addr(), dst.Port(), payload, n.cfg.DialTimeout)
	if req.Hit && req.Blocked() {
		return
	}

	n.mu.RLock()
	if bound, ok := n.udpBinds[dst]; ok {
		n.mu.RUnlock()
		bound.enqueue(src, payload)
		return
	}
	host, ok := n.hostAtLocked(dst.Addr())
	n.mu.RUnlock()
	if !ok {
		return
	}
	handler, open := host.UDP[dst.Port()]
	if !open {
		return
	}
	for _, resp := range handler(src, payload) {
		if drop, byFault := n.dropDatagram('r', dst.Addr(), src.Addr(), dst.Port(), resp, eff.loss, now); drop {
			if byFault {
				if m := n.faultMetrics(); m != nil {
					m.UDPDrops.Inc()
				}
			}
			continue
		}
		// Responses traverse the client's link with whatever patience
		// the request's sojourn left of the round-trip budget.
		if out := n.traverseUDP('r', dst.Addr(), src.Addr(), dst.Port(), resp, n.cfg.DialTimeout-req.Sojourn); out.Hit && out.Blocked() {
			continue
		}
		if eff.garble {
			resp = garbleUDP(resp)
			if m := n.faultMetrics(); m != nil {
				m.Garbles.Inc()
			}
		}
		n.mu.RLock()
		back, ok := n.udpBinds[src]
		n.mu.RUnlock()
		if ok {
			back.enqueue(dst, resp)
		}
	}
}

// ListenUDP binds a client-side UDP socket at local. Port 0 picks a free
// ephemeral port deterministically derived from the address.
func (n *Network) ListenUDP(local netip.AddrPort) (*UDPConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if local.Port() == 0 {
		for p := uint16(33000); ; p++ {
			cand := netip.AddrPortFrom(local.Addr(), p)
			if _, taken := n.udpBinds[cand]; !taken {
				local = cand
				break
			}
			if p == 65535 {
				return nil, fmt.Errorf("netsim: no free ports on %v", local.Addr())
			}
		}
	}
	if _, taken := n.udpBinds[local]; taken {
		return nil, ErrPortInUse
	}
	c := newUDPConn(n, local)
	n.udpBinds[local] = c
	n.bindsAt[local.Addr()]++
	return c, nil
}

func (n *Network) closeUDP(local netip.AddrPort) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.udpBinds, local)
	if a := local.Addr(); n.bindsAt[a] > 1 {
		n.bindsAt[a]--
	} else {
		delete(n.bindsAt, a)
	}
}
