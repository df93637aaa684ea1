package netsim

import (
	"net"
	"net/netip"
	"os"
	"sync"
	"time"
)

// UDPConn is a bound simulated UDP socket. It implements the subset of
// net.PacketConn the scanners use (ReadFrom/WriteTo with deadlines).
type UDPConn struct {
	net   *Network
	local netip.AddrPort

	mu     sync.Mutex
	queue  []datagram
	closed bool
	notify chan struct{}
	readDL pipeDeadline
	// dlArmed replaces the wall timer under a manual clock: a deadlined
	// read on an empty queue fails immediately there (delivery is
	// synchronous), so arming a real timer per SetReadDeadline — one
	// allocation per CoAP probe — would only feed the garbage collector.
	dlArmed bool
}

type datagram struct {
	from    netip.AddrPort
	payload []byte
}

func newUDPConn(n *Network, local netip.AddrPort) *UDPConn {
	return &UDPConn{
		net:    n,
		local:  local,
		notify: make(chan struct{}, 1),
	}
}

// enqueue delivers an inbound datagram. The payload is copied so senders
// may reuse their buffers.
func (c *UDPConn) enqueue(from netip.AddrPort, payload []byte) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	c.queue = append(c.queue, datagram{from: from, payload: cp})
	c.mu.Unlock()
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// WriteTo sends one datagram to dst.
func (c *UDPConn) WriteTo(payload []byte, dst netip.AddrPort) (int, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return 0, net.ErrClosed
	}
	c.net.SendUDP(c.local, dst, payload)
	return len(payload), nil
}

// ReadFrom blocks for the next inbound datagram, honouring the read
// deadline. The datagram is copied into p; if p is too small the excess
// is discarded (UDP truncation semantics).
func (c *UDPConn) ReadFrom(p []byte) (int, netip.AddrPort, error) {
	for {
		c.mu.Lock()
		if len(c.queue) > 0 {
			d := c.queue[0]
			c.queue = c.queue[1:]
			c.mu.Unlock()
			return copy(p, d.payload), d.from, nil
		}
		closed, dlArmed := c.closed, c.dlArmed
		c.mu.Unlock()
		if closed {
			return 0, netip.AddrPort{}, net.ErrClosed
		}
		// On a manual clock a deadlined read on an empty queue has
		// already missed its answer: datagram delivery is synchronous
		// (SendUDP enqueues any response before returning), so nothing
		// can arrive while we wait and the wall-clock deadline would
		// only stall the simulation.
		if dlArmed {
			return 0, netip.AddrPort{}, os.ErrDeadlineExceeded
		}
		if isClosedChan(c.readDL.wait()) {
			return 0, netip.AddrPort{}, os.ErrDeadlineExceeded
		}
		select {
		case <-c.notify:
		case <-c.readDL.wait():
			return 0, netip.AddrPort{}, os.ErrDeadlineExceeded
		}
	}
}

// SetReadDeadline bounds future ReadFrom calls.
func (c *UDPConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	closed := c.closed
	if _, logical := c.net.clock.(*ManualClock); logical && !closed {
		c.dlArmed = !t.IsZero()
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	if closed {
		return net.ErrClosed
	}
	c.readDL.set(t)
	return nil
}

// Close unbinds the socket and unblocks readers.
func (c *UDPConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.net.closeUDP(c.local)
	select {
	case c.notify <- struct{}{}:
	default:
	}
	return nil
}
