package netsim

import (
	"io"
	"net"
	"net/netip"
	"os"
	"sync"
	"time"
)

// This file implements the in-memory stream connection underlying
// simulated TCP. Unlike net.Pipe it is buffered: writes never block on
// the peer, which prevents the lockstep deadlocks synchronous pipes cause
// for protocols where both ends may write before reading (TLS-style
// handshakes). Reads block until data, EOF, close, or deadline.

// pipeDeadline signals expiry of a deadline through a channel, in the
// style of net's internal connection deadlines. The zero value is an
// unarmed deadline: the cancel channel is allocated lazily on the first
// set, so connections that never arm a deadline (every stream handed
// out under a manual clock) pay no allocation for it.
type pipeDeadline struct {
	mu     sync.Mutex
	timer  *time.Timer
	cancel chan struct{} // closed when the deadline has passed; nil until first set
}

// neverExpires is the wait channel of an unarmed deadline: shared,
// never closed, never sent on.
var neverExpires = make(chan struct{})

// set configures the deadline; the zero time disables it.
func (d *pipeDeadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil && !d.timer.Stop() {
		<-d.cancel // wait for the fired timer's close to land
	}
	d.timer = nil

	closed := d.cancel != nil && isClosedChan(d.cancel)
	if t.IsZero() {
		if closed {
			d.cancel = nil
		}
		return
	}
	if dur := time.Until(t); dur > 0 {
		if closed || d.cancel == nil {
			d.cancel = make(chan struct{})
		}
		cancel := d.cancel
		d.timer = time.AfterFunc(dur, func() { close(cancel) })
		return
	}
	// Deadline already passed.
	if closed {
		return
	}
	if d.cancel == nil {
		d.cancel = make(chan struct{})
	}
	close(d.cancel)
}

// wait returns a channel that is closed once the deadline passes.
func (d *pipeDeadline) wait() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cancel == nil {
		return neverExpires
	}
	return d.cancel
}

func isClosedChan(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// streamBuf is one direction of a stream connection: an unbounded byte
// queue with close semantics.
type streamBuf struct {
	mu       sync.Mutex
	data     []byte
	eof      bool          // write side closed: drain then io.EOF
	notify   chan struct{} // 1-buffered wakeup for blocked readers
	maxBytes int           // accounting only (peak size), no backpressure
}

func (b *streamBuf) wake() {
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// write appends p. Returns io.ErrClosedPipe after closeWrite.
func (b *streamBuf) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.eof {
		return 0, io.ErrClosedPipe
	}
	b.data = append(b.data, p...)
	if len(b.data) > b.maxBytes {
		b.maxBytes = len(b.data)
	}
	b.wake()
	return len(p), nil
}

// closeWrite marks EOF; pending data remains readable.
func (b *streamBuf) closeWrite() {
	b.mu.Lock()
	b.eof = true
	b.mu.Unlock()
	b.wake()
}

// tryRead moves available bytes into p. ok=false means the caller must
// block and retry.
func (b *streamBuf) tryRead(p []byte) (n int, ok bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.data) > 0 {
		n = copy(p, b.data)
		rest := copy(b.data, b.data[n:])
		b.data = b.data[:rest]
		return n, true, nil
	}
	if b.eof {
		return 0, true, io.EOF
	}
	return 0, false, nil
}

// Conn is a simulated TCP connection. It implements net.Conn.
type Conn struct {
	rd, wr        *streamBuf
	local, remote netip.AddrPort

	once    sync.Once
	done    chan struct{} // closed on Close
	readDL  pipeDeadline
	writeDL pipeDeadline

	// ignoreDeadlines makes Set*Deadline no-ops. The network arms it on
	// connections it hands out under a manual clock: the peer is an
	// in-process goroutine whose replies take zero logical time, so a
	// wall-clock deadline could only fire on scheduler starvation —
	// turning worker-count and machine-load into observable scan
	// outcomes and breaking run-to-run determinism.
	ignoreDeadlines bool
}

// connPair backs both ends of a simulated connection with one
// allocation. The profiling harness showed the old layout (two Conns,
// two streamBufs, four deadline channels, two close closures) as one of
// the campaign's top allocation sites — every accepted stream paid ~12
// object allocations before a byte moved.
type connPair struct {
	ends   [2]Conn
	ab, ba streamBuf
}

// NewConnPair returns the two ends of a simulated connection between the
// given endpoints. Data written to one end is readable from the other.
func NewConnPair(a, b netip.AddrPort) (*Conn, *Conn) {
	p := &connPair{}
	p.ab.notify = make(chan struct{}, 1)
	p.ba.notify = make(chan struct{}, 1)
	ca, cb := &p.ends[0], &p.ends[1]
	*ca = Conn{
		rd: &p.ba, wr: &p.ab, local: a, remote: b,
		done: make(chan struct{}),
	}
	*cb = Conn{
		rd: &p.ab, wr: &p.ba, local: b, remote: a,
		done: make(chan struct{}),
	}
	return ca, cb
}

// Read implements net.Conn. It blocks until data is available, the peer
// closes (io.EOF after draining), this end closes (net.ErrClosed), or the
// read deadline expires (os.ErrDeadlineExceeded).
func (c *Conn) Read(p []byte) (int, error) {
	for {
		if isClosedChan(c.done) {
			return 0, net.ErrClosed
		}
		if isClosedChan(c.readDL.wait()) {
			return 0, os.ErrDeadlineExceeded
		}
		n, ok, err := c.rd.tryRead(p)
		if ok {
			return n, err
		}
		select {
		case <-c.rd.notify:
			// retry
		case <-c.done:
			return 0, net.ErrClosed
		case <-c.readDL.wait():
			return 0, os.ErrDeadlineExceeded
		}
	}
}

// Write implements net.Conn. The buffer is unbounded, so writes only fail
// on closed connections or an already-expired write deadline.
func (c *Conn) Write(p []byte) (int, error) {
	if isClosedChan(c.done) {
		return 0, net.ErrClosed
	}
	if isClosedChan(c.writeDL.wait()) {
		return 0, os.ErrDeadlineExceeded
	}
	return c.wr.write(p)
}

// Close implements net.Conn. It half-closes the write direction (the
// peer drains then sees io.EOF) and unblocks this end's readers.
// closeWrite wakes readers blocked on the shared buffer, which is
// exactly the peer's read side, so no separate peer notification is
// needed.
func (c *Conn) Close() error {
	c.once.Do(func() {
		c.wr.closeWrite()
		close(c.done)
	})
	return nil
}

// CloseWrite half-closes the sending direction without closing reads,
// mirroring TCP FIN semantics used by scanners that shut down their send
// side and drain the response.
func (c *Conn) CloseWrite() error {
	c.wr.closeWrite()
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return tcpAddr(c.local) }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return tcpAddr(c.remote) }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	if isClosedChan(c.done) {
		return net.ErrClosed
	}
	if c.ignoreDeadlines {
		return nil
	}
	c.readDL.set(t)
	c.writeDL.set(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	if isClosedChan(c.done) {
		return net.ErrClosed
	}
	if c.ignoreDeadlines {
		return nil
	}
	c.readDL.set(t)
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	if isClosedChan(c.done) {
		return net.ErrClosed
	}
	if c.ignoreDeadlines {
		return nil
	}
	c.writeDL.set(t)
	return nil
}

func tcpAddr(ap netip.AddrPort) net.Addr {
	return &net.TCPAddr{IP: ap.Addr().AsSlice(), Port: int(ap.Port()), Zone: ap.Addr().Zone()}
}
