package netsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func ap(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }
func addr(s string) netip.Addr   { return netip.MustParseAddr(s) }

func TestConnPairRoundTrip(t *testing.T) {
	a, b := NewConnPair(ap("[2001:db8::1]:1000"), ap("[2001:db8::2]:80"))
	defer a.Close()
	defer b.Close()
	msg := []byte("hello fabric")
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := b.Read(buf)
	if err != nil || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	// Reverse direction.
	if _, err := b.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	n, err = a.Read(buf)
	if err != nil || string(buf[:n]) != "ok" {
		t.Fatalf("reverse Read = %q, %v", buf[:n], err)
	}
}

func TestConnAddrs(t *testing.T) {
	a, b := NewConnPair(ap("[2001:db8::1]:1000"), ap("[2001:db8::2]:80"))
	defer a.Close()
	defer b.Close()
	la := a.LocalAddr().(*net.TCPAddr)
	if la.Port != 1000 {
		t.Fatalf("local = %v", la)
	}
	rb := b.RemoteAddr().(*net.TCPAddr)
	if rb.Port != 1000 {
		t.Fatalf("b remote = %v", rb)
	}
}

func TestConnEOFAfterPeerClose(t *testing.T) {
	a, b := NewConnPair(ap("[::1]:1"), ap("[::2]:2"))
	a.Write([]byte("tail"))
	a.Close()
	buf := make([]byte, 16)
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("drain = %q %v", buf[:n], err)
	}
	if _, err := b.Read(buf); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestConnReadAfterOwnClose(t *testing.T) {
	a, _ := NewConnPair(ap("[::1]:1"), ap("[::2]:2"))
	a.Close()
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("got %v", err)
	}
	if _, err := a.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
}

func TestConnCloseUnblocksPeerRead(t *testing.T) {
	a, b := NewConnPair(ap("[::1]:1"), ap("[::2]:2"))
	reading := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(reading)
		_, err := b.Read(make([]byte, 1))
		done <- err
	}()
	// Close once the reader is on its way into Read; whether it has
	// parked yet or not, it must come back with EOF (a read left blocked
	// hangs the test).
	<-reading
	a.Close()
	if err := <-done; err != io.EOF {
		t.Fatalf("got %v, want EOF", err)
	}
}

func TestConnReadDeadline(t *testing.T) {
	a, b := NewConnPair(ap("[::1]:1"), ap("[::2]:2"))
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := b.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadline far overshot")
	}
	// Clearing the deadline makes reads work again.
	b.SetReadDeadline(time.Time{})
	a.Write([]byte("x"))
	if _, err := b.Read(make([]byte, 1)); err != nil {
		t.Fatalf("read after clearing deadline: %v", err)
	}
}

func TestConnPastDeadlineImmediate(t *testing.T) {
	a, b := NewConnPair(ap("[::1]:1"), ap("[::2]:2"))
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(-time.Second))
	if _, err := b.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("got %v", err)
	}
	b.SetWriteDeadline(time.Now().Add(-time.Second))
	if _, err := b.Write([]byte("x")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write got %v", err)
	}
}

func TestConnBothSidesWriteFirst(t *testing.T) {
	// Buffered pipe must not deadlock when both ends write before
	// reading (the reason net.Pipe is unsuitable).
	a, b := NewConnPair(ap("[::1]:1"), ap("[::2]:2"))
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	payload := bytes.Repeat([]byte("x"), 1<<16)
	for _, c := range []*Conn{a, b} {
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			if _, err := c.Write(payload); err != nil {
				t.Errorf("write: %v", err)
			}
		}(c)
	}
	wg.Wait()
	for _, c := range []*Conn{a, b} {
		got, err := io.ReadAll(io.LimitReader(c, int64(len(payload))))
		if err != nil || len(got) != len(payload) {
			t.Fatalf("read %d bytes, err %v", len(got), err)
		}
	}
}

func TestConnCloseWriteHalfClose(t *testing.T) {
	a, b := NewConnPair(ap("[::1]:1"), ap("[::2]:2"))
	defer a.Close()
	defer b.Close()
	a.Write([]byte("req"))
	a.CloseWrite()
	got, err := io.ReadAll(b)
	if err != nil || string(got) != "req" {
		t.Fatalf("ReadAll = %q %v", got, err)
	}
	// b can still respond.
	if _, err := b.Write([]byte("resp")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := a.Read(buf)
	if err != nil || string(buf[:n]) != "resp" {
		t.Fatalf("resp = %q %v", buf[:n], err)
	}
}

func TestManualClock(t *testing.T) {
	t0 := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	c := NewManualClock(t0)
	if !c.Now().Equal(t0) {
		t.Fatal("start time wrong")
	}
	c.Advance(time.Hour)
	if !c.Now().Equal(t0.Add(time.Hour)) {
		t.Fatal("advance wrong")
	}
	c.Set(t0.Add(2 * time.Hour))
	defer func() {
		if recover() == nil {
			t.Fatal("backwards Set should panic")
		}
	}()
	c.Set(t0)
}

func TestManualClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance should panic")
		}
	}()
	NewManualClock(time.Unix(0, 0)).Advance(-time.Second)
}

func TestDialOpenPort(t *testing.T) {
	n := New(Config{})
	h := NewHost("web").HandleTCP(80, func(c net.Conn) {
		defer c.Close()
		buf := make([]byte, 4)
		io.ReadFull(c, buf)
		c.Write(append([]byte("got:"), buf...))
	})
	n.Register(addr("2001:db8::80"), h)

	conn, err := n.DialTCP(context.Background(), addr("2001:db8::1"), ap("[2001:db8::80]:80"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("ping"))
	got, err := io.ReadAll(conn)
	if err != nil || string(got) != "got:ping" {
		t.Fatalf("resp = %q %v", got, err)
	}
}

func TestDialClosedPortRefused(t *testing.T) {
	n := New(Config{})
	n.Register(addr("2001:db8::5"), NewHost("server")) // no ports
	_, err := n.DialTCP(context.Background(), addr("2001:db8::1"), ap("[2001:db8::5]:22"))
	if !errors.Is(err, ErrConnRefused) {
		t.Fatalf("got %v", err)
	}
}

func TestDialFilteredTimesOut(t *testing.T) {
	n := New(Config{DialTimeout: 30 * time.Millisecond})
	h := NewHost("cpe")
	h.Filtered = true
	n.Register(addr("2001:db8::6"), h)
	start := time.Now()
	_, err := n.DialTCP(context.Background(), addr("2001:db8::1"), ap("[2001:db8::6]:22"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("filtered dial returned too fast")
	}
}

func TestDialUnroutedRespectsContext(t *testing.T) {
	n := New(Config{DialTimeout: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := n.DialTCP(ctx, addr("2001:db8::1"), ap("[2001:db8:dead::1]:80"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("context not honoured")
	}
}

func TestUnregisterBlackholes(t *testing.T) {
	n := New(Config{DialTimeout: 20 * time.Millisecond})
	a := addr("2001:db8::7")
	n.Register(a, NewHost("x"))
	n.Unregister(a)
	if _, ok := n.HostAt(a); ok {
		t.Fatal("host still bound")
	}
	_, err := n.DialTCP(context.Background(), addr("2001:db8::1"), netip.AddrPortFrom(a, 80))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v", err)
	}
}

func TestUDPHandlerRoundTrip(t *testing.T) {
	n := New(Config{})
	h := NewHost("ntp").HandleUDP(123, func(from netip.AddrPort, p []byte) [][]byte {
		return [][]byte{append([]byte("pong:"), p...)}
	})
	n.Register(addr("2001:db8::123"), h)

	c, err := n.ListenUDP(ap("[2001:db8::1]:5000"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.WriteTo([]byte("abc"), ap("[2001:db8::123]:123"))
	buf := make([]byte, 64)
	c.SetReadDeadline(time.Now().Add(time.Second))
	nr, from, err := c.ReadFrom(buf)
	if err != nil || string(buf[:nr]) != "pong:abc" {
		t.Fatalf("resp = %q %v", buf[:nr], err)
	}
	if from != ap("[2001:db8::123]:123") {
		t.Fatalf("from = %v", from)
	}
}

func TestUDPConnToConn(t *testing.T) {
	n := New(Config{})
	a, _ := n.ListenUDP(ap("[2001:db8::1]:1000"))
	b, _ := n.ListenUDP(ap("[2001:db8::2]:2000"))
	defer a.Close()
	defer b.Close()
	a.WriteTo([]byte("direct"), ap("[2001:db8::2]:2000"))
	buf := make([]byte, 16)
	b.SetReadDeadline(time.Now().Add(time.Second))
	nr, from, err := b.ReadFrom(buf)
	if err != nil || string(buf[:nr]) != "direct" || from != ap("[2001:db8::1]:1000") {
		t.Fatalf("got %q from %v, %v", buf[:nr], from, err)
	}
}

func TestUDPClosedPortSilent(t *testing.T) {
	n := New(Config{})
	n.Register(addr("2001:db8::9"), NewHost("quiet"))
	c, _ := n.ListenUDP(ap("[2001:db8::1]:1000"))
	defer c.Close()
	c.WriteTo([]byte("x"), ap("[2001:db8::9]:5683"))
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, _, err := c.ReadFrom(make([]byte, 8)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("got %v", err)
	}
}

func TestUDPPortInUseAndEphemeral(t *testing.T) {
	n := New(Config{})
	a, err := n.ListenUDP(ap("[2001:db8::1]:1000"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := n.ListenUDP(ap("[2001:db8::1]:1000")); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("got %v", err)
	}
	e1, err := n.ListenUDP(netip.AddrPortFrom(addr("2001:db8::1"), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	e2, err := n.ListenUDP(netip.AddrPortFrom(addr("2001:db8::1"), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// The bound port is what a peer sees as the datagram's source.
	var from [2]netip.AddrPort
	for i, e := range []*UDPConn{e1, e2} {
		e.WriteTo([]byte("x"), ap("[2001:db8::1]:1000"))
		a.SetReadDeadline(time.Now().Add(time.Second))
		if _, from[i], err = a.ReadFrom(make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if from[0].Port() == 0 || from[0] == from[1] {
		t.Fatalf("ephemeral ports %v and %v", from[0], from[1])
	}
}

func TestUDPRebindAfterClose(t *testing.T) {
	n := New(Config{})
	a, _ := n.ListenUDP(ap("[2001:db8::1]:777"))
	a.Close()
	if _, err := n.ListenUDP(ap("[2001:db8::1]:777")); err != nil {
		t.Fatalf("rebind failed: %v", err)
	}
}

func TestUDPTruncation(t *testing.T) {
	n := New(Config{})
	a, _ := n.ListenUDP(ap("[2001:db8::1]:1"))
	b, _ := n.ListenUDP(ap("[2001:db8::2]:2"))
	defer a.Close()
	defer b.Close()
	a.WriteTo([]byte("0123456789"), ap("[2001:db8::2]:2"))
	buf := make([]byte, 4)
	b.SetReadDeadline(time.Now().Add(time.Second))
	nr, _, err := b.ReadFrom(buf)
	if err != nil || nr != 4 || string(buf) != "0123" {
		t.Fatalf("truncated read = %q %v", buf[:nr], err)
	}
}

func TestUDPWriteAfterClose(t *testing.T) {
	n := New(Config{})
	a, _ := n.ListenUDP(ap("[2001:db8::1]:1"))
	a.Close()
	if _, err := a.WriteTo([]byte("x"), ap("[2001:db8::2]:2")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("got %v", err)
	}
	if _, _, err := a.ReadFrom(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read got %v", err)
	}
}

func TestSnifferSeesTrafficInPrefix(t *testing.T) {
	clock := NewManualClock(time.Unix(1000, 0))
	n := New(Config{Clock: clock, DialTimeout: time.Millisecond})
	var mu sync.Mutex
	var seen []PacketInfo
	cancel := n.Sniff(netip.MustParsePrefix("2001:db8:f::/48"), func(pi PacketInfo) {
		mu.Lock()
		seen = append(seen, pi)
		mu.Unlock()
	})

	// TCP attempt into the prefix (no host: blackhole, but sniffed).
	n.DialTCP(context.Background(), addr("2001:db8::1"), ap("[2001:db8:f::42]:443"))
	// UDP into the prefix.
	n.SendUDP(ap("[2001:db8::1]:999"), ap("[2001:db8:f::42]:123"), []byte("q"))
	// Traffic outside the prefix must not be captured.
	n.SendUDP(ap("[2001:db8::1]:999"), ap("[2001:db8:aaaa::1]:123"), []byte("q"))

	mu.Lock()
	got := len(seen)
	mu.Unlock()
	if got != 2 {
		t.Fatalf("sniffed %d packets, want 2", got)
	}
	if seen[0].Proto != "tcp" || seen[0].Dst.Port() != 443 {
		t.Fatalf("first = %+v", seen[0])
	}
	if seen[1].Proto != "udp" || string(seen[1].Payload) != "q" {
		t.Fatalf("second = %+v", seen[1])
	}
	if !seen[0].Time.Equal(clock.Now()) {
		t.Fatal("sniffer timestamps should come from the fabric clock")
	}

	cancel()
	n.SendUDP(ap("[2001:db8::1]:999"), ap("[2001:db8:f::42]:123"), []byte("q"))
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatal("cancelled sniffer still firing")
	}
}

func TestLossDropsPackets(t *testing.T) {
	n := New(Config{LossProb: 1, Seed: 1})
	h := NewHost("ntp").HandleUDP(123, func(netip.AddrPort, []byte) [][]byte {
		return [][]byte{[]byte("r")}
	})
	n.Register(addr("2001:db8::9"), h)
	c, _ := n.ListenUDP(ap("[2001:db8::1]:1"))
	defer c.Close()
	c.WriteTo([]byte("x"), ap("[2001:db8::9]:123"))
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, _, err := c.ReadFrom(make([]byte, 4)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("full loss still delivered: %v", err)
	}
}

func TestStatsCount(t *testing.T) {
	// A sniffer over everything is the fabric's traffic count: one
	// event per dial attempt and per datagram, delivered or not.
	n := New(Config{DialTimeout: time.Millisecond})
	var dials, pkts int
	n.Sniff(netip.MustParsePrefix("::/0"), func(pi PacketInfo) {
		if pi.Proto == "tcp" {
			dials++
		} else {
			pkts++
		}
	})
	ctx := context.Background()
	n.DialTCP(ctx, addr("::1"), ap("[2001:db8::1]:80"))
	n.SendUDP(ap("[::1]:1"), ap("[2001:db8::1]:123"), nil)
	n.SendUDP(ap("[::1]:1"), ap("[2001:db8::1]:123"), nil)
	if dials != 1 || pkts != 2 {
		t.Fatalf("stats = %d %d", dials, pkts)
	}
}

func TestEphemeralPortStable(t *testing.T) {
	s, d := addr("2001:db8::1"), ap("[2001:db8::2]:80")
	if ephemeralPort(s, d) != ephemeralPort(s, d) {
		t.Fatal("ephemeral port not stable per flow")
	}
	if p := ephemeralPort(s, d); p < 32768 {
		t.Fatalf("port %d below ephemeral range", p)
	}
}

func TestConcurrentDials(t *testing.T) {
	n := New(Config{})
	h := NewHost("web").HandleTCP(80, func(c net.Conn) {
		c.Write([]byte("hi"))
		c.Close()
	})
	target := addr("2001:db8::80")
	n.Register(target, h)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := n.DialTCP(context.Background(), addr("2001:db8::1"), netip.AddrPortFrom(target, 80))
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			defer conn.Close()
			got, _ := io.ReadAll(conn)
			if string(got) != "hi" {
				t.Errorf("dial %d read %q", i, got)
			}
		}(i)
	}
	wg.Wait()
}

func BenchmarkDialEcho(b *testing.B) {
	n := New(Config{})
	h := NewHost("web").HandleTCP(80, func(c net.Conn) {
		buf := make([]byte, 4)
		io.ReadFull(c, buf)
		c.Write(buf)
		c.Close()
	})
	target := addr("2001:db8::80")
	n.Register(target, h)
	src := addr("2001:db8::1")
	dst := netip.AddrPortFrom(target, 80)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := n.DialTCP(ctx, src, dst)
		if err != nil {
			b.Fatal(err)
		}
		conn.Write([]byte("ping"))
		io.ReadAll(conn)
		conn.Close()
	}
}

func TestConnDataIntegrityProperty(t *testing.T) {
	// Arbitrary write chunkings must be read back byte-identical.
	f := func(chunks [][]byte) bool {
		a, b := NewConnPair(ap("[::1]:1"), ap("[::2]:2"))
		defer b.Close()
		var want []byte
		for i, c := range chunks {
			if len(c) > 4096 {
				chunks[i] = c[:4096]
			}
			want = append(want, chunks[i]...)
		}
		go func() {
			defer a.Close()
			for _, c := range chunks {
				if _, err := a.Write(c); err != nil {
					return
				}
			}
		}()
		got, err := io.ReadAll(b)
		if err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPOrderingFIFO(t *testing.T) {
	n := New(Config{})
	a, _ := n.ListenUDP(ap("[2001:db8::1]:1"))
	b, _ := n.ListenUDP(ap("[2001:db8::2]:2"))
	defer a.Close()
	defer b.Close()
	for i := 0; i < 50; i++ {
		a.WriteTo([]byte{byte(i)}, ap("[2001:db8::2]:2"))
	}
	buf := make([]byte, 4)
	b.SetReadDeadline(time.Now().Add(time.Second))
	for i := 0; i < 50; i++ {
		nr, _, err := b.ReadFrom(buf)
		if err != nil || nr != 1 || buf[0] != byte(i) {
			t.Fatalf("datagram %d: got %v (n=%d, err=%v)", i, buf[0], nr, err)
		}
	}
}

func TestRegisterPrefixAliased(t *testing.T) {
	n := New(Config{DialTimeout: time.Millisecond})
	h := NewHost("cdn").HandleTCP(80, func(c net.Conn) {
		c.Write([]byte("edge"))
		c.Close()
	})
	if err := n.RegisterPrefix(netip.MustParsePrefix("2001:db8:aaaa::/48"), h); err == nil {
		t.Fatal("non-/64 prefix accepted")
	}
	if err := n.RegisterPrefix(netip.MustParsePrefix("2001:db8:aa:bb::/64"), h); err != nil {
		t.Fatal(err)
	}
	// Any address in the block answers.
	for _, s := range []string{"2001:db8:aa:bb::1", "2001:db8:aa:bb:dead:beef:1234:5678"} {
		conn, err := n.DialTCP(context.Background(), addr("2001:db8::9"),
			netip.AddrPortFrom(addr(s), 80))
		if err != nil {
			t.Fatalf("dial %s: %v", s, err)
		}
		got, _ := io.ReadAll(conn)
		conn.Close()
		if string(got) != "edge" {
			t.Fatalf("read %q", got)
		}
	}
	// Outside the block: blackhole.
	if _, err := n.DialTCP(context.Background(), addr("2001:db8::9"),
		ap("[2001:db8:aa:bc::1]:80")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v", err)
	}
	// Exact bindings take precedence over the prefix.
	exact := NewHost("exact").HandleTCP(80, func(c net.Conn) {
		c.Write([]byte("exact"))
		c.Close()
	})
	n.Register(addr("2001:db8:aa:bb::42"), exact)
	conn, err := n.DialTCP(context.Background(), addr("2001:db8::9"), ap("[2001:db8:aa:bb::42]:80"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(conn)
	conn.Close()
	if string(got) != "exact" {
		t.Fatalf("precedence broken: %q", got)
	}
}
