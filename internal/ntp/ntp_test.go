package ntp

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ntpscan/internal/netsim"
	"ntpscan/internal/obs"
)

func TestTime64RoundTrip(t *testing.T) {
	f := func(secs uint32, millis uint16) bool {
		// Stay within NTP era 0, which ends in 2036: Unix seconds must
		// be below 2^32 - ntpEpochOffset.
		const era0Max = 1<<32 - ntpEpochOffset
		orig := time.Unix(int64(secs)%era0Max, int64(millis)*1e6).UTC()
		got := ToTime64(orig).Time()
		d := got.Sub(orig)
		if d < 0 {
			d = -d
		}
		return d < time.Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTime64Zero(t *testing.T) {
	if ToTime64(time.Time{}) != 0 {
		t.Fatal("zero time should encode to 0")
	}
	if !Time64(0).Time().IsZero() {
		t.Fatal("0 should decode to zero time")
	}
}

func TestTime64KnownEpoch(t *testing.T) {
	// Unix epoch is exactly 2208988800 seconds after the NTP epoch.
	got := ToTime64(time.Unix(0, 0))
	if got>>32 != 2208988800 || got&0xffffffff != 0 {
		t.Fatalf("epoch encodes to %x", uint64(got))
	}
}

func TestPacketEncodeDecodeRoundTrip(t *testing.T) {
	p := &Packet{
		Leap: LeapAddSecond, Version: 4, Mode: ModeServer,
		Stratum: 2, Poll: 6, Precision: -20,
		RootDelay: 0x00010000, RootDispersion: 0x00000800,
		ReferenceID:   [4]byte{'G', 'P', 'S', 0},
		ReferenceTime: 0x1111111122222222,
		OriginTime:    0x3333333344444444,
		ReceiveTime:   0x5555555566666666,
		TransmitTime:  0x7777777788888888,
	}
	b := p.Encode()
	if len(b) != PacketSize {
		t.Fatalf("encoded %d bytes", len(b))
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *p {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 47)); !errors.Is(err, ErrShortPacket) {
		t.Fatalf("short: %v", err)
	}
	b := make([]byte, 48)
	b[0] = 7 << 3 // version 7
	if _, err := Decode(b); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version: %v", err)
	}
	b[0] = 0 // version 0
	if _, err := Decode(b); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version 0: %v", err)
	}
}

func TestDecodeIgnoresExtensions(t *testing.T) {
	p := NewClientPacket(time.Now())
	b := append(p.Encode(), make([]byte, 20)...) // trailing extension
	if _, err := Decode(b); err != nil {
		t.Fatalf("extensions rejected: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if ModeClient.String() != "client" || ModeServer.String() != "server" {
		t.Fatal("mode names wrong")
	}
}

// localMetrics is a server's books on free-standing counters, the
// form collection shards hand their clones.
func localMetrics() *ServerMetrics {
	return &ServerMetrics{
		Requests:    obs.LocalCounter(),
		Answered:    obs.LocalCounter(),
		RateLimited: obs.LocalCounter(),
	}
}

func TestServerRespond(t *testing.T) {
	now := time.Date(2024, 7, 20, 12, 0, 0, 0, time.UTC)
	var captured []netip.AddrPort
	met := localMetrics()
	s := NewServer(ServerConfig{
		Stratum:     2,
		ReferenceID: [4]byte{1, 2, 3, 4},
		Now:         func() time.Time { return now },
		Metrics:     met,
		Capture: func(c netip.AddrPort, at time.Time) {
			captured = append(captured, c)
			if !at.Equal(now) {
				t.Errorf("capture time = %v", at)
			}
		},
	})
	client := netip.MustParseAddrPort("[2001:db8::42]:50000")
	req := NewClientPacket(now.Add(-time.Second))
	respB := s.Respond(client, req.Encode())
	if respB == nil {
		t.Fatal("no response")
	}
	resp, err := Decode(respB)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Mode != ModeServer || resp.Stratum != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.OriginTime != req.TransmitTime {
		t.Fatal("origin must echo client transmit")
	}
	if len(captured) != 1 || captured[0] != client {
		t.Fatalf("captured = %v", captured)
	}
	if reqs, ans := met.Requests.Value(), met.Answered.Value(); reqs != 1 || ans != 1 {
		t.Fatalf("requests, answered = %d %d", reqs, ans)
	}
}

func TestServerIgnoresGarbageAndWrongMode(t *testing.T) {
	met := localMetrics()
	s := NewServer(ServerConfig{Metrics: met})
	client := netip.MustParseAddrPort("[2001:db8::1]:1")
	if s.Respond(client, []byte("short")) != nil {
		t.Fatal("garbage answered")
	}
	serverMode := &Packet{Version: 4, Mode: ModeServer}
	if s.Respond(client, serverMode.Encode()) != nil {
		t.Fatal("mode-4 packet answered")
	}
	if reqs, ans := met.Requests.Value(), met.Answered.Value(); reqs != 2 || ans != 0 {
		t.Fatalf("requests, answered = %d %d", reqs, ans)
	}
}

func TestServerEchoesVersion(t *testing.T) {
	s := NewServer(ServerConfig{})
	req := NewClientPacket(time.Now())
	req.Version = 3
	resp, err := Decode(s.Respond(netip.MustParseAddrPort("[::1]:9"), req.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != 3 {
		t.Fatalf("version = %d", resp.Version)
	}
}

func TestQuerySimEndToEnd(t *testing.T) {
	clock := netsim.NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
	fabric := netsim.New(netsim.Config{Clock: clock})

	var mu sync.Mutex
	var captured []netip.AddrPort
	srv := NewServer(ServerConfig{
		Now: clock.Now,
		Capture: func(c netip.AddrPort, _ time.Time) {
			mu.Lock()
			captured = append(captured, c)
			mu.Unlock()
		},
	})
	serverAddr := netip.MustParseAddr("2001:db8:ffff::123")
	fabric.Register(serverAddr, netsim.NewHost("pool-server").HandleUDP(Port, srv.Handle))

	src := netip.MustParseAddrPort("[2001:db8:1::aa]:40000")
	res, err := QuerySim(fabric, src, netip.AddrPortFrom(serverAddr, Port), clock.Now, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stratum != 2 {
		t.Fatalf("stratum = %d", res.Stratum)
	}
	// Client and server share the manual clock, so offset must be ~0.
	if res.Offset != 0 {
		t.Fatalf("offset = %v", res.Offset)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(captured) != 1 || captured[0] != src {
		t.Fatalf("captured = %v", captured)
	}
}

func TestQuerySimNoServer(t *testing.T) {
	fabric := netsim.New(netsim.Config{})
	src := netip.MustParseAddrPort("[2001:db8:1::aa]:40001")
	_, err := QuerySim(fabric, src, netip.MustParseAddrPort("[2001:db8::dead]:123"),
		time.Now, 50*time.Millisecond)
	if !errors.Is(err, ErrNoResponse) {
		t.Fatalf("got %v", err)
	}
}

func TestEvaluateRejectsBogusOrigin(t *testing.T) {
	req := NewClientPacket(time.Now())
	resp := &Packet{Version: 4, Mode: ModeServer, Stratum: 2, OriginTime: req.TransmitTime + 1}
	_, err := evaluate(req, resp, netip.AddrPort{}, time.Now(), time.Now())
	if !errors.Is(err, ErrBogusOrigin) {
		t.Fatalf("got %v", err)
	}
}

func TestEvaluateRejectsKoD(t *testing.T) {
	req := NewClientPacket(time.Now())
	resp := &Packet{Version: 4, Mode: ModeServer, Stratum: 0, OriginTime: req.TransmitTime}
	_, err := evaluate(req, resp, netip.AddrPort{}, time.Now(), time.Now())
	if !errors.Is(err, ErrKissOfDeath) {
		t.Fatalf("got %v", err)
	}
}

func TestServeRealSocket(t *testing.T) {
	// End-to-end over genuine UDP loopback sockets: the same server core
	// that runs in the simulation answers a real socket client.
	serverConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer serverConn.Close()

	var mu sync.Mutex
	var captured []netip.AddrPort
	srv := NewServer(ServerConfig{Capture: func(c netip.AddrPort, _ time.Time) {
		mu.Lock()
		captured = append(captured, c)
		mu.Unlock()
	}})
	go srv.Serve(serverConn)

	clientConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer clientConn.Close()

	res, err := QueryConn(clientConn, serverConn.LocalAddr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stratum != 2 {
		t.Fatalf("stratum = %d", res.Stratum)
	}
	if res.Offset > time.Second || res.Offset < -time.Second {
		t.Fatalf("loopback offset = %v", res.Offset)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(captured) != 1 {
		t.Fatalf("captured %d clients", len(captured))
	}
}

func BenchmarkServerRespond(b *testing.B) {
	s := NewServer(ServerConfig{Now: func() time.Time { return time.Unix(1721433600, 0) }})
	client := netip.MustParseAddrPort("[2001:db8::1]:50000")
	req := NewClientPacket(time.Unix(1721433599, 0)).Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Respond(client, req)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	p := NewClientPacket(time.Now())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := p.Encode()
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRateLimitKissOfDeath(t *testing.T) {
	now := time.Date(2024, 7, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	met := localMetrics()
	s := NewServer(ServerConfig{Now: clock, MinInterval: 10 * time.Second, Metrics: met})
	client := netip.MustParseAddrPort("[2001:db8::1]:5000")
	req := NewClientPacket(now)

	// First query: answered normally.
	resp, err := Decode(s.Respond(client, req.Encode()))
	if err != nil || resp.Stratum == 0 {
		t.Fatalf("first query: %+v %v", resp, err)
	}
	// Immediate re-query: kiss-of-death with RATE refid.
	resp, err = Decode(s.Respond(client, req.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stratum != 0 || string(resp.ReferenceID[:]) != "RATE" {
		t.Fatalf("expected KoD, got %+v", resp)
	}
	if got := met.RateLimited.Value(); got != 1 {
		t.Fatalf("RateLimited = %d", got)
	}
	// Other clients are unaffected.
	other := netip.MustParseAddrPort("[2001:db8::2]:5000")
	if resp, _ = Decode(s.Respond(other, req.Encode())); resp.Stratum == 0 {
		t.Fatal("other client rate limited")
	}
	// After the interval the original client is served again.
	now = now.Add(11 * time.Second)
	if resp, _ = Decode(s.Respond(client, req.Encode())); resp.Stratum == 0 {
		t.Fatal("client still limited after interval")
	}
}

func TestRateLimitCaptureSuppressed(t *testing.T) {
	now := time.Unix(1721433600, 0)
	captures := 0
	s := NewServer(ServerConfig{
		Now:         func() time.Time { return now },
		MinInterval: time.Minute,
		Capture:     func(netip.AddrPort, time.Time) { captures++ },
	})
	client := netip.MustParseAddrPort("[2001:db8::1]:5000")
	req := NewClientPacket(now).Encode()
	s.Respond(client, req)
	s.Respond(client, req) // limited
	if captures != 1 {
		t.Fatalf("captures = %d, want 1 (KoD must not capture)", captures)
	}
}

func TestClientRejectsKoD(t *testing.T) {
	// QuerySim against a rate-limiting server: the second query errors
	// with ErrKissOfDeath.
	clock := netsim.NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
	fabric := netsim.New(netsim.Config{Clock: clock})
	srv := NewServer(ServerConfig{Now: clock.Now, MinInterval: time.Hour})
	serverAddr := netip.MustParseAddr("2001:db8::123")
	fabric.Register(serverAddr, netsim.NewHost("ntp").HandleUDP(Port, srv.Handle))

	src := netip.MustParseAddrPort("[2001:db8:1::1]:40000")
	if _, err := QuerySim(fabric, src, netip.AddrPortFrom(serverAddr, Port), clock.Now, time.Second); err != nil {
		t.Fatal(err)
	}
	src2 := netip.MustParseAddrPort("[2001:db8:1::1]:40001")
	_, err := QuerySim(fabric, src2, netip.AddrPortFrom(serverAddr, Port), clock.Now, time.Second)
	if !errors.Is(err, ErrKissOfDeath) {
		t.Fatalf("got %v", err)
	}
}

func TestRateTableEviction(t *testing.T) {
	now := time.Unix(1721433600, 0)
	s := NewServer(ServerConfig{Now: func() time.Time { return now }, MinInterval: time.Minute})
	req := NewClientPacket(now).Encode()
	for i := 0; i < rateTableMax+100; i++ {
		client := netip.AddrPortFrom(ipv6xAddr(uint64(i)), 5000)
		s.Respond(client, req)
	}
	s.rateMu.Lock()
	size := len(s.lastSeen)
	s.rateMu.Unlock()
	if size > rateTableMax {
		t.Fatalf("rate table grew to %d", size)
	}
}

func ipv6xAddr(i uint64) netip.Addr {
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	for j := 0; j < 8; j++ {
		b[15-j] = byte(i >> (8 * uint(j)))
	}
	return netip.AddrFrom16(b)
}

// Satellite: the exchange's read deadline must live on the injected
// clock, like every other timestamp. On a frozen ManualClock a dead
// query must return promptly in wall time (the armed logical deadline
// is already expired for a read with no data) instead of parking a
// wall timer against a clock that never moves.
func TestQuerySimDeadlineOnInjectedClock(t *testing.T) {
	clock := netsim.NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
	fabric := netsim.New(netsim.Config{Clock: clock})
	src := netip.MustParseAddrPort("[2001:db8:1::aa]:40002")

	start := time.Now()
	_, err := QuerySim(fabric, src, netip.MustParseAddrPort("[2001:db8::dead]:123"),
		clock.Now, 10*time.Second) // 10s of *logical* patience
	if !errors.Is(err, ErrNoResponse) {
		t.Fatalf("got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dead query on a frozen clock took %v of wall time", elapsed)
	}
}

// Every timestamp in the exchange — client transmit, server transmit,
// receive — must come off the injected clock, so a shared logical
// clock on both ends yields a bit-exact zero offset and delay.
func TestQuerySimTimestampsOnInjectedClock(t *testing.T) {
	clock := netsim.NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
	fabric := netsim.New(netsim.Config{Clock: clock})
	srv := NewServer(ServerConfig{Now: clock.Now})
	serverAddr := netip.MustParseAddr("2001:db8:ffff::123")
	fabric.Register(serverAddr, netsim.NewHost("pool").HandleUDP(Port, srv.Handle))

	res, err := QuerySim(fabric, netip.MustParseAddrPort("[2001:db8:1::aa]:40003"),
		netip.AddrPortFrom(serverAddr, Port), clock.Now, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offset != 0 || res.Delay != 0 {
		t.Fatalf("offset=%v delay=%v on a shared logical clock", res.Offset, res.Delay)
	}
	if got := res.Response.TransmitTime.Time(); !got.Equal(clock.Now()) {
		t.Fatalf("server transmit %v, want logical %v", got, clock.Now())
	}
}
