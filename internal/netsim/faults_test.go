package netsim

import (
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"testing"
	"time"

	"ntpscan/internal/netsim/link"
)

var faultStart = time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)

// faultNet builds a fabric on a manual clock with one TCP banner host
// and one UDP echo host.
func faultNet(t *testing.T) (*Network, *ManualClock) {
	t.Helper()
	clock := NewManualClock(faultStart)
	n := New(Config{Clock: clock, DialTimeout: 10 * time.Millisecond})
	n.Register(addr("2001:db8::80"), NewHost("web").HandleTCP(80, func(c net.Conn) {
		defer c.Close()
		c.Write([]byte("SSH-2.0-OpenSSH_9.6 here is a long banner with plenty of bytes to truncate\r\n"))
	}))
	n.Register(addr("2001:db8::123"), NewHost("ntp").HandleUDP(123, func(from netip.AddrPort, p []byte) [][]byte {
		return [][]byte{append([]byte("pong:"), p...)}
	}))
	return n, clock
}

func dialBanner(t *testing.T, n *Network) ([]byte, error) {
	t.Helper()
	conn, err := n.DialTCP(context.Background(), addr("2001:db8::1"), ap("[2001:db8::80]:80"))
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return io.ReadAll(conn)
}

func TestOutageBlackholesTCPDuringWindow(t *testing.T) {
	n, clock := faultNet(t)
	plan := &FaultPlan{Seed: 1}
	plan.Add(Fault{
		Kind: FaultOutage, Addr: addr("2001:db8::80"),
		From: faultStart.Add(time.Hour), Until: faultStart.Add(2 * time.Hour),
	})
	n.InstallFaults(plan)

	if _, err := dialBanner(t, n); err != nil {
		t.Fatalf("dial before window: %v", err)
	}
	clock.Advance(90 * time.Minute)
	if _, err := dialBanner(t, n); !errors.Is(err, ErrTimeout) {
		t.Fatalf("dial during outage = %v, want ErrTimeout", err)
	}
	if n.HostUp(addr("2001:db8::80"), clock.Now()) {
		t.Fatal("HostUp true mid-outage")
	}
	clock.Advance(time.Hour)
	if _, err := dialBanner(t, n); err != nil {
		t.Fatalf("dial after window: %v", err)
	}
	if !n.HostUp(addr("2001:db8::80"), clock.Now()) {
		t.Fatal("HostUp false after recovery")
	}
}

func TestOutageDropsUDPBothWays(t *testing.T) {
	n, clock := faultNet(t)
	plan := &FaultPlan{Seed: 2}
	plan.Add(Fault{
		Kind: FaultOutage, Addr: addr("2001:db8::123"),
		From: faultStart, Until: faultStart.Add(time.Hour),
	})
	n.InstallFaults(plan)

	c, err := n.ListenUDP(ap("[2001:db8::1]:4000"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.WriteTo([]byte("x"), ap("[2001:db8::123]:123"))
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, _, err := c.ReadFrom(make([]byte, 16)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want deadline (datagram swallowed)", err)
	}

	clock.Advance(2 * time.Hour)
	c.WriteTo([]byte("x"), ap("[2001:db8::123]:123"))
	c.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 16)
	nr, _, err := c.ReadFrom(buf)
	if err != nil || string(buf[:nr]) != "pong:x" {
		t.Fatalf("after outage: %q, %v", buf[:nr], err)
	}
}

func TestLossBurstScopedToPrefix(t *testing.T) {
	n, _ := faultNet(t)
	plan := &FaultPlan{Seed: 3}
	plan.Add(Fault{
		Kind: FaultLoss, Prefix: netip.MustParsePrefix("2001:db8::/48"),
		From: faultStart, Until: faultStart.Add(time.Hour), Prob: 1,
	})
	n.Register(addr("2001:db9::80"), NewHost("other").HandleTCP(80, func(c net.Conn) { c.Close() }))
	n.InstallFaults(plan)

	// Inside the prefix every SYN dies.
	if _, err := dialBanner(t, n); !errors.Is(err, ErrTimeout) {
		t.Fatalf("in-prefix dial = %v, want ErrTimeout", err)
	}
	// Outside the prefix the burst does not apply.
	if _, err := n.DialTCP(context.Background(), addr("2001:db8::1"), ap("[2001:db9::80]:80")); err != nil {
		t.Fatalf("out-of-prefix dial: %v", err)
	}
}

func TestLossDecisionsArePureAndAttemptSalted(t *testing.T) {
	src := addr("2001:db8::1")
	dst := ap("[2001:db8::80]:80")
	at := faultStart.Add(3 * time.Hour)

	// Pure: the same flow identity always rolls the same way.
	for i := 0; i < 10; i++ {
		if dropTCP(7, src, dst, at, 0, 0.5) != dropTCP(7, src, dst, at, 0, 0.5) {
			t.Fatal("dropTCP not deterministic")
		}
	}
	// Attempt-salted: across many flows, retries must re-roll (some
	// attempt-1 decisions differ from attempt-0).
	differs := 0
	for p := uint64(0); p < 64; p++ {
		d := netip.AddrPortFrom(dst.Addr(), uint16(1000+p))
		if dropTCP(7, src, d, at, 0, 0.5) != dropTCP(7, src, d, at, 1, 0.5) {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("retry attempts never re-roll the loss decision")
	}
	// Seed-dependent: a different plan seed is a different loss process.
	differs = 0
	for p := uint64(0); p < 64; p++ {
		d := netip.AddrPortFrom(dst.Addr(), uint16(1000+p))
		if dropTCP(7, src, d, at, 0, 0.5) != dropTCP(8, src, d, at, 0, 0.5) {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("plan seed does not influence loss decisions")
	}
}

func TestSlowLinkTimesOutWhenBeyondPatience(t *testing.T) {
	n, clock := faultNet(t)
	plan := &FaultPlan{Seed: 4}
	plan.Add(Fault{
		Kind: FaultSlow, Addr: addr("2001:db8::80"),
		From: faultStart, Until: faultStart.Add(time.Hour), Latency: time.Second,
	})
	n.InstallFaults(plan)
	if _, err := dialBanner(t, n); !errors.Is(err, ErrTimeout) {
		t.Fatalf("slow dial = %v, want ErrTimeout (latency %v > DialTimeout %v)",
			err, time.Second, n.cfg.DialTimeout)
	}
	clock.Advance(2 * time.Hour)
	if _, err := dialBanner(t, n); err != nil {
		t.Fatalf("after slow window: %v", err)
	}
}

func TestGarbleTruncatesTCPBanner(t *testing.T) {
	n, clock := faultNet(t)
	clean, err := dialBanner(t, n)
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{Seed: 5}
	plan.Add(Fault{
		Kind: FaultGarble, Addr: addr("2001:db8::80"),
		From: faultStart, Until: faultStart.Add(time.Hour),
	})
	n.InstallFaults(plan)

	got, err := dialBanner(t, n)
	if err != nil {
		t.Fatalf("garbled read: %v", err)
	}
	if len(got) >= len(clean) {
		t.Fatalf("garbled banner not truncated: %d bytes vs %d clean", len(got), len(clean))
	}
	if len(got) < 5 || len(got) > 60 {
		t.Fatalf("cut %d outside 5..60", len(got))
	}
	if got[len(got)-1] == clean[len(got)-1] {
		t.Fatal("final garbled byte not corrupted")
	}
	if string(got[:len(got)-1]) != string(clean[:len(got)-1]) {
		t.Fatal("garble corrupted more than the final byte")
	}
	// Deterministic: the same dial garbles identically.
	again, err := dialBanner(t, n)
	if err != nil || string(again) != string(got) {
		t.Fatalf("garble not deterministic: %q vs %q (%v)", again, got, err)
	}
	clock.Advance(2 * time.Hour)
	if after, _ := dialBanner(t, n); string(after) != string(clean) {
		t.Fatal("banner still garbled after window")
	}
}

func TestGarbleCorruptsUDPResponse(t *testing.T) {
	n, _ := faultNet(t)
	plan := &FaultPlan{Seed: 6}
	plan.Add(Fault{
		Kind: FaultGarble, Addr: addr("2001:db8::123"),
		From: faultStart, Until: faultStart.Add(time.Hour),
	})
	n.InstallFaults(plan)

	c, _ := n.ListenUDP(ap("[2001:db8::1]:4000"))
	defer c.Close()
	c.WriteTo([]byte("hello"), ap("[2001:db8::123]:123"))
	c.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 64)
	nr, _, err := c.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := "pong:hello"
	if nr >= len(want) {
		t.Fatalf("garbled response not clipped: %q", buf[:nr])
	}
}

func TestInstallFaultsNilRemoves(t *testing.T) {
	n, _ := faultNet(t)
	plan := &FaultPlan{Seed: 7}
	plan.Add(Fault{
		Kind: FaultOutage, Addr: addr("2001:db8::80"),
		From: faultStart, Until: faultStart.Add(time.Hour),
	})
	n.InstallFaults(plan)
	if _, err := dialBanner(t, n); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v", err)
	}
	n.InstallFaults(nil)
	if _, err := dialBanner(t, n); err != nil {
		t.Fatalf("after removing plan: %v", err)
	}
}

func TestWithAttemptRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := AttemptFrom(ctx); got != 0 {
		t.Fatalf("untagged ctx attempt = %d", got)
	}
	if got := AttemptFrom(WithAttempt(ctx, 0)); got != 0 {
		t.Fatalf("attempt 0 = %d", got)
	}
	if got := AttemptFrom(WithAttempt(ctx, 3)); got != 3 {
		t.Fatalf("attempt 3 round-trips as %d", got)
	}
}

// Satellite: fabric errors are real net.Errors so consumers can
// classify timeouts structurally instead of string-matching.
func TestFabricErrorsAreNetErrors(t *testing.T) {
	n := New(Config{Clock: NewManualClock(faultStart)})
	n.Register(addr("2001:db8::5"), NewHost("closed"))

	_, err := n.DialTCP(context.Background(), addr("2001:db8::1"), ap("[2001:db8::5]:22"))
	var ne net.Error
	if !errors.As(err, &ne) {
		t.Fatalf("refused error %T does not implement net.Error", err)
	}
	if ne.Timeout() {
		t.Fatal("connection refused claims Timeout()")
	}
	if !errors.Is(err, ErrConnRefused) {
		t.Fatalf("refused error lost sentinel identity: %v", err)
	}

	_, err = n.DialTCP(context.Background(), addr("2001:db8::1"), ap("[2001:db8:dead::1]:80"))
	if !errors.As(err, &ne) {
		t.Fatalf("timeout error %T does not implement net.Error", err)
	}
	if !ne.Timeout() || !ne.Temporary() {
		t.Fatalf("blackhole timeout: Timeout()=%v Temporary()=%v, want true/true",
			ne.Timeout(), ne.Temporary())
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("timeout error lost sentinel identity: %v", err)
	}
}

// TestSilentAddress walks Silent through every condition it names: an
// address goes loud under a host at it or its /64, a sniffer anywhere,
// a socket bound at it, a plan with links, and a fault acting on it now;
// a plan of node faults alone or a fault outside its window leaves it
// silent.
func TestSilentAddress(t *testing.T) {
	n, clock := faultNet(t)
	dark := addr("2001:db8:d::7")
	silent := func(want bool, when string) {
		t.Helper()
		if got := n.Silent(dark); got != want {
			t.Fatalf("%s: Silent = %v, want %v", when, got, want)
		}
	}
	silent(true, "empty address")
	if n.Silent(addr("2001:db8::80")) {
		t.Fatal("an address with a host reads silent")
	}

	n.Register(dark, NewHost("closed"))
	silent(false, "exact host")
	n.Unregister(dark)
	silent(true, "host unregistered")
	if err := n.RegisterPrefix(netip.MustParsePrefix("2001:db8:d::/64"), NewHost("alias")); err != nil {
		t.Fatal(err)
	}
	if n.Silent(addr("2001:db8:d::7")) || !n.Silent(addr("2001:db8:e::7")) {
		t.Fatal("an aliased /64 host does not govern exactly its /64")
	}
	dark = addr("2001:db8:e::7")

	cancel := n.Sniff(netip.MustParsePrefix("2001:db8:ffff::/48"), func(PacketInfo) {})
	silent(false, "sniffer on another prefix")
	cancel()
	silent(true, "sniffer cancelled")

	a, err := n.ListenUDP(netip.AddrPortFrom(dark, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.ListenUDP(netip.AddrPortFrom(dark, 0))
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	silent(false, "one of two sockets still bound")
	b.Close()
	silent(true, "sockets closed")

	nodes := &FaultPlan{Seed: 1}
	nodes.AddNode(NodeFault{Kind: NodeCrash, Node: 0, From: faultStart, Until: faultStart.Add(time.Hour)})
	n.InstallFaults(nodes)
	silent(true, "plan of node faults only")

	n.InstallFaults(&FaultPlan{Seed: 1, Links: &link.Plan{Seed: 2}})
	silent(false, "plan with links")

	outage := &FaultPlan{Seed: 1}
	outage.Add(Fault{Kind: FaultOutage, Addr: dark, From: faultStart.Add(time.Minute), Until: faultStart.Add(time.Hour)})
	n.InstallFaults(outage)
	silent(true, "outage not yet open")
	clock.Advance(time.Minute)
	silent(false, "outage open")
	clock.Advance(time.Hour)
	silent(true, "outage closed")

	loss := &FaultPlan{Seed: 1}
	loss.Add(Fault{Kind: FaultLoss, Prefix: netip.MustParsePrefix("2001:db8:e::/48"), Prob: 0.5,
		From: clock.Now(), Until: clock.Now().Add(time.Hour)})
	n.InstallFaults(loss)
	silent(false, "prefix loss covering the address")

	n.InstallFaults(nil)
	silent(true, "plan removed")
}
