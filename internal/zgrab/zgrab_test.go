package zgrab

import (
	"bytes"
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ntpscan/internal/netsim"
	"ntpscan/internal/proto/amqpx"
	"ntpscan/internal/proto/coapx"
	"ntpscan/internal/proto/httpx"
	"ntpscan/internal/proto/mqttx"
	"ntpscan/internal/proto/sshx"
	"ntpscan/internal/tlsx"
)

var (
	scanSrc = netip.MustParseAddr("2001:db8:5ca:1::1")
)

func testFabric() *netsim.Network {
	return netsim.New(netsim.Config{DialTimeout: 10 * time.Millisecond})
}

func testEnv(f *netsim.Network) *Env {
	return &Env{Net: SimNet(f), Source: scanSrc, Clock: netsim.RealClock{}, Timeout: time.Second}
}

func fullHost() *netsim.Host {
	cert := &tlsx.Certificate{
		Subject: "device.example", Issuer: "device.example", SerialNum: 7,
		NotBefore: time.Now().Add(-time.Hour), NotAfter: time.Now().Add(time.Hour),
		SelfSigned: true, Key: tlsx.KeyID{9},
	}
	tlsCfg := tlsx.ServerConfig{Certificate: cert}
	httpOpts := httpx.ServerOptions{Title: "FRITZ!Box 7590"}
	h := netsim.NewHost("device")
	h.HandleTCP(80, httpx.Handler(httpOpts))
	h.HandleTCP(443, func(c net.Conn) {
		tc, err := tlsx.Server(c, tlsCfg)
		if err != nil {
			c.Close()
			return
		}
		httpx.ServeConn(tc, httpOpts)
	})
	h.HandleTCP(22, func(c net.Conn) {
		sshx.ServeConn(c, sshx.ServerOptions{
			ID:      "SSH-2.0-OpenSSH_9.2p1 Raspbian-10+deb12u2",
			HostKey: sshx.HostKey{Type: "ssh-ed25519", Blob: []byte("k1")},
		})
	})
	h.HandleTCP(1883, mqttx.Handler(mqttx.BrokerOptions{}))
	h.HandleTCP(5672, amqpx.Handler(amqpx.BrokerOptions{Product: "RabbitMQ", RequireAuth: true}))
	h.HandleUDP(5683, coapx.Handler(coapx.DeviceOptions{Resources: []string{"/castDeviceSearch"}}))
	return h
}

func TestModulesAgainstFullHost(t *testing.T) {
	f := testFabric()
	target := netip.MustParseAddr("2001:db8::d")
	f.Register(target, fullHost())
	env := testEnv(f)
	ctx := context.Background()

	for _, m := range AllModules() {
		r := m.Scan(ctx, env, target)
		switch m.Name() {
		case "http":
			if !r.Success() || r.HTTP.Title != "FRITZ!Box 7590" {
				t.Fatalf("http grab = %+v", r)
			}
		case "https":
			if !r.Success() || r.TLS == nil || !r.TLS.HandshakeOK || !r.TLS.SelfSigned {
				t.Fatalf("https grab = %+v %+v", r, r.TLS)
			}
			if r.HTTP.Title != "FRITZ!Box 7590" {
				t.Fatalf("https title = %q", r.HTTP.Title)
			}
		case "ssh":
			if !r.Success() || r.SSH.OS != "Raspbian" || r.SSH.KeyFingerprint == "" {
				t.Fatalf("ssh grab = %+v", r.SSH)
			}
		case "mqtt":
			if !r.Success() || !r.MQTT.Open {
				t.Fatalf("mqtt grab = %+v", r)
			}
		case "mqtts":
			// Port closed on this host.
			if r.Status != StatusRefused {
				t.Fatalf("mqtts status = %v", r.Status)
			}
		case "amqp":
			if !r.Success() || r.AMQP.Open || r.AMQP.CloseCode != amqpx.ReplyAccessRefused {
				t.Fatalf("amqp grab = %+v", r.AMQP)
			}
			if r.AMQP.Product != "RabbitMQ" {
				t.Fatalf("amqp product = %q", r.AMQP.Product)
			}
		case "amqps":
			if r.Status != StatusRefused {
				t.Fatalf("amqps status = %v", r.Status)
			}
		case "coap":
			if !r.Success() || len(r.CoAP.Resources) != 1 {
				t.Fatalf("coap grab = %+v", r.CoAP)
			}
		}
	}
}

func TestModuleTimeoutOnBlackhole(t *testing.T) {
	f := testFabric()
	env := testEnv(f)
	env.Timeout = 30 * time.Millisecond
	r := (&HTTPModule{}).Scan(context.Background(), env, netip.MustParseAddr("2001:db8::dead"))
	if r.Status != StatusTimeout {
		t.Fatalf("status = %v", r.Status)
	}
	rc := (&CoAPModule{}).Scan(context.Background(), env, netip.MustParseAddr("2001:db8::dead"))
	if rc.Status != StatusTimeout {
		t.Fatalf("coap status = %v", rc.Status)
	}
}

func TestHTTPSAgainstSNIRequiringServer(t *testing.T) {
	// The mass scan has no hostname; SNI-requiring edges must produce
	// tls-error with unrecognized_name — the paper's CDN observation.
	f := testFabric()
	target := netip.MustParseAddr("2001:db8::c")
	cert := &tlsx.Certificate{Subject: "cdn", Issuer: "cdn", Key: tlsx.KeyID{1}}
	h := netsim.NewHost("cdn").HandleTCP(443, func(c net.Conn) {
		if tc, err := tlsx.Server(c, tlsx.ServerConfig{Certificate: cert, RequireSNI: true}); err == nil {
			httpx.ServeConn(tc, httpx.ServerOptions{})
		} else {
			c.Close()
		}
	})
	f.Register(target, h)
	r := (&HTTPModule{TLS: true}).Scan(context.Background(), testEnv(f), target)
	if r.Status != StatusTLSError || r.TLS == nil || r.TLS.Alert != "unrecognized_name" {
		t.Fatalf("grab = %+v tls=%+v", r, r.TLS)
	}
}

func TestProtocolErrorOnWrongService(t *testing.T) {
	// MQTT probe against an HTTP server.
	f := testFabric()
	target := netip.MustParseAddr("2001:db8::e")
	h := netsim.NewHost("web").HandleTCP(1883, httpx.Handler(httpx.ServerOptions{Title: "x"}))
	f.Register(target, h)
	r := (&MQTTModule{}).Scan(context.Background(), testEnv(f), target)
	if r.Status != StatusProtocolError {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestRevisitSuppression(t *testing.T) {
	rv := NewRevisit(72 * time.Hour)
	addr := netip.MustParseAddr("2001:db8::1")
	t0 := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	if !rv.Allow(addr, t0) {
		t.Fatal("first scan blocked")
	}
	if rv.Allow(addr, t0.Add(time.Hour)) {
		t.Fatal("re-scan within holdoff allowed")
	}
	if !rv.Allow(addr, t0.Add(73*time.Hour)) {
		t.Fatal("re-scan after holdoff blocked")
	}
	if n := len(rv.Snapshot()); n != 1 {
		t.Fatalf("tracking %d addresses", n)
	}
}

func TestTokenBucketRate(t *testing.T) {
	tb := NewTokenBucket(1000, 1) // 1k tokens/s, minimal burst
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 50; i++ {
		if err := tb.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// 49 refills needed at 1ms each: at least ~40ms.
	if elapsed < 35*time.Millisecond {
		t.Fatalf("50 tokens in %v: limiter not limiting", elapsed)
	}
}

func TestTokenBucketContextCancel(t *testing.T) {
	tb := NewTokenBucket(0.1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	tb.Wait(ctx) // consume burst
	if err := tb.Wait(ctx); err == nil {
		t.Fatal("cancelled wait returned nil")
	}
}

func TestScannerEndToEnd(t *testing.T) {
	f := testFabric()
	target := netip.MustParseAddr("2001:db8::d")
	f.Register(target, fullHost())

	var mu sync.Mutex
	results := map[string]*Result{}
	s := NewScanner(Config{
		Fabric:  f,
		Clock:   netsim.RealClock{},
		Source:  scanSrc,
		Timeout: time.Second,
		Workers: 4,
		OnResultWorker: func(_ int, r *Result) {
			mu.Lock()
			results[r.Module] = r
			mu.Unlock()
		},
	})
	s.Start(context.Background())
	if s.SubmitBatch([]netip.Addr{target}) != 1 {
		t.Fatal("submit rejected")
	}
	if s.SubmitBatch([]netip.Addr{target}) != 0 {
		t.Fatal("duplicate submit not suppressed")
	}
	s.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(results) != len(AllModules()) {
		t.Fatalf("got %d module results", len(results))
	}
	if !results["http"].Success() {
		t.Fatalf("http = %+v", results["http"])
	}
	m := s.Metrics()
	submitted, scanned, suppressed, probes := m.Submitted.Value(), m.Completed.Value(), m.Suppressed.Value(), m.Probes.Sum()
	if submitted != 2 || scanned != 1 || suppressed != 1 || probes != int64(len(AllModules())) {
		t.Fatalf("stats = %d %d %d %d", submitted, scanned, suppressed, probes)
	}
}

func TestScanNow(t *testing.T) {
	f := testFabric()
	target := netip.MustParseAddr("2001:db8::d")
	f.Register(target, fullHost())
	s := NewScanner(Config{Fabric: f, Source: scanSrc, Timeout: time.Second})
	rs := s.ScanNow(context.Background(), target)
	if len(rs) != len(AllModules()) {
		t.Fatalf("got %d results", len(rs))
	}
}

// jsonl renders rs as the scan sinks do: one AppendJSON line each.
func jsonl(t *testing.T, rs ...*Result) *bytes.Buffer {
	t.Helper()
	var line []byte
	for _, r := range rs {
		var err error
		if line, err = r.AppendJSON(line); err != nil {
			t.Fatal(err)
		}
		line = append(line, '\n')
	}
	return bytes.NewBuffer(line)
}

func TestJSONLRoundTrip(t *testing.T) {
	r1 := &Result{
		IP: netip.MustParseAddr("2001:db8::1"), Module: "http", Port: 80,
		Status: StatusSuccess, HTTP: &HTTPGrab{StatusCode: 200, Title: "FRITZ!Box"},
	}
	r2 := &Result{
		IP: netip.MustParseAddr("2001:db8::2"), Module: "ssh", Port: 22,
		Status: StatusTimeout, Error: "i/o timeout",
	}
	var got []*Result
	err := DecodeJSONL(jsonl(t, r1, r2), func(r *Result) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].HTTP.Title != "FRITZ!Box" || got[1].Status != StatusTimeout {
		t.Fatalf("round trip = %+v", got)
	}
	if got[0].IP != r1.IP {
		t.Fatalf("IP round trip = %v", got[0].IP)
	}
}

func TestModuleNamesAndPorts(t *testing.T) {
	want := map[string]uint16{
		"http": 80, "https": 443, "ssh": 22, "mqtt": 1883,
		"mqtts": 8883, "amqp": 5672, "amqps": 5671, "coap": 5683,
	}
	got := map[string]uint16{}
	for _, m := range AllModules() {
		got[m.Name()] = m.Port()
	}
	for name, port := range want {
		if got[name] != port {
			t.Errorf("%s port = %d, want %d", name, got[name], port)
		}
	}
}

func TestModulesByName(t *testing.T) {
	mods, err := ModulesByName([]string{"ssh", "coap"})
	if err != nil || len(mods) != 2 || mods[0].Name() != "ssh" || mods[1].Name() != "coap" {
		t.Fatalf("got %v %v", mods, err)
	}
	if _, err := ModulesByName([]string{"gopher"}); err == nil {
		t.Fatal("unknown module accepted")
	}
	if mods, _ := ModulesByName(nil); len(mods) != 0 {
		t.Fatal("nil names should yield no modules")
	}
}
