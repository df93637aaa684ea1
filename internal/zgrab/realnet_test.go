package zgrab

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ntpscan/internal/proto/coapx"
	"ntpscan/internal/proto/httpx"
	"ntpscan/internal/proto/mqttx"
	"ntpscan/internal/proto/sshx"
)

// TestRealNetScan runs the complete zgrab scanner against genuine
// loopback services — the deployment mode the paper's extended zgrab2
// operated in. Services bind random unprivileged ports and the scanner
// is redirected via PortOverrides (zgrab2's --port).
func TestRealNetScan(t *testing.T) {
	serveTCP := func(handler func(net.Conn)) (uint16, func()) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("no loopback TCP: %v", err)
		}
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go handler(c)
			}
		}()
		return uint16(ln.Addr().(*net.TCPAddr).Port), func() { ln.Close() }
	}

	httpPort, closeHTTP := serveTCP(func(c net.Conn) {
		httpx.ServeConn(c, httpx.ServerOptions{Title: "FRITZ!Box 7590"})
	})
	defer closeHTTP()
	sshPort, closeSSH := serveTCP(func(c net.Conn) {
		sshx.ServeConn(c, sshx.ServerOptions{
			ID:      "SSH-2.0-OpenSSH_9.2p1 Raspbian-10+deb12u2",
			HostKey: sshx.HostKey{Type: "ssh-ed25519", Blob: []byte("real-socket-key")},
		})
	})
	defer closeSSH()
	mqttPort, closeMQTT := serveTCP(func(c net.Conn) {
		mqttx.ServeConn(c, mqttx.BrokerOptions{RequireAuth: true})
	})
	defer closeMQTT()

	coapConn, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer coapConn.Close()
	go func() {
		buf := make([]byte, 1500)
		for {
			n, raddr, err := coapConn.ReadFrom(buf)
			if err != nil {
				return
			}
			req, err := coapx.Parse(buf[:n])
			if err != nil {
				continue
			}
			resp := coapx.Respond(req, coapx.DeviceOptions{Resources: []string{"/castDeviceSearch"}})
			if enc, err := resp.Marshal(); err == nil {
				coapConn.WriteTo(enc, raddr)
			}
		}
	}()
	coapPort := uint16(coapConn.LocalAddr().(*net.UDPAddr).Port)

	var mu sync.Mutex
	results := map[string]*Result{}
	s := NewScanner(Config{
		Net:     NewRealNet(),
		Source:  netip.MustParseAddr("127.0.0.1"),
		Timeout: 2 * time.Second,
		Workers: 2,
		Modules: func() []Module {
			m, _ := ModulesByName([]string{"http", "ssh", "mqtt", "coap"})
			return m
		}(),
		PortOverrides: map[string]uint16{
			"http": httpPort, "ssh": sshPort, "mqtt": mqttPort, "coap": coapPort,
		},
		OnResultWorker: func(_ int, r *Result) {
			mu.Lock()
			results[r.Module] = r
			mu.Unlock()
		},
	})
	s.Start(context.Background())
	s.SubmitBatch([]netip.Addr{netip.MustParseAddr("127.0.0.1")})
	s.Close()

	mu.Lock()
	defer mu.Unlock()
	if r := results["http"]; r == nil || !r.Success() || r.HTTP.Title != "FRITZ!Box 7590" {
		t.Fatalf("http = %+v", results["http"])
	}
	if r := results["ssh"]; r == nil || !r.Success() || r.SSH.OS != "Raspbian" {
		t.Fatalf("ssh = %+v", results["ssh"])
	}
	if r := results["mqtt"]; r == nil || !r.Success() || r.MQTT.Open {
		t.Fatalf("mqtt = %+v", results["mqtt"])
	}
	if r := results["coap"]; r == nil || !r.Success() ||
		len(r.CoAP.Resources) != 1 || r.CoAP.Resources[0] != "/castDeviceSearch" {
		t.Fatalf("coap = %+v", results["coap"])
	}
	if results["http"].Port != httpPort {
		t.Fatalf("port override not recorded: %d", results["http"].Port)
	}
}

// TestRealNetRefused verifies error classification on kernel sockets: a
// closed loopback port yields connection-refused, not timeout.
func TestRealNetRefused(t *testing.T) {
	// Grab a port then close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	port := uint16(ln.Addr().(*net.TCPAddr).Port)
	ln.Close()

	env := &Env{
		Net: NewRealNet(), Source: netip.MustParseAddr("127.0.0.1"),
		Clock: realClockForTest{}, Timeout: 2 * time.Second,
		PortOverrides: map[string]uint16{"http": port},
	}
	r := (&HTTPModule{}).Scan(context.Background(), env, netip.MustParseAddr("127.0.0.1"))
	if r.Status != StatusRefused {
		t.Fatalf("status = %v (%s)", r.Status, r.Error)
	}
}

type realClockForTest struct{}

func (realClockForTest) Now() time.Time { return time.Now() }
