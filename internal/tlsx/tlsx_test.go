package tlsx

import (
	"crypto/tls"
	"errors"
	"net"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"ntpscan/internal/netsim"
)

func testCert() *Certificate {
	return &Certificate{
		Subject:    "fritz.box",
		Issuer:     "fritz.box",
		SerialNum:  42,
		NotBefore:  time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:   time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		SelfSigned: true,
		Key:        KeyID{1, 2, 3},
	}
}

func pair() (net.Conn, net.Conn) {
	return netsim.NewConnPair(
		netip.MustParseAddrPort("[2001:db8::1]:40000"),
		netip.MustParseAddrPort("[2001:db8::2]:443"))
}

func TestHandshakeSuccess(t *testing.T) {
	c, s := pair()
	defer c.Close()
	defer s.Close()
	cert := testCert()

	done := make(chan error, 1)
	go func() {
		sc, err := Server(s, ServerConfig{Certificate: cert})
		if err != nil {
			done <- err
			return
		}
		if sc.State().ServerName != "fritz.box" {
			t.Errorf("server saw SNI %q", sc.State().ServerName)
		}
		sc.Write([]byte("app-data"))
		done <- nil
	}()

	cc, err := Client(c, ClientConfig{ServerName: "fritz.box"})
	if err != nil {
		t.Fatal(err)
	}
	st := cc.State()
	if st.Certificate.Subject != "fritz.box" || !st.Certificate.SelfSigned {
		t.Fatalf("client cert = %+v", st.Certificate)
	}
	if st.Certificate.Fingerprint() != cert.Fingerprint() {
		t.Fatal("fingerprint changed in transit")
	}
	if st.Version != VersionTLS12 {
		t.Fatalf("version = %v", st.Version)
	}
	buf := make([]byte, 8)
	if _, err := cc.Read(buf); err != nil || string(buf) != "app-data" {
		t.Fatalf("app data = %q %v", buf, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestVersionNegotiationMin(t *testing.T) {
	c, s := pair()
	defer c.Close()
	defer s.Close()
	go Server(s, ServerConfig{Certificate: testCert(), Version: VersionTLS13})
	cc, err := Client(c, ClientConfig{MaxVersion: VersionTLS11})
	if err != nil {
		t.Fatal(err)
	}
	if cc.State().Version != VersionTLS11 {
		t.Fatalf("negotiated %v", cc.State().Version)
	}
}

func TestRequireSNIRejectsBareClient(t *testing.T) {
	// The CDN behaviour behind the paper's 356M failed hitlist TLS
	// handshakes: no hostname in the probe, handshake refused.
	c, s := pair()
	defer c.Close()
	defer s.Close()
	srvErr := make(chan error, 1)
	go func() {
		_, err := Server(s, ServerConfig{Certificate: testCert(), RequireSNI: true})
		srvErr <- err
	}()
	_, err := Client(c, ClientConfig{}) // no SNI
	var alert *AlertError
	if !errors.As(err, &alert) || alert.Reason != AlertUnrecognizedName {
		t.Fatalf("client err = %v", err)
	}
	if err := <-srvErr; err == nil {
		t.Fatal("server should report the rejection too")
	}
}

func TestRequireSNIAcceptsNamedClient(t *testing.T) {
	c, s := pair()
	defer c.Close()
	defer s.Close()
	go Server(s, ServerConfig{Certificate: testCert(), RequireSNI: true})
	if _, err := Client(c, ClientConfig{ServerName: "example.org"}); err != nil {
		t.Fatalf("named client rejected: %v", err)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	c, s := pair()
	defer c.Close()
	defer s.Close()
	go c.Write([]byte("GET / HTTP/1.1\r\n\r\n")) // plaintext HTTP hitting a TLS port
	_, err := Server(s, ServerConfig{Certificate: testCert()})
	if !errors.Is(err, ErrNotTLS) {
		t.Fatalf("got %v", err)
	}
}

func TestClientAgainstNonTLSServer(t *testing.T) {
	c, s := pair()
	defer c.Close()
	defer s.Close()
	go func() {
		buf := make([]byte, 64)
		s.Read(buf)
		s.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
	}()
	if _, err := Client(c, ClientConfig{}); err == nil {
		t.Fatal("handshake with HTTP server succeeded")
	}
}

func TestServerRequiresCertificate(t *testing.T) {
	c, s := pair()
	defer c.Close()
	defer s.Close()
	if _, err := Server(s, ServerConfig{}); err == nil {
		t.Fatal("nil certificate accepted")
	}
}

func TestCertificateMarshalRoundTrip(t *testing.T) {
	f := func(subject, issuer string, serial uint64, self bool, key [16]byte) bool {
		if len(subject) > 60000 || len(issuer) > 60000 {
			return true
		}
		c := &Certificate{
			Subject: subject, Issuer: issuer, SerialNum: serial,
			NotBefore:  time.Unix(1700000000, 0).UTC(),
			NotAfter:   time.Unix(1800000000, 0).UTC(),
			SelfSigned: self, Key: key,
		}
		got, err := unmarshalCert(c.appendMarshal(nil))
		return err == nil && *got == *c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	full := testCert().appendMarshal(nil)
	for i := 0; i < len(full); i++ {
		if _, err := unmarshalCert(full[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a, b := testCert(), testCert()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical certs differ")
	}
	b.SerialNum++
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("serial change did not alter fingerprint")
	}
	c := testCert()
	c.Key = KeyID{9}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("key change did not alter fingerprint")
	}
}

func TestValidAt(t *testing.T) {
	c := testCert()
	if c.ValidAt(time.Date(2023, 12, 31, 0, 0, 0, 0, time.UTC)) {
		t.Fatal("valid before NotBefore")
	}
	if !c.ValidAt(time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatal("invalid within window")
	}
	if c.ValidAt(time.Date(2027, 1, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatal("valid after NotAfter")
	}
}

func TestAlertAndVersionStrings(t *testing.T) {
	if AlertUnrecognizedName.String() != "unrecognized_name" {
		t.Fatal("alert label wrong")
	}
	if VersionTLS13.String() != "TLS 1.3" {
		t.Fatal("version label wrong")
	}
	if Version(0x9999).String() == "" || AlertReason(9).String() == "" {
		t.Fatal("unknown labels empty")
	}
	e := &AlertError{Reason: AlertHandshakeFailure}
	if e.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestGenerateX509RealTLS(t *testing.T) {
	// The generated certificate must work with the stdlib TLS stack
	// over a real loopback connection.
	cert, err := GenerateX509("scan-test.local", []net.IP{net.ParseIP("127.0.0.1")}, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{cert}})
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("ok"))
		conn.Close()
	}()
	conn, err := tls.Dial("tcp", ln.Addr().String(), &tls.Config{InsecureSkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 2)
	if _, err := conn.Read(buf); err != nil || string(buf) != "ok" {
		t.Fatalf("read %q %v", buf, err)
	}
	if cn := conn.ConnectionState().PeerCertificates[0].Subject.CommonName; cn != "scan-test.local" {
		t.Fatalf("CN = %q", cn)
	}
}

func BenchmarkHandshake(b *testing.B) {
	cert := testCert()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, s := pair()
		go Server(s, ServerConfig{Certificate: cert})
		if _, err := Client(c, ClientConfig{ServerName: "x"}); err != nil {
			b.Fatal(err)
		}
		c.Close()
		s.Close()
	}
}
