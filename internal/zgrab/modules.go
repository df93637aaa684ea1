package zgrab

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"syscall"
	"time"

	"ntpscan/internal/freelist"
	"ntpscan/internal/intern"
	"ntpscan/internal/netsim"
	"ntpscan/internal/proto/amqpx"
	"ntpscan/internal/proto/coapx"
	"ntpscan/internal/proto/httpx"
	"ntpscan/internal/proto/mqttx"
	"ntpscan/internal/proto/sshx"
	"ntpscan/internal/tlsx"
)

// interned canonicalises a grab string through the shared intern table:
// fingerprints, titles, banners and version strings draw from the
// world's bounded device vocabulary, so each distinct value is kept
// once no matter how many results carry it.
func interned(s string) string { return intern.Default.String(s) }

// internedHex interns the lowercase hex form of raw without an
// intermediate string allocation.
func internedHex(raw []byte) string {
	var scratch [64]byte
	if hex.EncodedLen(len(raw)) > len(scratch) {
		return interned(hex.EncodeToString(raw))
	}
	n := hex.Encode(scratch[:], raw)
	return intern.Default.Bytes(scratch[:n])
}

// Module is one protocol scanner. Implementations must be safe for
// concurrent use.
type Module interface {
	// Name is the module identifier ("http", "mqtts", ...).
	Name() string
	// Port is the IANA port the module probes.
	Port() uint16
	// Scan grabs one target. env supplies fabric, source address, and
	// timeouts. The returned result always carries Status; a nil error
	// with non-success status is normal (closed port etc.).
	Scan(ctx context.Context, env *Env, target netip.Addr) *Result
	// scanInto is Scan writing into a Result the caller provides: the
	// scanner's workers fill one slot of their session's result slab
	// (see Scanner) instead of allocating a Result per probe. res is
	// overwritten whole.
	scanInto(ctx context.Context, env *Env, target netip.Addr, res *Result)
}

// scanNew is every module's Scan: scanInto on a fresh Result.
func scanNew(ctx context.Context, m Module, env *Env, target netip.Addr) *Result {
	res := new(Result)
	m.scanInto(ctx, env, target, res)
	return res
}

// Env is the scan environment shared by modules.
type Env struct {
	// Net is the transport: SimNet for experiments, RealNet for actual
	// networks.
	Net     Net
	Source  netip.Addr
	Clock   netsim.Clock
	Timeout time.Duration
	// UDPTimeout bounds connectionless probes (CoAP), which have no
	// refused/timeout distinction and otherwise wait out the full
	// Timeout on every silent address. Zero means Timeout.
	UDPTimeout time.Duration
	// PortOverrides redirects a module (by name) to a non-IANA port —
	// zgrab2's --port, needed for unprivileged real-socket targets.
	PortOverrides map[string]uint16
	// Logical marks a manual-clock run. Wall-clock dial guards are
	// pointless there — the fabric resolves every dial synchronously and
	// hands out deadline-ignoring streams — so the dial path skips the
	// per-probe context.WithTimeout/SetDeadline machinery, which heap
	// profiles showed as the campaign's single largest allocation site.
	Logical bool

	// udpSocks recycles bound CoAP sockets. A probe socket carries no
	// cross-probe state the scan loop doesn't already filter (stale
	// datagrams fail the source/token checks), so reuse is invisible to
	// results and saves a bind + buffer per UDP probe. Once no probe is
	// running the list holds every socket the Env bound and did not
	// close (putSocket), and closeSockets unbinds them all
	// (Scanner.Close calls it).
	udpSocks freelist.List[coapx.PacketSocket]
}

// putSocket returns a probe's socket to udpSocks, or closes it when the
// list is full.
func (e *Env) putSocket(sock coapx.PacketSocket) {
	if !e.udpSocks.Put(sock) {
		sock.Close()
	}
}

// closeSockets closes every CoAP socket the Env bound. Call it only
// when no probe is running: a socket out on a probe is not in the list.
func (e *Env) closeSockets() {
	for _, sock := range e.udpSocks.Drain() {
		sock.Close()
	}
}

func (e *Env) udpTimeout() time.Duration {
	if e.UDPTimeout > 0 {
		return e.UDPTimeout
	}
	return e.Timeout
}

// portFor resolves the effective target port for a module.
func (e *Env) portFor(m Module) uint16 {
	if p, ok := e.PortOverrides[m.Name()]; ok {
		return p
	}
	return m.Port()
}

// now stamps results from the experiment clock.
func (e *Env) now() time.Time { return e.Clock.Now() }

// dial opens a TCP connection with the module timeout applied both to
// the dial and as the connection deadline.
func (e *Env) dial(ctx context.Context, target netip.Addr, port uint16) (net.Conn, Status, string) {
	if !e.Logical {
		dctx, cancel := context.WithTimeout(ctx, e.Timeout)
		defer cancel()
		ctx = dctx
	}
	conn, err := e.Net.DialTCP(ctx, e.Source, netip.AddrPortFrom(target, port))
	if err != nil {
		// A dark dial, the common failure, is the fabric's one shared
		// timeout value: one compare classifies it. Refusals come next;
		// every other error is classified structurally below.
		if err == netsim.DialTimeout() {
			return nil, StatusTimeout, netsim.DialErrString(err)
		}
		if errors.Is(err, netsim.ErrConnRefused) || errors.Is(err, syscall.ECONNREFUSED) {
			return nil, StatusRefused, netsim.DialErrString(err)
		}
		// Structural classification via net.Error: a timeout is silence
		// (filtered/dark/lossy); anything else is local I/O trouble.
		// The direct assertion covers every error the transports return
		// (*net.OpError and friends implement net.Error themselves);
		// errors.As — whose target escapes to the heap per call — is
		// kept only for exotic wrapped errors.
		if ne, ok := err.(net.Error); ok {
			if !ne.Timeout() {
				return nil, StatusIOError, netsim.DialErrString(err)
			}
			return nil, StatusTimeout, netsim.DialErrString(err)
		}
		var ne net.Error
		if errors.As(err, &ne) && !ne.Timeout() {
			return nil, StatusIOError, netsim.DialErrString(err)
		}
		return nil, StatusTimeout, netsim.DialErrString(err)
	}
	if !e.Logical {
		conn.SetDeadline(time.Now().Add(e.Timeout))
	}
	return conn, StatusSuccess, ""
}

// silentInto writes the row m's probe of target ends in when the
// fabric has declared target silent (netsim's Network.Silent): the
// dial's timeout for a TCP module, the missed read deadline for CoAP's
// datagram.
func silentInto(env *Env, m Module, target netip.Addr, res *Result) {
	errStr := netsim.DialErrString(netsim.DialTimeout())
	if _, udp := m.(*CoAPModule); udp {
		errStr = os.ErrDeadlineExceeded.Error()
	}
	*res = Result{
		IP: target, Module: m.Name(), Port: env.portFor(m), Time: env.now(),
		Status: StatusTimeout, Error: errStr,
	}
}

// AllModules returns the paper's module set: HTTP, SSH, AMQP, MQTT and
// CoAP on their IANA ports, plus the TLS variants of HTTP, AMQP and
// MQTT (§4.1).
func AllModules() []Module {
	return []Module{
		&HTTPModule{},
		&HTTPModule{TLS: true},
		&SSHModule{},
		&MQTTModule{},
		&MQTTModule{TLS: true},
		&AMQPModule{},
		&AMQPModule{TLS: true},
		&CoAPModule{},
	}
}

// ModulesByName resolves module names ("http", "mqtts", ...) to
// instances, preserving order. Unknown names are an error.
func ModulesByName(names []string) ([]Module, error) {
	all := AllModules()
	byName := make(map[string]Module, len(all))
	for _, m := range all {
		byName[m.Name()] = m
	}
	out := make([]Module, 0, len(names))
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("zgrab: unknown module %q", n)
		}
		out = append(out, m)
	}
	return out, nil
}

// tlsGrab converts a completed handshake state. Fingerprint and key
// hex strings go through the intern table — the same certificate is
// grabbed once per responsive address it serves.
func tlsGrab(st tlsx.ConnState) *TLSGrab {
	cert := st.Certificate
	fp := cert.Fingerprint()
	return &TLSGrab{
		Version:         st.Version.String(),
		HandshakeOK:     true,
		CertFingerprint: internedHex(fp[:]),
		Subject:         cert.Subject,
		Issuer:          cert.Issuer,
		SelfSigned:      cert.SelfSigned,
		KeyID:           internedHex(cert.Key[:]),
		NotBefore:       cert.NotBefore,
		NotAfter:        cert.NotAfter,
	}
}

// tlsFail converts a handshake failure.
func tlsFail(err error) *TLSGrab {
	g := &TLSGrab{HandshakeOK: false}
	var alert *tlsx.AlertError
	if errors.As(err, &alert) {
		g.Alert = alert.Reason.String()
	}
	return g
}

// HTTPModule grabs HTTP or HTTPS (mass scans probe address literals, so
// no Host header and no SNI — the behaviour behind the paper's CDN
// handshake failures).
type HTTPModule struct {
	TLS bool
}

// Name implements Module.
func (m *HTTPModule) Name() string {
	if m.TLS {
		return "https"
	}
	return "http"
}

// Port implements Module.
func (m *HTTPModule) Port() uint16 {
	if m.TLS {
		return 443
	}
	return 80
}

// Scan implements Module.
func (m *HTTPModule) Scan(ctx context.Context, env *Env, target netip.Addr) *Result {
	return scanNew(ctx, m, env, target)
}

func (m *HTTPModule) scanInto(ctx context.Context, env *Env, target netip.Addr, res *Result) {
	port := env.portFor(m)
	*res = Result{IP: target, Module: m.Name(), Port: port, Time: env.now()}
	conn, status, errStr := env.dial(ctx, target, port)
	if status != StatusSuccess {
		res.Status, res.Error = status, errStr
		return
	}
	defer conn.Close()

	var appConn net.Conn = conn
	if m.TLS {
		tc, err := tlsx.Client(conn, tlsx.ClientConfig{}) // no SNI
		if err != nil {
			res.Status = StatusTLSError
			res.Error = err.Error()
			res.TLS = tlsFail(err)
			return
		}
		res.TLS = tlsGrab(tc.State())
		appConn = tc
	}
	resp, err := httpx.Get(appConn, "", "/")
	if err != nil {
		res.Status = StatusProtocolError
		res.Error = err.Error()
		return
	}
	res.Status = StatusSuccess
	res.HTTP = &HTTPGrab{
		StatusCode: resp.StatusCode,
		Title:      interned(resp.Title()),
		Server:     interned(resp.Header["Server"]),
	}
}

// SSHModule grabs the identification string and host key.
type SSHModule struct{}

// Name implements Module.
func (m *SSHModule) Name() string { return "ssh" }

// Port implements Module.
func (m *SSHModule) Port() uint16 { return 22 }

// Scan implements Module.
func (m *SSHModule) Scan(ctx context.Context, env *Env, target netip.Addr) *Result {
	return scanNew(ctx, m, env, target)
}

func (m *SSHModule) scanInto(ctx context.Context, env *Env, target netip.Addr, res *Result) {
	port := env.portFor(m)
	*res = Result{IP: target, Module: m.Name(), Port: port, Time: env.now()}
	conn, status, errStr := env.dial(ctx, target, port)
	if status != StatusSuccess {
		res.Status, res.Error = status, errStr
		return
	}
	defer conn.Close()
	grab, err := sshx.Scan(conn)
	if err != nil {
		res.Status = StatusProtocolError
		res.Error = err.Error()
		return
	}
	res.Status = StatusSuccess
	res.SSH = &SSHGrab{
		ServerID: interned(grab.ID.Raw),
		Software: interned(grab.ID.Software),
		OS:       interned(grab.ID.OS()),
	}
	if grab.HostKey != nil {
		res.SSH.KeyType = interned(grab.HostKey.Type)
		fp := grab.HostKey.Fingerprint()
		res.SSH.KeyFingerprint = internedHex(fp[:])
	}
}

// MQTTModule grabs broker connection policy, optionally over TLS.
type MQTTModule struct {
	TLS bool
}

// Name implements Module.
func (m *MQTTModule) Name() string {
	if m.TLS {
		return "mqtts"
	}
	return "mqtt"
}

// Port implements Module.
func (m *MQTTModule) Port() uint16 {
	if m.TLS {
		return 8883
	}
	return 1883
}

// Scan implements Module.
func (m *MQTTModule) Scan(ctx context.Context, env *Env, target netip.Addr) *Result {
	return scanNew(ctx, m, env, target)
}

func (m *MQTTModule) scanInto(ctx context.Context, env *Env, target netip.Addr, res *Result) {
	port := env.portFor(m)
	*res = Result{IP: target, Module: m.Name(), Port: port, Time: env.now()}
	conn, status, errStr := env.dial(ctx, target, port)
	if status != StatusSuccess {
		res.Status, res.Error = status, errStr
		return
	}
	defer conn.Close()
	var appConn net.Conn = conn
	if m.TLS {
		tc, err := tlsx.Client(conn, tlsx.ClientConfig{})
		if err != nil {
			res.Status = StatusTLSError
			res.Error = err.Error()
			res.TLS = tlsFail(err)
			return
		}
		res.TLS = tlsGrab(tc.State())
		appConn = tc
	}
	grab, err := mqttx.Scan(appConn)
	if err != nil {
		res.Status = StatusProtocolError
		res.Error = err.Error()
		return
	}
	res.Status = StatusSuccess
	res.MQTT = &MQTTGrab{ReturnCode: grab.ReturnCode, Open: grab.Open}
}

// AMQPModule grabs broker negotiation, optionally over TLS.
type AMQPModule struct {
	TLS bool
}

// Name implements Module.
func (m *AMQPModule) Name() string {
	if m.TLS {
		return "amqps"
	}
	return "amqp"
}

// Port implements Module.
func (m *AMQPModule) Port() uint16 {
	if m.TLS {
		return 5671
	}
	return 5672
}

// Scan implements Module.
func (m *AMQPModule) Scan(ctx context.Context, env *Env, target netip.Addr) *Result {
	return scanNew(ctx, m, env, target)
}

func (m *AMQPModule) scanInto(ctx context.Context, env *Env, target netip.Addr, res *Result) {
	port := env.portFor(m)
	*res = Result{IP: target, Module: m.Name(), Port: port, Time: env.now()}
	conn, status, errStr := env.dial(ctx, target, port)
	if status != StatusSuccess {
		res.Status, res.Error = status, errStr
		return
	}
	defer conn.Close()
	var appConn net.Conn = conn
	if m.TLS {
		tc, err := tlsx.Client(conn, tlsx.ClientConfig{})
		if err != nil {
			res.Status = StatusTLSError
			res.Error = err.Error()
			res.TLS = tlsFail(err)
			return
		}
		res.TLS = tlsGrab(tc.State())
		appConn = tc
	}
	grab, err := amqpx.Scan(appConn)
	if err != nil {
		res.Status = StatusProtocolError
		res.Error = err.Error()
		return
	}
	res.Status = StatusSuccess
	res.AMQP = &AMQPGrab{
		Product:    grab.Start.Product,
		Mechanisms: grab.Start.Mechanisms,
		Open:       grab.Open,
		CloseCode:  grab.CloseCode,
	}
}

// CoAPModule probes /.well-known/core over UDP.
type CoAPModule struct{}

// Name implements Module.
func (m *CoAPModule) Name() string { return "coap" }

// Port implements Module.
func (m *CoAPModule) Port() uint16 { return coapx.Port }

// Scan implements Module.
func (m *CoAPModule) Scan(ctx context.Context, env *Env, target netip.Addr) *Result {
	return scanNew(ctx, m, env, target)
}

func (m *CoAPModule) scanInto(ctx context.Context, env *Env, target netip.Addr, res *Result) {
	port := env.portFor(m)
	*res = Result{IP: target, Module: m.Name(), Port: port, Time: env.now()}
	sock := env.udpSocks.Get()
	if sock == nil {
		s, err := env.Net.ListenUDP(netip.AddrPortFrom(env.Source, 0))
		if err != nil {
			res.Status = StatusIOError
			res.Error = err.Error()
			return
		}
		sock = s
	}
	defer env.putSocket(sock)
	// The message ID varies per retry attempt so a retransmission is a
	// fresh datagram to the fabric's flow-hashed loss process.
	mid := msgIDFor(target) + uint16(netsim.AttemptFrom(ctx))*0x9d7
	grab, err := coapx.ScanConn(sock, netip.AddrPortFrom(target, port), mid, env.udpTimeout())
	if err != nil {
		res.Status = StatusTimeout
		res.Error = err.Error()
		return
	}
	res.Status = StatusSuccess
	res.CoAP = &CoAPGrab{Code: grab.Code.String(), Resources: grab.Resources}
}

// msgIDFor derives a stable CoAP message ID per target.
func msgIDFor(a netip.Addr) uint16 {
	b := a.As16()
	var h uint32 = 2166136261
	for _, x := range b {
		h = (h ^ uint32(x)) * 16777619
	}
	return uint16(h)
}
