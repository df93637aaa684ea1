package tlsx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"ntpscan/internal/freelist"
)

// Handshake message framing: one type byte, a 3-byte big-endian length,
// then the payload — the shape of TLS handshake messages.
const (
	msgClientHello = 1
	msgServerHello = 2
	msgAlert       = 3

	maxHandshakeLen = 1 << 16
)

// Errors returned by handshakes.
var (
	ErrNotTLS = errors.New("tlsx: peer did not speak the handshake protocol")
)

// msgBufs pools handshake scratch buffers. Every TLS probe frames two
// messages and parses one; with the hitlist's millions of handshakes
// the per-message allocations were a visible slice of campaign heap
// profiles. Certificates comfortably fit the initial capacity.
var msgBufs = freelist.List[*[]byte]{
	New: func() *[]byte {
		b := make([]byte, 0, 512)
		return &b
	},
}

func writeMsg(w io.Writer, typ byte, payload []byte) error {
	bp := msgBufs.Get()
	b := append((*bp)[:0], typ, byte(len(payload)>>16), byte(len(payload)>>8), byte(len(payload)))
	b = append(b, payload...)
	_, err := w.Write(b)
	*bp = b[:0]
	msgBufs.Put(bp)
	return err
}

// readMsg reads one handshake message into *scratch (growing it if
// needed); the returned payload aliases the scratch buffer and is only
// valid until the caller releases it.
func readMsg(r io.Reader, scratch *[]byte) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ = hdr[0]
	if typ != msgClientHello && typ != msgServerHello && typ != msgAlert {
		return 0, nil, ErrNotTLS
	}
	n := int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if n > maxHandshakeLen {
		return 0, nil, fmt.Errorf("tlsx: handshake message of %d bytes exceeds limit", n)
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	payload = (*scratch)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// Alert errors are a fixed set; the scan path compares and stringifies
// them but never mutates, so each reason is a shared value.
var alertErrors = map[AlertReason]*AlertError{
	AlertHandshakeFailure:  {Reason: AlertHandshakeFailure},
	AlertUnrecognizedName:  {Reason: AlertUnrecognizedName},
	AlertProtocolVersion:   {Reason: AlertProtocolVersion},
	AlertInternalError:     {Reason: AlertInternalError},
	AlertAccessDeniedAlert: {Reason: AlertAccessDeniedAlert},
}

func alertError(r AlertReason) *AlertError {
	if e, ok := alertErrors[r]; ok {
		return e
	}
	return &AlertError{Reason: r}
}

// Constant one-byte alert payloads for the rejection paths.
var (
	alertHandshakeFailurePayload = []byte{byte(AlertHandshakeFailure)}
	alertUnrecognizedNamePayload = []byte{byte(AlertUnrecognizedName)}
	alertProtocolVersionPayload  = []byte{byte(AlertProtocolVersion)}
)

// ClientConfig configures a client-side handshake.
type ClientConfig struct {
	// ServerName is the SNI value; empty means no SNI extension, which
	// name-requiring servers reject with unrecognized_name.
	ServerName string
	// MaxVersion caps the offered version. Zero means TLS 1.3.
	MaxVersion Version
}

// ServerConfig configures a server-side handshake.
type ServerConfig struct {
	// Certificate is presented to every client. Required.
	Certificate *Certificate
	// Version is the version the server negotiates (its maximum). The
	// handshake settles on min(client, server). Zero means TLS 1.2,
	// the most common deployment in the paper's scans.
	Version Version
	// RequireSNI rejects clients that send no server name — the CDN
	// behaviour responsible for the hitlist's millions of failed HTTPS
	// handshakes (§4.2).
	RequireSNI bool
}

// ConnState describes the completed handshake.
type ConnState struct {
	Version     Version
	ServerName  string // SNI as sent/received
	Certificate *Certificate
}

// Conn is a handshake-wrapped connection. Application bytes pass through
// unchanged after the handshake.
type Conn struct {
	net.Conn
	state ConnState
}

// State returns the handshake results.
func (c *Conn) State() ConnState { return c.state }

// Client performs the client side of the handshake over conn. On success
// the returned Conn carries the server certificate; the underlying conn
// must not be used directly afterwards.
// helloNoSNI is the client hello of the mass-scan probing mode (no
// server name, maximum version TLS 1.3) — the only hello the campaign
// hot path sends, precomputed.
var helloNoSNI = []byte{byte(VersionTLS13 >> 8), byte(VersionTLS13 & 0xff), 0, 0}

func Client(conn net.Conn, cfg ClientConfig) (*Conn, error) {
	maxV := cfg.MaxVersion
	if maxV == 0 {
		maxV = VersionTLS13
	}
	hello := helloNoSNI
	if maxV != VersionTLS13 || cfg.ServerName != "" {
		hello = make([]byte, 2+2+len(cfg.ServerName))
		binary.BigEndian.PutUint16(hello, uint16(maxV))
		binary.BigEndian.PutUint16(hello[2:], uint16(len(cfg.ServerName)))
		copy(hello[4:], cfg.ServerName)
	}
	if err := writeMsg(conn, msgClientHello, hello); err != nil {
		return nil, err
	}

	bp := msgBufs.Get()
	defer msgBufs.Put(bp)
	typ, payload, err := readMsg(conn, bp)
	if err != nil {
		return nil, err
	}
	switch typ {
	case msgAlert:
		if len(payload) < 1 {
			return nil, ErrNotTLS
		}
		return nil, alertError(AlertReason(payload[0]))
	case msgServerHello:
		if len(payload) < 2 {
			return nil, ErrNotTLS
		}
		version := Version(binary.BigEndian.Uint16(payload))
		cert, err := unmarshalCert(payload[2:])
		if err != nil {
			return nil, err
		}
		return &Conn{Conn: conn, state: ConnState{
			Version: version, ServerName: cfg.ServerName, Certificate: cert,
		}}, nil
	default:
		return nil, ErrNotTLS
	}
}

// Server performs the server side of the handshake over conn.
func Server(conn net.Conn, cfg ServerConfig) (*Conn, error) {
	if cfg.Certificate == nil {
		return nil, errors.New("tlsx: ServerConfig.Certificate is required")
	}
	srvV := cfg.Version
	if srvV == 0 {
		srvV = VersionTLS12
	}
	bp := msgBufs.Get()
	defer msgBufs.Put(bp)
	typ, payload, err := readMsg(conn, bp)
	if err != nil {
		return nil, err
	}
	if typ != msgClientHello || len(payload) < 4 {
		writeMsg(conn, msgAlert, alertHandshakeFailurePayload)
		return nil, ErrNotTLS
	}
	clientV := Version(binary.BigEndian.Uint16(payload))
	nameLen := int(binary.BigEndian.Uint16(payload[2:]))
	if len(payload) < 4+nameLen {
		writeMsg(conn, msgAlert, alertHandshakeFailurePayload)
		return nil, ErrNotTLS
	}
	serverName := string(payload[4 : 4+nameLen])

	if cfg.RequireSNI && serverName == "" {
		writeMsg(conn, msgAlert, alertUnrecognizedNamePayload)
		return nil, alertError(AlertUnrecognizedName)
	}
	version := srvV
	if clientV < version {
		version = clientV
	}
	if version < VersionTLS10 {
		writeMsg(conn, msgAlert, alertProtocolVersionPayload)
		return nil, alertError(AlertProtocolVersion)
	}

	rp := msgBufs.Get()
	resp := append((*rp)[:0], byte(version>>8), byte(version))
	resp = cfg.Certificate.appendMarshal(resp)
	err = writeMsg(conn, msgServerHello, resp)
	*rp = resp[:0]
	msgBufs.Put(rp)
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: conn, state: ConnState{
		Version: version, ServerName: serverName, Certificate: cfg.Certificate,
	}}, nil
}
