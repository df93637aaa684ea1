// Package tlsx implements the lightweight TLS stand-in used for mass
// scanning in the simulation.
//
// The paper's analyses consume exactly three things from TLS: whether a
// handshake succeeds, which certificate the server presents (fingerprint,
// subject, validity, self-signed flag), and key identity for reuse
// analysis. Generating and verifying millions of real X.509 chains would
// dominate experiment run time without changing any of those outputs, so
// tlsx speaks a compact handshake that carries the same identity fields
// and then passes application data through unencrypted ("null cipher").
// The handshake is a real wire protocol with framing, version
// negotiation, SNI, and alerts — scanners exercise genuine
// parse-and-validate code paths, including the hostname-required failure
// mode the paper observed on CDN front-ends.
//
// Confidentiality is intentionally out of scope; for small host counts
// the examples use the stdlib crypto/tls with certificates from
// GenerateX509 instead.
package tlsx

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"ntpscan/internal/freelist"
	"ntpscan/internal/intern"
)

// Version identifies the negotiated protocol version, mirroring TLS
// version codes.
type Version uint16

// Supported versions.
const (
	VersionTLS10 Version = 0x0301
	VersionTLS11 Version = 0x0302
	VersionTLS12 Version = 0x0303
	VersionTLS13 Version = 0x0304
)

// String implements fmt.Stringer.
func (v Version) String() string {
	switch v {
	case VersionTLS10:
		return "TLS 1.0"
	case VersionTLS11:
		return "TLS 1.1"
	case VersionTLS12:
		return "TLS 1.2"
	case VersionTLS13:
		return "TLS 1.3"
	default:
		return fmt.Sprintf("TLS(%#04x)", uint16(v))
	}
}

// KeyID identifies a server key pair. Reused keys (the paper's §6
// analysis) share a KeyID across certificates and hosts.
type KeyID [16]byte

// Certificate is the identity document exchanged in the handshake. It
// carries the fields the paper's analyses read from real X.509
// certificates.
type Certificate struct {
	Subject    string // subject common name
	Issuer     string // issuer common name; equal to Subject when self-signed
	SerialNum  uint64
	NotBefore  time.Time
	NotAfter   time.Time
	SelfSigned bool
	Key        KeyID
}

// marshalBufs pools certificate encodings for Fingerprint: the scanner
// fingerprints every completed handshake, and the transient marshal was
// a per-result allocation. Certificates fit the initial capacity.
var marshalBufs = freelist.List[*[]byte]{
	New: func() *[]byte {
		b := make([]byte, 0, 256)
		return &b
	},
}

// Fingerprint returns the SHA-256 digest of the certificate's canonical
// encoding, the dedup key used throughout the analysis ("#Certs/Keys").
func (c *Certificate) Fingerprint() [32]byte {
	bp := marshalBufs.Get()
	b := c.appendMarshal((*bp)[:0])
	sum := sha256.Sum256(b)
	*bp = b[:0]
	marshalBufs.Put(bp)
	return sum
}

// ValidAt reports whether t falls within the certificate's validity
// window.
func (c *Certificate) ValidAt(t time.Time) bool {
	return !t.Before(c.NotBefore) && !t.After(c.NotAfter)
}

// appendMarshal encodes the certificate deterministically onto b,
// allocating only if b lacks capacity — the handshake hot path encodes into pooled buffers.
func (c *Certificate) appendMarshal(b []byte) []byte {
	putStr := func(s string) {
		var l [2]byte
		binary.BigEndian.PutUint16(l[:], uint16(len(s)))
		b = append(b, l[:]...)
		b = append(b, s...)
	}
	putStr(c.Subject)
	putStr(c.Issuer)
	var num [8]byte
	binary.BigEndian.PutUint64(num[:], c.SerialNum)
	b = append(b, num[:]...)
	binary.BigEndian.PutUint64(num[:], uint64(c.NotBefore.Unix()))
	b = append(b, num[:]...)
	binary.BigEndian.PutUint64(num[:], uint64(c.NotAfter.Unix()))
	b = append(b, num[:]...)
	if c.SelfSigned {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, c.Key[:]...)
	return b
}

// unmarshalCert decodes a certificate; the inverse of marshal. Subject
// and issuer strings are interned: a mass scan decodes the same few
// device identities millions of times, and interning makes each repeat
// a map hit instead of a fresh string.
func unmarshalCert(b []byte) (*Certificate, error) {
	c := &Certificate{}
	getStr := func() (string, error) {
		if len(b) < 2 {
			return "", errTruncated
		}
		n := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < n {
			return "", errTruncated
		}
		s := intern.Default.Bytes(b[:n])
		b = b[n:]
		return s, nil
	}
	var err error
	if c.Subject, err = getStr(); err != nil {
		return nil, err
	}
	if c.Issuer, err = getStr(); err != nil {
		return nil, err
	}
	if len(b) < 8*3+1+16 {
		return nil, errTruncated
	}
	c.SerialNum = binary.BigEndian.Uint64(b)
	b = b[8:]
	c.NotBefore = time.Unix(int64(binary.BigEndian.Uint64(b)), 0).UTC()
	b = b[8:]
	c.NotAfter = time.Unix(int64(binary.BigEndian.Uint64(b)), 0).UTC()
	b = b[8:]
	c.SelfSigned = b[0] == 1
	b = b[1:]
	copy(c.Key[:], b[:16])
	return c, nil
}

var errTruncated = errors.New("tlsx: truncated certificate")

// AlertReason codes carried in handshake alerts, modelled on TLS alert
// descriptions.
type AlertReason uint8

// Alert reasons.
const (
	AlertHandshakeFailure  AlertReason = 40
	AlertUnrecognizedName  AlertReason = 112 // SNI required but absent/unknown
	AlertProtocolVersion   AlertReason = 70
	AlertInternalError     AlertReason = 80
	AlertAccessDeniedAlert AlertReason = 49
)

// String implements fmt.Stringer.
func (r AlertReason) String() string {
	switch r {
	case AlertHandshakeFailure:
		return "handshake_failure"
	case AlertUnrecognizedName:
		return "unrecognized_name"
	case AlertProtocolVersion:
		return "protocol_version"
	case AlertInternalError:
		return "internal_error"
	case AlertAccessDeniedAlert:
		return "access_denied"
	default:
		return fmt.Sprintf("alert(%d)", uint8(r))
	}
}

// AlertError is the error returned when the peer aborts the handshake.
type AlertError struct {
	Reason AlertReason
}

// Error implements error. The known reasons return precomputed
// messages: the scan path stringifies every failed handshake, and a
// per-call Sprintf was visible in campaign heap profiles.
func (e *AlertError) Error() string {
	switch e.Reason {
	case AlertHandshakeFailure:
		return "tlsx: alert from peer: handshake_failure"
	case AlertUnrecognizedName:
		return "tlsx: alert from peer: unrecognized_name"
	case AlertProtocolVersion:
		return "tlsx: alert from peer: protocol_version"
	case AlertInternalError:
		return "tlsx: alert from peer: internal_error"
	case AlertAccessDeniedAlert:
		return "tlsx: alert from peer: access_denied"
	}
	return "tlsx: alert from peer: " + e.Reason.String()
}
