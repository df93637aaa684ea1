// Package zgrab is the application-layer scan framework, modelled on
// zgrab2 (which the paper extended): pluggable per-protocol modules, a
// token-bucket rate limiter capped at the paper's 100 kpps, revisit
// suppression (no re-scan of an address for three days), a worker pool
// fed in real time by the NTP capture stream, and a JSONL result
// envelope.
package zgrab

import (
	"encoding/json"
	"io"
	"net/netip"
	"time"

	"ntpscan/internal/intern"
)

// Status classifies a scan attempt's outcome, following zgrab2's status
// vocabulary.
type Status string

// Scan statuses.
const (
	StatusSuccess       Status = "success"
	StatusTimeout       Status = "connection-timeout"
	StatusRefused       Status = "connection-refused"
	StatusProtocolError Status = "protocol-error"
	StatusTLSError      Status = "tls-error"
	StatusIOError       Status = "io-error"
	// StatusBreakerOpen marks a target shed by the per-prefix circuit
	// breaker: no probe was sent. Not part of zgrab2's vocabulary, but
	// it keeps the result stream dense when load-shedding is active.
	StatusBreakerOpen Status = "breaker-open"
)

// Result is one module's grab of one address.
type Result struct {
	IP     netip.Addr `json:"ip"`
	Module string     `json:"module"`
	Port   uint16     `json:"port"`
	Time   time.Time  `json:"time"`
	Status Status     `json:"status"`
	Error  string     `json:"error,omitempty"`
	// Attempts is how many tries the probe took under the retry policy;
	// omitted when the first try settled it.
	Attempts int `json:"attempts,omitempty"`

	// Seq orders results by submission: targets are numbered serially as
	// they enter the scanner and each module slot gets a distinct
	// sequence value, so sinks fed from concurrent workers can restore
	// the deterministic submission order with a sort. It is scanner
	// bookkeeping, not part of the zgrab2 envelope.
	Seq int64 `json:"-"`

	HTTP *HTTPGrab `json:"http,omitempty"`
	TLS  *TLSGrab  `json:"tls,omitempty"`
	SSH  *SSHGrab  `json:"ssh,omitempty"`
	MQTT *MQTTGrab `json:"mqtt,omitempty"`
	AMQP *AMQPGrab `json:"amqp,omitempty"`
	CoAP *CoAPGrab `json:"coap,omitempty"`
}

// Success reports whether the grab reached a speaking endpoint.
func (r *Result) Success() bool { return r.Status == StatusSuccess }

// HTTPGrab carries the HTTP response surface the analysis consumes.
type HTTPGrab struct {
	StatusCode int    `json:"status_code"`
	Title      string `json:"title"`
	Server     string `json:"server,omitempty"`
}

// TLSGrab carries handshake results.
type TLSGrab struct {
	Version         string `json:"version,omitempty"`
	HandshakeOK     bool   `json:"handshake_ok"`
	Alert           string `json:"alert,omitempty"`
	CertFingerprint string `json:"cert_fingerprint,omitempty"`
	Subject         string `json:"subject,omitempty"`
	Issuer          string `json:"issuer,omitempty"`
	SelfSigned      bool   `json:"self_signed,omitempty"`
	KeyID           string `json:"key_id,omitempty"`
	// NotBefore and NotAfter carry no omitempty: encoding/json never
	// omits a struct, so every TLS row has both keys, zero time
	// ("0001-01-01T00:00:00Z") included.
	NotBefore time.Time `json:"not_before"`
	NotAfter  time.Time `json:"not_after"`
}

// SSHGrab carries the identification string and host key.
type SSHGrab struct {
	ServerID       string `json:"server_id"`
	Software       string `json:"software"`
	OS             string `json:"os,omitempty"`
	KeyType        string `json:"key_type,omitempty"`
	KeyFingerprint string `json:"key_fingerprint,omitempty"`
}

// MQTTGrab carries broker negotiation results.
type MQTTGrab struct {
	ReturnCode byte `json:"return_code"`
	Open       bool `json:"open"`
}

// AMQPGrab carries broker negotiation results.
type AMQPGrab struct {
	Product    string `json:"product,omitempty"`
	Mechanisms string `json:"mechanisms,omitempty"`
	Open       bool   `json:"open"`
	CloseCode  uint16 `json:"close_code,omitempty"`
}

// CoAPGrab carries discovery results.
type CoAPGrab struct {
	Code      string   `json:"code"`
	Resources []string `json:"resources,omitempty"`
}

// DecodeJSONL streams results from a JSONL reader through fn, one at
// a time — no whole-file slice is ever built, so arbitrarily large
// result files decode in constant memory. Repeated string fields
// (module names, statuses, fingerprints, titles, banners) are
// canonicalised through the shared intern table before fn sees them.
func DecodeJSONL(r io.Reader, fn func(*Result) error) error {
	dec := json.NewDecoder(r)
	for {
		res := &Result{}
		if err := dec.Decode(res); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		res.internStrings()
		if err := fn(res); err != nil {
			return err
		}
	}
}

// grabPayload is exactly the module-specific grab surface of a Result
// as one compact JSON object: the columnar store keeps the envelope
// fields in typed columns and this payload as an opaque per-row value.
// AppendGrabs writes these bytes by hand; SetGrabs decodes through the
// struct, which is also the reference the encoder is tested against.
type grabPayload struct {
	HTTP *HTTPGrab `json:"http,omitempty"`
	TLS  *TLSGrab  `json:"tls,omitempty"`
	SSH  *SSHGrab  `json:"ssh,omitempty"`
	MQTT *MQTTGrab `json:"mqtt,omitempty"`
	AMQP *AMQPGrab `json:"amqp,omitempty"`
	CoAP *CoAPGrab `json:"coap,omitempty"`
}

// SetGrabs decodes through encoding/json, which builds a type's field
// tables on first use. Build them at package load: the first decode
// otherwise happens inside a campaign — a resumed campaign's store
// replay, or a compaction of segments the store reads back from disk
// (see core.Checkpoint's init).
func init() {
	json.Unmarshal([]byte("{}"), new(grabPayload))
}

// SetGrabs restores the grab pointers from AppendGrabs bytes; empty
// input means no grab.
func (r *Result) SetGrabs(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var g grabPayload
	if err := json.Unmarshal(data, &g); err != nil {
		return err
	}
	r.HTTP, r.TLS, r.SSH, r.MQTT, r.AMQP, r.CoAP = g.HTTP, g.TLS, g.SSH, g.MQTT, g.AMQP, g.CoAP
	return nil
}

// Intern canonicalises the result's vocabulary-bounded strings through
// the shared intern table; DecodeJSONL applies it automatically, the columnar store's row decoder calls it directly.
func (r *Result) Intern() { r.internStrings() }

// internStrings replaces the result's vocabulary-bounded string fields
// with their canonical interned instances.
func (r *Result) internStrings() {
	it := intern.Default
	r.Module = it.String(r.Module)
	r.Status = Status(it.String(string(r.Status)))
	r.Error = it.String(r.Error)
	if h := r.HTTP; h != nil {
		h.Title = it.String(h.Title)
		h.Server = it.String(h.Server)
	}
	if t := r.TLS; t != nil {
		t.Version = it.String(t.Version)
		t.Alert = it.String(t.Alert)
		t.CertFingerprint = it.String(t.CertFingerprint)
		t.Subject = it.String(t.Subject)
		t.Issuer = it.String(t.Issuer)
		t.KeyID = it.String(t.KeyID)
	}
	if s := r.SSH; s != nil {
		s.ServerID = it.String(s.ServerID)
		s.Software = it.String(s.Software)
		s.OS = it.String(s.OS)
		s.KeyType = it.String(s.KeyType)
		s.KeyFingerprint = it.String(s.KeyFingerprint)
	}
	if a := r.AMQP; a != nil {
		a.Product = it.String(a.Product)
		a.Mechanisms = it.String(a.Mechanisms)
	}
	if c := r.CoAP; c != nil {
		c.Code = it.String(c.Code)
		for i, res := range c.Resources {
			c.Resources[i] = it.String(res)
		}
	}
}
