package zgrab

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"ntpscan/internal/netsim"
)

// decodeSeedRows are rows as a campaign writes them: a dark dial, a
// closed port, a probe the breaker shed, a probe that took three tries,
// and one success per grab kind.
func decodeSeedRows() []*Result {
	ip := netip.MustParseAddr("2001:db8:1:2:211:22ff:fe33:4455")
	at := time.Date(2024, 7, 20, 9, 30, 0, 123456789, time.UTC)
	row := func(module string, port uint16, status Status) *Result {
		return &Result{IP: ip, Module: module, Port: port, Time: at, Status: status}
	}
	timeout := row("http", 80, StatusTimeout)
	timeout.Error = netsim.DialErrString(netsim.DialTimeout())
	refused := row("ssh", 22, StatusRefused)
	refused.Error = netsim.DialErrString(netsim.DialRefused())
	shed := row("mqtt", 1883, StatusBreakerOpen)
	shed.Error = "zgrab: breaker open"
	retried := row("amqp", 5672, StatusTimeout)
	retried.Error, retried.Attempts = timeout.Error, 3

	http := row("http", 80, StatusSuccess)
	http.HTTP = &HTTPGrab{StatusCode: 200, Title: "FRITZ!Box", Server: "httpd"}
	https := row("https", 443, StatusSuccess)
	https.HTTP = &HTTPGrab{StatusCode: 401, Title: "Login \"admin\" <home>"}
	https.TLS = &TLSGrab{
		Version: "TLS 1.2", HandshakeOK: true, CertFingerprint: "ab12", Subject: "CN=fritz.box",
		Issuer: "CN=fritz.box", SelfSigned: true, KeyID: "k1",
		NotBefore: at.Add(-24 * time.Hour), NotAfter: at.Add(365 * 24 * time.Hour),
	}
	ssh := row("ssh", 22, StatusSuccess)
	ssh.SSH = &SSHGrab{ServerID: "SSH-2.0-dropbear_2019.78", Software: "dropbear_2019.78", KeyType: "ssh-ed25519", KeyFingerprint: "SHA256:x"}
	mqtt := row("mqtt", 1883, StatusSuccess)
	mqtt.MQTT = &MQTTGrab{ReturnCode: 0, Open: true}
	amqp := row("amqp", 5672, StatusSuccess)
	amqp.AMQP = &AMQPGrab{Product: "RabbitMQ", Mechanisms: "PLAIN AMQPLAIN", Open: false, CloseCode: 403}
	coap := row("coap", 5683, StatusSuccess)
	coap.CoAP = &CoAPGrab{Code: "2.05", Resources: []string{"/castDeviceSearch", "/.well-known/core"}}
	return []*Result{timeout, refused, shed, retried, http, https, ssh, mqtt, amqp, coap}
}

// FuzzDecodeJSONL drives the reader behind cmd/analyze's on-disk input.
// Arbitrary bytes must never panic it, and every row it decodes must
// re-encode to a line that decodes and re-encodes to the same bytes: a
// row AppendJSON wrote survives a round trip through DecodeJSONL
// exactly.
func FuzzDecodeJSONL(f *testing.F) {
	var all []byte
	for _, r := range decodeSeedRows() {
		line, err := r.AppendJSON(nil)
		if err != nil {
			f.Fatal(err)
		}
		line = append(line, '\n')
		f.Add(line)
		all = append(all, line...)
	}
	f.Add(all)
	f.Add(all[:len(all)-len(all)/3]) // cut inside a row
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeJSONL(bytes.NewReader(data), func(r *Result) error {
			line, err := r.AppendJSON(nil)
			if err != nil {
				return nil // a value JSON cannot carry (a year past 9999) is refused, not written
			}
			n := 0
			err = DecodeJSONL(bytes.NewReader(line), func(back *Result) error {
				n++
				again, err := back.AppendJSON(nil)
				if err != nil {
					t.Fatalf("a decoded AppendJSON row fails to re-encode: %v\nrow %s", err, line)
				}
				if !bytes.Equal(again, line) {
					t.Fatalf("AppendJSON row does not survive a decode:\n got %s\nwant %s", again, line)
				}
				return nil
			})
			if err != nil || n != 1 {
				t.Fatalf("AppendJSON row decoded to %d rows, error %v: %s", n, err, line)
			}
			return nil
		})
	})
}
