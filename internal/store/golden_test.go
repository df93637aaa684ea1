package store

import (
	"crypto/sha256"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"ntpscan/internal/zgrab"
)

// The store keeps each result's grabs as an opaque JSON value, written
// by Result.AppendGrabs. These digests were computed with the
// encoding/json implementation of AppendGrabs (json.Marshal of the grab
// payload struct) over rows carrying every grab kind, no grab, every
// omitempty field both ways, and strings encoding/json escapes: the
// hand-written encoder must not move one byte of a segment. rawDigest
// covers the uncompressed results block (every column), segDigest the
// whole segment image; if only segDigest moves after a toolchain
// upgrade, compress/flate changed, not the format.
func TestGrabColumnGoldenDigest(t *testing.T) {
	const (
		rawDigest = "d3f9e14af49c063c9d53855ff90c26bbb2cdeb9c72931a91362ef9988dbb815c"
		segDigest = "dbd09a4c0808985e20430a3863477d9fdefdc9890680e12a99e8e92f0fe0d5bd"
	)
	at := time.Date(2024, 7, 20, 0, 0, 0, 987654321, time.UTC)
	grabs := []zgrab.Result{
		{Module: "http", Status: zgrab.StatusTimeout, Error: "i/o timeout", Attempts: 2},
		{Module: "http", HTTP: &zgrab.HTTPGrab{StatusCode: 200, Title: "R&D <b>\"x\"</b>  ", Server: "nginx"}},
		{Module: "http", HTTP: &zgrab.HTTPGrab{StatusCode: 404}},
		{Module: "https", HTTP: &zgrab.HTTPGrab{StatusCode: 301, Title: "moved"},
			TLS: &zgrab.TLSGrab{Version: "TLSv1.3", HandshakeOK: true, CertFingerprint: "ab:cd", Subject: "CN=a\\b", Issuer: "CN=ca",
				SelfSigned: true, KeyID: "k1", NotBefore: at, NotAfter: at.AddDate(1, 0, 0).In(time.FixedZone("", 5*3600+1800))}},
		{Module: "https", Status: zgrab.StatusTLSError, TLS: &zgrab.TLSGrab{Alert: "handshake_failure"}},
		{Module: "ssh", SSH: &zgrab.SSHGrab{ServerID: "SSH-2.0-OpenSSH_9.6\r", Software: "OpenSSH_9.6", OS: "Debian", KeyType: "ssh-ed25519", KeyFingerprint: "SHA256:x/y+z"}},
		{Module: "ssh", SSH: &zgrab.SSHGrab{ServerID: "SSH-2.0-\xff\xfe", Software: ""}},
		{Module: "mqtt", MQTT: &zgrab.MQTTGrab{ReturnCode: 5}},
		{Module: "mqtts", MQTT: &zgrab.MQTTGrab{Open: true}, TLS: &zgrab.TLSGrab{HandshakeOK: true}},
		{Module: "amqp", AMQP: &zgrab.AMQPGrab{Product: "RabbitMQ", Mechanisms: "PLAIN AMQPLAIN", Open: true}},
		{Module: "amqps", AMQP: &zgrab.AMQPGrab{CloseCode: 403}},
		{Module: "coap", CoAP: &zgrab.CoAPGrab{Code: "2.05", Resources: []string{"/.well-known/core", "</sensors/temp>;rt=\"t\""}}},
		{Module: "coap", CoAP: &zgrab.CoAPGrab{Code: "4.04", Resources: []string{}}},
	}
	w := new(blockWriter)
	sb := newSegBuilder(w)
	for i := range grabs {
		r := &grabs[i]
		r.IP = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 4: byte(i), 15: byte(i + 1)})
		r.Port, r.Seq = uint16(1000+i), int64(i)
		r.Time = at.Add(time.Duration(i) * time.Millisecond)
		if r.Status == "" {
			r.Status = zgrab.StatusSuccess
		}
		if err := sb.addResult(r, i/5); err != nil {
			t.Fatal(err)
		}
	}
	img, _ := sb.finish()
	raw := fmt.Sprintf("%x", sha256.Sum256(w.body)) // the last block's body
	seg := fmt.Sprintf("%x", sha256.Sum256(img))
	if raw != rawDigest {
		t.Errorf("results block moved: sha256 %s, golden %s", raw, rawDigest)
	}
	if seg != segDigest {
		t.Errorf("segment image moved: sha256 %s, golden %s", seg, segDigest)
	}
}
