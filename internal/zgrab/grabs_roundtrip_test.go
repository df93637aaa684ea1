package zgrab

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"
)

func grabResult() *Result {
	return &Result{
		IP:     netip.MustParseAddr("2001:db8::1"),
		Module: "http",
		Port:   80,
		Time:   time.Date(2024, 7, 20, 12, 0, 0, 0, time.UTC),
		Status: StatusSuccess,
		HTTP:   &HTTPGrab{StatusCode: 200, Server: "httpd", Title: "root"},
		TLS:    &TLSGrab{Version: "TLS 1.3", HandshakeOK: true},
		SSH:    &SSHGrab{ServerID: "SSH-2.0-x", Software: "x"},
		MQTT:   &MQTTGrab{ReturnCode: 0, Open: true},
		AMQP:   &AMQPGrab{Product: "broker", Open: true},
		CoAP:   &CoAPGrab{Code: "2.05", Resources: []string{"/x"}},
	}
}

// AppendGrabs/SetGrabs carry the grab payloads through the columnar
// store's row encoding; they must round-trip every module pointer and
// encode "no grabs" as zero bytes.
func TestAppendSetGrabsRoundTrip(t *testing.T) {
	r := grabResult()
	buf, err := r.AppendGrabs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) == 0 {
		t.Fatal("grab payload empty")
	}
	var back Result
	if err := back.SetGrabs(buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.HTTP, r.HTTP) || !reflect.DeepEqual(back.TLS, r.TLS) ||
		!reflect.DeepEqual(back.SSH, r.SSH) || !reflect.DeepEqual(back.MQTT, r.MQTT) ||
		!reflect.DeepEqual(back.AMQP, r.AMQP) || !reflect.DeepEqual(back.CoAP, r.CoAP) {
		t.Fatalf("grabs changed across round trip: %+v vs %+v", back, r)
	}

	// AppendGrabs appends — a prefixed buffer must survive.
	prefixed, err := r.AppendGrabs([]byte("xx"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prefixed[:2], []byte("xx")) || !bytes.Equal(prefixed[2:], buf) {
		t.Fatal("AppendGrabs did not append to the given buffer")
	}

	// No grabs: nothing appended, and SetGrabs of empty clears nothing.
	bare := &Result{Module: "http", Status: StatusTimeout}
	if buf, err := bare.AppendGrabs(nil); err != nil || len(buf) != 0 {
		t.Fatalf("all-nil grabs encoded to %d bytes (err %v)", len(buf), err)
	}
	if err := bare.SetGrabs(nil); err != nil {
		t.Fatal(err)
	}
	if bare.HTTP != nil || bare.TLS != nil {
		t.Fatal("SetGrabs(nil) invented grabs")
	}
	if err := bare.SetGrabs([]byte("{")); err == nil {
		t.Fatal("SetGrabs accepted truncated JSON")
	}
}

// Intern canonicalises a decoded result's strings into the shared
// table, same as the scan path does.
func TestResultIntern(t *testing.T) {
	module := strings.Repeat("http", 1)[:4] // a non-constant "http"
	r := &Result{Module: module, Status: StatusSuccess, Error: "e"}
	r.Intern()
	if r.Module != "http" || r.Status != StatusSuccess || r.Error != "e" {
		t.Fatalf("Intern changed values: %+v", r)
	}
}

func TestDecodeJSONLStopsOnCallbackError(t *testing.T) {
	n := 0
	err := DecodeJSONL(jsonl(t, grabResult(), grabResult()), func(*Result) error {
		n++
		return errStop
	})
	if err != errStop || n != 1 {
		t.Fatalf("callback error not propagated: err=%v n=%d", err, n)
	}
}

var errStop = errorString("stop")

type errorString string

func (e errorString) Error() string { return string(e) }
