package coapx

import (
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"ntpscan/internal/netsim"
)

func TestMarshalParseRoundTrip(t *testing.T) {
	m := &Message{
		Type:      Confirmable,
		Code:      CodeGET,
		MessageID: 0xbeef,
		Token:     []byte{1, 2, 3, 4},
		Options: []Option{
			{Number: OptionUriPath, Value: []byte(".well-known")},
			{Number: OptionUriPath, Value: []byte("core")},
			{Number: OptionContentFormat, Value: []byte{40}},
		},
		Payload: []byte("hello"),
	}
	enc, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(mid uint16, tok []byte, segs [][]byte, payload []byte) bool {
		if len(tok) > 8 {
			tok = tok[:8]
		}
		m := &Message{Type: NonConfirmable, Code: CodeContent, MessageID: mid, Token: tok}
		for _, s := range segs {
			if len(s) > 400 {
				s = s[:400]
			}
			m.Options = append(m.Options, Option{Number: OptionUriPath, Value: s})
		}
		if len(payload) > 0 {
			m.Payload = payload
		}
		enc, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Parse(enc)
		if err != nil {
			return false
		}
		if got.MessageID != m.MessageID || got.Code != m.Code || len(got.Options) != len(m.Options) {
			return false
		}
		for i := range m.Options {
			if string(got.Options[i].Value) != string(m.Options[i].Value) {
				return false
			}
		}
		return string(got.Payload) == string(m.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOptionDeltaExtensions(t *testing.T) {
	// Option numbers needing 13- and 14-style extended deltas.
	m := &Message{
		Type: Confirmable, Code: CodeGET, MessageID: 1,
		Options: []Option{
			{Number: 11, Value: []byte("a")},
			{Number: 60, Value: []byte("b")},   // delta 49: 13-ext
			{Number: 2048, Value: []byte("c")}, // delta 1988: 14-ext
		},
	}
	enc, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Options) != 3 || got.Options[1].Number != 60 || got.Options[2].Number != 2048 {
		t.Fatalf("options = %+v", got.Options)
	}
}

func TestLongOptionValue(t *testing.T) {
	long := make([]byte, 300) // needs 14-style length extension
	for i := range long {
		long[i] = byte(i)
	}
	m := &Message{Type: Confirmable, Code: CodeGET, MessageID: 1,
		Options: []Option{{Number: OptionUriPath, Value: long}}}
	enc, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Options[0].Value) != string(long) {
		t.Fatal("long option corrupted")
	}
}

func TestMarshalRejectsLongToken(t *testing.T) {
	m := &Message{Token: make([]byte, 9)}
	if _, err := m.Marshal(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v", err)
	}
}

func TestParseRejects(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x40, 0x01},                   // short
		{0x80, 0x01, 0x00, 0x01},       // version 2
		{0x4f, 0x01, 0x00, 0x01},       // TKL 15
		{0x40, 0x01, 0x00, 0x01, 0xff}, // payload marker with no payload
		{0x40, 0x01, 0x00, 0x01, 0xf0}, // reserved option nibble
	}
	for _, b := range cases {
		if _, err := Parse(b); err == nil {
			t.Errorf("accepted %x", b)
		}
	}
}

func TestCodeString(t *testing.T) {
	if CodeGET.String() != "0.01" || CodeContent.String() != "2.05" || CodeNotFound.String() != "4.04" {
		t.Fatalf("codes: %v %v %v", CodeGET, CodeContent, CodeNotFound)
	}
}

func TestNewGetAndPath(t *testing.T) {
	m := NewGet("/.well-known/core", 7, []byte{1})
	if got := m.Path(); got != "/.well-known/core" {
		t.Fatalf("path = %q", got)
	}
	if m.Code != CodeGET || len(m.Options) != 2 {
		t.Fatalf("msg = %+v", m)
	}
	root := NewGet("/", 7, nil)
	if root.Path() != "/" || len(root.Options) != 0 {
		t.Fatalf("root = %+v", root)
	}
}

func TestLinkFormatRoundTrip(t *testing.T) {
	paths := []string{"/castDeviceSearch", "/qlink/config", "/qlink/status"}
	doc := EncodeLinkFormat(paths)
	got := ParseLinkFormat(doc)
	if !reflect.DeepEqual(got, paths) {
		t.Fatalf("got %v", got)
	}
}

func TestParseLinkFormatWithAttributes(t *testing.T) {
	got := ParseLinkFormat(`</sensors/temp>;rt="temperature";ct=40, </firmware>;sz=1024`)
	want := []string{"/sensors/temp", "/firmware"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestParseLinkFormatGarbage(t *testing.T) {
	if got := ParseLinkFormat("no links here"); got != nil {
		t.Fatalf("got %v", got)
	}
	if got := ParseLinkFormat(""); got != nil {
		t.Fatalf("empty doc: %v", got)
	}
}

func TestRespondWellKnown(t *testing.T) {
	req := NewGet("/.well-known/core", 9, []byte{7})
	resp := Respond(req, DeviceOptions{Resources: []string{"/a", "/b"}})
	if resp.Code != CodeContent || resp.MessageID != 9 || string(resp.Token) != string(req.Token) {
		t.Fatalf("resp = %+v", resp)
	}
	if got := ParseLinkFormat(string(resp.Payload)); len(got) != 2 {
		t.Fatalf("resources = %v", got)
	}
}

func TestRespondKnownAndUnknownPath(t *testing.T) {
	opts := DeviceOptions{Resources: []string{"/exists"}}
	if r := Respond(NewGet("/exists", 1, nil), opts); r.Code != CodeContent {
		t.Fatalf("known path: %v", r.Code)
	}
	if r := Respond(NewGet("/missing", 1, nil), opts); r.Code != CodeNotFound {
		t.Fatalf("unknown path: %v", r.Code)
	}
}

// scan is ScanConn over a fresh fabric socket bound at src.
func scan(fabric *netsim.Network, src netip.AddrPort, dst netip.AddrPort, messageID uint16, timeout time.Duration) (*ScanResult, error) {
	conn, err := fabric.ListenUDP(src)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return ScanConn(conn, dst, messageID, timeout)
}

func TestScanEndToEnd(t *testing.T) {
	fabric := netsim.New(netsim.Config{})
	dev := netsim.NewHost("cast-device").HandleUDP(Port,
		Handler(DeviceOptions{Resources: []string{"/castDeviceSearch"}}))
	devAddr := netip.MustParseAddr("2001:db8::cafe")
	fabric.Register(devAddr, dev)

	res, err := scan(fabric,
		netip.MustParseAddrPort("[2001:db8::1]:40000"),
		netip.AddrPortFrom(devAddr, Port), 0x1234, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != CodeContent || len(res.Resources) != 1 || res.Resources[0] != "/castDeviceSearch" {
		t.Fatalf("res = %+v", res)
	}
}

func TestScanEmptyResources(t *testing.T) {
	fabric := netsim.New(netsim.Config{})
	devAddr := netip.MustParseAddr("2001:db8::1:1")
	fabric.Register(devAddr, netsim.NewHost("bare").HandleUDP(Port, Handler(DeviceOptions{})))
	res, err := scan(fabric,
		netip.MustParseAddrPort("[2001:db8::2]:40000"),
		netip.AddrPortFrom(devAddr, Port), 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != CodeContent || len(res.Resources) != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestScanTimeout(t *testing.T) {
	fabric := netsim.New(netsim.Config{})
	_, err := scan(fabric,
		netip.MustParseAddrPort("[2001:db8::2]:40000"),
		netip.MustParseAddrPort("[2001:db8::dead]:5683"), 1, 30*time.Millisecond)
	if err == nil {
		t.Fatal("scan of unrouted space succeeded")
	}
}
