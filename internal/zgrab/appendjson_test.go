package zgrab

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"testing"
	"time"
)

// Bits of FuzzResultAppendJSON's shape argument: one per grab kind,
// then how Resources and the times are built.
const (
	fzHTTP = 1 << iota
	fzTLS
	fzSSH
	fzMQTT
	fzAMQP
	fzCoAP
	fzResources // CoAP carries {s0, s1}; otherwise an empty slice, nil when flag is false
	fzZeroTime  // Result.Time and TLS.NotAfter are time.Time{}
)

// fuzzTime is sec/nsec on a fixed zone off seconds east (UTC for 0).
// FixedZone takes any offset, so zone hours past 23 are reachable.
func fuzzTime(sec, nsec int64, off int32) time.Time {
	t := time.Unix(sec, nsec).UTC()
	if off != 0 {
		t = t.In(time.FixedZone("", int(off)))
	}
	return t
}

// fuzzResult builds a Result from fuzzed scalars. Every string field is
// one of s0..s2, every number a truncation of n.
func fuzzResult(shape uint8, flag bool, ip []byte, zone string, sec, nsec int64, off int32,
	sec2 int64, off2 int32, n int64, s0, s1, s2 string) *Result {
	addr, _ := netip.AddrFromSlice(ip) // zero Addr unless 4 or 16 bytes
	if zone != "" {
		addr = addr.WithZone(zone) // kept only by IPv6, mapped IPv4 included
	}
	when := fuzzTime(sec, nsec, off)
	if shape&fzZeroTime != 0 {
		when = time.Time{}
	}
	r := &Result{
		IP: addr, Module: s0, Port: uint16(n), Time: when,
		Status: Status(s1), Error: s2, Attempts: int(n >> 16),
	}
	if shape&fzHTTP != 0 {
		r.HTTP = &HTTPGrab{StatusCode: int(n), Title: s0, Server: s1}
	}
	if shape&fzTLS != 0 {
		r.TLS = &TLSGrab{
			Version: s2, HandshakeOK: flag, Alert: s0, CertFingerprint: s1, Subject: s2,
			Issuer: s0, SelfSigned: !flag, KeyID: s1,
			NotBefore: fuzzTime(sec2, nsec, off2), NotAfter: when,
		}
	}
	if shape&fzSSH != 0 {
		r.SSH = &SSHGrab{ServerID: s0, Software: s1, OS: s2, KeyType: s0, KeyFingerprint: s1}
	}
	if shape&fzMQTT != 0 {
		r.MQTT = &MQTTGrab{ReturnCode: byte(n), Open: flag}
	}
	if shape&fzAMQP != 0 {
		r.AMQP = &AMQPGrab{Product: s2, Mechanisms: s0, Open: !flag, CloseCode: uint16(n >> 8)}
	}
	if shape&fzCoAP != 0 {
		r.CoAP = &CoAPGrab{Code: s1}
		switch {
		case shape&fzResources != 0:
			r.CoAP.Resources = []string{s0, s1}
		case flag:
			r.CoAP.Resources = []string{}
		}
	}
	return r
}

// FuzzResultAppendJSON is the differential target behind the result
// encoder: for any Result, AppendJSON must produce json.Marshal's bytes
// (so AppendJSON + '\n' is Encoder.Encode's line) and AppendGrabs
// json.Marshal(grabPayload)'s — or both sides must refuse. The
// committed corpus holds one file per encoding rule: each grab kind,
// none, empty vs nil Resources, zero and zoned times, years and zone
// hours RFC 3339 cannot express, zero / IPv4 / mapped / zoned
// addresses, and strings that need every kind of escape.
//
// The same input also drives RowMemo: consecutive rows written into one
// buffer, as a sink run writes them, sharing or differing in address,
// zone and time (see memoRows), must be exactly their json.Marshal
// lines, with a refused row leaving the buffer as it was.
func FuzzResultAppendJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint8, flag bool, ip []byte, zone string, sec, nsec int64, off int32,
		sec2 int64, off2 int32, n int64, s0, s1, s2 string) {
		r := fuzzResult(shape, flag, ip, zone, sec, nsec, off, sec2, off2, n, s0, s1, s2)
		prefix := []byte("prefix\n")

		want, wantErr := json.Marshal(r)
		got, err := r.AppendJSON(append([]byte(nil), prefix...))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, wantErr)
		}
		if !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
			t.Fatalf("AppendJSON differs from json.Marshal:\n got %q\nwant %s%s", got, prefix, want)
		}

		want, wantErr = nil, nil
		if r.HTTP != nil || r.TLS != nil || r.SSH != nil || r.MQTT != nil || r.AMQP != nil || r.CoAP != nil {
			want, wantErr = json.Marshal(grabPayload{r.HTTP, r.TLS, r.SSH, r.MQTT, r.AMQP, r.CoAP})
		}
		got, err = r.AppendGrabs(append([]byte(nil), prefix...))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendGrabs error %v, json.Marshal error %v", err, wantErr)
		}
		if !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
			t.Fatalf("AppendGrabs differs from json.Marshal(grabPayload):\n got %q\nwant %s%s", got, prefix, want)
		}

		var memo RowMemo
		buf, lines := append([]byte(nil), prefix...), append([]byte(nil), prefix...)
		for i, row := range memoRows(r, fuzzTime(sec2, nsec, off2), s2) {
			want, wantErr := json.Marshal(row)
			out, err := memo.AppendJSON(buf, row)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("row %d: RowMemo.AppendJSON error %v, json.Marshal error %v", i, err, wantErr)
			}
			if err == nil {
				lines = append(append(lines, want...), '\n')
				out = append(out, '\n')
			}
			if !bytes.Equal(out, lines) {
				t.Fatalf("row %d: RowMemo.AppendJSON differs from json.Marshal lines:\n got %q\nwant %q", i, out, lines)
			}
			buf = out
		}
	})
}

// memoRows is a run of rows as a sink writes them: r; r as the next
// module (same address and time); r at another time; r's address
// without its zone, and with zone as its zone; r on the zero address;
// and r itself again, after all of them.
func memoRows(r *Result, other time.Time, zone string) []*Result {
	vary := func(f func(*Result)) *Result {
		c := *r
		f(&c)
		return &c
	}
	return []*Result{
		r,
		vary(func(c *Result) { c.Module, c.Port = c.Module+"s", c.Port+1 }),
		vary(func(c *Result) { c.Time = other }),
		vary(func(c *Result) { c.IP = c.IP.WithZone("") }),
		vary(func(c *Result) { c.IP = c.IP.WithZone(zone) }),
		vary(func(c *Result) { c.IP = netip.Addr{} }),
		r,
	}
}

// allocShapes is a failure row plus one success row per grab kind.
var allocShapes = []struct {
	name  string
	shape uint8
}{
	{"failure", 0}, {"http", fzHTTP}, {"tls", fzTLS}, {"ssh", fzSSH},
	{"mqtt", fzMQTT}, {"amqp", fzAMQP}, {"coap", fzCoAP | fzResources},
}

// The encoder's allocation contract: with room in dst, nothing
// allocates — not the address, not the times, not the strings.
func TestAppendJSONAllocs(t *testing.T) {
	ip := netip.MustParseAddr("2001:db8:17:a2::5e").AsSlice()
	buf := make([]byte, 0, 4096)
	for _, c := range allocShapes {
		r := fuzzResult(c.shape, true, ip, "", 1721476800, 123456789, 0, 1700000000, 3600, 0x1bb01bb,
			"mod<ule>", "success", "dial \"tcp\": timeout")
		for name, fn := range map[string]func([]byte) ([]byte, error){
			"AppendJSON": r.AppendJSON, "AppendGrabs": r.AppendGrabs,
		} {
			out, err := fn(buf)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, name, err)
			}
			if wantEmpty := name == "AppendGrabs" && c.shape == 0; (len(out) == 0) != wantEmpty {
				t.Fatalf("%s %s: wrote %d bytes", c.name, name, len(out))
			}
			if a := testing.AllocsPerRun(100, func() { fn(buf) }); a != 0 {
				t.Errorf("%s %s: %.0f allocs per call, want 0", c.name, name, a)
			}
		}
	}
}

// A refused time must leave dst as it was handed in, for both writers,
// so a sink can drop the row and keep its buffer.
func TestAppendJSONRefusalRestoresDst(t *testing.T) {
	year10k := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	zone24 := time.Date(2024, 7, 20, 0, 0, 0, 0, time.FixedZone("", 24*3600))
	ok := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	for _, r := range []*Result{
		{Time: year10k},
		{Time: zone24},
		{Time: ok, TLS: &TLSGrab{NotBefore: year10k}},
		{Time: ok, TLS: &TLSGrab{NotAfter: zone24}},
	} {
		if _, err := json.Marshal(r); err == nil {
			t.Fatalf("encoding/json accepted %+v; the case is stale", r)
		}
		if out, err := r.AppendJSON([]byte("keep")); err == nil || string(out) != "keep" {
			t.Errorf("AppendJSON(%v): out %q err %v", r.Time, out, err)
		}
		if r.TLS != nil {
			if out, err := r.AppendGrabs([]byte("keep")); err == nil || string(out) != "keep" {
				t.Errorf("AppendGrabs: out %q err %v", out, err)
			}
		}
	}
}

// The IPv6 writer is held to netip's text on every placement of "::"
// (each of the 256 sets of zero fields) crossed with field values of
// every digit count; FuzzResultAppendJSON referees the rest.
func TestAppendJSONAddrMatchesNetip(t *testing.T) {
	fields := []uint16{0x1, 0xf, 0x10, 0xab, 0x100, 0xa0b, 0x1000, 0xffff}
	for zero := 0; zero < 256; zero++ {
		for shift := range fields {
			var a [16]byte
			for i := 0; i < 8; i++ {
				if zero>>i&1 == 0 {
					v := fields[(i+shift)%len(fields)]
					a[2*i], a[2*i+1] = byte(v>>8), byte(v)
				}
			}
			ip := netip.AddrFrom16(a)
			if ip.Is4In6() {
				continue // netip's own path; FuzzResultAppendJSON's corpus holds one
			}
			want, err := json.Marshal(ip)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendJSONAddr(nil, ip); !bytes.Equal(got, want) {
				t.Fatalf("%x: wrote %s, encoding/json writes %s", a, got, want)
			}
		}
	}
}
