package ntp

import (
	"bytes"
	"net/netip"
	"testing"
	"time"
)

func batchPackets() []Packet {
	now := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	tmpl := ClientPacket(now)
	other := ClientPacket(now.Add(90 * time.Second))
	other.Poll = 6
	full := Packet{
		Leap: LeapAddSecond, Version: 3, Mode: ModeServer, Stratum: 2,
		Poll: 10, Precision: -20, RootDelay: 0x1234, RootDispersion: 0x567,
		ReferenceID:   [4]byte{'G', 'P', 'S', 0},
		ReferenceTime: ToTime64(now.Add(-17 * time.Second)),
		OriginTime:    ToTime64(now.Add(-time.Second)),
		ReceiveTime:   ToTime64(now),
		TransmitTime:  ToTime64(now),
	}
	// Runs of identical packets exercise the template fast path.
	return []Packet{tmpl, tmpl, tmpl, other, tmpl, full, full, other}
}

func TestEncodeBatchMatchesSequential(t *testing.T) {
	ps := batchPackets()
	var want []byte
	for i := range ps {
		want = ps[i].AppendEncode(want)
	}
	got := EncodeBatch(ps, []byte("prefix"))
	if !bytes.Equal(got[:6], []byte("prefix")) {
		t.Fatal("EncodeBatch clobbered the destination prefix")
	}
	if !bytes.Equal(got[6:], want) {
		t.Fatal("EncodeBatch diverges from sequential AppendEncode")
	}
	if out := EncodeBatch(nil, []byte{1}); len(out) != 1 {
		t.Fatal("empty batch should leave dst untouched")
	}
}

func TestDecodeBatchRoundTrip(t *testing.T) {
	ps := batchPackets()
	slab := EncodeBatch(ps, nil)
	got := make([]Packet, len(ps))
	n, err := DecodeBatch(got, slab)
	if err != nil || n != len(ps) {
		t.Fatalf("DecodeBatch = %d, %v", n, err)
	}
	for i := range ps {
		if got[i] != ps[i] {
			t.Fatalf("stride %d round-trips to %+v, want %+v", i, got[i], ps[i])
		}
	}
}

func TestDecodeBatchErrors(t *testing.T) {
	ps := batchPackets()
	slab := EncodeBatch(ps, nil)
	if _, err := DecodeBatch(make([]Packet, len(ps)), slab[:len(slab)-1]); err == nil {
		t.Fatal("trailing partial stride not rejected")
	}
	slab[2*PacketSize] = 0 // version 0 in stride 2
	n, err := DecodeBatch(make([]Packet, len(ps)), slab)
	if err == nil || n != 2 {
		t.Fatalf("bad stride: n=%d err=%v, want n=2 and an error", n, err)
	}
}

// TestRespondBatchMatchesSequential drives the same mixed request slab
// through RespondAppend one by one and through RespondBatch, asserting
// byte-identical output, identical per-event accounting, and identical
// capture sequences — including invalid datagrams, a non-client mode,
// and rate-limited repeats.
func TestRespondBatchMatchesSequential(t *testing.T) {
	start := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	mk := func(captured *[]netip.AddrPort, met *ServerMetrics) *Server {
		return NewServer(ServerConfig{
			Stratum:     2,
			ReferenceID: [4]byte{'G', 'P', 'S', 0},
			Now:         func() time.Time { return start },
			MinInterval: time.Minute,
			Metrics:     met,
			Capture: func(c netip.AddrPort, _ time.Time) {
				*captured = append(*captured, c)
			},
		})
	}

	tmpl := ClientPacket(start)
	bad := tmpl
	bad.Mode = ModeSymmetricActive
	reqs := EncodeBatch([]Packet{tmpl, tmpl, bad, tmpl, tmpl, tmpl}, nil)
	reqs = append(reqs, make([]byte, PacketSize)...) // version-0 junk stride
	clients := []netip.AddrPort{
		netip.MustParseAddrPort("[2001:db8::1]:123"),
		netip.MustParseAddrPort("[2001:db8::2]:123"),
		netip.MustParseAddrPort("[2001:db8::3]:123"),
		netip.MustParseAddrPort("[2001:db8::1]:123"), // rate-limited repeat
		netip.MustParseAddrPort("[2001:db8::4]:123"),
		netip.MustParseAddrPort("[2001:db8::4]:123"), // rate-limited repeat
		netip.MustParseAddrPort("[2001:db8::5]:123"),
	}

	var capSeq, capBatch []netip.AddrPort
	metSeq, metBatch := localMetrics(), localMetrics()
	seq, batch := mk(&capSeq, metSeq), mk(&capBatch, metBatch)

	var want []byte
	wantOks := make([]bool, len(clients))
	wantAnswered := 0
	for i := range clients {
		out, ok := seq.RespondAppend(clients[i], reqs[i*PacketSize:(i+1)*PacketSize], want)
		want = out
		wantOks[i] = ok
		if ok {
			wantAnswered++
		}
	}

	oks := make([]bool, len(clients))
	got, answered := batch.RespondBatch(clients, reqs, nil, oks)
	if !bytes.Equal(got, want) {
		t.Fatal("batch response slab diverges from sequential responses")
	}
	if answered != wantAnswered {
		t.Fatalf("answered = %d, want %d", answered, wantAnswered)
	}
	for i := range oks {
		if oks[i] != wantOks[i] {
			t.Fatalf("oks[%d] = %v, want %v", i, oks[i], wantOks[i])
		}
	}
	if len(capBatch) != len(capSeq) {
		t.Fatalf("capture counts differ: %d vs %d", len(capBatch), len(capSeq))
	}
	for i := range capSeq {
		if capBatch[i] != capSeq[i] {
			t.Fatalf("capture %d: %v vs %v", i, capBatch[i], capSeq[i])
		}
	}
	books := func(m *ServerMetrics) [3]int64 {
		return [3]int64{m.Requests.Value(), m.Answered.Value(), m.RateLimited.Value()}
	}
	if got, want := books(metBatch), books(metSeq); got != want {
		t.Fatalf("server books diverge: %v vs %v", got, want)
	}
}

// TestRespondBatchZeroAlloc pins the steady-state batch path — capacity
// available, no rate limiting — at zero heap allocations per call.
func TestRespondBatchZeroAlloc(t *testing.T) {
	start := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	s := NewServer(ServerConfig{
		Now:     func() time.Time { return start },
		Capture: func(netip.AddrPort, time.Time) {},
	})
	const n = 64
	tmpl := ClientPacket(start)
	ps := make([]Packet, n)
	for i := range ps {
		ps[i] = tmpl
	}
	reqs := EncodeBatch(ps, nil)
	clients := make([]netip.AddrPort, n)
	for i := range clients {
		clients[i] = netip.MustParseAddrPort("[2001:db8::1]:123")
	}
	oks := make([]bool, n)
	dst := make([]byte, 0, n*PacketSize)
	if avg := testing.AllocsPerRun(100, func() {
		out, answered := s.RespondBatch(clients, reqs, dst[:0], oks)
		if answered != n || len(out) != n*PacketSize {
			t.Fatalf("answered %d of %d", answered, n)
		}
	}); avg != 0 {
		t.Fatalf("RespondBatch allocates %.1f objects per batch", avg)
	}

	// And the codec slab paths themselves.
	scratch := make([]Packet, n)
	if avg := testing.AllocsPerRun(100, func() {
		EncodeBatch(ps, dst[:0])
		if _, err := DecodeBatch(scratch, reqs); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("codec batch paths allocate %.1f objects per slab", avg)
	}
}
