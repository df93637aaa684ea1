package store_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"
	"time"

	"ntpscan/internal/query"
	"ntpscan/internal/store"
	"ntpscan/internal/zgrab"
)

// spliceResult builds a Result from FuzzResultAppendJSON's scalars, the
// way internal/zgrab's fuzzResult does — same arguments, same order, so
// that target's corpus files are inputs of this one. Every string field
// is one of s0..s2, every number a truncation of n.
func spliceResult(shape uint8, flag bool, ip []byte, zone string, sec, nsec int64, off int32,
	sec2 int64, off2 int32, n int64, s0, s1, s2 string) *zgrab.Result {
	const (
		fzHTTP = 1 << iota
		fzTLS
		fzSSH
		fzMQTT
		fzAMQP
		fzCoAP
		fzResources
		fzZeroTime
	)
	at := func(sec int64, off int32) time.Time {
		t := time.Unix(sec, nsec).UTC()
		if off != 0 {
			t = t.In(time.FixedZone("", int(off)))
		}
		return t
	}
	addr, _ := netip.AddrFromSlice(ip)
	if zone != "" {
		addr = addr.WithZone(zone)
	}
	when := at(sec, off)
	if shape&fzZeroTime != 0 {
		when = time.Time{}
	}
	r := &zgrab.Result{
		IP: addr, Module: s0, Port: uint16(n), Time: when,
		Status: zgrab.Status(s1), Error: s2, Attempts: int(n >> 16), Seq: n,
	}
	if shape&fzHTTP != 0 {
		r.HTTP = &zgrab.HTTPGrab{StatusCode: int(n), Title: s0, Server: s1}
	}
	if shape&fzTLS != 0 {
		r.TLS = &zgrab.TLSGrab{
			Version: s2, HandshakeOK: flag, Alert: s0, CertFingerprint: s1, Subject: s2,
			Issuer: s0, SelfSigned: !flag, KeyID: s1, NotBefore: at(sec2, off2), NotAfter: when,
		}
	}
	if shape&fzSSH != 0 {
		r.SSH = &zgrab.SSHGrab{ServerID: s0, Software: s1, OS: s2, KeyType: s0, KeyFingerprint: s1}
	}
	if shape&fzMQTT != 0 {
		r.MQTT = &zgrab.MQTTGrab{ReturnCode: byte(n), Open: flag}
	}
	if shape&fzAMQP != 0 {
		r.AMQP = &zgrab.AMQPGrab{Product: s2, Mechanisms: s0, Open: !flag, CloseCode: uint16(n >> 8)}
	}
	if shape&fzCoAP != 0 {
		r.CoAP = &zgrab.CoAPGrab{Code: s1}
		switch {
		case shape&fzResources != 0:
			r.CoAP.Resources = []string{s0, s1}
		case flag:
			r.CoAP.Resources = []string{}
		}
	}
	return r
}

// FuzzSpliceMatchesAppendJSON is the differential target behind the
// column writer. Rows that exist as structs are encoded by
// Result.AppendJSON (refereed against encoding/json by
// FuzzResultAppendJSON); rows that exist as vectors by the store's
// appendResult, which never builds the struct. Here a fuzzed result is
// appended, and for what comes back the two must agree byte for byte:
// ExportJSONL's lines are AppendJSON of the rows Row() builds from the
// same block, and so are /v1/query's, inside the row shape encoding/json
// gives them. Three rows go in — the fuzzed one, one sharing its
// address and time and one sharing neither — so the writer's memo of
// the last address and time is crossed both ways, and a capture, for
// the other row shape. The corpus is FuzzResultAppendJSON's: one input
// per encoding rule.
func FuzzSpliceMatchesAppendJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint8, flag bool, ip []byte, zone string, sec, nsec int64, off int32,
		sec2 int64, off2 int32, n int64, s0, s1, s2 string) {
		r := spliceResult(shape, flag, ip, zone, sec, nsec, off, sec2, off2, n, s0, s1, s2)
		same, other := *r, *r
		same.Module, same.Error, same.HTTP, same.TLS = s1, "", nil, nil
		otherIP := r.IP.As16()
		otherIP[15]++
		other.IP, other.Time, other.Attempts = netip.AddrFrom16(otherIP), r.Time.Add(time.Nanosecond), 0
		slice := int(uint8(n))

		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		caps := []store.CaptureRow{{Addr: r.IP, Vantage: s0}}
		if err := st.AppendSlice(slice, caps, []*zgrab.Result{r, &same, &other}); err != nil {
			// The store refuses what the grab encoder refuses (a TLS
			// validity time RFC 3339 cannot express), nothing else.
			if _, gerr := r.AppendGrabs(nil); gerr == nil {
				t.Fatalf("AppendSlice: %v, but AppendGrabs takes the row", err)
			}
			return
		}

		// The reference: every row as Row() builds it, encoded by the
		// struct encoders.
		type queryRow struct {
			Kind    string        `json:"kind"`
			Slice   int           `json:"slice"`
			Addr    netip.Addr    `json:"addr"`
			Vantage string        `json:"vantage,omitempty"`
			Result  *zgrab.Result `json:"result,omitempty"`
		}
		var wantRows []queryRow
		var wantLines []byte
		it := st.Scan(store.Pred{})
		for it.Next() {
			switch row := it.Row(); row.Kind {
			case store.KindCaptures:
				wantRows = append(wantRows, queryRow{Kind: "capture", Slice: row.Slice, Addr: row.Capture.Addr, Vantage: row.Capture.Vantage})
			case store.KindResults:
				wantRows = append(wantRows, queryRow{Kind: "result", Slice: row.Slice, Addr: row.Result.IP, Result: row.Result})
				if wantLines, err = row.Result.AppendJSON(wantLines); err != nil {
					t.Fatalf("AppendJSON refuses a row the store built: %v", err)
				}
				wantLines = append(wantLines, '\n')
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if len(wantRows) != 4 {
			t.Fatalf("scan returned %d rows of 4", len(wantRows))
		}

		var got bytes.Buffer
		if err := st.ExportJSONL(&got, store.Pred{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantLines) {
			t.Fatalf("ExportJSONL differs from AppendJSON of the rows:\n got %s\nwant %s", got.Bytes(), wantLines)
		}

		rec := httptest.NewRecorder()
		query.NewServer(st, nil, nil).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/query: status %d: %s", rec.Code, rec.Body)
		}
		body := rec.Body.Bytes()
		if !json.Valid(body) {
			t.Fatalf("/v1/query body is not JSON: %s", body)
		}
		want, err := json.Marshal(wantRows)
		if err != nil {
			t.Fatal(err)
		}
		const head = `{"data":`
		end := bytes.LastIndex(body, []byte(`,"stats":`))
		if !bytes.HasPrefix(body, []byte(head)) || end < 0 || !bytes.Equal(body[len(head):end], want) {
			t.Fatalf("/v1/query rows differ from encoding/json's:\n got %s\nwant %s", body, want)
		}
	})
}
