package query_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ntpscan/internal/query"
	"ntpscan/internal/store"
	"ntpscan/internal/zgrab"
)

// queryRow is one /v1/query hit as the struct encoding/json reflects
// over. The server writes these bytes by hand (appendQueryRow); the
// struct is the reference TestQueryBodyMatchesEncodingJSON compares
// against, and what tests decode rows into.
type queryRow struct {
	Kind    string        `json:"kind"`
	Slice   int           `json:"slice"`
	Addr    string        `json:"addr,omitempty"`
	Vantage string        `json:"vantage,omitempty"`
	Result  *zgrab.Result `json:"result,omitempty"`
}

// escapeStore holds two slices of rows that exercise every branch of
// the hand-written body: captures with plain, empty and
// escape-needing vantages, and results of every grab kind with
// strings encoding/json escapes.
func escapeStore(t testing.TB) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2024, 7, 20, 0, 0, 0, 123456789, time.UTC)
	for sl := 0; sl < 2; sl++ {
		caps := []store.CaptureRow{
			{Addr: mkAddr(sl*8 + 1), Vantage: "DE"},
			{Addr: mkAddr(sl*8 + 2), Vantage: ""},
			{Addr: mkAddr(sl*8 + 3), Vantage: "<U&S> \"\xff"},
		}
		results := []*zgrab.Result{
			{Module: "http", Status: zgrab.StatusTimeout, Error: "dial <tcp>: \"i/o\" timeout", Attempts: 3},
			{Module: "http", Status: zgrab.StatusSuccess, HTTP: &zgrab.HTTPGrab{StatusCode: 200, Title: "R&D <b> </b>", Server: "nginx"}},
			{Module: "https", Status: zgrab.StatusSuccess, TLS: &zgrab.TLSGrab{Version: "TLSv1.3", HandshakeOK: true, SelfSigned: true, NotBefore: at, NotAfter: at.AddDate(1, 0, 0)}},
			{Module: "ssh", Status: zgrab.StatusSuccess, SSH: &zgrab.SSHGrab{ServerID: "SSH-2.0-x\x01", Software: "x\\y"}},
			{Module: "mqtt", Status: zgrab.StatusSuccess, MQTT: &zgrab.MQTTGrab{ReturnCode: 5}},
			{Module: "amqp", Status: zgrab.StatusSuccess, AMQP: &zgrab.AMQPGrab{Product: "Rabbit\tMQ", Open: true, CloseCode: 403}},
			{Module: "coap", Status: zgrab.StatusSuccess, CoAP: &zgrab.CoAPGrab{Code: "2.05", Resources: []string{"/a", "</b>"}}},
		}
		for i, r := range results {
			r.IP, r.Port, r.Seq = mkAddr(sl*8+i), uint16(80+i), int64(sl*100+i)
			r.Time = at.Add(time.Duration(sl*1000+i) * time.Millisecond)
		}
		if err := st.AppendSlice(sl, caps, results); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// The /v1/query body is appended by hand; it must be, byte for byte,
// what json.Encoder writes for Response{Data: []queryRow, Stats}: the
// form the server produced when it built the rows and reflected over
// them. Covers captures and results mixed, one kind, a truncated
// reply, a limit above the server's cap (cut to the cap, truncated),
// and no rows at all ("data":[], never null).
func TestQueryBodyMatchesEncodingJSON(t *testing.T) {
	st := escapeStore(t)
	srv := query.NewServer(st, nil, nil)
	h := srv.Handler()
	for _, tc := range []struct {
		url     string
		pred    store.Pred
		max     int // the limit the reply is cut at
		rows    int // rows the reply must carry
		maxRows int // the server's cap (0: the default)
	}{
		{"/v1/query", store.Pred{}, 1 << 30, 20, 0},
		{"/v1/query?kind=captures", store.Pred{Kind: store.KindCaptures}, 1 << 30, 6, 0},
		{"/v1/query?kind=results&module=https&module=coap", store.Pred{Kind: store.KindResults, Modules: []string{"https", "coap"}}, 1 << 30, 4, 0},
		{"/v1/query?limit=5", store.Pred{}, 5, 5, 0},
		{"/v1/query?limit=1", store.Pred{}, 1, 1, 0},
		{"/v1/query?limit=100000000", store.Pred{}, 3, 3, 3},
		{"/v1/query?kind=results&module=nosuch", store.Pred{Kind: store.KindResults, Modules: []string{"nosuch"}}, 1 << 30, 0, 0},
		{"/v1/query?slice_lo=7", store.Pred{Slices: &store.SliceRange{Lo: 7, Hi: 1 << 30}}, 1 << 30, 0, 0},
	} {
		srv.MaxRows = tc.maxRows
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", tc.url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.url, rec.Code, rec.Body)
		}
		got := rec.Body.Bytes()

		// The reference: rows built as structs, the reply's own stats
		// (cache counters and elapsed time belong to the request).
		var env struct {
			Stats *query.Stats `json:"stats"`
		}
		if err := json.Unmarshal(got, &env); err != nil {
			t.Fatalf("%s: body is not JSON: %v\n%s", tc.url, err, got)
		}
		rows, truncated := []queryRow{}, false
		it := st.Scan(tc.pred)
		for it.Next() {
			if len(rows) >= tc.max {
				truncated = true
				break
			}
			row := it.Row()
			qr := queryRow{Slice: row.Slice}
			switch row.Kind {
			case store.KindCaptures:
				qr.Kind, qr.Addr, qr.Vantage = "capture", row.Capture.Addr.String(), row.Capture.Vantage
			case store.KindResults:
				qr.Kind, qr.Addr, qr.Result = "result", row.Result.IP.String(), row.Result
			}
			rows = append(rows, qr)
		}
		it.Close()
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if env.Stats == nil || env.Stats.Rows != int64(len(rows)) || env.Stats.Truncated != truncated || len(rows) != tc.rows {
			t.Fatalf("%s: stats %+v for %d reference rows (truncated %v), want %d rows", tc.url, env.Stats, len(rows), truncated, tc.rows)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(query.Response{Data: rows, Stats: env.Stats}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: body differs from encoding/json's\n got %s\nwant %s", tc.url, got, want.Bytes())
		}
	}
}

// discard is the cheapest ResponseWriter: the handler's own
// allocations are what the pin below counts.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// A scan request costs a fixed number of allocations — not a row struct,
// an address string and a reflective walk per row. Ten times the rows
// from a warm cache may add per-block iterator state (and, until the
// pooled body buffer has grown, a few doublings), nothing per row; and
// a selective window — thousands of rows examined in the cached
// vectors, hundreds returned — costs what its first row alone costs,
// proportional to neither.
func TestQueryScanAllocsNotPerRow(t *testing.T) {
	st := buildStore(t, t.TempDir(), 16, 400)
	h := query.NewServer(st, nil, nil).Handler()
	allocs := func(url string) float64 {
		req := httptest.NewRequest("GET", url, nil)
		w := &discard{h: http.Header{}}
		h.ServeHTTP(w, req) // fill the block cache
		return testing.AllocsPerRun(20, func() { h.ServeHTTP(w, req) })
	}
	few, many := allocs("/v1/query?kind=results&limit=100"), allocs("/v1/query?kind=results&limit=1000")
	t.Logf("allocs per request: %.0f for 100 rows, %.0f for 1000", few, many)
	if many-few > 20 {
		t.Fatalf("900 more rows cost %.0f more allocations (%.0f vs %.0f): the handler allocates per row", many-few, many, few)
	}

	// Slices 4–11 straddle the two compacted segments: 6 400 result rows
	// examined, the 800 ssh rows of the window returned.
	const window = "/v1/query?kind=results&module=ssh&slice_lo=4&slice_hi=11"
	var stats struct {
		Stats query.Stats `json:"stats"`
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", window, nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil || stats.Stats.Rows != 800 {
		t.Fatalf("%s: %d rows (err %v), want 800", window, stats.Stats.Rows, err)
	}
	one, all := allocs(window+"&limit=1"), allocs(window)
	t.Logf("allocs per request: %.0f for the window's first row, %.0f for all 800", one, all)
	if all-one > 20 {
		t.Fatalf("the whole window costs %.0f more allocations than its first row (%.0f vs %.0f)", all-one, all, one)
	}
}
