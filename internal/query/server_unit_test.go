package query

import (
	"bytes"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"

	"ntpscan/internal/store"
	"ntpscan/internal/zgrab"
)

// These are white-box unit tests for the request-parsing and
// degraded-configuration branches; the black-box end-to-end coverage
// lives in query_test.go.

func TestParsePred(t *testing.T) {
	cases := []struct {
		url     string
		want    store.Pred
		limit   int
		errPart string
	}{
		{url: "/v1/query", want: store.Pred{}},
		{url: "/v1/query?kind=captures", want: store.Pred{Kind: store.KindCaptures}},
		{url: "/v1/query?kind=results", want: store.Pred{Kind: store.KindResults}},
		{url: "/v1/query?kind=bogus", errPart: "bad kind"},
		{url: "/v1/query?module=http&module=ssh", want: store.Pred{Modules: []string{"http", "ssh"}}},
		{url: "/v1/query?vantage=DE", want: store.Pred{Vantages: []string{"DE"}}},
		{url: "/v1/query?prefix=2001:db8::1/48", want: store.Pred{Prefix: netip.MustParsePrefix("2001:db8::/48")}},
		{url: "/v1/query?prefix=nonsense", errPart: "bad prefix"},
		{url: "/v1/query?slice_lo=3", want: store.Pred{Slices: &store.SliceRange{Lo: 3, Hi: 1 << 30}}},
		{url: "/v1/query?slice_hi=9", want: store.Pred{Slices: &store.SliceRange{Lo: 0, Hi: 9}}},
		{url: "/v1/query?slice_lo=2&slice_hi=5", want: store.Pred{Slices: &store.SliceRange{Lo: 2, Hi: 5}}},
		{url: "/v1/query?slice_lo=x", errPart: "bad slice_lo"},
		{url: "/v1/query?slice_hi=x", errPart: "bad slice_hi"},
		{url: "/v1/query?limit=17", want: store.Pred{}, limit: 17},
		{url: "/v1/query?limit=-1", errPart: "bad limit"},
		{url: "/v1/query?limit=x", errPart: "bad limit"},
	}
	for _, tc := range cases {
		pred, limit, err := parsePred(httptest.NewRequest("GET", tc.url, nil))
		if tc.errPart != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("%s: err = %v, want %q", tc.url, err, tc.errPart)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.url, err)
			continue
		}
		if limit != tc.limit {
			t.Errorf("%s: limit = %d, want %d", tc.url, limit, tc.limit)
		}
		if pred.Kind != tc.want.Kind || pred.Prefix != tc.want.Prefix {
			t.Errorf("%s: pred = %+v, want %+v", tc.url, pred, tc.want)
		}
		if strings.Join(pred.Modules, ",") != strings.Join(tc.want.Modules, ",") ||
			strings.Join(pred.Vantages, ",") != strings.Join(tc.want.Vantages, ",") {
			t.Errorf("%s: pred = %+v, want %+v", tc.url, pred, tc.want)
		}
		if (pred.Slices == nil) != (tc.want.Slices == nil) {
			t.Errorf("%s: slices = %v, want %v", tc.url, pred.Slices, tc.want.Slices)
		} else if pred.Slices != nil && *pred.Slices != *tc.want.Slices {
			t.Errorf("%s: slices = %v, want %v", tc.url, *pred.Slices, *tc.want.Slices)
		}
	}
}

func TestServerDegraded(t *testing.T) {
	// A server with neither store nor aggregates must answer every
	// endpoint with a clean error, not a panic.
	srv := NewServer(nil, nil, nil)
	h := srv.Handler()
	for _, url := range []string{
		"/v1/tables/modules", "/v1/tables/table2", "/v1/tables/vantages",
		"/v1/tables/slices", "/v1/tables/prefixes", "/v1/query",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 503 {
			t.Errorf("%s: code = %d, want 503", url, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "error") {
			t.Errorf("%s: body = %s", url, rec.Body.String())
		}
	}
	// /metrics still works: the private registry serves the queryd
	// families even with nothing attached.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "queryd_requests_total") {
		t.Errorf("/metrics: %d %s", rec.Code, rec.Body.String())
	}
}

func TestPrefixesBadN(t *testing.T) {
	srv := NewServer(nil, NewAggregates(), nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tables/prefixes?n=x", nil))
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "bad n") {
		t.Errorf("prefixes?n=x: %d %s", rec.Code, rec.Body.String())
	}
}

// bodyPool takes back only buffers a steady mix could have grown: one
// reply as large as a raised MaxRows lets it be must not stay resident.
func TestPutBodyDropsOversizedBuffers(t *testing.T) {
	for _, tc := range []struct {
		cap    int
		pooled bool
	}{
		{0, true},
		{2 << 20, true},
		{maxPooledBody, true},
		{maxPooledBody + 1, false},
		{64 << 20, false},
	} {
		bp := new([]byte)
		body := make([]byte, min(9, tc.cap), tc.cap)
		if got := putBody(bp, body); got != tc.pooled {
			t.Errorf("putBody(cap %d) pooled = %v, want %v", cap(body), got, tc.pooled)
		} else if got && (len(*bp) != 0 || cap(*bp) != cap(body)) {
			t.Errorf("putBody(cap %d) pooled a buffer of len %d cap %d", cap(body), len(*bp), cap(*bp))
		} else if !got && *bp != nil {
			t.Errorf("putBody(cap %d) kept the buffer it refused", cap(body))
		}
	}
}

func TestRowCount(t *testing.T) {
	if n := rowCount([]ModuleRow{{}, {}}); n != 2 {
		t.Errorf("ModuleRow: %d", n)
	}
	if n := rowCount([]VantageRow{{}}); n != 1 {
		t.Errorf("VantageRow: %d", n)
	}
	if n := rowCount([]SliceRow{{}, {}, {}}); n != 3 {
		t.Errorf("SliceRow: %d", n)
	}
	if n := rowCount([]PrefixRow{}); n != 0 {
		t.Errorf("PrefixRow: %d", n)
	}
	if n := rowCount("not a table"); n != 0 {
		t.Errorf("default: %d", n)
	}
}

func TestAggregatesRestoreRejectsBadState(t *testing.T) {
	for _, raw := range []string{
		`{"modules":{"http":{"addrs":["not-an-addr"]}}}`,
		`{"vantages":{"DE":{"addrs":["nope"]}}}`,
		`{"nets48":{"bogus-prefix":{}}}`,
		`{"nets48":{"2001:db8::/48":{"addrs":["bad"]}}}`,
		`{"slices":{"notanint":{}}}`,
		`{"table2":[{}]}`,
	} {
		a := NewAggregates()
		if err := a.Restore([]byte(raw)); err == nil {
			t.Errorf("Restore(%s) accepted", raw)
		}
	}
}

// No campaign restores a snapshot any more, so the round trip is held
// here: Restore(Snapshot(a)) snapshots to the same bytes.
func TestAggregatesRestoreRoundTrip(t *testing.T) {
	a := NewAggregates()
	addr := netip.MustParseAddr("2001:db8:1::7")
	err := a.AggregateSlice(3,
		[]store.CaptureRow{{Addr: addr, Vantage: "DE"}},
		[]*zgrab.Result{
			{IP: addr, Module: "ssh", Status: zgrab.StatusSuccess, SSH: &zgrab.SSHGrab{ServerID: "SSH-2.0-OpenSSH_9.6"}},
			{IP: addr, Module: "http", Status: zgrab.StatusTimeout},
		})
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := NewAggregates()
	if err := b.Restore(want); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Snapshot(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restored snapshot (err %v):\n got  %s\n want %s", err, got, want)
	}
}
