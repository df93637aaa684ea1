package query

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"ntpscan/internal/analysis"
	"ntpscan/internal/obs"
	"ntpscan/internal/store"
	"ntpscan/internal/zgrab"
)

// DefaultMaxRows caps /v1/query responses when Server.MaxRows is zero.
const DefaultMaxRows = 10000

// endpoint labels for the request counter vec, in registration order.
var endpointLabels = []string{"modules", "table2", "vantages", "prefixes", "slices", "query", "metrics"}

const (
	epModules = iota
	epTable2
	epVantages
	epPrefixes
	epSlices
	epQuery
	epMetrics
)

// Metrics are the serving layer's own observability families, kept in
// a registry separate from the campaign's so telemetry determinism is
// untouched by query traffic.
type Metrics struct {
	Requests  *obs.CounterVec
	Errors    *obs.Counter
	LatencyNs *obs.Histogram
	RowsOut   *obs.Counter
}

// latencyBounds buckets request latency from 100µs to ~1.6s in
// powers of four.
var latencyBounds = []int64{
	100_000, 400_000, 1_600_000, 6_400_000, 25_600_000, 102_400_000, 409_600_000, 1_638_400_000,
}

// NewMetrics registers the queryd families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Requests:  reg.NewCounterVec("queryd_requests_total", "Requests served, by endpoint.", "endpoint", endpointLabels),
		Errors:    reg.NewCounter("queryd_errors_total", "Requests rejected or failed."),
		LatencyNs: reg.NewHistogram("queryd_latency_ns", "Request latency in nanoseconds.", latencyBounds),
		RowsOut:   reg.NewCounter("queryd_rows_total", "Rows returned across all responses."),
	}
}

// Server serves the materialized tables and ad-hoc store scans over
// HTTP/JSON. MaxRows caps a /v1/query reply: a request with no limit,
// or a larger one, gets MaxRows rows at most, with truncated set when
// more matched. The zero MaxRows means DefaultMaxRows; Clock defaults
// to the wall clock and exists so tests and simulations can pin latency
// accounting to a logical clock.
type Server struct {
	Store   *store.Store
	Agg     *Aggregates
	Reg     *obs.Registry
	Met     *Metrics
	Clock   obs.Clock
	MaxRows int
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// NewServer wires a server over a store and its aggregates. reg may be
// nil, in which case a private registry is created (it still backs
// /metrics).
func NewServer(s *store.Store, agg *Aggregates, reg *obs.Registry) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Server{Store: s, Agg: agg, Reg: reg, Met: NewMetrics(reg), Clock: wallClock{}}
}

// Stats is the per-response accounting envelope: what the request cost
// (latency), what the scan touched versus pruned, and how much the
// block cache absorbed. Table endpoints—served from materialized
// aggregates—report only latency and row count.
type Stats struct {
	ElapsedNs     int64 `json:"elapsed_ns"`
	Rows          int64 `json:"rows"`
	Truncated     bool  `json:"truncated,omitempty"`
	Segments      int   `json:"segments,omitempty"`
	BlocksRead    int64 `json:"blocks_read,omitempty"`
	BlocksSkipped int64 `json:"blocks_skipped,omitempty"`
	BytesRead     int64 `json:"bytes_read,omitempty"`
	BytesSkipped  int64 `json:"bytes_skipped,omitempty"`
	CacheHits     int64 `json:"cache_hits,omitempty"`
	CacheMisses   int64 `json:"cache_misses,omitempty"`
}

// Response is the envelope every JSON endpoint returns.
type Response struct {
	Data  any    `json:"data"`
	Stats *Stats `json:"stats"`
}

// Handler returns the HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tables/modules", s.table(epModules, func() any { return s.Agg.Modules() }))
	mux.HandleFunc("GET /v1/tables/table2", s.table(epTable2, func() any { return s.Agg.Table2() }))
	mux.HandleFunc("GET /v1/tables/vantages", s.table(epVantages, func() any { return s.Agg.Vantages() }))
	mux.HandleFunc("GET /v1/tables/slices", s.table(epSlices, func() any { return s.Agg.Slices() }))
	mux.HandleFunc("GET /v1/tables/prefixes", s.prefixes)
	mux.HandleFunc("GET /v1/query", s.query)
	mux.HandleFunc("GET /metrics", s.metrics)
	return mux
}

// table builds a handler for an aggregate-backed endpoint.
func (s *Server) table(ep int, data func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Agg == nil {
			s.fail(w, http.StatusServiceUnavailable, "no aggregates attached")
			return
		}
		start := s.Clock.Now()
		d := data()
		s.respond(w, ep, d, &Stats{Rows: rowCount(d)}, start)
	}
}

func (s *Server) prefixes(w http.ResponseWriter, r *http.Request) {
	if s.Agg == nil {
		s.fail(w, http.StatusServiceUnavailable, "no aggregates attached")
		return
	}
	start := s.Clock.Now()
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "bad n: "+v)
			return
		}
		n = p
	}
	d := s.Agg.Prefixes(n)
	s.respond(w, epPrefixes, d, &Stats{Rows: int64(len(d))}, start)
}

// query runs an ad-hoc predicate scan with full pushdown.
func (s *Server) query(w http.ResponseWriter, r *http.Request) {
	if s.Store == nil {
		s.fail(w, http.StatusServiceUnavailable, "no store attached")
		return
	}
	start := s.Clock.Now()
	pred, limit, err := parsePred(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	maxRows := s.MaxRows
	if maxRows <= 0 {
		maxRows = DefaultMaxRows
	}
	if limit <= 0 || limit > maxRows {
		limit = maxRows
	}
	it := s.Store.Scan(pred)
	defer it.Close()
	// The body is written by hand, straight from the iterator: the bytes
	// json.Encoder would produce for a Response whose Data is a non-nil
	// slice of row structs, without building the rows or reflecting over
	// them.
	bp := bodyPool.Get().(*[]byte)
	body := append((*bp)[:0], `{"data":[`...)
	defer func() { putBody(bp, body) }()
	rows, truncated := 0, false
	for it.Next() {
		if rows >= limit {
			truncated = true
			break
		}
		if rows > 0 {
			body = append(body, ',')
		}
		body = appendQueryRow(body, it)
		rows++
	}
	if err := it.Err(); err != nil {
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	st := it.Stats()
	// The scan is over: release it before the reply is written, so a slow
	// client cannot hold back the store's Seal.
	it.Close()
	stats := &Stats{
		Rows:          int64(rows),
		Truncated:     truncated,
		Segments:      st.Segments,
		BlocksRead:    st.BlocksRead,
		BlocksSkipped: st.BlocksSkipped,
		BytesRead:     st.BytesRead,
		BytesSkipped:  st.BytesSkipped,
		CacheHits:     st.CacheHits,
		CacheMisses:   st.CacheMisses,
	}
	s.account(w, epQuery, stats, start)
	statsJSON, err := json.Marshal(stats)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	body = append(body, `],"stats":`...)
	body = append(body, statsJSON...)
	body = append(body, '}', '\n')
	if _, err := w.Write(body); err != nil {
		s.Met.Errors.Inc()
	}
}

// bodyPool recycles /v1/query body buffers, as encoding/json recycles
// its encode buffers: scan replies run to megabytes, and growing a
// fresh slice per request churns large spans for nothing.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody is the largest buffer the pool takes back. A reply is
// as large as the server's MaxRows lets it be, and a pooled buffer
// lives as long as the daemon; DefaultMaxRows rows of results come to
// about 2 MB.
const maxPooledBody = 4 << 20

// putBody hands a reply buffer back to bodyPool through bp, unless it
// has grown past maxPooledBody: that one is left to the collector.
func putBody(bp *[]byte, body []byte) (pooled bool) {
	if cap(body) > maxPooledBody {
		return false
	}
	*bp = body[:0]
	bodyPool.Put(bp)
	return true
}

// appendQueryRow appends the iterator's current row as one /v1/query
// hit in wire form:
//
//	{"kind":"capture","slice":N,"addr":"…","vantage":"…"}   vantage omitted when empty
//	{"kind":"result","slice":N,"addr":"…","result":{…}}     result as Result.AppendJSON writes it
//
// The row is never built: the store appends the address and the result
// envelope from its column vectors.
func appendQueryRow(dst []byte, it *store.Iter) []byte {
	switch it.Kind() {
	case store.KindCaptures:
		dst = append(dst, `{"kind":"capture","slice":`...)
		dst = strconv.AppendInt(dst, int64(it.Slice()), 10)
		dst = append(dst, `,"addr":`...)
		dst = it.AppendAddr(dst)
		if v := it.Vantage(); v != "" {
			dst = append(dst, `,"vantage":`...)
			dst = zgrab.AppendJSONString(dst, v)
		}
	case store.KindResults:
		dst = append(dst, `{"kind":"result","slice":`...)
		dst = strconv.AppendInt(dst, int64(it.Slice()), 10)
		dst = append(dst, `,"addr":`...)
		dst = it.AppendAddr(dst)
		dst = append(dst, `,"result":`...)
		dst = it.AppendResult(dst)
	}
	return append(dst, '}')
}

// parsePred maps query parameters onto the store predicate:
// kind=captures|results, module=... (repeatable), vantage=...
// (repeatable), prefix=2001:db8::/32, slice_lo/slice_hi, limit.
func parsePred(r *http.Request) (store.Pred, int, error) {
	var pred store.Pred
	q := r.URL.Query()
	switch k := q.Get("kind"); k {
	case "":
	case "captures":
		pred.Kind = store.KindCaptures
	case "results":
		pred.Kind = store.KindResults
	default:
		return pred, 0, fmt.Errorf("bad kind %q (want captures|results)", k)
	}
	pred.Modules = q["module"]
	pred.Vantages = q["vantage"]
	if v := q.Get("prefix"); v != "" {
		pfx, err := netip.ParsePrefix(v)
		if err != nil {
			return pred, 0, fmt.Errorf("bad prefix %q: %v", v, err)
		}
		pred.Prefix = pfx.Masked()
	}
	lo, hi := q.Get("slice_lo"), q.Get("slice_hi")
	if lo != "" || hi != "" {
		sr := store.SliceRange{Lo: 0, Hi: 1 << 30}
		if lo != "" {
			n, err := strconv.Atoi(lo)
			if err != nil {
				return pred, 0, fmt.Errorf("bad slice_lo %q", lo)
			}
			sr.Lo = n
		}
		if hi != "" {
			n, err := strconv.Atoi(hi)
			if err != nil {
				return pred, 0, fmt.Errorf("bad slice_hi %q", hi)
			}
			sr.Hi = n
		}
		pred.Slices = &sr
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return pred, 0, fmt.Errorf("bad limit %q", v)
		}
		limit = n
	}
	return pred, limit, nil
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	s.Met.Requests.Inc(epMetrics)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.Reg.WritePrometheus(w); err != nil {
		s.Met.Errors.Inc()
	}
}

// account closes a request's books — elapsed time, endpoint, latency
// and row counters — and sets the JSON content type; the caller writes
// the body.
func (s *Server) account(w http.ResponseWriter, ep int, stats *Stats, start time.Time) {
	stats.ElapsedNs = s.Clock.Now().Sub(start).Nanoseconds()
	s.Met.Requests.Inc(ep)
	s.Met.LatencyNs.Observe(stats.ElapsedNs)
	s.Met.RowsOut.Add(stats.Rows)
	w.Header().Set("Content-Type", "application/json")
}

// respond answers a table endpoint.
func (s *Server) respond(w http.ResponseWriter, ep int, data any, stats *Stats, start time.Time) {
	s.account(w, ep, stats, start)
	if err := json.NewEncoder(w).Encode(Response{Data: data, Stats: stats}); err != nil {
		s.Met.Errors.Inc()
	}
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.Met.Errors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func rowCount(d any) int64 {
	switch v := d.(type) {
	case []ModuleRow:
		return int64(len(v))
	case []VantageRow:
		return int64(len(v))
	case []SliceRow:
		return int64(len(v))
	case []PrefixRow:
		return int64(len(v))
	case []analysis.Table2Row:
		return int64(len(v))
	}
	return 0
}
