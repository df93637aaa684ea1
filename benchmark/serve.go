package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"net/url"
	"strconv"
	"sync"
	"time"

	"ntpscan/internal/core"
	"ntpscan/internal/query"
	"ntpscan/internal/rng"
	"ntpscan/internal/store"
)

// The serving mix. Both serve workloads alternate a table endpoint
// (answered from query.Aggregates, store idle) with an ad-hoc scan
// (store.Scan, both caches, JSON encoding of the hits).
var tableURLs = []string{
	"/v1/tables/modules",
	"/v1/tables/table2",
	"/v1/tables/vantages",
	"/v1/tables/slices",
	"/v1/tables/prefixes?n=10",
}

const (
	// scanWindow is the slice span of the windowed scans.
	scanWindow = 8
	// serve_sealed scans eleven fixed windows per kind, starting at
	// slices 4, 12, … 84: each straddles two of the twelve compacted
	// segments, together they cover the campaign, and with the prefix
	// scan they make 34 distinct URLs, few enough that every one is
	// repeated hundreds of times. The windows are fixed, not drawn: a
	// campaign's early slices hold twice the rows of its late ones, so
	// six drawn windows moved the median scan by 20 % from seed to seed.
	firstWindow   = 4
	windowStep    = 8
	scanVantage   = "DE"
	httpScanLimit = 500
)

// scanSpec is one ad-hoc scan: the URL a client sends and the
// predicate and row cap it stands for, kept side by side so expected
// row counts come from direct store calls, not from parsing the URL
// the way the server does.
type scanSpec struct {
	url   string
	pred  store.Pred
	limit int
}

// Scan kinds of the mix.
const (
	scanSSH = iota
	scanHTTP
	scanCaptures
	scanPrefix
)

// scanDraw weights the kinds: of twenty scans twelve are ssh windows,
// three http, three captures and two the prefix. The kinds differ
// tenfold in cost (a capture window is cheapest, the prefix scan
// dearest), so with equal shares the median scan sits on the boundary
// between two kinds and jumps with the seed. With these shares the
// median falls a third of the way into the ssh windows — the selective
// scan ROADMAP item 4 is about — and p95 in the middle of the prefix
// scans.
var scanDraw = [20]int{
	scanSSH, scanSSH, scanSSH, scanSSH, scanSSH, scanSSH, scanSSH, scanSSH, scanSSH, scanSSH, scanSSH, scanSSH,
	scanHTTP, scanHTTP, scanHTTP, scanCaptures, scanCaptures, scanCaptures, scanPrefix, scanPrefix,
}

func drawKind(r *rng.Stream) int { return scanDraw[r.Intn(len(scanDraw))] }

// windowScan builds the scan of one kind over slices [lo, lo+7].
func windowScan(kind, lo int) scanSpec {
	hi := lo + scanWindow - 1
	sr := &store.SliceRange{Lo: lo, Hi: hi}
	q := url.Values{"slice_lo": {strconv.Itoa(lo)}, "slice_hi": {strconv.Itoa(hi)}}
	s := scanSpec{pred: store.Pred{Slices: sr}}
	switch kind {
	case scanSSH:
		q.Set("module", "ssh")
		s.pred.Modules = []string{"ssh"}
	case scanHTTP:
		q.Set("module", "http")
		q.Set("limit", strconv.Itoa(httpScanLimit))
		s.pred.Modules = []string{"http"}
		s.limit = httpScanLimit
	case scanCaptures:
		q.Set("kind", "captures")
		q.Set("vantage", scanVantage)
		s.pred.Kind = store.KindCaptures
		s.pred.Vantages = []string{scanVantage}
	}
	s.url = "/v1/query?" + q.Encode()
	return s
}

// sealedWindows lists the first slices of serve_sealed's scan windows.
func sealedWindows() []int {
	var los []int
	for lo := firstWindow; lo+scanWindow <= core.CollectSlices; lo += windowStep {
		los = append(los, lo)
	}
	return los
}

// scanSchedule is serve_sealed's scan mix: the fixed windows per scan
// kind and the /32 around the busiest captured /48, drawn by kind with
// scanDraw's weights.
type scanSchedule struct {
	all    []scanSpec // every distinct scan
	byKind [scanPrefix + 1][]scanSpec
}

func newScanSchedule(agg *query.Aggregates) (*scanSchedule, error) {
	top := agg.Prefixes(1)
	if len(top) == 0 {
		return nil, fmt.Errorf("sealed store has no captured prefixes")
	}
	ps, err := prefixScan(top[0].Prefix)
	if err != nil {
		return nil, err
	}
	s := &scanSchedule{}
	for kind := scanSSH; kind <= scanCaptures; kind++ {
		for _, lo := range sealedWindows() {
			s.byKind[kind] = append(s.byKind[kind], windowScan(kind, lo))
		}
	}
	s.byKind[scanPrefix] = []scanSpec{ps}
	for _, scans := range s.byKind {
		s.all = append(s.all, scans...)
	}
	return s, nil
}

// draw picks a scan with the mix's weights.
func (s *scanSchedule) draw(r *rng.Stream) scanSpec { return rng.Pick(r, s.byKind[drawKind(r)]) }

// nth walks the mix deterministically: the same weights, every window
// in turn.
func (s *scanSchedule) nth(i int) scanSpec {
	scans := s.byKind[scanDraw[i%len(scanDraw)]]
	return scans[i/len(scanDraw)%len(scans)]
}

// prefixScan builds the scan of everything inside the /32 around a
// captured /48.
func prefixScan(captured48 string) (scanSpec, error) {
	p48, err := netip.ParsePrefix(captured48)
	if err != nil {
		return scanSpec{}, err
	}
	p32, err := p48.Addr().Prefix(32)
	if err != nil {
		return scanSpec{}, err
	}
	return scanSpec{
		url:  "/v1/query?" + url.Values{"prefix": {p32.String()}}.Encode(),
		pred: store.Pred{Prefix: p32},
	}, nil
}

// serveLoopback serves h on an OS-assigned loopback port. stop shuts
// the server down and waits for its handlers.
func serveLoopback(h http.Handler) (base string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(l) // returns ErrServerClosed on Shutdown
		close(done)
	}()
	return "http://" + l.Addr().String(), func() {
		srv.Shutdown(context.Background())
		<-done
	}, nil
}

// reply is one answered request, as the client saw it.
type reply struct {
	start   time.Time
	latency time.Duration
	data    []byte // the envelope's data value
	stats   query.Stats
}

var statsKey = []byte(`,"stats":`)

// get issues one request and splits the response envelope
// {"data":…,"stats":{…}} without decoding data: scan replies run to
// megabytes, and decoding them here would load the very processors the
// server under test needs.
func get(hc *http.Client, base, path string) (reply, error) {
	r := reply{start: time.Now()}
	resp, err := hc.Get(base + path)
	if err != nil {
		return r, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(r.start)
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	body = bytes.TrimRight(body, "\n")
	i := bytes.LastIndex(body, statsKey)
	const head = `{"data":`
	if i < len(head) || !bytes.HasPrefix(body, []byte(head)) || len(body) == 0 || body[len(body)-1] != '}' {
		return r, fmt.Errorf("%s: response is not a data/stats envelope", path)
	}
	r.data = body[len(head):i]
	if err := json.Unmarshal(body[i+len(statsKey):len(body)-1], &r.stats); err != nil {
		return r, fmt.Errorf("%s: stats envelope: %w", path, err)
	}
	return r, nil
}

// reqSample is one request's timings.
type reqSample struct {
	scan      bool
	latencyNs int64
	serverNs  int64 // the envelope's elapsed_ns
}

// clientLog is one client goroutine's private tally, merged after the
// clients stop.
type clientLog struct {
	samples   []reqSample
	attempted int
	failures  []string
}

func (l *clientLog) fail(format string, args ...any) {
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
}

// span records the request with the server-reported elapsed_ns as its
// child.
func (r reply) span(rec *recorder, parent int64, name string) {
	if rec != nil {
		id := rec.add(name, parent, r.start, r.start.Add(r.latency))
		rec.add("server.elapsed", id, r.start, r.start.Add(time.Duration(r.stats.ElapsedNs)))
	}
}

// note files an answered request.
func (l *clientLog) note(rec *recorder, parent int64, scan bool, r reply) {
	l.samples = append(l.samples, reqSample{scan: scan, latencyNs: r.latency.Nanoseconds(), serverNs: r.stats.ElapsedNs})
	name := "request.table"
	if scan {
		name = "request.scan"
	}
	r.span(rec, parent, name)
}

// merge folds client logs into the workload's books.
func (b *base) merge(logs []*clientLog) {
	for _, l := range logs {
		b.attempted += l.attempted
		for _, f := range l.failures {
			b.failf("%s", f)
		}
		for _, s := range l.samples {
			ms := float64(s.latencyNs) / 1e6
			stackUs := float64(s.latencyNs-s.serverNs) / 1e3
			if s.scan {
				b.add("scan_ms", ms)
				b.add("scan_stack_us", stackUs)
			} else {
				b.add("table_ms", ms)
				b.add("table_stack_us", stackUs)
			}
		}
	}
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
}

// serveReport is the four serving metrics both serve workloads report.
func (b *base) serveReport(requests int, seconds float64) map[string]float64 {
	m := map[string]float64{}
	if requests == 0 || seconds == 0 {
		return m
	}
	m["query_rps"] = float64(requests) / seconds
	m["table_p95_ms"] = summarize(b.series["table_ms"]).Tail
	sc := summarize(b.series["scan_ms"])
	m["scan_p50_ms"] = sc.Median
	m["scan_p95_ms"] = sc.Tail
	return m
}

// ---- serve_sealed ----

type sealedWorkload struct {
	base
	d *durableRun
	// baseURL and stop belong to the long-lived warm-phase server.
	baseURL string
	stop    func()
	// sched is the scan schedule, scans its distinct scans.
	sched *scanSchedule
	scans []scanSpec
	// wantTable maps a table URL to the JSON its data must be; wantRows
	// a scan URL to its row count. Both come from direct calls on the
	// aggregates and the store at set-up.
	wantTable map[string][]byte
	wantRows  map[string]int64

	// clients are the warm phase's HTTP clients, one per closed-loop
	// client, each with its request counter and schedule stream.
	clients []*warmClient

	warmRequests int
	warmSeconds  float64
	warmMallocs  uint64
}

type warmClient struct {
	hc *http.Client
	r  *rng.Stream
	i  int
}

func (w *sealedWorkload) name() string { return wSealed }
func (w *sealedWorkload) acct() *base  { return &w.base }

func (w *sealedWorkload) throughput() (ops, seconds float64) {
	return float64(w.warmRequests), w.warmSeconds
}

const (
	// coldShare is the part of each measuring turn spent on cold passes.
	coldShare = 0.2
	// warmWindow is how long the clients run between two calibration
	// samples.
	warmWindow = time.Second
)

func (w *sealedWorkload) setup() error {
	d, err := w.e.newDurableRun(w.e.workers)
	if err != nil {
		return err
	}
	w.d = d
	if _, err := d.p.RunCampaign(context.Background(), core.CampaignOpts{Store: d.st, Aggregates: d.agg}); err != nil {
		return fmt.Errorf("store-building campaign: %w", err)
	}

	if w.sched, err = newScanSchedule(d.agg); err != nil {
		return err
	}
	w.scans = w.sched.all

	// Expected answers by direct calls. The scans also fill the block
	// cache of the handle the warm phase serves from, so the warm phase
	// starts warm.
	w.wantRows = map[string]int64{}
	var total int64
	for _, s := range w.scans {
		n, err := countRows(d.st, s)
		if err != nil {
			return err
		}
		w.wantRows[s.url] = n
		total += n
	}
	if total == 0 {
		return fmt.Errorf("no scan of the schedule matches a row; the scans would measure nothing")
	}
	w.wantTable = map[string][]byte{}
	for u, v := range map[string]any{
		tableURLs[0]: d.agg.Modules(),
		tableURLs[1]: d.agg.Table2(),
		tableURLs[2]: d.agg.Vantages(),
		tableURLs[3]: d.agg.Slices(),
		tableURLs[4]: d.agg.Prefixes(10),
	} {
		if w.wantTable[u], err = json.Marshal(v); err != nil {
			return err
		}
	}

	w.clients = make([]*warmClient, w.e.workers)
	for c := range w.clients {
		w.clients[c] = &warmClient{hc: newHTTPClient(), r: rng.New(w.e.seed^0xc11e47).DeriveIndexed("client", c)}
	}
	w.baseURL, w.stop, err = serveLoopback(query.NewServer(d.st, d.agg, nil).Handler())
	return err
}

// countRows is the row count a scan must return: the matching rows,
// capped like the server caps them.
func countRows(st *store.Store, s scanSpec) (int64, error) {
	it := st.Scan(s.pred)
	defer it.Close()
	limit := int64(s.limit)
	if limit <= 0 {
		limit = query.DefaultMaxRows
	}
	var n int64
	for n < limit && it.Next() {
		n++
	}
	return n, it.Err()
}

func (w *sealedWorkload) teardown() {
	for _, c := range w.clients {
		c.hc.CloseIdleConnections()
	}
	w.clients = nil
	if w.stop != nil {
		w.stop()
		w.stop = nil
	}
	if w.d != nil {
		w.d.remove()
		w.d = nil
	}
}

// check holds a reply to the set-up's expectations.
func (w *sealedWorkload) check(path string, scan bool, r reply) error {
	if scan {
		if want := w.wantRows[path]; r.stats.Rows != want {
			return fmt.Errorf("%s: %d rows, direct scan gives %d", path, r.stats.Rows, want)
		}
		return nil
	}
	if !bytes.Equal(r.data, w.wantTable[path]) {
		return fmt.Errorf("%s: body differs from the aggregates' direct answer", path)
	}
	return nil
}

func (w *sealedWorkload) run(until time.Time) error {
	start := time.Now()
	coldUntil := start.Add(time.Duration(coldShare * float64(until.Sub(start))))
	w.calibrate()
	for first := true; first || time.Now().Before(coldUntil); first = false {
		if err := w.coldPass(); err != nil {
			return err
		}
	}
	w.calibrate()
	// The warm phase runs in windows with a calibration sample between
	// them; the clients keep their connections across windows.
	for first := true; first || time.Now().Before(until); first = false {
		end := time.Now().Add(warmWindow)
		if end.After(until) {
			end = until
		}
		if err := w.warm(end); err != nil {
			return err
		}
		w.calibrate()
	}
	return nil
}

// coldPass opens the sealed directory on a fresh handle behind a new
// server and sends every distinct scan once: each pays the footer
// parse and block decode the long-lived handle has cached.
func (w *sealedWorkload) coldPass() error {
	t0 := time.Now()
	st, err := store.Open(w.d.dir, store.Options{})
	if err != nil {
		return err
	}
	base, stop, err := serveLoopback(query.NewServer(st, w.d.agg, nil).Handler())
	if err != nil {
		return err
	}
	defer stop()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	pass := w.e.rec.open("cold_pass", 0, t0)
	var sumMs float64
	failed := w.failed
	for _, s := range w.scans {
		w.attempted++
		r, err := get(hc, base, s.url)
		if err == nil {
			err = w.check(s.url, true, r)
		}
		if err != nil {
			w.failf("cold: %v", err)
			continue
		}
		w.add("scan_cold_ms", ms(r.latency))
		sumMs += ms(r.latency)
		r.span(w.e.rec, pass, "request.scan_cold")
	}
	w.e.rec.done(pass, time.Now())
	// Cold scans are bimodal — a capture window costs a tenth of an
	// unbounded ssh window — so their plain median sits on the boundary
	// between two kinds of scan. The mean over one pass's fixed URL set
	// is comparable pass to pass; its median over passes is reported.
	if w.failed == failed {
		w.add("scan_cold_pass_ms", sumMs/float64(len(w.scans)))
	}
	return nil
}

// warm runs the closed loop until the deadline: e.workers clients, each
// sending its next request when the previous one is answered,
// alternating tables with scans drawn from the seeded schedule.
func (w *sealedWorkload) warm(until time.Time) error {
	logs := make([]*clientLog, len(w.clients))
	t0 := time.Now()
	phase := w.e.rec.open("warm", 0, t0)
	m0 := mallocs()
	var wg sync.WaitGroup
	for c := range logs {
		logs[c] = &clientLog{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log, cl := logs[c], w.clients[c]
			for n := 0; n < 2 || time.Now().Before(until); n++ { // a table and a scan at least
				i := cl.i
				cl.i++
				path, scan := tableURLs[(i/2)%len(tableURLs)], false
				if i%2 == 1 {
					path, scan = w.sched.draw(cl.r).url, true
				}
				log.attempted++
				rep, err := get(cl.hc, w.baseURL, path)
				if err == nil {
					err = w.check(path, scan, rep)
				}
				if err != nil {
					log.fail("warm: %v", err)
					continue
				}
				log.note(w.e.rec, phase, scan, rep)
			}
		}(c)
	}
	wg.Wait()
	w.warmMallocs += mallocs() - m0
	t1 := time.Now()
	w.e.rec.done(phase, t1)
	w.warmSeconds += t1.Sub(t0).Seconds()
	for _, l := range logs {
		w.warmRequests += len(l.samples)
	}
	w.merge(logs)
	return nil
}

func (w *sealedWorkload) report() map[string]float64 {
	w.notes = []string{fmt.Sprintf("closed loop, %d clients over loopback HTTP; %d distinct scan URLs; %d warm requests, %d cold scans",
		w.e.workers, len(w.scans), w.warmRequests, len(w.series["scan_cold_ms"]))}
	m := w.serveReport(w.warmRequests, w.warmSeconds)
	if cold := w.series["scan_cold_pass_ms"]; len(cold) > 0 {
		m["scan_cold_p50_ms"] = median(cold)
	}
	if w.warmRequests > 0 {
		m["allocs_per_request"] = float64(w.warmMallocs) / float64(w.warmRequests)
	}
	return m
}

// ---- serve_live ----

type liveWorkload struct {
	campaignBase
	requests int
	seconds  float64
	iters    int
}

func (w *liveWorkload) name() string { return wLive }

// throughput counts the reader's requests, not the writer's rows.
func (w *liveWorkload) throughput() (ops, seconds float64) { return float64(w.requests), w.seconds }

func (w *liveWorkload) run(until time.Time) error {
	return w.loop(until, w.iterate)
}

// iterate runs one Workers=1 durable campaign with a fresh store,
// aggregates and server, and one closed-loop reader beside it for as
// long as the campaign writes.
func (w *liveWorkload) iterate() error {
	rec := w.e.rec
	t0 := time.Now()
	it := rec.open("iteration", 0, t0)
	defer func() { rec.done(it, time.Now()) }()

	d, err := w.e.newDurableRun(1)
	if err != nil {
		return err
	}
	defer d.remove()
	base, stop, err := serveLoopback(query.NewServer(d.st, d.agg, nil).Handler())
	if err != nil {
		return err
	}
	defer stop()
	rec.add("core.NewPipeline+store.Open", it, t0, time.Now())

	out := newSliceWriter()
	opts := w.e.durableOpts(d, out, it)
	log := &clientLog{}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.reader(base, quit, log, it)
	}()
	r := timeCampaign(out, func() error {
		_, err := d.p.RunCampaign(context.Background(), opts)
		return err
	})
	close(quit)
	wg.Wait()

	w.record(r, it)
	if d.cpErr != nil {
		w.failf("checkpoint: %v", d.cpErr)
	}
	w.requests += len(log.samples)
	w.seconds += r.end.Sub(r.start).Seconds()
	w.iters++
	w.merge([]*clientLog{log})
	return nil
}

// reader is serve_live's one client. It learns what it may ask for
// from the answers themselves: scan windows end at a slice the last
// /v1/tables/slices reply listed as committed, and the prefix scan
// covers the /32 around the busiest /48 of the last prefixes reply.
func (w *liveWorkload) reader(base string, quit <-chan struct{}, log *clientLog, parent int64) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	r := rng.New(w.e.seed^0x11fe).DeriveIndexed("iteration", w.iters)
	var committed []int
	var top48 string
	for i := 0; ; i++ {
		select {
		case <-quit:
			return
		default:
		}
		path, scan := tableURLs[(i/2)%len(tableURLs)], false
		if i%2 == 1 && len(committed) > 0 {
			scan = true
			kind := drawKind(r)
			if kind == scanPrefix && top48 == "" {
				kind = scanSSH
			}
			if kind == scanPrefix {
				s, err := prefixScan(top48)
				if err != nil {
					log.attempted++
					log.fail("live: prefix %q: %v", top48, err)
					continue
				}
				path = s.url
			} else {
				hi := committed[r.Intn(len(committed))]
				path = windowScan(kind, max(0, hi-scanWindow+1)).url
			}
		}
		log.attempted++
		rep, err := get(hc, base, path)
		if err != nil {
			log.fail("live: %v", err)
			continue
		}
		log.note(w.e.rec, parent, scan, rep)
		switch path {
		case tableURLs[3]:
			var rows []query.SliceRow
			if err := json.Unmarshal(rep.data, &rows); err != nil {
				log.fail("live: slices reply: %v", err)
				continue
			}
			committed = committed[:0]
			for _, row := range rows {
				if row.Slice < core.CollectSlices {
					committed = append(committed, row.Slice)
				}
			}
		case tableURLs[4]:
			var rows []query.PrefixRow
			if err := json.Unmarshal(rep.data, &rows); err != nil {
				log.fail("live: prefixes reply: %v", err)
				continue
			}
			if len(rows) > 0 {
				top48 = rows[0].Prefix
			}
		}
	}
}

func (w *liveWorkload) report() map[string]float64 {
	w.notes = []string{fmt.Sprintf("closed loop, 1 client over loopback HTTP beside a Workers=1 durable campaign; %d campaigns, %d requests",
		w.iters, w.requests)}
	m := w.serveReport(w.requests, w.seconds)
	if rps := w.series["results_per_s"]; len(rps) > 0 {
		m["results_per_s"] = median(rps)
	}
	return m
}
