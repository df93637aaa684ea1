package zgrab

import (
	"context"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ntpscan/internal/netsim"
	"ntpscan/internal/obs"
)

// Limiter bounds the probe rate. Wait blocks until the caller may send
// one probe.
type Limiter interface {
	Wait(ctx context.Context) error
}

// logicalClock is the subset of netsim.ManualClock the token bucket uses
// to sleep on simulated time instead of wall time.
type logicalClock interface {
	Changed() <-chan struct{}
}

// TokenBucket is a token-bucket limiter. The paper caps scans at
// 100 000 packets per second (Appendix A.2.1). Time is read from the
// injected clock: on the system clock it behaves like a classic
// real-time bucket, on a netsim.ManualClock it replenishes with the
// experiment's logical time and waiters park on the clock's Changed
// channel instead of a wall timer — a mass run that advances weeks in
// milliseconds is no longer silently throttled against real time.
type TokenBucket struct {
	mu     sync.Mutex
	clock  netsim.Clock
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket returns a wall-clock limiter emitting rate
// tokens/second with the given burst (real-socket scanning).
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return NewTokenBucketAt(rate, burst, netsim.RealClock{})
}

// NewTokenBucketAt returns a limiter reading time from clock.
func NewTokenBucketAt(rate, burst float64, clock netsim.Clock) *TokenBucket {
	if clock == nil {
		clock = netsim.RealClock{}
	}
	return &TokenBucket{clock: clock, rate: rate, burst: burst, tokens: burst, last: clock.Now()}
}

// Wait implements Limiter.
func (tb *TokenBucket) Wait(ctx context.Context) error {
	for {
		// Grab the wake channel before reading the clock so an advance
		// racing with the read cannot be missed.
		var wake <-chan struct{}
		if lc, ok := tb.clock.(logicalClock); ok {
			wake = lc.Changed()
		}
		tb.mu.Lock()
		now := tb.clock.Now()
		if now.After(tb.last) {
			tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
			tb.last = now
		}
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		if tb.tokens >= 1 {
			tb.tokens--
			tb.mu.Unlock()
			return nil
		}
		need := (1 - tb.tokens) / tb.rate
		tb.mu.Unlock()
		if wake != nil {
			// Logical time: only the driver moves the clock, so sleep
			// until it does.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-wake:
			}
			continue
		}
		t := time.NewTimer(time.Duration(need * float64(time.Second)))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// NopLimiter never blocks; mass simulations run on logical time where
// the 100 kpps budget is accounted for analytically instead.
type NopLimiter struct{}

// Wait implements Limiter.
func (*NopLimiter) Wait(context.Context) error { return nil }

// revisitAfter is the paper's re-scan holdoff (Appendix A.2.1).
const revisitAfter = 72 * time.Hour

// Revisit suppresses re-scans of recently scanned addresses: the paper
// refrains from re-scanning an address for three days (Appendix A.2.1).
// Only the submitting goroutine and the drain barrier touch it — no
// scan worker does — so one map behind one mutex serves; all methods
// are safe for concurrent use.
//
// Beside the map, order keeps the admissions in time order: a min-heap
// of buckets, one per admission instant, each holding the keys
// admitted at it. SubmitBatch admits a whole batch at one instant, so
// a slice pushes about one bucket, and Sweep pops whole buckets of
// what has expired instead of walking every tracked address. A
// re-admitted address leaves its older admission in an older bucket;
// that admission is stale once the map holds a different time for the
// address, and Sweep skips it. The heap, not a queue, because now need
// not grow from call to call: a RealClock can step back.
type Revisit struct {
	after time.Duration
	mu    sync.Mutex
	last  map[revisitKey]time.Time
	order revisitHeap
	// top is the bucket pushed last, which Allow extends while the
	// instant stays the same; nil once it has been popped.
	top *revisitBucket
	// free holds popped buckets for reuse. Only the callers of Allow,
	// Sweep and Restore touch it, under mu, so a campaign allocates the
	// same buckets whatever its scan workers do.
	free []*revisitBucket
}

// revisitKey is an address as a map key with no pointer in it (a
// netip.Addr holds its zone behind one): the 16 bytes of As16, and
// whether the address is IPv4, so an IPv4 address and its IPv4-mapped
// form stay apart and each comes back as it went in. A zone is not
// kept; the scanner's targets carry none.
type revisitKey struct {
	a  [16]byte
	v4 bool
}

func keyOf(addr netip.Addr) revisitKey { return revisitKey{addr.As16(), addr.Is4()} }

func (k revisitKey) addr() netip.Addr {
	if k.v4 {
		return netip.AddrFrom16(k.a).Unmap()
	}
	return netip.AddrFrom16(k.a)
}

// revisitBucket is the admissions of one instant.
type revisitBucket struct {
	at   time.Time
	keys []revisitKey
}

// NewRevisit returns a suppressor with the given re-scan holdoff.
func NewRevisit(after time.Duration) *Revisit {
	return &Revisit{after: after, last: make(map[revisitKey]time.Time)}
}

// Allow reports whether addr may be scanned at now, and records the scan
// if so.
func (rv *Revisit) Allow(addr netip.Addr, now time.Time) bool {
	k := keyOf(addr)
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if t, seen := rv.last[k]; seen && now.Sub(t) < rv.after {
		return false
	}
	rv.last[k] = now
	// Join the last bucket only at the very same Time value: Sweep's
	// stale check compares the map's time with the bucket's by ==.
	if rv.top == nil || rv.top.at != now {
		rv.top = rv.bucket(now)
		rv.order.push(rv.top)
	}
	rv.top.keys = append(rv.top.keys, k)
	return true
}

// bucket returns an empty bucket for at, reused when one is free.
func (rv *Revisit) bucket(at time.Time) *revisitBucket {
	if n := len(rv.free); n > 0 {
		b := rv.free[n-1]
		rv.free[n-1] = nil
		rv.free = rv.free[:n-1]
		b.at = at
		return b
	}
	return &revisitBucket{at: at}
}

// Sweep evicts entries whose holdoff has expired — they no longer
// suppress anything (Allow would admit them) and over a long campaign
// would otherwise accumulate without bound. Returns how many entries
// were dropped. The scanner sweeps at each drain barrier.
//
// An admission has expired when now.Sub(at) >= after, which holds for
// every bucket at or before the heap's top once it holds for the top:
// Sub does not grow with at. A popped bucket evicts a key only while
// the map still holds the bucket's time for it; otherwise the key's
// admission there is stale, and its current one sits in a later
// bucket.
func (rv *Revisit) Sweep(now time.Time) int {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	evicted := 0
	for len(rv.order) > 0 && now.Sub(rv.order[0].at) >= rv.after {
		b := rv.order.pop()
		for _, k := range b.keys {
			if t, ok := rv.last[k]; ok && t == b.at {
				delete(rv.last, k)
				evicted++
			}
		}
		if b == rv.top {
			rv.top = nil
		}
		b.at, b.keys = time.Time{}, b.keys[:0]
		rv.free = append(rv.free, b)
	}
	return evicted
}

// revisitHeap is a binary min-heap of buckets on their instant. It
// compares with Time.Before, which reads the same clock Sub does.
type revisitHeap []*revisitBucket

func (h *revisitHeap) push(b *revisitBucket) {
	*h = append(*h, b)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].at.Before(q[parent].at) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *revisitHeap) pop() *revisitBucket {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < n && q[l].at.Before(q[least].at) {
			least = l
		}
		if r < n && q[r].at.Before(q[least].at) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// RevisitEntry is one tracked address in a checkpoint.
type RevisitEntry struct {
	Addr netip.Addr `json:"addr"`
	Last time.Time  `json:"last"`
}

// Snapshot exports the tracked addresses in canonical (address) order.
func (rv *Revisit) Snapshot() []RevisitEntry {
	rv.mu.Lock()
	var out []RevisitEntry
	for k, t := range rv.last {
		out = append(out, RevisitEntry{Addr: k.addr(), Last: t})
	}
	rv.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.Less(out[j].Addr) })
	return out
}

// Restore replaces the tracked set with a snapshot and rebuilds the
// admission order from it: the entries sorted by time, one bucket per
// run of equal times, are a heap.
func (rv *Revisit) Restore(entries []RevisitEntry) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	rv.last = make(map[revisitKey]time.Time, len(entries))
	for _, e := range entries {
		rv.last[keyOf(e.Addr)] = e.Last
	}
	byTime := slices.Clone(entries)
	slices.SortStableFunc(byTime, func(a, b RevisitEntry) int { return a.Last.Compare(b.Last) })
	rv.order, rv.top = nil, nil
	var b *revisitBucket
	for _, e := range byTime {
		if b == nil || b.at != e.Last {
			b = rv.bucket(e.Last)
			rv.order = append(rv.order, b)
		}
		b.keys = append(b.keys, keyOf(e.Addr))
	}
}

// Config assembles a scanner.
type Config struct {
	// Fabric selects the simulation transport; leave nil and set Net
	// for real-socket scanning.
	Fabric *netsim.Network
	// Net overrides the transport (e.g. NewRealNet()). Defaults to
	// SimNet(Fabric).
	Net Net
	// Clock stamps results (the experiment's logical clock for mass
	// runs). Defaults to the fabric clock.
	Clock netsim.Clock
	// Source is the scanner's source address. The paper's scan hosts
	// carry identifying rDNS and web pages; in the simulation the
	// source address identifies us to the telescope.
	Source netip.Addr
	// Modules defaults to AllModules().
	Modules []Module
	// Timeout per connection attempt (default 500 ms).
	Timeout time.Duration
	// UDPTimeout bounds connectionless probes; zero means Timeout.
	UDPTimeout time.Duration
	// Workers in the scan pool (default 32).
	Workers int
	// Limiter defaults to NopLimiter.
	Limiter Limiter
	// PortOverrides redirects modules (by name) to non-IANA ports.
	PortOverrides map[string]uint16
	// InterProtocolDelay spaces one target's modules apart on the
	// logical timeline (the paper waits 10 s – 10 min between protocols
	// to spare low-powered devices, Appendix A.2.1). The fabric is
	// latency-free, so the delay is recorded in each result's schedule
	// stamp rather than slept.
	InterProtocolDelay time.Duration
	// Retry, when set, gives each module probe up to MaxAttempts tries
	// with exponential backoff and deterministic jitter. Like
	// InterProtocolDelay, backoff under a logical clock is stamped into
	// the result's schedule rather than slept; under a real clock it
	// sleeps.
	Retry *RetryPolicy
	// Obs is the metrics registry the scanner registers on. Nil gets a
	// private registry, so instrumentation is always on (it is a few
	// atomic adds) and Metrics() never returns nil. The campaign
	// pipeline passes its own registry so campaign and hitlist scans
	// accumulate into one set of books.
	Obs *obs.Registry
	// Breaker, when set, enables the per-prefix circuit breaker:
	// targets in prefixes that have produced nothing but silence are
	// skipped (emitting StatusBreakerOpen results) until the cooldown's
	// probation re-admits them. State advances at the Drain barrier.
	Breaker *BreakerConfig
	// OnResultWorker receives every grab with the index, in
	// [0, Workers), of the worker goroutine that calls it. A sink can
	// keep one unsynchronised buffer per worker and merge at a drain
	// barrier (core's ordered sink); anything shared across workers
	// must be safe for concurrent use. When one goroutine feeds the
	// scanner, one worker's calls come in strictly ascending Seq:
	// sessions leave the queue in the order their Seqs were stamped,
	// and a worker scans a session's targets, and each target's
	// modules, in order; core's sink merges on that instead of
	// sorting. ScanNow emits as worker 0 outside this order.
	//
	// The sink may keep r: the scanner never writes a row again once it
	// is emitted. Rows share allocations, though: a session's rows (up
	// to 64 targets' worth) are slots of one slab, so a kept row keeps
	// its whole session's slab alive.
	OnResultWorker func(worker int, r *Result)
}

// target is one queued scan with its submission sequence number.
type target struct {
	addr netip.Addr
	seq  int64
}

// submitChunk bounds how many targets ride one channel operation; the
// feed amortises channel synchronisation across a chunk instead of
// paying it per address.
const submitChunk = 64

// session is one in-flight submit chunk: the unit of work handed from
// the feed to a worker. Sessions live in the scanner's dense session
// table under explicit lifetimes — acquired when the feed fills one,
// released when the worker finishes its last target — instead of a
// GC-managed sync.Pool, so a campaign's transport state is a bounded,
// inspectable table rather than whatever the collector kept.
type session struct {
	id      int32
	inUse   bool
	targets []target
}

// sessionTable is the scanner's dense, index-keyed session registry:
// slot i holds session id i forever, freed ids recycle LIFO, and the
// table only ever grows to the campaign's in-flight high-water mark
// (len(slots)), so steady-state acquire/release touches no allocator.
// Safe for concurrent use by the feed and the worker pool.
type sessionTable struct {
	mu    sync.Mutex
	slots []*session
	free  []int32
}

// acquire hands out a free session (growing the table when none is
// free) with its target buffer reset.
func (t *sessionTable) acquire() *session {
	t.mu.Lock()
	var s *session
	if n := len(t.free); n > 0 {
		s = t.slots[t.free[n-1]]
		t.free = t.free[:n-1]
	} else {
		s = &session{id: int32(len(t.slots)), targets: make([]target, 0, submitChunk)}
		t.slots = append(t.slots, s)
	}
	s.inUse = true
	t.mu.Unlock()
	s.targets = s.targets[:0]
	return s
}

// release returns a session to the free list. Releasing a session that
// is not live is a lifetime bug, not a recoverable condition.
func (t *sessionTable) release(s *session) {
	t.mu.Lock()
	if !s.inUse {
		t.mu.Unlock()
		panic("zgrab: session released twice")
	}
	s.inUse = false
	t.free = append(t.free, s.id)
	t.mu.Unlock()
}

// tally is one scan worker's share of the per-probe books since the
// last fold: probes and successes by module slot, completed targets,
// and limiter waits of 0 ms (every wait on a frozen logical clock). A
// worker adds here instead of to the registry, so no probe writes a
// cache line another worker writes; fold moves the counts into the
// registry at Drain, at Close and at the end of ScanNow. The counts
// are atomic only so a fold racing a scan (a Drain beside another
// goroutine's Submit) loses nothing.
type tally struct {
	probes, successes []atomic.Int64
	completed         atomic.Int64
	zeroWaits         atomic.Int64
	// Tallies sit side by side, each written by its own worker; the pad
	// keeps one tally's counters off the cache lines of the next.
	_ [64]byte
}

func newTallies(workers, modules int) []tally {
	ts := make([]tally, workers)
	for i := range ts {
		// One allocation per worker, with a cache line of slack after
		// the counts so no other worker's land beside them.
		c := make([]atomic.Int64, 2*modules+8)
		ts[i].probes, ts[i].successes = c[:modules:modules], c[modules:2*modules:2*modules]
	}
	return ts
}

// fold moves every tally into the registry.
func (s *Scanner) fold() {
	for i := range s.tallies {
		tl := &s.tallies[i]
		for mi := range tl.probes {
			s.met.Probes.Add(mi, tl.probes[mi].Swap(0))
			s.met.Successes.Add(mi, tl.successes[mi].Swap(0))
		}
		s.met.Completed.Add(tl.completed.Swap(0))
		s.met.LimiterWait.ObserveN(0, tl.zeroWaits.Swap(0))
	}
}

// Scanner is the zgrab2-style runtime: submit addresses, modules fan
// out, results stream to OnResultWorker.
type Scanner struct {
	cfg     Config
	env     *Env
	revisit *Revisit
	breaker *Breaker // nil unless Config.Breaker is set
	met     *Metrics // never nil
	// tallies holds each worker's per-probe books, folded into met at
	// every quiescent point (see tally).
	tallies []tally
	// quiet is the fabric asked whether a target is silent (see
	// silent); nil unless the scanner runs over SimNet on a logical
	// clock without a retry policy. A kernel socket learns silence only
	// by waiting.
	quiet *netsim.Network
	// zeroWait is set when every limiter wait is known to take 0 ms: a
	// NopLimiter on a logical clock. wait then books it with no clock
	// read and no limiter call.
	zeroWait bool

	sessions sessionTable
	queue    chan *session
	wg       sync.WaitGroup
	started  bool

	// closeMu guards closed and makes Submit/Close race-free: Submit
	// holds the read side across the enqueue so Close (write side)
	// cannot close the channel underneath it.
	closeMu sync.RWMutex
	closed  bool

	// pending counts enqueued-but-unfinished targets; Drain waits on it.
	pendingMu   sync.Mutex
	pendingCond *sync.Cond
	pending     int

	nextSeq atomic.Int64
}

// NewScanner validates cfg and builds a scanner.
func NewScanner(cfg Config) *Scanner {
	if cfg.Net == nil {
		cfg.Net = SimNet(cfg.Fabric)
	}
	if cfg.Clock == nil {
		if cfg.Fabric != nil {
			cfg.Clock = cfg.Fabric.Clock()
		} else {
			cfg.Clock = netsim.RealClock{}
		}
	}
	if len(cfg.Modules) == 0 {
		cfg.Modules = AllModules()
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 32
	}
	if cfg.Limiter == nil {
		cfg.Limiter = &NopLimiter{}
	}
	_, logical := cfg.Clock.(logicalClock)
	s := &Scanner{
		cfg: cfg,
		env: &Env{
			Net: cfg.Net, Source: cfg.Source, Clock: cfg.Clock,
			Timeout: cfg.Timeout, UDPTimeout: cfg.UDPTimeout,
			PortOverrides: cfg.PortOverrides, Logical: logical,
		},
		revisit: NewRevisit(revisitAfter),
		queue:   make(chan *session, 4096),
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.met = newScanMetrics(reg, cfg.Modules)
	s.tallies = newTallies(cfg.Workers, len(cfg.Modules))
	if sn, ok := cfg.Net.(simNet); ok && logical && cfg.Retry == nil {
		s.quiet = sn.f
	}
	_, nop := cfg.Limiter.(*NopLimiter)
	s.zeroWait = nop && logical
	if cfg.Breaker != nil {
		s.breaker = NewBreaker(*cfg.Breaker)
		s.breaker.met = s.met
	}
	s.pendingCond = sync.NewCond(&s.pendingMu)
	return s
}

// logical reports whether the scanner runs on a manual clock (delays
// are stamped, not slept).
func (s *Scanner) logical() bool {
	_, ok := s.cfg.Clock.(logicalClock)
	return ok
}

// Start launches the worker pool.
func (s *Scanner) Start(ctx context.Context) {
	if s.started {
		panic("zgrab: Scanner started twice")
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		worker := i
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			modules := len(s.cfg.Modules)
			for sess := range s.queue {
				// The session's result slab: one allocation for every row
				// its targets produce, target i's modules in slots
				// [i*modules, (i+1)*modules).
				slab := make([]Result, len(sess.targets)*modules)
				for i, t := range sess.targets {
					s.scanOne(ctx, worker, t, slab[i*modules:(i+1)*modules])
				}
				n := len(sess.targets)
				s.sessions.release(sess)
				s.finish(n)
			}
		}()
	}
}

// enqueue numbers and queues a pre-filtered session. Callers hold
// closeMu.RLock and have checked closed. Ownership of the session
// passes to the worker, which releases it back to the table once its
// last target has been scanned.
func (s *Scanner) enqueue(sess *session) {
	batch := sess.targets
	for i := range batch {
		batch[i].seq = s.nextSeq.Add(1) - 1
	}
	s.pendingMu.Lock()
	s.pending += len(batch)
	s.pendingMu.Unlock()
	s.queue <- sess
}

func (s *Scanner) finish(n int) {
	s.pendingMu.Lock()
	s.pending -= n
	if s.pending == 0 {
		s.pendingCond.Broadcast()
	}
	s.pendingMu.Unlock()
}

// SubmitBatch enqueues targets with one channel operation per
// submitChunk addresses, honouring revisit suppression. It returns how
// many were accepted; submitting to a closed scanner is a safe no-op
// accepting none. It blocks when the queue is full (backpressure onto
// the capture feed). Sequence numbers are assigned in slice order, so a
// single feeding goroutine produces a deterministic result order
// regardless of worker count.
func (s *Scanner) SubmitBatch(addrs []netip.Addr) int {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return 0
	}
	s.met.Submitted.Add(int64(len(addrs)))
	accepted := 0
	now := s.cfg.Clock.Now()
	sess := s.sessions.acquire()
	for _, addr := range addrs {
		if !s.revisit.Allow(addr, now) {
			s.met.Suppressed.Inc()
			continue
		}
		accepted++
		sess.targets = append(sess.targets, target{addr: addr})
		if len(sess.targets) == submitChunk {
			s.enqueue(sess)
			sess = s.sessions.acquire()
		}
	}
	if len(sess.targets) > 0 {
		s.enqueue(sess)
	} else {
		s.sessions.release(sess)
	}
	return accepted
}

// Drain blocks until every target submitted so far has been fully
// scanned. The campaign pipeline drains at each slice boundary so no
// scan is in flight when the logical clock moves — the source of the
// pipeline's bit-reproducibility under concurrency.
//
// The quiescent point doubles as the maintenance tick: expired revisit
// entries are evicted and the circuit breaker folds the slice's
// outcomes and runs its state transitions. Doing both here — never
// mid-slice — keeps them a pure function of the schedule.
func (s *Scanner) Drain() {
	s.pendingMu.Lock()
	for s.pending > 0 {
		s.pendingCond.Wait()
	}
	s.pendingMu.Unlock()
	s.fold()
	now := s.cfg.Clock.Now()
	s.revisit.Sweep(now)
	if s.breaker != nil {
		s.breaker.Advance(now)
	}
}

// ScanNow scans one address synchronously with all modules, bypassing
// the queue (used by tests and the benchmark's per-target timings).
// Its results go to OnResultWorker as worker 0, so it must not overlap
// Start's workers when the sink keeps state per worker.
func (s *Scanner) ScanNow(ctx context.Context, addr netip.Addr) []*Result {
	defer s.fold()
	tl := &s.tallies[0]
	seq := s.nextSeq.Add(1) - 1
	s.met.Submitted.Inc()
	slab := make([]Result, len(s.cfg.Modules))
	out := make([]*Result, 0, len(s.cfg.Modules))
	silent := s.silent(addr)
	for i, m := range s.cfg.Modules {
		if s.wait(ctx, tl) != nil {
			return out
		}
		tl.probes[i].Add(1)
		r := &slab[i]
		if silent {
			silentInto(s.env, m, addr, r)
		} else {
			m.scanInto(ctx, s.env, addr, r)
		}
		if r.Status == StatusSuccess {
			tl.successes[i].Add(1)
		}
		r.Seq = seq*int64(len(s.cfg.Modules)) + int64(i)
		out = append(out, r)
		s.emit(0, r)
	}
	tl.completed.Add(1)
	return out
}

// wait runs the limiter for one probe and books how long it took on
// the injected clock: a wait of 0 ms in the worker's tally, any other
// in the histogram directly.
func (s *Scanner) wait(ctx context.Context, tl *tally) error {
	if s.zeroWait {
		tl.zeroWaits.Add(1)
		return nil
	}
	start := s.cfg.Clock.Now()
	err := s.cfg.Limiter.Wait(ctx)
	if ms := s.cfg.Clock.Now().Sub(start).Milliseconds(); ms == 0 {
		tl.zeroWaits.Add(1)
	} else {
		s.met.LimiterWait.Observe(ms)
	}
	return err
}

// silent reports whether every probe of addr is known to end in a
// timeout before it is sent. On a logical clock a probe of a silent
// address returns at once with the same row whatever the module does on
// the way (a dial that blackholes, a datagram nobody reads), and with no
// retry policy there is no second attempt to differ; so the scanner
// writes the row (silentInto) and keeps everything else a probe does:
// the limiter wait, the probe tally, the schedule stamp, the Seq and the
// breaker's record.
func (s *Scanner) silent(addr netip.Addr) bool {
	return s.quiet != nil && s.quiet.Silent(addr)
}

func (s *Scanner) emit(worker int, r *Result) {
	if s.cfg.OnResultWorker != nil {
		s.cfg.OnResultWorker(worker, r)
	}
}

// scanOne scans target t with every module, module i's row in rows[i].
func (s *Scanner) scanOne(ctx context.Context, worker int, t target, rows []Result) {
	if s.breaker != nil && !s.breaker.Allow(t.addr) {
		// Shed the target but keep the sequence space dense: every
		// module slot still gets a result, so sinks and offsets line up
		// whether or not the breaker fired.
		now := s.env.now()
		for i, m := range s.cfg.Modules {
			r := &rows[i]
			*r = Result{
				IP: t.addr, Module: m.Name(), Port: s.env.portFor(m),
				Time: now, Status: StatusBreakerOpen,
			}
			r.Seq = t.seq*int64(len(s.cfg.Modules)) + int64(i)
			s.emit(worker, r)
		}
		s.met.Shed.Inc()
		return
	}
	tl := &s.tallies[worker]
	silent := s.silent(t.addr)
	alive := false
	for i, m := range s.cfg.Modules {
		r := &rows[i]
		if silent {
			if s.wait(ctx, tl) != nil {
				return // cancelled in the limiter
			}
			tl.probes[i].Add(1)
			silentInto(s.env, m, t.addr, r)
		} else if !s.scanModule(ctx, tl, t.addr, i, m, r) {
			return // cancelled in the limiter
		}
		if Alive(r) {
			alive = true
		}
		if r.Status == StatusSuccess {
			tl.successes[i].Add(1)
		}
		r.Seq = t.seq*int64(len(s.cfg.Modules)) + int64(i)
		if s.cfg.InterProtocolDelay > 0 {
			r.Time = r.Time.Add(time.Duration(i) * s.cfg.InterProtocolDelay)
		}
		s.emit(worker, r)
	}
	if s.breaker != nil {
		s.breaker.Record(t.addr, alive)
	}
	tl.completed.Add(1)
}

// scanModule runs one module probe under the retry policy and leaves
// the final attempt's result in r; every attempt overwrites the slot.
// It reports false if the context died in the limiter. Retries re-roll
// the fabric's fault hashes via the context attempt tag; accumulated
// backoff is stamped into the result's schedule under a logical clock
// and slept under a real one.
func (s *Scanner) scanModule(ctx context.Context, tl *tally, addr netip.Addr, mi int, m Module, r *Result) bool {
	attempts := s.cfg.Retry.attempts()
	var backoff time.Duration
	for attempt := 0; ; attempt++ {
		if s.wait(ctx, tl) != nil {
			return false
		}
		tl.probes[mi].Add(1)
		m.scanInto(netsim.WithAttempt(ctx, attempt), s.env, addr, r)
		if attempt > 0 {
			r.Attempts = attempt + 1
		}
		if backoff > 0 {
			r.Time = r.Time.Add(backoff)
		}
		if attempt+1 >= attempts || !Classify(r).Retryable() {
			if attempt > 0 && Classify(r).Retryable() {
				s.met.RetryExhausted.Inc()
			}
			return true
		}
		s.met.Retries.Inc(mi)
		d := s.cfg.Retry.Backoff(addr, m.Name(), attempt)
		s.met.Backoff.Observe(obs.DurationMS(d))
		if s.logical() {
			backoff += d
		} else {
			timer := time.NewTimer(d)
			select {
			case <-ctx.Done():
				timer.Stop()
				return true
			case <-timer.C:
			}
		}
	}
}

// ScanState is the scanner's checkpointable state: the sequence
// cursor, the revisit suppression set, and the breaker's prefix
// states. Capture it from a quiescent point (after Drain, before any
// further Submit).
type ScanState struct {
	NextSeq int64               `json:"next_seq"`
	Revisit []RevisitEntry      `json:"revisit,omitempty"`
	Breaker []BreakerEntryState `json:"breaker,omitempty"`
}

// Snapshot exports the scanner's state for a checkpoint.
func (s *Scanner) Snapshot() ScanState {
	st := ScanState{
		NextSeq: s.nextSeq.Load(),
		Revisit: s.revisit.Snapshot(),
	}
	if s.breaker != nil {
		st.Breaker = s.breaker.Snapshot()
	}
	return st
}

// Restore loads a checkpointed state. Call before Start.
func (s *Scanner) Restore(st ScanState) {
	s.nextSeq.Store(st.NextSeq)
	s.revisit.Restore(st.Revisit)
	if s.breaker != nil {
		s.breaker.Restore(st.Breaker)
	}
}

// Close drains the queue, stops the workers and closes every socket
// the scanner bound. The scanner cannot be restarted; Submit calls
// racing or following Close are rejected rather than panicking.
func (s *Scanner) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.closeMu.Unlock()
	s.wg.Wait()
	s.fold()
	s.env.closeSockets()
}
