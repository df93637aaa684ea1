// Campaign checkpoint/resume. RunCampaign is RunNTPCampaign with two
// robustness additions: the merged result stream can be tee'd to a
// JSONL writer, and the run can snapshot itself at slice boundaries
// into a Checkpoint — a pure-data, JSON-serialisable record from which
// ResumeCampaign on a *fresh* pipeline (same Config, same installed
// FaultPlan) reproduces the uninterrupted run's remaining output
// byte-for-byte.
//
// The checkpoint deliberately contains only deltas: the world itself is
// a pure function of the seed, so a resumed pipeline rebuilds it from
// Config and restores just the mutable campaign state — shard stream
// positions, the first-seen capture log (replayed into fresh dedup
// accumulators), the responsive first-capture bitmap, scanner state
// (sequence counter, revisit table, breaker), pool monitor scores, the
// logical clock, and the output byte offset.
package core

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"time"

	"ntpscan/internal/analysis"
	"ntpscan/internal/obs"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
	"ntpscan/internal/zgrab"
)

// Checkpoint is a resumable snapshot of a campaign, taken at a slice
// boundary (the drain barrier: no captures or scans in flight). It is
// plain data — json.Marshal/Unmarshal round-trips it exactly, and
// AppendJSON writes json.Marshal's bytes by hand (appendjson.go).
type Checkpoint struct {
	// Identity guards: a checkpoint only resumes onto a pipeline built
	// with the same seed and shard decomposition.
	Seed          uint64 `json:"seed"`
	CollectShards int    `json:"collect_shards"`

	// NextSlice is the first slice the resumed run executes.
	NextSlice int       `json:"next_slice"`
	Time      time.Time `json:"time"` // logical clock at the boundary

	Captures     int64              `json:"captures"`
	Shards       []ShardSnap        `json:"shards"`
	CapturedResp []int              `json:"captured_resp,omitempty"`
	CapLog       []store.CaptureRow `json:"cap_log,omitempty"`
	Scan         zgrab.ScanState    `json:"scan"`
	PoolScores   PoolScoreMap       `json:"pool_scores,omitempty"`
	// Obs carries the metrics registry's raw values, so a resumed run's
	// telemetry stream continues the interrupted run's byte-for-byte.
	Obs obs.Snapshot `json:"obs,omitempty"`
	// OutOffset is how many bytes of JSONL output the run had written;
	// a resumed run's writer continues exactly here.
	OutOffset int64 `json:"out_offset"`
	// Store pins the columnar store's live segment list at the boundary
	// (present only when the campaign ran with a store attached). Resume
	// rewinds the store directory to exactly this state — the durable
	// replacement for the fragile JSONL byte offset.
	Store *store.Manifest `json:"store,omitempty"`
	// Cluster is the coordinator's section, present only when the
	// campaign ran under internal/cluster: the per-shard lease epochs
	// (the fencing state — a resumed coordinator must keep rejecting
	// the same dead epochs) and the cluster registry's counters. core
	// itself never reads it; the coordinator fills it on checkpoint and
	// validates it on resume.
	Cluster *ClusterState `json:"cluster,omitempty"`
}

// encoding/json builds a type's reflective encoder the first time it
// sees the type. AppendJSON still hands it the four small sections;
// build their encoders at package load, so the construction never lands
// inside a process's first campaign, whose allocation count would then
// differ from every later one's (DESIGN.md "Result encoding", the
// first-campaign rule).
func init() {
	// Each of the four present, the two maps with an entry: AppendJSON
	// leaves an empty one out.
	(&Checkpoint{
		Store:      &store.Manifest{},
		Cluster:    &ClusterState{},
		PoolScores: PoolScoreMap{"": 0},
		Obs:        obs.Snapshot{"": {0}},
	}).AppendJSON(nil)
}

// ClusterState is the plain-data cluster checkpoint section (owned by
// internal/cluster; defined here so Checkpoint stays one JSON
// document).
type ClusterState struct {
	// Epochs is the lease table's per-shard fencing epoch, indexed by
	// shard. Length must equal the pipeline's CollectShards on resume.
	Epochs []uint64 `json:"epochs"`
	// Obs carries the cluster's own metrics registry (lease, heartbeat
	// and fencing families — kept out of the campaign registry so
	// telemetry stays byte-identical across node counts).
	Obs obs.Snapshot `json:"obs,omitempty"`
}

// PoolScoreMap is the checkpoint's vantage-score table. encoding/json
// writes a map with its keys sorted, so checkpoint bytes are a pure
// function of the state — map iteration order never leaks into files
// that are compared byte-for-byte across runs.
type PoolScoreMap map[string]float64

// CampaignOpts tunes RunCampaign beyond the plain RunNTPCampaign
// behaviour.
type CampaignOpts struct {
	// Out, when non-nil, receives every scan result as a JSONL line in
	// deterministic (submission-sequence) order: one Write per slice,
	// made by the slice's sink job on the sink goroutine — one call at
	// a time, in slice order, ahead of the slice's store append —
	// while the campaign collects and scans the next slice. The
	// post-Close tail is written last, and RunCampaign returns after it.
	Out io.Writer
	// CheckpointEvery takes a checkpoint every N slices (0 disables).
	CheckpointEvery int
	// OnCheckpoint receives each checkpoint, on the campaign goroutine.
	// A checkpoint is captured at its slice's drain barrier and delivered
	// once that slice's sink job is joined, at the next barrier, with
	// Store the manifest as the job left it and the store's writer
	// counters in Obs re-read then (see sliceSink). The Out writer has
	// written exactly OutOffset bytes when it is called. No
	// checkpoint is taken once a Dispatch has failed. The pointer and
	// everything it references belong to the callee.
	OnCheckpoint func(*Checkpoint)
	// Telemetry, when non-nil, receives one JSONL line per slice with
	// the full metrics registry state as it stood at the slice's drain
	// barrier. The line is written on the campaign goroutine once the
	// slice's sink job is joined at the next drain barrier; the store's
	// writer counters in it are re-read then (see sliceSink). The stream
	// is deterministic: byte-identical across worker counts, and a
	// resumed campaign emits exactly the lines the uninterrupted run
	// would have from its resume slice onward.
	Telemetry io.Writer
	// Store, when non-nil, is the campaign's durable columnar sink: each
	// slice's capture events and scan results are appended as one
	// immutable segment on the sink goroutine, one call at a time, in
	// slice order, joined at the next drain barrier; checkpoints carry the
	// store manifest, and resume rewinds the directory to it. The store
	// directory is bit-identical across worker counts and across an
	// interrupted-and-resumed run.
	Store *store.Store
	// Dispatch, when non-nil, replaces the built-in worker pool as the
	// slice executor (see DispatchFunc).
	Dispatch DispatchFunc
	// Aggregates, when non-nil, observes every slice's drained data
	// right after the store append, on the sink goroutine, one call at a
	// time, in slice order, joined at the next drain barrier, letting a
	// serving layer maintain materialized query tables incrementally
	// instead of rescanning the store. A checkpoint holds none of its
	// state: ResumeCampaign feeds the rewound store back through it, so
	// the view is rebuilt exactly in step with the pinned store manifest.
	Aggregates SliceAggregator
}

// SliceAggregator consumes each slice's quiescent drained data — the
// capture rows and scan results the slice produced, in deterministic
// order. In a campaign, AggregateSlice runs on the sink goroutine, one
// call at a time, in slice order, joined at the next drain barrier, while
// the campaign collects and scans the next slice; it must not move the
// campaign's metrics registry. caps and results are only valid for the
// duration of the call (the campaign reuses the backing arrays), so
// implementations must copy what they keep. The post-Close result tail
// arrives as one final synthetic slice (caps nil), mirroring the
// store's tail append.
// A slice may arrive in more than one call, and calls need not come in
// slice order: a resume replays the rewound store segment by segment
// (store.ReplaySlices), and a compacted segment holds all its slices'
// captures ahead of their results. Aggregate state must therefore
// depend only on the multiset of rows fed, never on their grouping.
type SliceAggregator interface {
	AggregateSlice(slice int, caps []store.CaptureRow, results []*zgrab.Result) error
}

// orderedSink accumulates scan results lock-free and merges them in
// the order of the sequence numbers the scanner stamped at submission,
// one slice at a time. Every scanner worker appends to its own run (the
// scanner guarantees one worker index per goroutine), and with encode
// set it also encodes each row there, so the JSONL encode runs on the
// scan workers. A worker's calls come in ascending Seq
// (zgrab.Config.OnResultWorker), so each run is sorted and merge joins
// them. Per-slice merging yields the global order: the barrier
// guarantees every slice-s sequence number precedes every slice-s+1
// one.
//
// The sink keeps two sets of runs so that the barrier does only the
// serial part. take, at the drain barrier, swaps the set the workers
// filled for the set the last merge emptied, and books the slice's
// bytes and error; merge, in the slice's sink job, joins the taken runs
// while the workers fill the other set. A batch scan (ScanBatch) is the
// one-flush case: take and merge at once. The sink writes nothing
// itself: whoever holds a merge's bytes writes them.
type orderedSink struct {
	// runs are the workers', taken the ones the last take set aside.
	runs, taken []sinkRun
	all         []*zgrab.Result
	encode      bool
	// n counts the JSONL bytes takes have booked: the output offset a
	// checkpoint records.
	n int64
	// failed marks taken runs holding a row that could not be encoded:
	// their merge hands over no bytes.
	failed bool
	// batch and jsonl are the last merge's rows and their JSONL bytes,
	// so a slice costs one Write instead of one per row. The sink job
	// that merged them uses them, and the next merge reuses them. They
	// keep their high-water capacity, as do the runs' buffers.
	batch []*zgrab.Result
	jsonl []byte
}

// sinkRun is one worker's results since the run was last emptied, in
// emission order. With encode set, buf holds their JSONL lines back to
// back, row i's line ending at ends[i] (empty when the row could not be
// encoded), written through memo; err is the run's first encoding error
// and errSeq that row's Seq.
type sinkRun struct {
	rows   []*zgrab.Result
	buf    []byte
	ends   []int
	memo   zgrab.RowMemo
	err    error
	errSeq int64
	head   int // merge cursor into rows
	// Runs sit side by side and each is written by its own worker; the
	// pad keeps one run's headers off the cache lines of the next.
	_ [64]byte
}

func newOrderedSink(workers int, encode bool) *orderedSink {
	if workers < 1 {
		workers = 1
	}
	return &orderedSink{runs: make([]sinkRun, workers), taken: make([]sinkRun, workers), encode: encode}
}

// add is the scanner's OnResultWorker hook. No locking: run w is only
// ever touched by worker w.
func (s *orderedSink) add(worker int, r *zgrab.Result) {
	run := &s.runs[worker]
	run.rows = append(run.rows, r)
	if !s.encode {
		return
	}
	var err error
	if run.buf, err = run.memo.AppendJSON(run.buf, r); err != nil {
		if run.err == nil {
			run.err, run.errSeq = err, r.Seq
		}
	} else {
		run.buf = append(run.buf, '\n')
	}
	run.ends = append(run.ends, len(run.buf))
}

// take sets the workers' runs aside for merge and hands the workers the
// runs the last merge emptied. It books the taken bytes into n and
// returns the lowest-Seq encoding error among the taken rows; when
// there is one nothing is booked, and merge hands over no bytes. Call
// only at a drain barrier, once the last take's merge has returned.
func (s *orderedSink) take() error {
	s.runs, s.taken = s.taken, s.runs
	var err error
	var errSeq int64
	var n int
	for i := range s.taken {
		run := &s.taken[i]
		n += len(run.buf)
		if run.err != nil && (err == nil || run.errSeq < errSeq) {
			err, errSeq = run.err, run.errSeq
		}
	}
	s.failed = err != nil
	if !s.failed {
		s.n += int64(n)
	}
	return err
}

// merge joins the taken runs in sequence order into batch, which also
// joins the accumulated dataset, and with encode set and nothing failed
// their JSONL bytes into jsonl, then empties the taken runs. It may run
// beside the workers' adds: they fill the other set. A run that does
// not ascend in Seq is a scanner bug, and merge panics rather than emit
// rows out of order.
func (s *orderedSink) merge() {
	// A merge whose rows all sit in one run (always at Workers 1, and
	// whenever one session made the whole slice) hands over that run's
	// buffer as it is, with no copy.
	var only *sinkRun
	for i := range s.taken {
		if len(s.taken[i].rows) > 0 {
			if only != nil {
				only = nil
				break
			}
			only = &s.taken[i]
		}
	}
	copyBytes := s.encode && !s.failed && only == nil
	batch, buf := s.batch[:0], s.jsonl[:0]
	for {
		// The run whose head has the lowest Seq...
		var next *sinkRun
		for i := range s.taken {
			run := &s.taken[i]
			if run.head < len(run.rows) && (next == nil || run.rows[run.head].Seq < next.rows[next.head].Seq) {
				next = run
			}
		}
		if next == nil {
			break
		}
		// ...gives up its stretch of consecutive Seqs: no other run can
		// hold a Seq inside it.
		lo, hi := next.head, next.head+1
		for ; hi < len(next.rows); hi++ {
			prev, seq := next.rows[hi-1].Seq, next.rows[hi].Seq
			if seq <= prev {
				panic(fmt.Sprintf("core: a scan worker emitted Seq %d after Seq %d", seq, prev))
			}
			if seq != prev+1 {
				break
			}
		}
		batch = append(batch, next.rows[lo:hi]...)
		if copyBytes {
			start := 0
			if lo > 0 {
				start = next.ends[lo-1]
			}
			buf = append(buf, next.buf[start:next.ends[hi-1]]...)
		}
		next.head = hi
	}
	if only != nil && s.encode && !s.failed {
		// The run's bytes leave with the slice, and the run takes the
		// buffer the last merge handed over, free again now.
		buf, only.buf = only.buf, buf
	}
	s.batch, s.jsonl = batch, buf
	for i := range s.taken {
		run := &s.taken[i]
		run.rows, run.buf, run.ends = run.rows[:0], run.buf[:0], run.ends[:0]
		run.memo.Reset()
		run.err, run.head = nil, 0
	}
	s.all = append(s.all, batch...)
}

// flush is take and merge at once, for a caller with no sink job.
func (s *orderedSink) flush() error {
	err := s.take()
	s.merge()
	return err
}

// sliceSink is a campaign's sink job: one slice's merge, then its JSONL
// write, then its store append, then its aggregator feed, run on a
// goroutine of its own while the campaign collects and scans the next
// slice. At most one job is in flight, and the campaign joins it before
// the next take hands the sink's other set of runs back to the
// workers. The merge leaves no job empty: even with nothing to write
// and neither a store nor an aggregator, the job merges the slice's
// rows into the dataset.
//
// Every slice's telemetry line and checkpoint are captured at the
// slice's barrier and written or delivered after the join, with only
// store.WriterSeries re-read: the append advances those counters and
// nothing else, so the line and the checkpoint are the ones a
// barrier-time append would have produced.
type sliceSink struct {
	sink *orderedSink
	out  io.Writer
	st   *store.Store
	agg  SliceAggregator
	done chan error // depth 1: the in-flight job's result
	busy bool
}

// run is one slice's sink job on the runs the last take set aside. Each
// step after the merge runs even when an earlier one failed; the first
// error is returned.
func (k *sliceSink) run(slice int, caps []store.CaptureRow) error {
	k.sink.merge()
	jsonl, results := k.sink.jsonl, k.sink.batch
	var err error
	if len(jsonl) > 0 {
		_, err = k.out.Write(jsonl)
	}
	if k.st != nil {
		if serr := k.st.AppendSlice(slice, caps, results); err == nil {
			err = serr
		}
	}
	if k.agg != nil {
		if aerr := k.agg.AggregateSlice(slice, caps, results); err == nil {
			err = aerr
		}
	}
	return err
}

// start runs the slice's job on the sink goroutine. caps must not
// change until join returns.
func (k *sliceSink) start(slice int, caps []store.CaptureRow) {
	k.busy = true
	go func() { k.done <- k.run(slice, caps) }()
}

// join waits for the in-flight job and returns its error.
func (k *sliceSink) join() error {
	k.busy = false
	return <-k.done
}

// RunCampaign is the §4.1 collect-and-scan campaign with streaming
// output and checkpointing. With zero opts it produces exactly
// RunNTPCampaign's dataset.
func (p *Pipeline) RunCampaign(ctx context.Context, opts CampaignOpts) (*analysis.Dataset, error) {
	return p.runCampaignFrom(ctx, 0, opts)
}

// ResumeCampaign continues a checkpointed campaign on a freshly built
// pipeline. The pipeline must have been constructed with the same
// Config (seed, scales, shards) — and the same FaultPlan installed —
// as the run that took the checkpoint; the resumed run then emits the
// exact output the uninterrupted run would have produced from
// cp.OutOffset onward. An attached store is rewound to the manifest the
// checkpoint pins, and an attached aggregator is then fed that store
// again, so it needs the store: without one the resume is refused.
func (p *Pipeline) ResumeCampaign(ctx context.Context, cp *Checkpoint, opts CampaignOpts) (*analysis.Dataset, error) {
	if err := p.restore(cp); err != nil {
		return nil, err
	}
	if opts.Store != nil {
		if cp.Store == nil {
			return nil, fmt.Errorf("core: checkpoint carries no store manifest but a store is attached")
		}
		if err := opts.Store.ResetTo(*cp.Store); err != nil {
			return nil, err
		}
	}
	if opts.Aggregates != nil {
		// The store is the record: the aggregate view is rebuilt from the
		// segments the checkpoint pins, not carried beside them.
		if opts.Store == nil {
			return nil, fmt.Errorf("core: an aggregator resumes from the rewound store, but no store is attached")
		}
		if err := opts.Store.ReplaySlices(opts.Aggregates.AggregateSlice); err != nil {
			return nil, fmt.Errorf("core: rebuild aggregates: %w", err)
		}
	}
	return p.runCampaignFrom(ctx, cp.NextSlice, opts)
}

// runCampaignFrom drives collection from startSlice with the scan feed
// attached, handing each slice to the sink and taking checkpoints at
// slice boundaries.
func (p *Pipeline) runCampaignFrom(ctx context.Context, startSlice int, opts CampaignOpts) (*analysis.Dataset, error) {
	p.dispatch = opts.Dispatch
	p.dispatchErr = nil
	defer func() { p.dispatch = nil }()
	p.recordCaps = true
	sink := newOrderedSink(p.Cfg.Workers, opts.Out != nil)
	if p.restoreCp != nil && sink.encode {
		sink.n = p.restoreCp.OutOffset
	}
	scanner := p.newScanner(sink.add)
	if p.restoreCp != nil {
		scanner.Restore(p.restoreCp.Scan)
	}
	scanner.Start(ctx)

	var tw *obs.TelemetryWriter
	if opts.Telemetry != nil {
		tw = obs.NewTelemetryWriter(p.Obs, opts.Telemetry)
	}

	var werr error
	keep := func(err error) {
		if err != nil && werr == nil {
			werr = err
		}
	}
	sk := &sliceSink{sink: sink, out: opts.Out, st: opts.Store, agg: opts.Aggregates, done: make(chan error, 1)}
	// pending is the checkpoint captured at the in-flight job's barrier.
	var pending *Checkpoint
	// settle joins the in-flight sink job, then writes the telemetry line
	// and delivers the checkpoint captured at its barrier. Errors keep
	// slice order: a job's error is recorded before the next slice's
	// take can fail.
	settle := func() {
		if !sk.busy {
			return
		}
		keep(sk.join())
		if tw != nil {
			keep(tw.WriteCaptured(store.WriterSeries...))
		}
		if pending != nil {
			p.Obs.Reread(pending.Obs, store.WriterSeries...)
			if opts.Store != nil {
				m := opts.Store.Manifest()
				pending.Store = &m
			}
			opts.OnCheckpoint(pending)
			pending = nil
		}
	}
	// capBase marks the capture-log high-water mark, so each slice's
	// store append carries exactly the captures that slice produced.
	// After a restore the log already holds the replayed prefix — those
	// slices live in segments the store was reset to. The sink job reads
	// its stretch of the log while the next slice appends after it.
	capBase := len(p.capLog)
	p.collectFrom(startSlice, func(batch []netip.Addr) {
		scanner.SubmitBatch(batch)
	}, scanner.Drain, func(next int, shards []*collectShard) {
		// The previous slice's sink job may still be merging the runs
		// this take hands back to the workers; join it first.
		settle()
		keep(sink.take())
		// Telemetry is captured before the checkpoint counter below
		// ticks, so full and resumed runs agree on every line.
		p.met.outBytes.Set(sink.n)
		if tw != nil {
			tw.Capture(next-1, p.W.Clock().Now())
		}
		// The job merges the slice's runs, writes its JSONL, the store
		// appends its capture events and results, and the aggregator
		// sees exactly the rows the store appends.
		sk.start(next-1, p.capLog[capBase:])
		capBase = len(p.capLog)
		// After a failed dispatch the slices left are skipped: a
		// checkpoint would claim work that never ran.
		if opts.CheckpointEvery > 0 && opts.OnCheckpoint != nil && p.dispatchErr == nil &&
			next < collectSlices && next%opts.CheckpointEvery == 0 {
			p.met.checkpoints.Inc()
			pending = p.checkpoint(next, shards, scanner, sink.n)
		}
	})
	scanner.Close()
	settle()
	// A fatal dispatcher error outranks sink errors: it names the root
	// cause (the control plane died), not the knock-on effects.
	keep(p.dispatchErr)
	keep(sink.take())
	// The post-Close drain can surface a result tail past the last
	// collection slice; it is merged and written last, here, and lands
	// on the synthetic slice collectSlices (for both the store and the
	// aggregator), and sealing garbage-collects retired compaction
	// inputs.
	keep(sk.run(collectSlices, nil))
	if opts.Store != nil {
		keep(opts.Store.Seal())
	}
	p.restoreCp, p.restoreArenas = nil, nil
	return analysis.NewDataset("ntp", sink.all), werr
}

// checkpoint snapshots the campaign at a drain barrier. next is the
// first slice still to run; shards are quiescent.
func (p *Pipeline) checkpoint(next int, shards []*collectShard, scanner *zgrab.Scanner, outOffset int64) *Checkpoint {
	cp := &Checkpoint{
		Seed:          p.Cfg.Seed,
		CollectShards: p.Cfg.CollectShards,
		NextSlice:     next,
		Time:          p.W.Clock().Now(),
		Captures:      p.captures.Load(),
		Shards:        make([]ShardSnap, len(shards)),
		CapLog:        append([]store.CaptureRow(nil), p.capLog...),
		Scan:          scanner.Snapshot(),
		PoolScores:    make(PoolScoreMap, len(p.Servers)),
		Obs:           p.Obs.Snapshot(),
		OutOffset:     outOffset,
	}
	for i, r := range p.shardRefs(shards) {
		cp.Shards[i] = r.Snapshot()
	}
	for i, done := range p.respCaptured {
		if done {
			cp.CapturedResp = append(cp.CapturedResp, i)
		}
	}
	for _, vs := range p.Servers {
		cp.PoolScores[vs.ID] = p.Pool.Score(vs.ID)
	}
	return cp
}

// restore rebuilds the checkpointed campaign state on a fresh
// pipeline: clock, pool health, dedup accumulators (by replaying the
// first-seen capture log), the responsive bitmap, and the shard stream
// positions (applied lazily when makeCollectShards runs).
func (p *Pipeline) restore(cp *Checkpoint) error {
	if cp.Seed != p.Cfg.Seed {
		return fmt.Errorf("core: checkpoint seed %d does not match pipeline seed %d", cp.Seed, p.Cfg.Seed)
	}
	if cp.CollectShards != p.Cfg.CollectShards || len(cp.Shards) != p.Cfg.CollectShards {
		return fmt.Errorf("core: checkpoint has %d shards, pipeline %d", len(cp.Shards), p.Cfg.CollectShards)
	}
	if cp.NextSlice < 1 || cp.NextSlice > collectSlices {
		return fmt.Errorf("core: checkpoint slice %d out of range", cp.NextSlice)
	}
	if p.captures.Load() != 0 {
		return fmt.Errorf("core: resume requires a fresh pipeline")
	}
	// Rebuild the shard arenas here rather than in makeCollectShards:
	// the snapshots come from disk, and Restore rejects one taken under
	// a different ArenaBytes or damaged since.
	arenas := make([]*world.Materializer, len(cp.Shards))
	for i := range cp.Shards {
		arenas[i] = p.W.NewMaterializer(p.Cfg.ArenaBytes)
		if st := cp.Shards[i].Arena; st != nil {
			if err := arenas[i].Restore(st); err != nil {
				return fmt.Errorf("core: shard %d: %w", i, err)
			}
		}
	}
	p.restoreCp, p.restoreArenas = cp, arenas
	if clock := p.W.Clock(); cp.Time.After(clock.Now()) {
		clock.Set(cp.Time)
	}
	for id, score := range cp.PoolScores {
		p.Pool.SetScore(id, score)
	}
	p.captures.Store(cp.Captures)
	// Replay the first-seen log: each address re-Added exactly once
	// restores every dedup'd statistic; the world's fabric registration
	// side effects are not needed here (any address scanned after the
	// resume point is re-registered by its own capture's CurrentAddr).
	for _, rec := range cp.CapLog {
		if p.Summary.Add(rec.Addr) {
			p.EUI.Add(rec.Addr, rec.Vantage)
			if vs, ok := p.ServerByCountry(rec.Vantage); ok {
				p.perCountryN[vs.idx]++
			}
		}
	}
	p.capLog = append(p.capLog, cp.CapLog...)
	p.responsive() // size the bitmap
	for _, i := range cp.CapturedResp {
		if i >= 0 && i < len(p.respCaptured) {
			p.respCaptured[i] = true
		}
	}
	// Metrics last: the capture-log replay above re-ran instrumented
	// paths, and the checkpointed values are authoritative — Restore
	// overwrites whatever the replay accumulated. Scanner metrics are
	// not registered yet (the scanner is built in runCampaignFrom);
	// their values stay pending in the registry and apply then.
	p.Obs.Restore(cp.Obs)
	return nil
}
