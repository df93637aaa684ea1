package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ntpscan/internal/chaos"
	"ntpscan/internal/cluster"
	"ntpscan/internal/core"
	"ntpscan/internal/query"
	"ntpscan/internal/store"
)

// workload is one named set of inputs. The harness sets it up (timed,
// several times), lets it run until a deadline — possibly in several
// turns when workloads are interleaved — and asks for its end-to-end
// metrics.
type workload interface {
	name() string
	setup() error
	teardown()
	// run measures until the deadline: whole iterations for campaign
	// workloads (at least one per call), requests for serve workloads.
	run(until time.Time) error
	// report folds the samples into the workload's end-to-end metrics;
	// the harness adds setup_s, peak_rss_mb and failed_share.
	report() map[string]float64
	// throughput is the cumulative count of the workload's primary
	// operations and the seconds they took; the traced run compares its
	// rate with and without the recorder.
	throughput() (ops, seconds float64)
	acct() *base
}

func newWorkload(name string, e *env) (workload, error) {
	b := base{e: e}
	switch name {
	case wClean:
		return &cleanWorkload{campaignBase{base: b}}, nil
	case wDurable:
		return &durableWorkload{campaignBase{base: b}}, nil
	case wCluster:
		return &clusterWorkload{campaignBase: campaignBase{base: b}}, nil
	case wSealed:
		return &sealedWorkload{base: b}, nil
	case wLive:
		return &liveWorkload{campaignBase: campaignBase{base: b}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// campaignBase is what the workloads that run campaigns share: the
// reference they are checked against, the iterate-until-deadline loop,
// and the per-campaign accounting.
type campaignBase struct {
	base
	ref      reference
	lastIter time.Duration
}

func (c *campaignBase) acct() *base { return &c.base }

func (c *campaignBase) setup() error {
	ref, err := c.e.computeReference()
	c.ref = ref
	return err
}

func (c *campaignBase) teardown() {}

// throughput counts result rows over campaign seconds.
func (c *campaignBase) throughput() (ops, seconds float64) {
	for i, s := range c.series["campaign_s"] {
		seconds += s
		ops += c.series["results_per_s"][i] * s
	}
	return ops, seconds
}

// loop runs iterations while another is expected to end by the
// deadline, and always at least one. A calibration sample sits on
// either side of every iteration.
func (c *campaignBase) loop(until time.Time, iterate func() error) error {
	c.calibrate()
	for first := true; first || time.Now().Add(c.lastIter).Before(until); first = false {
		t0 := time.Now()
		c.attempted++
		if err := iterate(); err != nil {
			return err
		}
		// About one kernel sample per half second of workload, so long
		// iterations do not leave the host factor resting on a handful.
		for n := min(max(int(time.Since(t0)/(500*time.Millisecond)), 1), 4); n > 0; n-- {
			c.calibrate()
		}
		c.lastIter = time.Since(t0)
	}
	return nil
}

// campaignRun is one timed campaign: wall-clock bounds, the heap
// allocations it made, and its output.
type campaignRun struct {
	start, end time.Time
	mallocs    uint64
	out        *sliceWriter
	err        error
}

// timeCampaign runs fn, which must drive exactly one campaign into out.
func timeCampaign(out *sliceWriter, fn func() error) campaignRun {
	r := campaignRun{out: out}
	m0 := mallocs()
	r.start = time.Now()
	r.err = fn()
	r.end = time.Now()
	r.mallocs = mallocs() - m0
	return r
}

// record files a campaign's samples and checks it against the
// reference. It reports whether the campaign passed.
func (c *campaignBase) record(r campaignRun, parent int64) bool {
	rec := c.e.rec
	id := rec.add("campaign", parent, r.start, r.end)
	prev := r.start
	for _, s := range r.out.stamps {
		rec.add("slice", id, prev, s)
		prev = s
	}
	if r.err != nil {
		c.failf("campaign: %v", r.err)
		return false
	}
	if r.out.sum() != c.ref.sum {
		c.failf("campaign JSONL (%d rows, %d bytes) differs from the Workers=1 reference (%d rows, %d bytes)",
			r.out.rows, r.out.n, c.ref.rows, c.ref.bytes)
		return false
	}
	secs := r.end.Sub(r.start).Seconds()
	c.add("campaign_s", secs)
	c.add("results_per_s", float64(r.out.rows)/secs)
	c.add("slice_ms", sliceGapsMs(r.start, r.out.stamps)...)
	c.add("allocs_per_result", float64(r.mallocs)/float64(r.out.rows))
	return true
}

// allocsTolerance is how far allocs_per_result may spread inside one
// run. The campaign allocates per result, not per scheduling accident:
// iterations differ by a few dozen allocations in several hundred
// thousand, and more than a thousandth is a fault.
const allocsTolerance = 1e-3

// campaignReport is the campaign metrics every campaign workload
// reports.
func (c *campaignBase) campaignReport() map[string]float64 {
	m := map[string]float64{}
	if len(c.series["results_per_s"]) == 0 {
		return m
	}
	m["results_per_s"] = median(c.series["results_per_s"])
	sl := summarize(c.series["slice_ms"])
	m["slice_p50_ms"] = sl.Median
	m["slice_p95_ms"] = sl.Tail
	allocs := append([]float64(nil), c.series["allocs_per_result"]...)
	sort.Float64s(allocs)
	m["allocs_per_result"] = quantile(allocs, 0.5)
	if lo, hi := allocs[0], allocs[len(allocs)-1]; hi-lo > allocsTolerance*m["allocs_per_result"] {
		c.failf("allocs_per_result did not repeat within the run: %.4f to %.4f", lo, hi)
	}
	return m
}

// ---- campaign_clean ----

type cleanWorkload struct{ campaignBase }

func (w *cleanWorkload) name() string { return wClean }

func (w *cleanWorkload) run(until time.Time) error {
	return w.loop(until, func() error {
		t0 := time.Now()
		it := w.e.rec.open("iteration", 0, t0)
		p := core.NewPipeline(w.e.config(w.e.workers))
		w.e.rec.add("core.NewPipeline", it, t0, time.Now())
		out := newSliceWriter()
		r := timeCampaign(out, func() error {
			_, err := p.RunCampaign(context.Background(), core.CampaignOpts{Out: out})
			return err
		})
		w.record(r, it)
		w.e.rec.done(it, time.Now())
		return nil
	})
}

func (w *cleanWorkload) report() map[string]float64 { return w.campaignReport() }

// ---- campaign_durable ----

// resumeSlice is the checkpoint the durable workload resumes from: the
// last of the eleven a CheckpointEvery-8 campaign takes, so the
// checkpoint is at its largest and the replayed history at its longest.
const (
	checkpointEvery = 8
	resumeSlice     = 88
)

type durableWorkload struct{ campaignBase }

func (w *durableWorkload) name() string { return wDurable }

// countWriter is the telemetry sink: the campaign pays for encoding the
// registry every slice, the bytes are only counted.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// durableRun is one campaign with every durable seam attached.
type durableRun struct {
	dir   string
	p     *core.Pipeline
	st    *store.Store
	agg   *query.Aggregates
	tel   countWriter
	cpDir string
	// cpBytes maps a checkpoint's NextSlice to its encoded size;
	// cpNs sums the encode-and-write time.
	cpBytes map[int]int64
	cpNs    int64
	// resumeState is the output hash state at the resumeSlice
	// checkpoint, resumeOffset that checkpoint's OutOffset.
	resumeState  []byte
	resumeOffset int64
	cpErr        error
}

// durableOpts wires the durable seams of a campaign writing to out:
// store, aggregates, telemetry, and a checkpoint every 8 slices, each
// encoded with cluster.EncodeCheckpoint to a file.
func (e *env) durableOpts(d *durableRun, out *sliceWriter, parent int64) core.CampaignOpts {
	d.cpBytes = map[int]int64{}
	return core.CampaignOpts{
		Out:             out,
		Store:           d.st,
		Aggregates:      d.agg,
		Telemetry:       &d.tel,
		CheckpointEvery: checkpointEvery,
		OnCheckpoint: func(cp *core.Checkpoint) {
			t0 := time.Now()
			n, err := writeCheckpoint(filepath.Join(d.cpDir, cpName(cp.NextSlice)), cp)
			t1 := time.Now()
			e.rec.add("checkpoint", parent, t0, t1)
			d.cpNs += t1.Sub(t0).Nanoseconds()
			d.cpBytes[cp.NextSlice] = n
			if err != nil && d.cpErr == nil {
				d.cpErr = err
			}
			if cp.NextSlice == resumeSlice {
				d.resumeOffset = cp.OutOffset
				if d.resumeState, err = out.state(); err != nil && d.cpErr == nil {
					d.cpErr = err
				}
				if out.n != cp.OutOffset && d.cpErr == nil {
					d.cpErr = fmt.Errorf("checkpoint %d: OutOffset %d, but %d bytes were written", cp.NextSlice, cp.OutOffset, out.n)
				}
			}
		},
	}
}

func cpName(slice int) string { return fmt.Sprintf("cp-%02d.bin", slice) }

func writeCheckpoint(path string, cp *core.Checkpoint) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	var cw countWriter
	if err := cluster.EncodeCheckpoint(io.MultiWriter(f, &cw), cp); err != nil {
		f.Close()
		return cw.n, err
	}
	return cw.n, f.Close()
}

// newDurableRun builds a fresh pipeline, store directory and
// aggregates.
func (e *env) newDurableRun(workers int) (*durableRun, error) {
	dir, err := e.freshDir("store")
	if err != nil {
		return nil, err
	}
	d := &durableRun{dir: dir, cpDir: dir + ".cp", p: core.NewPipeline(e.config(workers)), agg: query.NewAggregates()}
	if err := os.MkdirAll(d.cpDir, 0o755); err != nil {
		return nil, err
	}
	d.st, err = store.Open(dir, store.Options{Obs: d.p.Obs})
	return d, err
}

func (d *durableRun) remove() {
	os.RemoveAll(d.dir)
	os.RemoveAll(d.cpDir)
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

func (w *durableWorkload) run(until time.Time) error {
	return w.loop(until, w.iterate)
}

func (w *durableWorkload) iterate() error {
	rec := w.e.rec
	t0 := time.Now()
	it := rec.open("iteration", 0, t0)
	defer func() { rec.done(it, time.Now()) }()

	d, err := w.e.newDurableRun(w.e.workers)
	if err != nil {
		return err
	}
	defer d.remove()
	rec.add("core.NewPipeline+store.Open", it, t0, time.Now())

	out := newSliceWriter()
	opts := w.e.durableOpts(d, out, it)
	r := timeCampaign(out, func() error {
		_, err := d.p.RunCampaign(context.Background(), opts)
		return err
	})
	if !w.record(r, it) {
		return nil
	}
	if d.cpErr != nil {
		w.failf("checkpoint: %v", d.cpErr)
		return nil
	}

	o0 := time.Now()
	ok := w.checkStore(d)
	rec.add("oracle", it, o0, time.Now())
	if !ok {
		return nil
	}

	var maxBytes int64
	for _, n := range d.cpBytes {
		maxBytes = max(maxBytes, n)
	}
	w.add("checkpoint_kb_max", float64(maxBytes)/1024)
	w.add("checkpoint_ms_total", float64(d.cpNs)/1e6)

	r0 := time.Now()
	first, err := w.resume(d)
	rec.add("resume", it, r0, time.Now())
	if err != nil {
		w.failf("resume: %v", err)
		return nil
	}
	rec.add("resume.to_first_slice", it, r0, first)
	w.add("resume_s", first.Sub(r0).Seconds())
	return nil
}

// checkStore holds the sealed store and the incremental aggregates to
// the reference: the store's JSONL export must be the campaign's
// output, and a full recomputation from the store must snapshot to the
// same bytes as the aggregates fed slice by slice.
func (w *durableWorkload) checkStore(d *durableRun) bool {
	h := sha256.New()
	if err := d.st.ExportJSONL(h, store.Pred{}); err != nil {
		w.failf("store export: %v", err)
		return false
	}
	if !bytes.Equal(h.Sum(nil), w.ref.sum[:]) {
		w.failf("store.ExportJSONL differs from the reference JSONL")
		return false
	}
	inc, err := d.agg.Snapshot()
	if err != nil {
		w.failf("aggregates snapshot: %v", err)
		return false
	}
	full, err := query.FromStore(d.st)
	if err != nil {
		w.failf("query.FromStore: %v", err)
		return false
	}
	fullSnap, err := full.Snapshot()
	if err != nil {
		w.failf("recomputed aggregates snapshot: %v", err)
		return false
	}
	if !bytes.Equal(inc, fullSnap) {
		w.failf("incremental aggregates snapshot differs from query.FromStore's")
		return false
	}
	caps, results, err := d.st.Rows()
	if err != nil {
		w.failf("store rows: %v", err)
		return false
	}
	size, err := dirBytes(d.dir)
	if err != nil {
		w.failf("store size: %v", err)
		return false
	}
	w.add("store_bytes_per_row", float64(size)/float64(caps+results))
	return true
}

// resume plays the crash-and-restart a checkpoint exists for: a fresh
// pipeline, the slice-88 checkpoint decoded from its file, the store
// directory reopened and rewound, and the campaign continued to its
// end. It returns when the first post-resume slice was flushed; the
// prefix hashed up to the checkpoint's OutOffset plus the resumed tail
// must be the reference.
func (w *durableWorkload) resume(d *durableRun) (first time.Time, err error) {
	p := core.NewPipeline(w.e.config(w.e.workers))
	f, err := os.Open(filepath.Join(d.cpDir, cpName(resumeSlice)))
	if err != nil {
		return first, err
	}
	cp, err := cluster.DecodeCheckpoint(f)
	f.Close()
	if err != nil {
		return first, err
	}
	st, err := store.Open(d.dir, store.Options{Obs: p.Obs})
	if err != nil {
		return first, err
	}
	out, err := resumeWriter(d.resumeState, d.resumeOffset)
	if err != nil {
		return first, err
	}
	var tel countWriter
	_, err = p.ResumeCampaign(context.Background(), cp, core.CampaignOpts{
		Out: out, Store: st, Aggregates: query.NewAggregates(), Telemetry: &tel,
	})
	if err != nil {
		return first, err
	}
	if len(out.stamps) == 0 {
		return first, fmt.Errorf("resumed campaign flushed no slice")
	}
	if out.sum() != w.ref.sum {
		return first, fmt.Errorf("JSONL prefix up to OutOffset %d plus the resumed tail differs from the reference", d.resumeOffset)
	}
	return out.stamps[0], nil
}

func (w *durableWorkload) report() map[string]float64 {
	m := w.campaignReport()
	for _, name := range []string{"checkpoint_kb_max", "resume_s", "store_bytes_per_row"} {
		if len(w.series[name]) > 0 {
			m[name] = median(w.series[name])
		}
	}
	return m
}

// ---- cluster_lease ----

type clusterWorkload struct {
	campaignBase
	counts []taskCounts
}

// taskCounts is the coordinator's task ledger after a campaign; it is a
// pure function of the fault plan and must repeat exactly.
type taskCounts struct{ claimed, completed, fenced, lost int64 }

func (w *clusterWorkload) name() string { return wCluster }

// nodeFaultPipeline builds a pipeline under a plan holding node-level
// faults only: one crash and one partition, drawn from the seed. The
// data plane stays clean, so the output is campaign_clean's, while the
// lease table has to expire, fence and rebalance.
func (e *env) nodeFaultPipeline(nodes int) *core.Pipeline {
	p := core.NewPipeline(e.config(e.workers))
	loss := chaos.NodeLossSpec(nodes, 1)
	p.InstallFaults(chaos.PlanFor(p, e.seed, chaos.Spec{
		ClusterNodes:   nodes,
		NodeKills:      loss.NodeKills,
		KillLen:        loss.KillLen,
		NodePartitions: loss.NodePartitions,
		PartitionLen:   loss.PartitionLen,
	}))
	return p
}

func (w *clusterWorkload) run(until time.Time) error {
	return w.loop(until, func() error {
		t0 := time.Now()
		it := w.e.rec.open("iteration", 0, t0)
		defer func() { w.e.rec.done(it, time.Now()) }()
		p := w.e.nodeFaultPipeline(w.e.workers)
		coord, err := cluster.NewCoordinator(p, cluster.Config{Nodes: w.e.workers})
		if err != nil {
			return err
		}
		w.e.rec.add("core.NewPipeline+cluster.NewCoordinator", it, t0, time.Now())
		out := newSliceWriter()
		r := timeCampaign(out, func() error {
			_, err := coord.Run(context.Background(), core.CampaignOpts{Out: out})
			return err
		})
		if !w.record(r, it) {
			return nil
		}
		var c taskCounts
		c.claimed, c.completed, c.fenced, c.lost = coord.TaskCounts()
		if c.claimed != c.completed+c.fenced+c.lost {
			w.failf("task conservation: claimed %d != completed %d + fenced %d + lost %d", c.claimed, c.completed, c.fenced, c.lost)
		}
		if len(w.counts) > 0 && c != w.counts[0] {
			w.failf("task ledger %+v differs from the first iteration's %+v", c, w.counts[0])
		}
		w.counts = append(w.counts, c)
		return nil
	})
}

func (w *clusterWorkload) report() map[string]float64 {
	if len(w.counts) > 0 {
		c := w.counts[0]
		w.notes = []string{fmt.Sprintf("nodes=%d, task ledger per campaign: claimed %d, completed %d, fenced %d, lost %d (identical in all %d iterations)",
			w.e.workers, c.claimed, c.completed, c.fenced, c.lost, len(w.counts))}
	}
	return w.campaignReport()
}
