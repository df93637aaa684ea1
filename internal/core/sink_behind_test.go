package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ntpscan/internal/chaos"
	"ntpscan/internal/core"
	"ntpscan/internal/query"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
	"ntpscan/internal/zgrab"
)

func sinkConfig(seed uint64, workers int) core.Config {
	return core.Config{
		Seed:          seed,
		World:         world.Config{DeviceScale: 1e-3, AddrScale: 1e-6, ASScale: 0.02},
		Workers:       workers,
		CaptureBudget: 400,
	}
}

// durableCampaign runs (or, with cp, resumes) a campaign with every
// sink attached — JSONL, telemetry, a store in dir and aggregates — and
// returns its output, its telemetry and the aggregates' snapshot.
func durableCampaign(t *testing.T, cfg core.Config, dir string, cp *core.Checkpoint, opts core.CampaignOpts) (out, tel, agg string) {
	t.Helper()
	p := core.NewPipeline(cfg)
	st, err := store.Open(dir, store.Options{Obs: p.Obs})
	if err != nil {
		t.Fatal(err)
	}
	aggs := query.NewAggregates()
	var o, tl bytes.Buffer
	opts.Out, opts.Telemetry, opts.Store, opts.Aggregates = &o, &tl, st, aggs
	if cp == nil {
		_, err = p.RunCampaign(context.Background(), opts)
	} else {
		_, err = p.ResumeCampaign(context.Background(), cp, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	snap, err := aggs.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return o.String(), tl.String(), string(snap)
}

// Checkpoints every 5 slices fall between compactions (every 8), so
// most resume from a store whose last compaction ran on the sink
// goroutine, behind the scanner. Resuming from each must reproduce the
// uninterrupted run's JSONL and telemetry tails, store directory and
// aggregates byte for byte.
func TestResumeBetweenCompactions(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := sinkConfig(51, workers)
			dir := t.TempDir()
			type crash struct {
				cp  *core.Checkpoint
				dir string // the store directory as it stood at cp
			}
			var crashes []crash
			out, tel, agg := durableCampaign(t, cfg, dir, nil, core.CampaignOpts{
				CheckpointEvery: 5,
				OnCheckpoint: func(cp *core.Checkpoint) {
					at := filepath.Join(t.TempDir(), "store")
					if err := os.CopyFS(at, os.DirFS(dir)); err != nil {
						t.Fatal(err)
					}
					crashes = append(crashes, crash{cp, at})
				},
			})
			if len(crashes) != core.CollectSlices/5 {
				t.Fatalf("%d checkpoints, want %d", len(crashes), core.CollectSlices/5)
			}
			digest := store.DirDigest(t, dir)
			lines := strings.SplitAfter(tel, "\n")
			for _, c := range crashes {
				n := c.cp.NextSlice
				// A checkpoint slice's job runs behind the scanner, like any
				// other's, and both its telemetry line and its checkpoint
				// re-read the store counters once it is joined: the line
				// must show the counters the checkpoint holds.
				var line struct{ Metrics map[string]int64 }
				if err := json.Unmarshal([]byte(lines[n-1]), &line); err != nil {
					t.Fatal(err)
				}
				for _, name := range store.WriterSeries {
					if got, want := line.Metrics[name], c.cp.Obs[name][0]; got != want {
						t.Errorf("slice %d telemetry: %s = %d, checkpoint holds %d", n-1, name, got, want)
					}
				}
				// The resumed run checkpoints too: the checkpoint counter is
				// in its telemetry.
				gotOut, gotTel, gotAgg := durableCampaign(t, cfg, c.dir, c.cp, core.CampaignOpts{
					CheckpointEvery: 5,
					OnCheckpoint:    func(*core.Checkpoint) {},
				})
				if gotOut != out[c.cp.OutOffset:] {
					t.Errorf("resume at slice %d: JSONL tail diverges", n)
				}
				if gotTel != strings.Join(lines[n:], "") {
					t.Errorf("resume at slice %d: telemetry tail diverges", n)
				}
				if store.DirDigest(t, c.dir) != digest {
					t.Errorf("resume at slice %d: store directory diverges", n)
				}
				if gotAgg != agg {
					t.Errorf("resume at slice %d: aggregates diverge", n)
				}
			}
		})
	}
}

// orderAggregator checks the sink's contract from inside: calls come
// one at a time, in strictly increasing slice order. It fails at
// failAt.
type orderAggregator struct {
	inflight atomic.Int32
	overlap  atomic.Bool
	// last and calls are touched only inside calls; the campaign must
	// join each call before it reads them.
	last, calls int
	disorder    bool
	failAt      int
}

func (a *orderAggregator) AggregateSlice(slice int, _ []store.CaptureRow, _ []*zgrab.Result) error {
	if a.inflight.Add(1) != 1 {
		a.overlap.Store(true)
	}
	defer a.inflight.Add(-1)
	runtime.Gosched() // widen the window a second call would need
	if slice <= a.last {
		a.disorder = true
	}
	a.last = slice
	a.calls++
	if slice == a.failAt {
		return fmt.Errorf("aggregator failed at slice %d", slice)
	}
	return nil
}

// sliceOfJSONL returns the collection slice whose window holds the
// time of the first JSONL line in b: the slice a write's bytes belong
// to, wherever and whenever the write is made. It reports a failure
// with t.Error, so a sink goroutine may call it.
func sliceOfJSONL(t *testing.T, p *core.Pipeline, b []byte) int {
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	var r struct {
		Time time.Time `json:"time"`
	}
	if err := json.Unmarshal(line, &r); err != nil {
		t.Errorf("first line of a write: %v", err)
		return -1
	}
	for s := range core.CollectSlices {
		if from, until := p.SliceWindow(s); !r.Time.Before(from) && r.Time.Before(until) {
			return s
		}
	}
	t.Errorf("first line of a write is stamped %v, past every slice", r.Time)
	return -1
}

// sliceFailWriter fails every write whose bytes belong to slice from
// or a later one.
type sliceFailWriter struct {
	t      *testing.T
	p      *core.Pipeline
	from   int
	failed int
}

func (w *sliceFailWriter) Write(b []byte) (int, error) {
	if sliceOfJSONL(w.t, w.p, b) < w.from {
		return len(b), nil
	}
	w.failed++
	return 0, errors.New("out writer failed")
}

// The sink runs behind the scanner but keeps the synchronous order:
// aggregator calls never overlap, arrive in strictly increasing slice
// order with the tail last, are joined before every checkpoint and
// before RunCampaign returns, and their errors keep slice order — an
// aggregator failing at slice k outranks an Out writer failing from
// slice k+1 on.
func TestSinkCallsKeepSliceOrder(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	const k = 10 // not a checkpoint slice: its job runs behind the scanner
	p := core.NewPipeline(sinkConfig(52, 3))
	st, err := store.Open(t.TempDir(), store.Options{Obs: p.Obs})
	if err != nil {
		t.Fatal(err)
	}
	agg := &orderAggregator{last: -1, failAt: k}
	out := &sliceFailWriter{t: t, p: p, from: k + 1}
	checkpoints := 0
	_, err = p.RunCampaign(context.Background(), core.CampaignOpts{
		Out:             out,
		Store:           st,
		Aggregates:      agg,
		CheckpointEvery: 4,
		OnCheckpoint: func(cp *core.Checkpoint) {
			checkpoints++
			if agg.inflight.Load() != 0 || agg.last != cp.NextSlice-1 {
				t.Errorf("checkpoint at slice %d: sink not joined (last call slice %d)", cp.NextSlice, agg.last)
			}
		},
	})
	if want := fmt.Sprintf("aggregator failed at slice %d", k); err == nil || err.Error() != want {
		t.Errorf("campaign error %v, want %q", err, want)
	}
	if out.failed == 0 {
		t.Error("the Out writer never failed: the error order went untested")
	}
	if checkpoints == 0 {
		t.Error("no checkpoints")
	}
	if agg.inflight.Load() != 0 {
		t.Error("an aggregator call was still running when RunCampaign returned")
	}
	if agg.overlap.Load() {
		t.Error("aggregator calls overlapped")
	}
	if agg.disorder {
		t.Error("aggregator calls arrived out of slice order")
	}
	if agg.last != core.CollectSlices || agg.calls != core.CollectSlices+1 {
		t.Errorf("%d calls ending at slice %d, want %d ending at the tail slice %d",
			agg.calls, agg.last, core.CollectSlices+1, core.CollectSlices)
	}
}

// orderWriter checks the Out contract from inside: writes never
// overlap, come in strictly increasing slice order, each ahead of its
// slice's store append and aggregator call, and none after RunCampaign
// returned.
type orderWriter struct {
	t        *testing.T
	p        *core.Pipeline
	st       *store.Store
	agg      *orderAggregator
	inflight atomic.Int32
	overlap  atomic.Bool
	returned atomic.Bool
	late     atomic.Bool
	// The rest is touched only inside writes; the campaign joins each
	// write before it reads them.
	out    bytes.Buffer
	slices []int
	behind []string
}

func (w *orderWriter) Write(b []byte) (int, error) {
	if w.inflight.Add(1) != 1 {
		w.overlap.Store(true)
	}
	defer w.inflight.Add(-1)
	runtime.Gosched() // widen the window a second write would need
	if w.returned.Load() {
		w.late.Store(true)
	}
	s := sliceOfJSONL(w.t, w.p, b)
	w.slices = append(w.slices, s)
	stored := -1
	for _, seg := range w.st.Manifest().Segments {
		stored = max(stored, seg.SliceHi)
	}
	if stored >= s || w.agg.last >= s {
		w.behind = append(w.behind, fmt.Sprintf("slice %d written after its store append (store at %d) or aggregation (at %d)", s, stored, w.agg.last))
	}
	return w.out.Write(b)
}

// The JSONL write is the first step of a slice's sink job, one slice
// behind the scanner: Out calls never overlap, arrive one per slice in
// strictly increasing slice order — each before that slice's store
// append and aggregator call — and the last is made before RunCampaign
// returns. Every checkpoint finds exactly its OutOffset written, the
// total is the offset the telemetry's last line reports, and the bytes
// are identical at Workers 1, 3 and 8.
func TestOutWriterRunsBehindInSliceOrder(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	var ref []byte
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := core.NewPipeline(sinkConfig(55, workers))
			st, err := store.Open(t.TempDir(), store.Options{Obs: p.Obs})
			if err != nil {
				t.Fatal(err)
			}
			agg := &orderAggregator{last: -1, failAt: -1}
			w := &orderWriter{t: t, p: p, st: st, agg: agg}
			var tel bytes.Buffer
			checkpoints := 0
			_, err = p.RunCampaign(context.Background(), core.CampaignOpts{
				Out:             w,
				Telemetry:       &tel,
				Store:           st,
				Aggregates:      agg,
				CheckpointEvery: 3,
				OnCheckpoint: func(cp *core.Checkpoint) {
					checkpoints++
					if w.inflight.Load() != 0 || int64(w.out.Len()) != cp.OutOffset {
						t.Errorf("checkpoint %d: %d bytes written, OutOffset %d", cp.NextSlice, w.out.Len(), cp.OutOffset)
					}
				},
			})
			w.returned.Store(true)
			if err != nil {
				t.Fatal(err)
			}
			if w.inflight.Load() != 0 || w.late.Load() {
				t.Error("a write was still running when RunCampaign returned")
			}
			if w.overlap.Load() {
				t.Error("writes overlapped")
			}
			for _, msg := range w.behind {
				t.Error(msg)
			}
			if checkpoints == 0 {
				t.Error("no checkpoints")
			}
			if len(w.slices) < core.CollectSlices/2 {
				t.Errorf("%d writes for %d slices", len(w.slices), core.CollectSlices)
			}
			for i := 1; i < len(w.slices); i++ {
				if w.slices[i] <= w.slices[i-1] {
					t.Fatalf("write %d carries slice %d after slice %d", i, w.slices[i], w.slices[i-1])
				}
			}
			lines := strings.Split(strings.TrimSpace(tel.String()), "\n")
			var last struct{ Metrics map[string]int64 }
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			if got := int64(w.out.Len()); got != last.Metrics["campaign_out_bytes"] {
				t.Errorf("%d bytes written, the last telemetry line counts %d", got, last.Metrics["campaign_out_bytes"])
			}
			if ref == nil {
				ref = bytes.Clone(w.out.Bytes())
			} else if !bytes.Equal(w.out.Bytes(), ref) {
				t.Errorf("output differs from Workers=1's")
			}
		})
	}
}

// A checkpoint is taken at its barrier but delivered once that slice's
// sink job is joined, at the next barrier: OnCheckpoint(N) runs after
// slice N-1's job has been joined and before slice N's flush (the Out
// writer has written exactly cp.OutOffset bytes, and the registry's
// campaign_out_bytes, which each flush moves, still counts those
// alone), with cp.Store the
// store's manifest at that moment and the store's writer counters in
// cp.Obs those of telemetry line N-1, which is already written. Every
// checkpoint is delivered, the last one (slice 92) too.
func TestCheckpointWaitsForItsSliceJob(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	const every = 4
	p := core.NewPipeline(sinkConfig(53, 2))
	st, err := store.Open(t.TempDir(), store.Options{Obs: p.Obs})
	if err != nil {
		t.Fatal(err)
	}
	agg := &orderAggregator{last: -1, failAt: -1}
	var out, tel bytes.Buffer
	var delivered []int
	_, err = p.RunCampaign(context.Background(), core.CampaignOpts{
		Out:             &out,
		Telemetry:       &tel,
		Store:           st,
		Aggregates:      agg,
		CheckpointEvery: every,
		OnCheckpoint: func(cp *core.Checkpoint) {
			n := cp.NextSlice
			delivered = append(delivered, n)
			if agg.inflight.Load() != 0 || agg.last != n-1 {
				t.Errorf("checkpoint %d: delivered before slice %d's job was joined (last call slice %d)", n, n-1, agg.last)
			}
			if int64(out.Len()) != cp.OutOffset {
				t.Errorf("checkpoint %d: %d bytes written, OutOffset %d", n, out.Len(), cp.OutOffset)
			}
			if flushed, _ := p.Obs.Value("campaign_out_bytes"); flushed != cp.OutOffset {
				t.Errorf("checkpoint %d: delivered after slice %d's flush (%d bytes handed over, OutOffset %d)", n, n, flushed, cp.OutOffset)
			}
			if cp.Store == nil || !reflect.DeepEqual(*cp.Store, st.Manifest()) {
				t.Errorf("checkpoint %d: its store manifest is not the store's", n)
			}
			lines := strings.SplitAfter(tel.String(), "\n")
			if len(lines) < n+1 {
				t.Errorf("checkpoint %d: telemetry line %d is not written yet", n, n-1)
				return
			}
			var line struct {
				Slice   int
				Metrics map[string]int64
			}
			if err := json.Unmarshal([]byte(lines[n-1]), &line); err != nil || line.Slice != n-1 {
				t.Fatalf("telemetry line %d: slice %d, %v", n-1, line.Slice, err)
			}
			for _, name := range store.WriterSeries {
				if got, want := cp.Obs[name][0], line.Metrics[name]; got != want {
					t.Errorf("checkpoint %d: %s = %d, telemetry line %d shows %d", n, name, got, n-1, want)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for n := every; n < core.CollectSlices; n += every {
		want = append(want, n)
	}
	if !reflect.DeepEqual(delivered, want) {
		t.Errorf("checkpoints delivered %v, want %v", delivered, want)
	}
}

// A dispatcher's fatal error skips every later slice, so no checkpoint
// may be taken after it: one would claim slices were collected that
// never ran. A dispatch failing at slice 10, with a checkpoint every 4
// slices, delivers checkpoints 4 and 8 and nothing after them, and the
// campaign returns the dispatcher's error.
func TestNoCheckpointAfterDispatchFails(t *testing.T) {
	chaos.NoGoroutineLeaks(t)
	const failAt = 10
	lost := errors.New("control plane lost")
	p := core.NewPipeline(sinkConfig(54, 2))
	var delivered []int
	_, err := p.RunCampaign(context.Background(), core.CampaignOpts{
		CheckpointEvery: 4,
		OnCheckpoint:    func(cp *core.Checkpoint) { delivered = append(delivered, cp.NextSlice) },
		Dispatch: func(slice int, shards []core.ShardRef, run func(core.ShardRef)) error {
			for _, r := range shards {
				run(r)
			}
			if slice == failAt {
				return fmt.Errorf("slice %d: %w", slice, lost)
			}
			return nil
		},
	})
	if !errors.Is(err, lost) {
		t.Errorf("campaign error %v, want the dispatcher's", err)
	}
	if want := []int{4, 8}; !reflect.DeepEqual(delivered, want) {
		t.Errorf("checkpoints delivered %v, want %v", delivered, want)
	}
}
