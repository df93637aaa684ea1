package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"time"

	"ntpscan/internal/core"
	"ntpscan/internal/world"
)

// env is what one benchmark run shares between its workloads: the seed
// every generated input derives from, the load shape, a scratch
// directory inside the checkout, and the span recorder (nil when
// tracing is off).
type env struct {
	seed uint64
	// workers is the busy-goroutine budget: campaigns run this many
	// workers, serve_sealed this many clients. It is GOMAXPROCS, so the
	// benchmark never asks for more parallelism than the host has.
	workers int
	// cfg is the campaign template (world scales, capture budget). The
	// suite's default world; tests shrink it.
	cfg     core.Config
	workDir string
	rec     *recorder
	dirSeq  int
	// quick is set by the tier-1 smoke tests only: the layer drivers then
	// make a tenth of their fixed repetitions, and one run where a
	// benchmark run makes two, and the calibration kernel a tenth of its
	// work.
	quick bool
}

func newEnv(seed uint64, workers int, outDir string) (*env, error) {
	dir, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return nil, err
	}
	return &env{
		seed:    seed,
		workers: workers,
		cfg:     core.Config{World: world.Config{DeviceScale: 3e-3, AddrScale: 6e-6, ASScale: 0.03}},
		workDir: dir,
	}, nil
}

func (e *env) close() { os.RemoveAll(e.workDir) }

// config is the campaign configuration at a worker count.
func (e *env) config(workers int) core.Config {
	cfg := e.cfg
	cfg.Seed = e.seed
	cfg.Workers = workers
	return cfg
}

// freshDir returns a new empty directory under the run's scratch.
func (e *env) freshDir(prefix string) (string, error) {
	e.dirSeq++
	dir := filepath.Join(e.workDir, fmt.Sprintf("%s-%d", prefix, e.dirSeq))
	return dir, os.MkdirAll(dir, 0o755)
}

// sliceWriter is the campaign's Out: it hashes the JSONL stream instead
// of keeping it, counts rows, and stamps each per-slice flush — the
// campaign writes Out once per slice at the drain barrier, so the gaps
// between stamps are the drain-barrier latencies.
type sliceWriter struct {
	h      hash.Hash
	n      int64
	rows   int
	stamps []time.Time
}

func newSliceWriter() *sliceWriter {
	return &sliceWriter{h: sha256.New(), stamps: make([]time.Time, 0, core.CollectSlices+1)}
}

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.stamps = append(w.stamps, time.Now())
	w.h.Write(p)
	w.n += int64(len(p))
	w.rows += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

func (w *sliceWriter) sum() [32]byte {
	var out [32]byte
	w.h.Sum(out[:0])
	return out
}

// state snapshots the running hash, so a resumed tail can be checked
// against the reference without keeping the prefix bytes.
func (w *sliceWriter) state() ([]byte, error) {
	return w.h.(encoding.BinaryMarshaler).MarshalBinary()
}

// resumeWriter continues hashing from a state taken at offset n.
func resumeWriter(state []byte, n int64) (*sliceWriter, error) {
	w := newSliceWriter()
	if err := w.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		return nil, err
	}
	w.n = n
	return w, nil
}

// sliceGapsMs returns the gaps between consecutive flush stamps,
// starting from start.
func sliceGapsMs(start time.Time, stamps []time.Time) []float64 {
	gaps := make([]float64, 0, len(stamps))
	prev := start
	for _, s := range stamps {
		gaps = append(gaps, ms(s.Sub(prev)))
		prev = s
	}
	return gaps
}

// reference is the oracle every campaign iteration is held to: the
// clean campaign's JSONL at Workers=1. Output is byte-identical at any
// worker count, node count, and across a resume, so one hash serves
// all campaign workloads.
type reference struct {
	sum   [32]byte
	rows  int
	bytes int64
}

func (e *env) computeReference() (reference, error) {
	p := core.NewPipeline(e.config(1))
	w := newSliceWriter()
	if _, err := p.RunCampaign(context.Background(), core.CampaignOpts{Out: w}); err != nil {
		return reference{}, fmt.Errorf("reference campaign: %w", err)
	}
	if w.rows == 0 {
		return reference{}, fmt.Errorf("reference campaign produced no results")
	}
	return reference{sum: w.sum(), rows: w.rows, bytes: w.n}, nil
}

// base is the accounting every workload shares: operations attempted
// and failed (an iteration whose oracle fails, a request that errors),
// and named sample series.
type base struct {
	e         *env
	attempted int
	failed    int
	failures  []string
	series    map[string][]float64
	// notes are facts about the load that belong next to the numbers
	// (loop type, client count, exact counts).
	notes []string
}

func (b *base) add(name string, v ...float64) {
	if b.series == nil {
		b.series = map[string][]float64{}
	}
	b.series[name] = append(b.series[name], v...)
}

func (b *base) failf(format string, args ...any) {
	b.failed++
	if len(b.failures) < 5 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}
