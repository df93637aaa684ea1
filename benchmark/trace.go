package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans live in the benchmark's own files,
// around the calls into each layer; the program under test carries
// none.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0: root
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until flush. A nil recorder is tracing
// switched off: every method is a no-op, so untraced runs pay one nil
// check per boundary.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished interval and returns its id for children.
func (r *recorder) add(name string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		Name: name, ID: id, Parent: parent,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// open reserves an id for an interval whose children finish first;
// close it with done.
func (r *recorder) open(name string, parent int64, start time.Time) int64 {
	return r.add(name, parent, start, start)
}

func (r *recorder) done(id int64, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].EndNs = end.Sub(r.epoch).Nanoseconds()
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile creates path and hands fill a buffered writer onto it.
func writeFile(path string, fill func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flush writes the spans as JSONL.
func (r *recorder) flush(path string) error {
	return writeFile(path, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range r.snapshot() {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// counted once, and a child reaching outside its parent is clipped.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNs < cs[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, c := range cs {
			lo, hi := c.StartNs, c.EndNs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// nameTotals sums duration, self time and count per span name.
type nameTotals struct {
	Count  int
	DurNs  int64
	SelfNs int64
}

// Each set of spans comes from one recorder, whose ids are its own.
func selfByName(sets ...[]span) map[string]nameTotals {
	out := map[string]nameTotals{}
	for _, spans := range sets {
		self := selfTimes(spans)
		for _, s := range spans {
			t := out[s.Name]
			t.Count++
			t.DurNs += s.EndNs - s.StartNs
			t.SelfNs += self[s.ID]
			out[s.Name] = t
		}
	}
	return out
}

// budgetRow is one line of a budget table: a layer's unit cost times
// how often the end-to-end figure pays it.
type budgetRow struct {
	Layer  string
	CostMs float64 // per call
	Calls  float64
	Note   string
}

// budget reconciles layer costs with an end-to-end figure.
type budget struct {
	Workload string
	Figure   string  // what EndMs measures
	EndMs    float64 // the end-to-end figure
	Rows     []budgetRow
}

func (b *budget) sumMs() float64 {
	var sum float64
	for _, r := range b.Rows {
		sum += r.CostMs * r.Calls
	}
	return sum
}

// residualShare is the part of the end-to-end figure no row explains.
func (b *budget) residualShare() float64 {
	if b.EndMs == 0 {
		return 0
	}
	return (b.EndMs - b.sumMs()) / b.EndMs
}

func (b *budget) write(path string, spanSets ...[]span) error {
	return writeFile(path, func(w *bufio.Writer) error {
		b.print(w, spanSets...)
		return nil
	})
}

func (b *budget) print(w io.Writer, spanSets ...[]span) {
	fmt.Fprintf(w, "budget for %s: %s\n\n", b.Workload, b.Figure)
	fmt.Fprintf(w, "%-34s %14s %12s %12s %7s  %s\n", "layer", "cost_ms/call", "calls", "total_ms", "share", "note")
	for _, r := range b.Rows {
		total := r.CostMs * r.Calls
		fmt.Fprintf(w, "%-34s %14.6f %12.1f %12.3f %6.1f%%  %s\n", r.Layer, r.CostMs, r.Calls, total, 100*total/b.EndMs, r.Note)
	}
	fmt.Fprintf(w, "%-34s %14s %12s %12.3f %6.1f%%\n", "sum of layers", "", "", b.sumMs(), 100*b.sumMs()/b.EndMs)
	fmt.Fprintf(w, "%-34s %14s %12s %12.3f %6.1f%%\n", "end to end", "", "", b.EndMs, 100.0)
	fmt.Fprintf(w, "%-34s %14s %12s %12.3f %6.1f%%  end to end minus sum of layers\n", "residual (unattributed)", "", "", b.EndMs-b.sumMs(), 100*b.residualShare())

	fmt.Fprintf(w, "\nspans by name (self = duration minus child coverage)\n\n")
	fmt.Fprintf(w, "%-52s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	totals := selfByName(spanSets...)
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := totals[n]
		fmt.Fprintf(w, "%-52s %10d %14.3f %14.3f\n", n, t.Count, float64(t.DurNs)/1e6, float64(t.SelfNs)/1e6)
	}
}
