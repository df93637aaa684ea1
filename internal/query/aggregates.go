// Package query is the hot read path over the columnar store: the
// serving layer behind cmd/queryd. It has two halves —
//
//   - Aggregates, incrementally maintained materialized tables (the
//     paper's per-module, per-vantage, per-/48, per-slice and Table 2
//     summaries). A running campaign feeds them at each slice's drain
//     barrier through core's SliceAggregator hook (a resumed one
//     replays the rewound store through the same hook first); an
//     offline store is recomputed with FromStore. All routes land on
//     identical state: the aggregates are pure sets and counts, so
//     accumulation order cannot leak into them, and the snapshot
//     encoding is deterministic (sorted keys, sorted set members).
//   - Server, an HTTP/JSON front end exposing the tables plus ad-hoc
//     predicate scans that push down to the store's block index.
//
// The package deliberately does not import internal/core: it
// implements core.SliceAggregator structurally, so core drives it
// through the interface without a dependency cycle.
package query

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"sync"

	"ntpscan/internal/analysis"
	"ntpscan/internal/store"
	"ntpscan/internal/zgrab"
)

// Aggregates is the set of materialized query tables. All methods are
// safe for concurrent use: the campaign goroutine writes at drain
// barriers while HTTP handlers read.
type Aggregates struct {
	mu       sync.RWMutex
	modules  map[string]*moduleAgg
	vantages map[string]*vantageAgg
	nets     map[netip.Prefix]*netAgg
	slices   map[int]*sliceAgg
	table2   *analysis.Table2Builder
}

type moduleAgg struct {
	results   int64
	successes int64
	addrs     map[netip.Addr]struct{} // distinct addrs with a successful grab
}

type vantageAgg struct {
	captures int64
	addrs    map[netip.Addr]struct{}
}

type netAgg struct {
	captures int64
	results  int64
	addrs    map[netip.Addr]struct{} // distinct captured addrs in the /48
}

type sliceAgg struct {
	captures int64
	results  int64
}

// NewAggregates returns empty tables.
func NewAggregates() *Aggregates {
	return &Aggregates{
		modules:  map[string]*moduleAgg{},
		vantages: map[string]*vantageAgg{},
		nets:     map[netip.Prefix]*netAgg{},
		slices:   map[int]*sliceAgg{},
		table2:   analysis.NewTable2Builder(),
	}
}

// AggregateSlice implements core.SliceAggregator: it folds one slice's
// quiescent drained data into every table. The caps and results slices
// are borrowed for the duration of the call; everything kept is
// copied.
func (a *Aggregates) AggregateSlice(slice int, caps []store.CaptureRow, results []*zgrab.Result) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range caps {
		a.addCapture(slice, caps[i])
	}
	for _, r := range results {
		a.addResult(slice, r)
	}
	return nil
}

// addCapture and addResult are the single-row accumulators (callers
// hold mu). They are deliberately commutative — the same multiset of
// rows yields the same state in any order, which is what lets a full
// store scan (segment order) reproduce campaign-time state (slice
// order) exactly.
func (a *Aggregates) addCapture(slice int, c store.CaptureRow) {
	v := a.vantages[c.Vantage]
	if v == nil {
		v = &vantageAgg{addrs: map[netip.Addr]struct{}{}}
		a.vantages[c.Vantage] = v
	}
	v.captures++
	v.addrs[c.Addr] = struct{}{}

	n := a.netFor(c.Addr)
	n.captures++
	n.addrs[c.Addr] = struct{}{}

	a.sliceFor(slice).captures++
}

func (a *Aggregates) addResult(slice int, r *zgrab.Result) {
	m := a.modules[r.Module]
	if m == nil {
		m = &moduleAgg{addrs: map[netip.Addr]struct{}{}}
		a.modules[r.Module] = m
	}
	m.results++
	if r.Success() {
		m.successes++
		m.addrs[r.IP] = struct{}{}
	}

	a.netFor(r.IP).results++
	a.sliceFor(slice).results++
	a.table2.Add(r)
}

func (a *Aggregates) netFor(addr netip.Addr) *netAgg {
	pfx, _ := addr.Prefix(48)
	n := a.nets[pfx]
	if n == nil {
		n = &netAgg{addrs: map[netip.Addr]struct{}{}}
		a.nets[pfx] = n
	}
	return n
}

func (a *Aggregates) sliceFor(slice int) *sliceAgg {
	s := a.slices[slice]
	if s == nil {
		s = &sliceAgg{}
		a.slices[slice] = s
	}
	return s
}

// FromStore recomputes the tables from a full store scan. The result
// is exactly the state an aggregator fed slice-by-slice during the
// campaign would hold — the consistency oracle the tests pin.
func FromStore(s *store.Store) (*Aggregates, error) {
	a := NewAggregates()
	it := s.Scan(store.Pred{})
	defer it.Close()
	for it.Next() {
		row := it.Row()
		switch row.Kind {
		case store.KindCaptures:
			a.addCapture(row.Slice, row.Capture)
		case store.KindResults:
			a.addResult(row.Slice, row.Result)
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// ---- table views ----

// ModuleRow is one row of the per-module table.
type ModuleRow struct {
	Module    string `json:"module"`
	Results   int64  `json:"results"`
	Successes int64  `json:"successes"`
	Addrs     int    `json:"addrs"`
}

// Modules returns per-module totals sorted by module name.
func (a *Aggregates) Modules() []ModuleRow {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]ModuleRow, 0, len(a.modules))
	for name, m := range a.modules {
		out = append(out, ModuleRow{Module: name, Results: m.results, Successes: m.successes, Addrs: len(m.addrs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Module < out[j].Module })
	return out
}

// VantageRow is one row of the per-vantage capture table.
type VantageRow struct {
	Vantage  string `json:"vantage"`
	Captures int64  `json:"captures"`
	Addrs    int    `json:"addrs"`
}

// Vantages returns per-vantage totals sorted by vantage.
func (a *Aggregates) Vantages() []VantageRow {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]VantageRow, 0, len(a.vantages))
	for name, v := range a.vantages {
		out = append(out, VantageRow{Vantage: name, Captures: v.captures, Addrs: len(v.addrs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vantage < out[j].Vantage })
	return out
}

// PrefixRow is one row of the per-/48 table.
type PrefixRow struct {
	Prefix   string `json:"prefix"`
	Captures int64  `json:"captures"`
	Results  int64  `json:"results"`
	Addrs    int    `json:"addrs"`
}

// Prefixes returns the top-n /48 networks by distinct captured
// addresses (ties broken by prefix order); n <= 0 returns all.
func (a *Aggregates) Prefixes(n int) []PrefixRow {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]PrefixRow, 0, len(a.nets))
	for pfx, agg := range a.nets {
		out = append(out, PrefixRow{Prefix: pfx.String(), Captures: agg.captures, Results: agg.results, Addrs: len(agg.addrs)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addrs != out[j].Addrs {
			return out[i].Addrs > out[j].Addrs
		}
		return out[i].Prefix < out[j].Prefix
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// SliceRow is one row of the collection-timeline table.
type SliceRow struct {
	Slice    int   `json:"slice"`
	Captures int64 `json:"captures"`
	Results  int64 `json:"results"`
}

// Slices returns the per-slice timeline in slice order.
func (a *Aggregates) Slices() []SliceRow {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]SliceRow, 0, len(a.slices))
	for id, s := range a.slices {
		out = append(out, SliceRow{Slice: id, Captures: s.captures, Results: s.results})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slice < out[j].Slice })
	return out
}

// Table2 returns the paper's Table 2 rows from the incremental
// builder.
func (a *Aggregates) Table2() []analysis.Table2Row {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.table2.Rows()
}

// ---- snapshot / restore ----

// aggState is the deterministic wire form: string-keyed maps (which
// encoding/json emits in sorted key order) of sorted-list sets.
type aggState struct {
	Modules  map[string]moduleState  `json:"modules"`
	Vantages map[string]vantageState `json:"vantages"`
	Nets     map[string]netState     `json:"nets48"`
	Slices   map[string]sliceState   `json:"slices"`
	Table2   json.RawMessage         `json:"table2"`
}

type moduleState struct {
	Results   int64    `json:"results"`
	Successes int64    `json:"successes"`
	Addrs     []string `json:"addrs"`
}

type vantageState struct {
	Captures int64    `json:"captures"`
	Addrs    []string `json:"addrs"`
}

type netState struct {
	Captures int64    `json:"captures"`
	Results  int64    `json:"results"`
	Addrs    []string `json:"addrs"`
}

type sliceState struct {
	Captures int64 `json:"captures"`
	Results  int64 `json:"results"`
}

// Snapshot is a byte-deterministic JSON image of the tables: two
// aggregate states with equal contents — however accumulated —
// serialize to identical bytes, which is what the consistency oracles
// compare (incremental against FromStore, resumed against
// uninterrupted). No campaign takes one: a checkpoint pins the store
// and a resume replays it through AggregateSlice.
func (a *Aggregates) Snapshot() (json.RawMessage, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	st := aggState{
		Modules:  make(map[string]moduleState, len(a.modules)),
		Vantages: make(map[string]vantageState, len(a.vantages)),
		Nets:     make(map[string]netState, len(a.nets)),
		Slices:   make(map[string]sliceState, len(a.slices)),
	}
	for name, m := range a.modules {
		st.Modules[name] = moduleState{Results: m.results, Successes: m.successes, Addrs: analysis.SortedAddrStrings(m.addrs)}
	}
	for name, v := range a.vantages {
		st.Vantages[name] = vantageState{Captures: v.captures, Addrs: analysis.SortedAddrStrings(v.addrs)}
	}
	for pfx, n := range a.nets {
		st.Nets[pfx.String()] = netState{Captures: n.captures, Results: n.results, Addrs: analysis.SortedAddrStrings(n.addrs)}
	}
	for id, s := range a.slices {
		st.Slices[strconv.Itoa(id)] = sliceState{Captures: s.captures, Results: s.results}
	}
	t2, err := a.table2.State()
	if err != nil {
		return nil, err
	}
	st.Table2 = t2
	return json.Marshal(st)
}

// Restore replaces the tables with a Snapshot's contents.
func (a *Aggregates) Restore(raw json.RawMessage) error {
	var st aggState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("query: aggregate snapshot: %w", err)
	}
	fresh := NewAggregates()
	for name, m := range st.Modules {
		addrs, err := addrSet(m.Addrs)
		if err != nil {
			return err
		}
		fresh.modules[name] = &moduleAgg{results: m.Results, successes: m.Successes, addrs: addrs}
	}
	for name, v := range st.Vantages {
		addrs, err := addrSet(v.Addrs)
		if err != nil {
			return err
		}
		fresh.vantages[name] = &vantageAgg{captures: v.Captures, addrs: addrs}
	}
	for ps, n := range st.Nets {
		pfx, err := netip.ParsePrefix(ps)
		if err != nil {
			return fmt.Errorf("query: aggregate snapshot: %w", err)
		}
		addrs, err := addrSet(n.Addrs)
		if err != nil {
			return err
		}
		fresh.nets[pfx] = &netAgg{captures: n.Captures, results: n.Results, addrs: addrs}
	}
	for ids, s := range st.Slices {
		id, err := strconv.Atoi(ids)
		if err != nil {
			return fmt.Errorf("query: aggregate snapshot: %w", err)
		}
		fresh.slices[id] = &sliceAgg{captures: s.Captures, results: s.Results}
	}
	if st.Table2 != nil {
		if err := fresh.table2.Restore(st.Table2); err != nil {
			return err
		}
	}
	a.mu.Lock()
	a.modules = fresh.modules
	a.vantages = fresh.vantages
	a.nets = fresh.nets
	a.slices = fresh.slices
	a.table2 = fresh.table2
	a.mu.Unlock()
	return nil
}

func addrSet(in []string) (map[netip.Addr]struct{}, error) {
	out := make(map[netip.Addr]struct{}, len(in))
	for _, s := range in {
		a, err := netip.ParseAddr(s)
		if err != nil {
			return nil, fmt.Errorf("query: aggregate snapshot: %w", err)
		}
		out[a] = struct{}{}
	}
	return out, nil
}
