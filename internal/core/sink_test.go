package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"ntpscan/internal/zgrab"
)

// sinkSession is one scan session as a worker emits it: rows with
// ascending, mostly consecutive Seqs.
type sinkSession struct {
	worker int
	rows   []*zgrab.Result
	flush  bool // a drain barrier follows this session
}

// fuzzSinkSessions decodes FuzzOrderedSinkMerge's input. data[0] picks
// the worker count (1..8), data[1] the modules per target (1..4),
// data[2] and data[3] the row, if any, whose time is in year 10000 and
// the row, if any, whose zone is 25 hours east (the two times AppendJSON
// refuses). The rest come in pairs, one session each: the first byte
// sets its target count (1..8) and how many of its last rows a
// cancellation dropped (0..3, leaving a Seq gap); the second the worker
// that scanned it and, in its top bit, whether a barrier follows. As in
// a campaign, a target's rows share its address, and rows share a time
// across targets and sessions, barriers included: every third session
// the clock moves.
func fuzzSinkSessions(data []byte) (workers int, sessions []sinkSession) {
	if len(data) < 4 {
		return 0, nil
	}
	workers, modules := 1+int(data[0]%8), 1+int(data[1]%4)
	badYear, badZone := int(data[2])-1, int(data[3])-1
	base := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	var seq int64
	n := 0
	for rest := data[4:]; len(rest) >= 2 && len(sessions) < 64; rest = rest[2:] {
		targets, dropped := 1+int(rest[0]%8), int(rest[0]>>3)%4
		rows := targets*modules - dropped
		s := sinkSession{worker: int(rest[1]&0x7f) % workers, flush: rest[1]&0x80 != 0}
		when := base.Add(time.Duration(len(sessions)/3) * time.Second)
		for i := range max(rows, 0) {
			rs := seq + int64(i)
			ti := rs / int64(modules)
			r := &zgrab.Result{
				IP:     netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: byte(ti >> 8), 15: byte(ti)}),
				Module: fmt.Sprintf("m%d", int(rs)%modules), Port: uint16(rs),
				Time: when, Status: zgrab.StatusSuccess,
				Seq: rs,
			}
			switch n {
			case badYear:
				r.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
			case badZone:
				r.Time = r.Time.In(time.FixedZone("", 25*3600))
			}
			n++
			s.rows = append(s.rows, r)
		}
		seq += int64(targets * modules)
		sessions = append(sessions, s)
	}
	return workers, sessions
}

// sortThenEncode is the flush orderedSink replaced: concatenate, sort
// by Seq, encode row by row and stop at the first row that fails.
func sortThenEncode(rows []*zgrab.Result) ([]*zgrab.Result, []byte, error) {
	rows = slices.Clone(rows)
	slices.SortFunc(rows, func(a, b *zgrab.Result) int { return cmp.Compare(a.Seq, b.Seq) })
	var buf []byte
	for _, r := range rows {
		var err error
		if buf, err = r.AppendJSON(buf); err != nil {
			return rows, nil, err
		}
		buf = append(buf, '\n')
	}
	return rows, buf, nil
}

// FuzzOrderedSinkMerge holds the merge to the sort it replaced: over
// any worker count, session split, Seq gaps and unencodable rows, each
// slice's batch is its rows in Seq order and its bytes are the sorted
// rows' JSONL; a take that meets an unencodable row returns the
// lowest-Seq one's error and books no bytes, the merge then hands over
// none, and the dataset keeps every row either way. It drives the sink
// as a campaign does: take at the barrier, and the slice's sink job —
// merge, then write — as late as the campaign may run it, after the
// workers have added the next slice's rows to the other set of runs and
// just before the next take. So a buffer that left with one merge must
// hold its bytes while the workers fill the buffer its run took in
// exchange.
func FuzzOrderedSinkMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		workers, sessions := fuzzSinkSessions(data)
		if workers == 0 {
			return
		}
		var out bytes.Buffer
		sink := newOrderedSink(workers, true)
		var pending, all []*zgrab.Result
		var want []byte
		// job is the in-flight sink job, nil when none is.
		var job func()
		barrier := func() {
			t.Helper()
			if job != nil {
				job()
			}
			batch, lines, wantErr := sortThenEncode(pending)
			if err := sink.take(); !errors.Is(err, wantErr) {
				t.Fatalf("take error %v, want %v", err, wantErr)
			}
			want = append(want, lines...)
			if sink.n != int64(len(want)) {
				t.Fatalf("offset %d, want %d", sink.n, len(want))
			}
			all = append(all, batch...)
			wantAll, written := slices.Clone(all), len(want)
			job = func() {
				t.Helper()
				sink.merge()
				if !slices.Equal(sink.batch, batch) {
					t.Fatalf("batch is not the slice's rows in Seq order")
				}
				if !slices.Equal(sink.all, wantAll) {
					t.Fatalf("dataset does not hold every merged row")
				}
				out.Write(sink.jsonl)
				if !bytes.Equal(out.Bytes(), want[:written]) {
					t.Fatalf("written bytes differ from sort-then-AppendJSON:\n got %q\nwant %q", out.Bytes(), want[:written])
				}
			}
			pending = nil
		}
		for _, s := range sessions {
			for _, r := range s.rows {
				sink.add(s.worker, r)
			}
			pending = append(pending, s.rows...)
			if s.flush {
				barrier()
			}
		}
		barrier()
		job()
	})
}

func TestOrderedSinkPanicsOnADescendingRun(t *testing.T) {
	sink := newOrderedSink(2, false)
	sink.add(0, &zgrab.Result{Seq: 5})
	sink.add(1, &zgrab.Result{Seq: 4})
	sink.add(0, &zgrab.Result{Seq: 3})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Seq 3 after Seq 5") {
			t.Fatalf("flush of a descending run: recovered %q, want a panic naming Seq 3 after Seq 5", msg)
		}
	}()
	sink.flush()
}
