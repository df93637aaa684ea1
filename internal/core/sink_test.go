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
// that scanned it and, in its top bit, whether a barrier follows.
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
		for i := range max(rows, 0) {
			rs := seq + int64(i)
			r := &zgrab.Result{
				IP:     netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: byte(rs >> 8), 15: byte(rs)}),
				Module: fmt.Sprintf("m%d", int(rs)%modules), Port: uint16(rs),
				Time: base.Add(time.Duration(rs) * time.Second), Status: zgrab.StatusSuccess,
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
// flush's batch is its rows in Seq order and its bytes are the sorted
// rows' JSONL; a flush that meets an unencodable row returns the
// lowest-Seq one's error and hands over no bytes, and the dataset
// keeps every row either way. As in a campaign, the bytes a flush
// hands over are written only after the next slice's rows have been
// added, just before the next flush: a run buffer that left with one
// flush must hold its bytes while the workers fill the buffer the run
// took in exchange.
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
		// write is the sink job's step: the previous flush's bytes.
		write := func() {
			t.Helper()
			out.Write(sink.jsonl)
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("written bytes differ from sort-then-AppendJSON:\n got %q\nwant %q", out.Bytes(), want)
			}
		}
		check := func() {
			t.Helper()
			write()
			batch, lines, wantErr := sortThenEncode(pending)
			err := sink.flush()
			if !errors.Is(err, wantErr) {
				t.Fatalf("flush error %v, want %v", err, wantErr)
			}
			if !slices.Equal(sink.batch, batch) {
				t.Fatalf("batch is not the flush's rows in Seq order")
			}
			want = append(want, lines...)
			if sink.n != int64(len(want)) {
				t.Fatalf("offset %d, want %d", sink.n, len(want))
			}
			all = append(all, batch...)
			if !slices.Equal(sink.all, all) {
				t.Fatalf("dataset does not hold every flushed row")
			}
			pending = pending[:0]
		}
		for _, s := range sessions {
			for _, r := range s.rows {
				sink.add(s.worker, r)
			}
			pending = append(pending, s.rows...)
			if s.flush {
				check()
			}
		}
		check()
		write()
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
