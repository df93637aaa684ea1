package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ntpscan/internal/obs"
	"ntpscan/internal/zgrab"
)

// sliceRows is one slice's rows in arrival order, results as their JSON.
type sliceRows struct {
	caps    []CaptureRow
	results []string
}

// TestReplaySlicesIsWhatWasAppended holds the resume replay to the
// appends it stands in for: over a directory of L0 segments, one of
// both levels, and one rewound by ResetTo across a compaction, the
// concatenated calls carry each slice's capture rows and result rows
// exactly as AppendSlice got them — and the replay leaves no trace on
// the read path's books: no store_* counter moves and the block cache
// stays empty.
func TestReplaySlicesIsWhatWasAppended(t *testing.T) {
	const nSlices, rowsPer = 10, 50
	appended := func(slices int) map[int]*sliceRows {
		want := map[int]*sliceRows{}
		for sl := 0; sl < slices; sl++ {
			rows := &sliceRows{}
			for i := sl * rowsPer; i < (sl+1)*rowsPer; i++ {
				rows.caps = append(rows.caps, testCapture(i))
				rows.results = append(rows.results, resultJSON(t, testResult(i, sl)))
			}
			want[sl] = rows
		}
		return want
	}
	for _, tc := range []struct {
		name         string
		compactEvery int
		levels       []int // the live manifest's segment levels
		rewind       bool
		want         map[int]*sliceRows
	}{
		{name: "L0 only", compactEvery: -1, levels: []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, want: appended(nSlices)},
		{name: "compacted", compactEvery: 4, levels: []int{1, 1, 0, 0}, want: appended(nSlices)},
		// Pinned after slice 5, rewound from slice 9: slices 4 and 5 come
		// back from the files the compaction at slice 7 retired.
		{name: "rewound", compactEvery: 4, levels: []int{1, 0, 0}, rewind: true, want: appended(6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			s, err := Open(t.TempDir(), Options{Obs: reg, CompactEvery: tc.compactEvery})
			if err != nil {
				t.Fatal(err)
			}
			var pinned Manifest
			for sl := 0; sl < nSlices; sl++ {
				appendOne(t, s, sl, rowsPer)
				if sl == 5 {
					pinned = s.Manifest()
				}
			}
			if tc.rewind {
				if err := s.ResetTo(pinned); err != nil {
					t.Fatal(err)
				}
			}
			var levels []int
			for _, si := range s.Manifest().Segments {
				levels = append(levels, si.Level)
			}
			if !reflect.DeepEqual(levels, tc.levels) {
				t.Fatalf("segment levels %v, want %v", levels, tc.levels)
			}

			before := reg.Snapshot()
			got := map[int]*sliceRows{}
			err = s.ReplaySlices(func(slice int, caps []CaptureRow, results []*zgrab.Result) error {
				if len(caps) == 0 && len(results) == 0 {
					t.Errorf("slice %d: empty call", slice)
				}
				rows := got[slice]
				if rows == nil {
					rows = &sliceRows{}
					got[slice] = rows
				}
				rows.caps = append(rows.caps, caps...)
				for _, r := range results {
					rows.results = append(rows.results, resultJSON(t, r))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("replayed rows differ from the appended ones (slices %d, want %d)", len(got), len(tc.want))
			}
			if after := reg.Snapshot(); !reflect.DeepEqual(after, before) {
				t.Errorf("the replay moved the registry:\n before %v\n after  %v", before, after)
			}
			if n := s.blocks.bytes(); n != 0 {
				t.Errorf("the replay left %d bytes in the block cache", n)
			}
		})
	}
	t.Run("errors", replayErrors)
}

func resultJSON(t *testing.T, r *zgrab.Result) string {
	t.Helper()
	b, err := r.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// replayErrors: fn's error stops the replay where it was raised, and
// damage to a segment is reported under the segment's name.
func replayErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 4, 30)

	boom := errors.New("boom")
	calls := 0
	err = s.ReplaySlices(func(int, []CaptureRow, []*zgrab.Result) error {
		if calls++; calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 2 {
		t.Fatalf("fn's error after %d calls came back as %v", calls, err)
	}

	victim := s.Manifest().Segments[2].Name
	path := filepath.Join(dir, victim)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var slices []int
	err = s.ReplaySlices(func(slice int, _ []CaptureRow, _ []*zgrab.Result) error {
		slices = append(slices, slice)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), victim) {
		t.Fatalf("a flipped byte in %s reported as %v", victim, err)
	}
	if !reflect.DeepEqual(slices, []int{0, 1}) {
		t.Errorf("slices replayed before the damage: %v, want [0 1]", slices)
	}
}
