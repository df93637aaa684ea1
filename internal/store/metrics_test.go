package store

import (
	"slices"
	"testing"

	"ntpscan/internal/obs"
)

// A campaign re-reads WriterSeries, and only those, when it writes the
// telemetry line of a slice whose append ran after the barrier. That
// holds only if appending (compaction included) moves every one of
// them and no other series.
func TestAppendMovesOnlyWriterSeries(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	fillStore(t, s, 2*DefaultCompactEvery, 20)
	after := reg.Snapshot()
	for name, raw := range after {
		moved := !slices.Equal(raw, before[name])
		if writer := slices.Contains(WriterSeries, name); moved != writer {
			t.Errorf("%s: moved=%v, in WriterSeries=%v", name, moved, writer)
		}
	}
	for _, name := range WriterSeries {
		if _, ok := after[name]; !ok {
			t.Errorf("WriterSeries names %s, which the store does not register", name)
		}
	}
}
