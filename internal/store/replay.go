package store

import (
	"fmt"

	"ntpscan/internal/zgrab"
)

// ReplaySlices feeds the live rows back to fn the way AppendSlice
// received them, which is how a resumed campaign rebuilds the view it
// maintains beside the store (core.SliceAggregator) after ResetTo. It
// walks the current view in manifest order and decodes each segment
// file whole with DecodeSegment, once readSegment has checked it
// against its manifest entry (size and whole-file CRC); fn gets runs of rows of one slice — a
// one-slice L0 segment's captures and results together, a compacted
// segment's slices first as capture-only and then as result-only calls
// — so a slice may arrive in more than one call, and every row arrives
// exactly once. caps and results are reused between calls: fn copies
// what it keeps. An error from fn stops the replay.
//
// The replay is not a query: it goes around the block cache and moves
// no store_* counter, so a resumed run's memory and telemetry are the
// uninterrupted run's. Like an open iterator it pins the view's files
// throughout, reopening a segment a compaction retires meanwhile
// through its .retired name, and takes no lock the writer holds; fn
// must not reset or seal the store.
func (s *Store) ReplaySlices(fn func(slice int, caps []CaptureRow, results []*zgrab.Result) error) error {
	s.pins.RLock()
	defer s.pins.RUnlock()
	var (
		slice   int
		caps    []CaptureRow
		results []*zgrab.Result
	)
	// next hands fn the pending run, if any, and starts one for slice to.
	next := func(to int) (err error) {
		if len(caps) > 0 || len(results) > 0 {
			err = fn(slice, caps, results)
		}
		slice, caps, results = to, caps[:0], results[:0]
		return err
	}
	for _, ls := range s.current.Load().segs {
		si := ls.SegmentInfo
		data, err := s.readSegment(si)
		if err == nil {
			err = DecodeSegment(data, func(c CaptureRow, sl int) (err error) {
				if sl != slice {
					err = next(sl)
				}
				caps = append(caps, c)
				return err
			}, func(r *zgrab.Result, sl int) (err error) {
				if sl != slice {
					err = next(sl)
				}
				results = append(results, r)
				return err
			})
		}
		if err == nil {
			err = next(0)
		}
		if err != nil {
			return fmt.Errorf("store: replay: segment %s: %w", si.Name, err)
		}
	}
	return nil
}
