package store

import "fmt"

// maybeCompact runs the compaction policy after slice has been
// appended: at every K-th slice boundary ((slice+1)%K == 0) all
// pending L0 segments are merged into one L1 segment. The trigger is
// slice-aligned — it fires even when the slice wrote no segment — so
// the final segment layout is a pure function of the appended rows,
// never of batch timing.
func (s *Store) maybeCompact(slice int) error {
	k := s.opt.compactEvery()
	if k <= 0 || (slice+1)%k != 0 {
		return nil
	}
	// Every held segment is merged now or stays an L0 that a later
	// compaction reads from its file, so at most K-1 are ever held.
	defer clear(s.held)
	var inputs []SegmentInfo
	for _, si := range s.man.Segments {
		if si.Level == 0 && si.SliceHi <= slice {
			inputs = append(inputs, si)
		}
	}
	if len(inputs) < 2 {
		return nil
	}
	return s.compact(inputs)
}

// compact merges the input segments (already in manifest order) into
// one L1 segment, column to column: all capture rows in segment order,
// then all result rows in segment order, re-chunked into fresh blocks.
// Every input is first read and checked against its manifest entry
// (size and whole-file CRC), and nothing is written unless all of them
// pass. The columns merged are the ones the store held since it wrote
// the segment; a segment it did not write in this process (one
// recovered by Open, or rewound to by ResetTo) is decoded from the
// file it was just checked against, which yields the same columns.
func (s *Store) compact(inputs []SegmentInfo) error {
	cols := make([][]*colBlock, len(inputs))
	for i, si := range inputs {
		data, err := s.validSegment(si)
		if err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
		if cols[i] = s.held[segKey{si.CRC32, si.Size}]; cols[i] != nil {
			continue
		}
		err = eachBlock(data, func(b *colBlock) error {
			cols[i] = append(cols[i], b)
			return nil
		})
		if err != nil {
			return fmt.Errorf("store: compact: segment %s: %w", si.Name, err)
		}
	}
	sb := newSegBuilder(&s.w, false)
	for _, kind := range []Kind{KindCaptures, KindResults} {
		for _, blocks := range cols {
			for _, b := range blocks {
				if b.kind == kind {
					sb.addBlock(b)
				}
			}
		}
	}
	_, err := s.writeSegment(1, sb, inputs)
	return err
}
