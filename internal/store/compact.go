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
	var inputs []SegmentInfo
	for _, ls := range s.current.Load().segs {
		if ls.Level == 0 && ls.SliceHi <= slice {
			inputs = append(inputs, ls.SegmentInfo)
		}
	}
	if len(inputs) < 2 {
		// A lone L0 stays live, and stays in the builder, for the next
		// window's compaction.
		return nil
	}
	return s.compact(inputs)
}

// compact merges the input segments (already in manifest order, every
// live L0) into one L1 segment, column to column: all capture rows in
// segment order, then all result rows in segment order, re-chunked
// into fresh blocks. Every input is first read and checked against its
// manifest entry (size and whole-file CRC), and nothing is written
// unless all of them pass. The rows merged are the ones the pending L1
// builder was fed as each input was written, most of them framed
// already; without a builder (after Open, ResetTo or a failed append)
// every input is decoded from the file it was just checked against,
// which yields the same columns. Either way the builder is spent: a
// compaction that fails leaves its inputs live and the next one reads
// them from their files.
func (s *Store) compact(inputs []SegmentInfo) error {
	sb := s.l1
	s.l1 = nil
	var files [][]byte // kept only when there is no builder to use
	for _, si := range inputs {
		data, err := s.readSegment(si)
		if err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
		if sb == nil {
			files = append(files, data)
		}
	}
	if sb == nil {
		sb = newSegBuilder(&s.w)
		for i, si := range inputs {
			err := eachBlock(files[i], func(b *colBlock) error {
				sb.addBlock(b)
				return nil
			})
			if err != nil {
				return fmt.Errorf("store: compact: segment %s: %w", si.Name, err)
			}
		}
	}
	if _, err := s.writeSegment(1, sb, inputs); err != nil {
		return err
	}
	s.resetL1(s.current.Load())
	return nil
}
