package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ntpscan/internal/zgrab"
)

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
// one L1 segment: all capture rows in segment order, then all result
// rows in segment order, re-chunked into fresh blocks. Inputs are
// retired (renamed, not deleted) before the manifest commits the
// merge, so a crash at any point recovers: an unmanifested L1 is a
// deletable stray, and retired-but-still-manifested inputs are
// resurrected by recover/ResetTo.
func (s *Store) compact(inputs []SegmentInfo) error {
	datas := make([][]byte, len(inputs))
	segs := make([]*segment, len(inputs))
	for i, si := range inputs {
		data, err := os.ReadFile(filepath.Join(s.dir, si.Name))
		if err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
		seg, err := parseSegmentBytes(data)
		if err != nil {
			return fmt.Errorf("store: compact: segment %s: %w", si.Name, err)
		}
		datas[i], segs[i] = data, seg
	}
	sb := newSegBuilder()
	for i, seg := range segs {
		for _, bi := range seg.blocks {
			if bi.Kind != KindCaptures {
				continue
			}
			raw, err := decodeBlock(datas[i][bi.Off:bi.Off+bi.Len], bi)
			if err != nil {
				return fmt.Errorf("store: compact: segment %s: %w", inputs[i].Name, err)
			}
			err = eachRow(raw, KindCaptures, func(c CaptureRow, slice int) error {
				sb.addCapture(c, slice)
				return nil
			}, nil)
			if err != nil {
				return fmt.Errorf("store: compact: segment %s: %w", inputs[i].Name, err)
			}
		}
	}
	sb.flushCaptures()
	for i, seg := range segs {
		for _, bi := range seg.blocks {
			if bi.Kind != KindResults {
				continue
			}
			raw, err := decodeBlock(datas[i][bi.Off:bi.Off+bi.Len], bi)
			if err != nil {
				return fmt.Errorf("store: compact: segment %s: %w", inputs[i].Name, err)
			}
			err = eachRow(raw, KindResults, nil, func(r *zgrab.Result, slice int) error {
				return sb.addResult(r, slice)
			})
			if err != nil {
				return fmt.Errorf("store: compact: segment %s: %w", inputs[i].Name, err)
			}
		}
	}
	data, rows, err := sb.finish()
	if err != nil {
		return err
	}
	name := segmentName(1, sb.sliceLo, sb.sliceHi)
	if err := s.writeFileAtomic(name, data); err != nil {
		return err
	}
	for _, si := range inputs {
		path := filepath.Join(s.dir, si.Name)
		if err := os.Rename(path, path+retiredSuffix); err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	retired := make(map[string]bool, len(inputs))
	for _, si := range inputs {
		retired[si.Name] = true
	}
	kept := s.man.Segments[:0]
	for _, si := range s.man.Segments {
		if !retired[si.Name] {
			kept = append(kept, si)
		}
	}
	s.man.Segments = append(kept, SegmentInfo{
		Name:    name,
		Level:   1,
		SliceLo: sb.sliceLo,
		SliceHi: sb.sliceHi,
		Rows:    rows,
		Size:    int64(len(data)),
		CRC32:   crcOf(data),
	})
	sort.SliceStable(s.man.Segments, func(i, j int) bool {
		return s.man.Segments[i].SliceLo < s.man.Segments[j].SliceLo
	})
	if s.met != nil {
		s.met.Compactions.Inc()
		s.met.SegmentsCompacted.Add(int64(len(inputs)))
		s.met.SegmentsWritten.Inc()
		s.met.BlocksWritten.Add(int64(len(sb.blocks)))
		s.met.BytesWritten.Add(int64(len(data)))
	}
	return s.persistManifest()
}
