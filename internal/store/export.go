package store

import "io"

// exportBatch is how many JSONL bytes ExportJSONL gathers before it
// hands them to the writer — a few hundred rows per Write, not one.
const exportBatch = 64 << 10

// ExportJSONL is the compatibility view: it streams the result rows
// matching pred to w in the campaign's JSONL encoding (the line
// Result.AppendJSON writes for each result, canonical order), so
// downstream JSONL consumers keep working against a store-backed
// campaign. An unfiltered export of an uncompacted-or-compacted store
// reproduces the legacy campaign output byte-for-byte. The lines are
// written from the column vectors; no Result is built.
func (s *Store) ExportJSONL(w io.Writer, pred Pred) error {
	pred.Kind = KindResults
	it := s.Scan(pred)
	defer it.Close()
	buf := make([]byte, 0, exportBatch+4<<10)
	for it.Next() {
		if buf = append(it.AppendResult(buf), '\n'); len(buf) >= exportBatch {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return it.Err()
}
