package store

import "io"

// exportBatch is how many JSONL bytes ExportJSONL gathers before it
// hands them to the writer — a few hundred rows per Write, not one.
const exportBatch = 64 << 10

// ExportJSONL is the compatibility view: it streams the result rows
// matching pred to w in the campaign's JSONL encoding (one
// Result.AppendJSON line per result, canonical order), so downstream
// JSONL consumers keep working against a store-backed campaign. An
// unfiltered export of an uncompacted-or-compacted store reproduces
// the legacy campaign output byte-for-byte.
func (s *Store) ExportJSONL(w io.Writer, pred Pred) error {
	pred.Kind = KindResults
	it := s.Scan(pred)
	defer it.Close()
	buf := make([]byte, 0, exportBatch+4<<10)
	for it.Next() {
		var err error
		if buf, err = it.Row().Result.AppendJSON(buf); err != nil {
			return err
		}
		if buf = append(buf, '\n'); len(buf) >= exportBatch {
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
