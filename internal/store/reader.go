package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// openSegmentFile opens a live segment by name, falling back to its
// .retired name. Compaction retires inputs by rename, and ResetTo
// resurrects them the same way, so a reader racing either transition
// sees the bytes under exactly one of the two names at any instant; two
// rounds over both names close the rename window. Renames never
// invalidate an already-open descriptor, so an iterator that holds the
// file is immune regardless.
func (s *Store) openSegmentFile(name string) (*os.File, error) {
	var err error
	for i := 0; i < 2; i++ {
		var f *os.File
		if f, err = os.Open(filepath.Join(s.dir, name)); err == nil {
			return f, nil
		}
		if f, err = os.Open(filepath.Join(s.dir, name+retiredSuffix)); err == nil {
			return f, nil
		}
	}
	return nil, fmt.Errorf("store: %w", err)
}

// readBlockRaw reads and decodes one block's body from an open segment
// file.
func readBlockRaw(f *os.File, bi blockIndex) ([]byte, error) {
	buf := make([]byte, bi.Len)
	if _, err := f.ReadAt(buf, bi.Off); err != nil {
		return nil, err
	}
	return decodeBlock(buf, bi)
}
