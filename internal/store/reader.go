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

// readSegment reads a manifest entry's whole file through
// openSegmentFile and checks it against the entry: size, then
// whole-file CRC.
func (s *Store) readSegment(si SegmentInfo) ([]byte, error) {
	f, err := s.openSegmentFile(si.Name)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s is gone (%w)", si.Name, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", si.Name, err)
	}
	if fi.Size() != si.Size {
		return nil, fmt.Errorf("store: segment %s: size %d, manifest %d", si.Name, fi.Size(), si.Size)
	}
	data := make([]byte, si.Size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", si.Name, err)
	}
	if crc := crcOf(data); crc != si.CRC32 {
		return nil, fmt.Errorf("store: segment %s: crc %08x, manifest %08x", si.Name, crc, si.CRC32)
	}
	return data, nil
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
