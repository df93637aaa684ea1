package store

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
)

// DirDigest fingerprints a store directory: SHA-256 over every entry's
// name, size and bytes, in name order. It is what the byte-identity
// oracles compare — two stores are the same store exactly when their
// digests match — and it fails the calling test (t is a *testing.T or
// *testing.B) on a directory it cannot read.
func DirDigest(t interface {
	Helper()
	Fatal(args ...any)
}, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
