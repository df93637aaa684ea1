package tlsx

import "testing"

// FuzzUnmarshalCert hardens certificate decoding (handshake payloads
// come straight from scanned peers).
func FuzzUnmarshalCert(f *testing.F) {
	f.Add(testCert().appendMarshal(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 5, 'a', 'b'})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := unmarshalCert(data)
		if err != nil {
			return
		}
		back, err := unmarshalCert(c.appendMarshal(nil))
		if err != nil || *back != *c {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
