package cluster

import (
	"bytes"
	"errors"
	"testing"
)

var testMagic = [4]byte{'t', 'e', 's', 't'}

func TestFrameRoundTrip(t *testing.T) {
	// The layout, written out: magic, little-endian length, body, CRC-32
	// (IEEE) of the body.
	if got, want := AppendFrame([]byte("keep"), testMagic, []byte("x")),
		[]byte("keeptest\x01\x00\x00\x00x\x83\x16\xdc\x8c"); !bytes.Equal(got, want) {
		t.Fatalf("AppendFrame wrote %q, want %q", got, want)
	}
	for _, body := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)} {
		frame := AppendFrame(nil, testMagic, body)
		got, err := DecodeFrame(bytes.NewReader(frame), testMagic, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("decoded %d bytes, want %d", len(got), len(body))
		}
	}
	// A body that fails to encode leaves dst as it was: the checkpoint
	// writer never emits half a frame.
	fail := errors.New("no body")
	out, err := appendFrameFunc([]byte("keep"), testMagic, func(b []byte) ([]byte, error) { return append(b, "partial"...), fail })
	if !errors.Is(err, fail) || string(out) != "keep" {
		t.Fatalf("failed body: out %q, err %v", out, err)
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	valid := AppendFrame(nil, testMagic, []byte("payload"))

	for name, tc := range map[string]struct {
		data []byte
		max  uint32
		want error
	}{
		"truncated header":  {valid[:3], 0, ErrBadFrame},
		"truncated body":    {valid[:10], 0, ErrBadFrame},
		"truncated crc":     {valid[:len(valid)-1], 0, ErrBadFrame},
		"declared too long": {valid, 3, ErrFrameTooLarge},
	} {
		if _, err := DecodeFrame(bytes.NewReader(tc.data), testMagic, tc.max); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}

	wrongMagic := append([]byte(nil), valid...)
	wrongMagic[0] = 'X'
	if _, err := DecodeFrame(bytes.NewReader(wrongMagic), testMagic, 0); !errors.Is(err, ErrBadFrame) {
		t.Errorf("wrong magic: err = %v, want ErrBadFrame", err)
	}
	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-1] ^= 0x40
	if _, err := DecodeFrame(bytes.NewReader(crcFlip), testMagic, 0); !errors.Is(err, ErrBadFrame) {
		t.Errorf("crc flip: err = %v, want ErrBadFrame", err)
	}
	bodyFlip := append([]byte(nil), valid...)
	bodyFlip[9] ^= 0x01
	if _, err := DecodeFrame(bytes.NewReader(bodyFlip), testMagic, 0); !errors.Is(err, ErrBadFrame) {
		t.Errorf("body flip: err = %v, want ErrBadFrame", err)
	}
}
