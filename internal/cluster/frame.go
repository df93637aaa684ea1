package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Self-verifying frame codec, shared by the coordinator checkpoint and
// the wire transport's request/response bodies:
//
//	magic (4 bytes) | uint32 body length | body | crc32(body)
//
// all fixed-width fields little-endian, CRC over the body with the
// IEEE polynomial. A frame cut short anywhere — header, body, or
// trailer — or whose CRC disagrees decodes to ErrBadFrame, never to a
// silently half-read body; a declared length beyond the caller's bound
// decodes to ErrFrameTooLarge before a byte of body is read, so a
// corrupt or hostile length field cannot make the reader allocate
// gigabytes.

// Typed frame errors. Callers match with errors.Is.
var (
	// ErrBadFrame rejects a frame that is truncated, mis-tagged, or
	// fails its CRC.
	ErrBadFrame = errors.New("cluster: frame truncated or corrupt")
	// ErrFrameTooLarge rejects a frame whose declared body length
	// exceeds the decoder's bound.
	ErrFrameTooLarge = errors.New("cluster: frame body exceeds size bound")
)

// AppendFrame appends the framed encoding of body to dst and returns
// the extended slice — the allocation-free path for callers that
// already hold a buffer.
func AppendFrame(dst []byte, magic [4]byte, body []byte) []byte {
	dst, _ = appendFrameFunc(dst, magic, func(b []byte) ([]byte, error) { return append(b, body...), nil })
	return dst
}

// appendFrameFunc appends one framed record whose body appendBody
// appends in place, after the header it reserves, so a body encoded
// for the frame is never copied. On error dst comes back at its
// original length.
func appendFrameFunc(dst []byte, magic [4]byte, appendBody func([]byte) ([]byte, error)) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, magic[:]...)
	dst = append(dst, 0, 0, 0, 0) // the body length, known once it is written
	dst, err := appendBody(dst)
	if err != nil {
		return dst[:n0], err
	}
	body := dst[n0+8:]
	binary.LittleEndian.PutUint32(dst[n0+4:], uint32(len(body)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body)), nil
}

// DecodeFrame reads one framed record under the given magic. maxBody
// bounds the declared body length (0 means no bound). Truncation,
// magic mismatch, or CRC disagreement return ErrBadFrame (wrapped with
// the detail); an oversized declaration returns ErrFrameTooLarge.
func DecodeFrame(r io.Reader, magic [4]byte, maxBody uint32) ([]byte, error) {
	head := make([]byte, 8)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%w: frame header: %v", ErrBadFrame, err)
	}
	if [4]byte(head[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrBadFrame, head[:4], magic[:])
	}
	n := binary.LittleEndian.Uint32(head[4:])
	if maxBody > 0 && n > maxBody {
		return nil, fmt.Errorf("%w: declared %d bytes, bound %d", ErrFrameTooLarge, n, maxBody)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w: body (%d bytes): %v", ErrBadFrame, n, err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: crc trailer: %v", ErrBadFrame, err)
	}
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (got %08x, want %08x)", ErrBadFrame, got, want)
	}
	return body, nil
}
