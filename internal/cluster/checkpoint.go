package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"ntpscan/internal/core"
)

// Framed coordinator-checkpoint encoding. The coordinator is the one
// component whose loss must not lose the campaign, so its checkpoint
// gets a self-verifying frame (see frame.go) rather than bare JSON:
// the body is the checkpoint JSON under the "ntpc" magic. A frame cut
// short anywhere — header, body, or trailer — or whose CRC disagrees
// decodes to ErrTruncatedCheckpoint, never to a silently half-restored
// lease table.

var checkpointMagic = [4]byte{'n', 't', 'p', 'c'}

// EncodeCheckpoint writes cp as one framed record, in one Write. The
// body is core's hand-written encoding — json.Marshal(cp)'s bytes —
// appended straight into the frame buffer, which AppendJSON sizes from
// the checkpoint's sections.
func EncodeCheckpoint(w io.Writer, cp *core.Checkpoint) error {
	frame, err := appendFrameFunc(nil, checkpointMagic, cp.AppendJSON)
	if err != nil {
		return fmt.Errorf("cluster: encode checkpoint: %w", err)
	}
	_, err = w.Write(frame)
	return err
}

// DecodeCheckpoint reads one framed checkpoint. Truncation or
// corruption anywhere in the frame returns ErrTruncatedCheckpoint
// (wrapped with the detail), so a resume from a torn coordinator write
// fails loudly instead of continuing from half a lease table. The
// input is read whole first and bounds the frame: a corrupt length
// field declaring more than is there is a truncation, not a reason to
// allocate gigabytes.
func DecodeCheckpoint(r io.Reader) (*core.Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cluster: read checkpoint: %w", err)
	}
	body, err := DecodeFrame(bytes.NewReader(data), checkpointMagic, uint32(min(uint64(len(data)), math.MaxUint32)))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncatedCheckpoint, err)
	}
	cp := new(core.Checkpoint)
	if err := json.Unmarshal(body, cp); err != nil {
		return nil, fmt.Errorf("cluster: decode checkpoint body: %w", err)
	}
	return cp, nil
}
