// Checkpoint encoding. AppendJSON writes the checkpoint document by
// hand, as zgrab.Result.AppendJSON writes a result, and under the same
// contract: exactly the bytes json.Marshal(cp) produces, and an error
// exactly when json.Marshal refuses (a time RFC 3339 cannot express, a
// pool score that is not a finite number). The sections that grow
// with the campaign — shards with their arenas, captured_resp, cap_log,
// and the scanner's revisit table (zgrab.ScanState.AppendJSON) — are
// written here; the four small ones (pool_scores, obs, store, cluster:
// a few KB together, two of them sorted maps) are json.Marshal's own
// output, appended verbatim. Checkpoint
// keeps its json tags and gets no MarshalJSON method, so encoding/json
// stays the reference FuzzCheckpointAppendJSON compares against and
// the decode side (cluster.DecodeCheckpoint) is untouched.

package core

import (
	"encoding/base64"
	"encoding/json"
	"slices"
	"strconv"

	"ntpscan/internal/world"
	"ntpscan/internal/zgrab"
)

// AppendJSON appends cp as one JSON object, exactly the bytes
// json.Marshal(cp) produces. dst is grown once, by an estimate taken
// from the sections' lengths, so a checkpoint costs one allocation for
// its bytes and a fixed number for the verbatim sections, however long
// its capture log. On error dst comes back at its original length.
func (cp *Checkpoint) AppendJSON(dst []byte) ([]byte, error) {
	pool, err := marshalSection(len(cp.PoolScores) > 0, cp.PoolScores)
	if err != nil {
		return dst, err
	}
	met, err := marshalSection(len(cp.Obs) > 0, cp.Obs)
	if err != nil {
		return dst, err
	}
	man, err := marshalSection(cp.Store != nil, cp.Store)
	if err != nil {
		return dst, err
	}
	clu, err := marshalSection(cp.Cluster != nil, cp.Cluster)
	if err != nil {
		return dst, err
	}

	n0 := len(dst)
	dst = slices.Grow(dst, cp.jsonSizeHint()+cp.Scan.JSONSizeHint()+len(pool)+len(met)+len(man)+len(clu))
	dst = append(dst, `{"seed":`...)
	dst = strconv.AppendUint(dst, cp.Seed, 10)
	dst = append(dst, `,"collect_shards":`...)
	dst = strconv.AppendInt(dst, int64(cp.CollectShards), 10)
	dst = append(dst, `,"next_slice":`...)
	dst = strconv.AppendInt(dst, int64(cp.NextSlice), 10)
	dst = append(dst, `,"time":`...)
	if dst, err = zgrab.AppendJSONTime(dst, cp.Time); err != nil {
		return dst[:n0], err
	}
	dst = append(dst, `,"captures":`...)
	dst = strconv.AppendInt(dst, cp.Captures, 10)
	dst = append(dst, `,"shards":`...)
	dst = appendShards(dst, cp.Shards)
	if len(cp.CapturedResp) > 0 {
		dst = appendNumbers(append(dst, `,"captured_resp":`...), cp.CapturedResp)
	}
	if len(cp.CapLog) > 0 {
		dst = append(dst, `,"cap_log":[`...)
		for i := range cp.CapLog {
			rec := &cp.CapLog[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"addr":`...)
			dst = zgrab.AppendJSONAddr(dst, rec.Addr)
			dst = append(dst, `,"country":`...)
			dst = zgrab.AppendJSONString(dst, rec.Vantage)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"scan":`...)
	if dst, err = cp.Scan.AppendJSON(dst); err != nil {
		return dst[:n0], err
	}
	dst = appendSection(dst, `,"pool_scores":`, pool)
	dst = appendSection(dst, `,"obs":`, met)
	dst = append(dst, `,"out_offset":`...)
	dst = strconv.AppendInt(dst, cp.OutOffset, 10)
	dst = appendSection(dst, `,"store":`, man)
	dst = appendSection(dst, `,"cluster":`, clu)
	return append(dst, '}'), nil
}

// marshalSection is json.Marshal(v) for a section the document holds,
// and nil for one omitempty leaves out.
func marshalSection(present bool, v any) ([]byte, error) {
	if !present {
		return nil, nil
	}
	return json.Marshal(v)
}

// appendSection appends an omitempty member whose value is already
// encoded, or nothing when it is nil.
func appendSection(dst []byte, key string, value []byte) []byte {
	if value == nil {
		return dst
	}
	return append(append(dst, key...), value...)
}

// jsonSizeHint is about the length of the sections AppendJSON writes
// itself — at least it for what a campaign records: unzoned addresses,
// two-letter countries, responsive indexes and device ids below ten
// million.
func (cp *Checkpoint) jsonSizeHint() int {
	const (
		int64Len = len(`-9223372036854775808`)
		headLen  = len(`{"seed":,"collect_shards":,"next_slice":,"time":"2006-01-02T15:04:05.999999999-07:00","captures":,"shards":[],"captured_resp":[],"cap_log":[],"scan":,"pool_scores":,"obs":,"out_offset":,"store":,"cluster":}`) + 5*int64Len
		shardLen = len(`{"vol":[,,,],"resp":[,,,],"ports":[,,,],"arena":{"slots":[],"refs":"","hand":}},`) + 13*int64Len
		respLen  = len(`9999999,`)
		slotLen  = len(`9999999,`)
		capLen   = len(`{"addr":"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff","country":"XX"},`)
	)
	n := headLen + len(cp.Shards)*shardLen + len(cp.CapturedResp)*respLen + len(cp.CapLog)*capLen
	for i := range cp.Shards {
		if a := cp.Shards[i].Arena; a != nil {
			n += len(a.Slots)*slotLen + base64.StdEncoding.EncodedLen(len(a.Refs))
		}
	}
	return n
}

// appendShards writes the shards section. It is not omitempty: a nil
// slice is null.
func appendShards(dst []byte, shards []ShardSnap) []byte {
	if shards == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range shards {
		s := &shards[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendNumbers(append(dst, `{"vol":`...), s.Vol[:])
		dst = appendNumbers(append(dst, `,"resp":`...), s.Resp[:])
		dst = appendNumbers(append(dst, `,"ports":`...), s.Ports[:])
		if s.Arena != nil {
			dst = appendArena(append(dst, `,"arena":`...), s.Arena)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendNumbers writes vs as a JSON array, [] when empty.
func appendNumbers[T int | int32 | uint64](dst []byte, vs []T) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if v < 0 {
			dst = strconv.AppendInt(dst, int64(v), 10)
		} else {
			dst = strconv.AppendUint(dst, uint64(v), 10)
		}
	}
	return append(dst, ']')
}

// appendArena writes an arena snapshot: slots and refs are not
// omitempty (nil is null), and refs, a []byte, is standard base64.
func appendArena(dst []byte, a *world.ArenaState) []byte {
	dst = append(dst, `{"slots":`...)
	if a.Slots == nil {
		dst = append(dst, "null"...)
	} else {
		dst = appendNumbers(dst, a.Slots)
	}
	dst = append(dst, `,"refs":`...)
	if a.Refs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '"')
		dst = base64.StdEncoding.AppendEncode(dst, a.Refs)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"hand":`...)
	dst = strconv.AppendInt(dst, int64(a.Hand), 10)
	return append(dst, '}')
}
