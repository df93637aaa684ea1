// Campaign dispatch SPI: the narrow surface through which an external
// executor — internal/cluster's leased-node fabric — drives the
// collection's shard tasks in place of the built-in worker pool.
//
// The contract mirrors the determinism argument of DESIGN.md
// "Concurrency & determinism": a shard's slice execution reads only
// shard-local state (rng streams, arena, scratch buffers) plus
// immutable or slice-frozen globals, and writes only shard-local
// effect buffers. The drain barrier commits those buffers in ascending
// shard order. A dispatcher may therefore run shards on any schedule —
// and may discard and re-run an execution, provided it first restores
// the shard's Snapshot — without changing a byte of output.
package core

import (
	"time"

	"ntpscan/internal/world"
)

// DispatchFunc executes one slice's shard tasks. The campaign calls it
// once per slice with a handle per shard and the task closure; by the
// time it returns, run(ref) must have been *committed* exactly once
// per shard — executions beyond that must each have been rolled back
// via Restore with a Snapshot taken before the attempt ran. run is
// safe to call concurrently for distinct refs, never for the same ref.
//
// A non-nil error aborts the campaign: the remaining slices are
// skipped (no further dispatch calls are made) and RunCampaign returns
// the error. Dispatchers use this for fatal control-plane failures — a
// cluster transport that cannot reach its coordinator and cannot
// safely fall back, or a coordinator whose shard decomposition
// disagrees with the pipeline's — where continuing would execute an
// undefined placement.
type DispatchFunc func(slice int, shards []ShardRef, run func(ShardRef)) error

// ShardRef is an opaque handle to one collection shard, valid for the
// campaign that issued it.
type ShardRef struct {
	p  *Pipeline
	sh *collectShard
}

// ShardSnap is a shard's restorable execution state: rng stream
// positions and the device arena's resident set. Taken at a slice
// boundary (or before a speculative execution), it is everything a
// re-run needs — effect buffers are empty at those points, and arena
// slot contents re-derive from the world seed, so the arena snapshot is
// IDs only and a checkpoint, which stores one ShardSnap per shard,
// stays small however much device state is resident.
type ShardSnap struct {
	Vol   [4]uint64         `json:"vol"`
	Resp  [4]uint64         `json:"resp"`
	Ports [4]uint64         `json:"ports"`
	Arena *world.ArenaState `json:"arena,omitempty"`
}

// Snapshot captures the shard's restorable state. Call only while the
// shard is not executing.
func (r ShardRef) Snapshot() ShardSnap {
	return ShardSnap{
		Vol:   r.sh.vol.State(),
		Resp:  r.sh.resp.State(),
		Ports: r.sh.ports.State(),
		Arena: r.sh.arena.Snapshot(),
	}
}

// Restore rewinds the shard to a snapshot and discards any uncommitted
// slice effects — the fencing path: a rejected (zombie) execution's
// buffered captures, drop counts and counter deltas vanish, and the
// shard is bit-exactly where it was when the snapshot was taken, ready
// for the replacement node to re-run it.
func (r ShardRef) Restore(s ShardSnap) error {
	r.sh.discardSliceEffects()
	r.sh.vol.SetState(s.Vol)
	r.sh.resp.SetState(s.Resp)
	r.sh.ports.SetState(s.Ports)
	if s.Arena != nil {
		return r.sh.arena.Restore(s.Arena)
	}
	return nil
}

// SliceWindow is slice s's span on the logical timeline: [from, until).
// Dispatchers use it to evaluate fault-plan windows (a node crash
// strictly inside the window is a mid-slice death; one active at `from`
// already missed its heartbeat).
func (p *Pipeline) SliceWindow(s int) (from, until time.Time) {
	return p.sliceTime(s), p.sliceTime(s + 1)
}

// shardRefs hands out (and caches) the dispatcher's shard handles.
func (p *Pipeline) shardRefs(shards []*collectShard) []ShardRef {
	if len(p.refs) != len(shards) {
		p.refs = make([]ShardRef, len(shards))
		for i, sh := range shards {
			p.refs[i] = ShardRef{p: p, sh: sh}
		}
	}
	return p.refs
}
