package store

import (
	"container/list"
	"sync"
)

// The read path keeps one cache, blockCache: a bounded LRU of decoded
// blocks as column vectors (colBlock) — the body inflated, every column
// read and bounds-checked, every grab parsed and re-encoded, once. A
// warm scan filters those vectors and touches neither the disk nor
// flate nor a varint; concurrent queries over the same hot segments
// share them read-only — a colBlock is immutable and aliases nothing,
// and what a scan hands out (a selection, a Row it builds on request,
// bytes it appends) is its own. Footers need no cache: the store keeps
// the parsed footer of every live segment beside its manifest entry.
//
// The cache is content-addressed: segments are immutable and the
// manifest pins every live file's whole-file CRC and size, so (crc,
// size) identifies a segment's exact bytes regardless of what the file
// is currently called. That makes it safe against compaction retiring
// (renaming) segments mid-query and against ResetTo rewinding the
// directory: a stale entry can only ever be unreachable, never wrong,
// and no invalidation protocol is needed.

// DefaultBlockCacheBytes is the decoded-block cache budget when
// Options leaves it zero.
const DefaultBlockCacheBytes = 32 << 20

// segKey identifies a segment's exact contents: the manifest-pinned
// whole-file CRC-32C and size. Name is deliberately absent — compaction
// renames files without changing their bytes.
type segKey struct {
	crc  uint32
	size int64
}

// blockKey identifies one decoded block: the owning segment's content
// identity plus the block's file offset.
type blockKey struct {
	seg segKey
	off int64
}

// blockCache is a bounded LRU over decoded blocks. The byte budget is
// accounted in decompressed block-body bytes — a stable, deterministic
// unit that doesn't depend on Go's allocator, and what every cache
// counter and telemetry oracle is written in. The vectors take about
// 2.4 times that (fixed-width columns for varints), where the row
// structs they replaced took eight times.
type blockCache struct {
	mu  sync.Mutex
	max int64
	cur int64
	m   map[blockKey]*list.Element
	lru *list.List // front = most recently used

	met *Metrics // nil-safe: eviction/bytes accounting only
}

type blockEntry struct {
	key  blockKey
	blk  *colBlock
	cost int64 // decompressed body bytes
}

func newBlockCache(max int64, met *Metrics) *blockCache {
	if max < 0 {
		return nil
	}
	if max == 0 {
		max = DefaultBlockCacheBytes
	}
	return &blockCache{max: max, m: make(map[blockKey]*list.Element), lru: list.New(), met: met}
}

// get returns a block's decoded vectors, if cached.
func (c *blockCache) get(k blockKey) (blk *colBlock, found bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.m[k]
	if el == nil {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*blockEntry).blk, true
}

// put inserts a decoded block, evicting least-recently-used entries
// until the byte budget holds. Blocks costlier than the whole budget
// are not cached. A concurrent duplicate insert keeps the existing
// entry.
func (c *blockCache) put(k blockKey, blk *colBlock, cost int64) {
	if c == nil || cost > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		return
	}
	c.cur += cost
	c.m[k] = c.lru.PushFront(&blockEntry{key: k, blk: blk, cost: cost})
	for c.cur > c.max {
		el := c.lru.Back()
		if el == nil {
			break
		}
		ent := el.Value.(*blockEntry)
		c.lru.Remove(el)
		delete(c.m, ent.key)
		c.cur -= ent.cost
		if c.met != nil {
			c.met.BlockCacheEvictions.Inc()
		}
	}
	if c.met != nil {
		c.met.BlockCacheBytes.Set(c.cur)
	}
}
