package store

import (
	"container/list"
	"sync"
)

// The read path keeps two caches, both content-addressed: segments are
// immutable and the manifest pins every live file's whole-file CRC and
// size, so (crc, size) identifies a segment's exact bytes regardless of
// what the file is currently called. That makes both caches safe
// against compaction retiring (renaming) segments mid-query and against
// ResetTo rewinding the directory: a stale entry can only ever be
// unreachable, never wrong, and no invalidation protocol is needed.
//
//   - footerCache holds parsed footers — the sparse block index plus
//     the segment-level module/vantage dictionaries and the /48 bloom
//     filter. Before it, every Scan re-read and re-parsed the footer of
//     every segment it visited; a query daemon doing thousands of
//     selective scans repaid that tax on each one.
//   - blockCache is a bounded LRU of decoded blocks as column vectors
//     (colBlock): the body inflated, every column read and bounds-
//     checked, every grab parsed and re-encoded, once. A warm scan
//     filters those vectors and touches neither the disk nor flate nor
//     a varint; concurrent queries over the same hot segments share
//     them read-only — a colBlock is immutable and aliases nothing, and
//     what a scan hands out (a selection, a Row it builds on request,
//     bytes it appends) is its own.

// DefaultBlockCacheBytes is the decoded-block cache budget when
// Options leaves it zero.
const DefaultBlockCacheBytes = 32 << 20

// DefaultFooterCacheEntries is the parsed-footer cache bound when
// Options leaves it zero.
const DefaultFooterCacheEntries = 1024

// segKey identifies a segment's exact contents: the manifest-pinned
// whole-file CRC-32C and size. Name is deliberately absent — compaction
// renames files without changing their bytes.
type segKey struct {
	crc  uint32
	size int64
}

// footerCache memoises parsed segment footers across Scan calls. A nil
// footerCache (Options.FooterCacheEntries < 0) disables caching.
type footerCache struct {
	mu  sync.Mutex
	max int
	m   map[segKey]*segment
}

func newFooterCache(max int) *footerCache {
	if max < 0 {
		return nil
	}
	if max == 0 {
		max = DefaultFooterCacheEntries
	}
	return &footerCache{max: max, m: make(map[segKey]*segment)}
}

// get returns the cached parsed footer for a manifest entry, if any.
// The returned segment is shared and must be treated as immutable —
// which it is by construction: nothing mutates a parsed footer.
func (c *footerCache) get(si SegmentInfo) *segment {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[segKey{si.CRC32, si.Size}]
}

// put caches a parsed footer. When the bound is hit the whole map is
// dropped — footers are cheap to re-parse and a generation clear keeps
// the path free of eviction bookkeeping.
func (c *footerCache) put(si SegmentInfo, seg *segment) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= c.max {
		c.m = make(map[segKey]*segment, c.max)
	}
	c.m[segKey{si.CRC32, si.Size}] = seg
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
