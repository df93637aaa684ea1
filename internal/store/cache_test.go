package store

import "testing"

// White-box unit tests for the cache edge branches the end-to-end
// concurrent tests don't reach: nil (disabled) receivers, oversized
// entries, duplicate inserts.

func TestBlockCacheEdgeCases(t *testing.T) {
	var nilCache *blockCache
	if _, found := nilCache.get(blockKey{}); found {
		t.Error("nil cache reported a hit")
	}
	nilCache.put(blockKey{}, nil, 1) // must not panic
	if nilCache.bytes() != 0 {
		t.Error("nil cache reported bytes")
	}
	if newBlockCache(-1, nil) != nil {
		t.Error("negative budget did not disable the cache")
	}

	c := newBlockCache(100, nil)
	k1 := blockKey{seg: segKey{crc: 1, size: 10}, off: 0}

	// An entry costlier than the whole budget is not cached.
	c.put(k1, &colBlock{n: 1}, 101)
	if _, found := c.get(k1); found || c.bytes() != 0 {
		t.Errorf("oversized entry cached (bytes=%d)", c.bytes())
	}

	// A duplicate insert keeps the existing rows and charges nothing.
	c.put(k1, &colBlock{n: 1}, 40)
	c.put(k1, &colBlock{n: 2}, 40)
	blk, found := c.get(k1)
	if !found || blk.n != 1 {
		t.Errorf("duplicate insert replaced entry: %v", blk)
	}
	if c.bytes() != 40 {
		t.Errorf("bytes = %d, want 40", c.bytes())
	}

	// Filling past the budget evicts the LRU entry (k1: k2 was touched
	// by get, keeping it fresher).
	k2 := blockKey{seg: segKey{crc: 2, size: 20}, off: 0}
	k3 := blockKey{seg: segKey{crc: 3, size: 30}, off: 0}
	c.put(k2, nil, 40)
	c.get(k2)
	c.put(k3, nil, 40)
	if _, found := c.get(k1); found {
		t.Error("LRU entry survived eviction")
	}
	if _, found := c.get(k2); !found {
		t.Error("recently-used entry was evicted")
	}
	if c.bytes() != 80 {
		t.Errorf("bytes = %d, want 80", c.bytes())
	}
}

// bytes reports the cache's current decoded-byte footprint.
func (c *blockCache) bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}
