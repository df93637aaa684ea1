// Package intern provides a concurrency-safe string intern table.
//
// The scan and analysis layers handle millions of results whose string
// fields draw from tiny vocabularies: certificate fingerprints repeat
// per device image, SSH identification strings per firmware, HTML
// titles per product line, country codes per vantage. Without
// interning, every grab and every JSONL re-read materialises its own
// copy; with it, each distinct value is allocated once and every
// subsequent occurrence is a pointer to the same backing bytes.
//
// Interning only ever substitutes an equal string, so it is invisible
// to output bytes — see DESIGN.md "Memory discipline".
package intern

import "sync"

// tableShards is the fixed shard count. A power of two so the hash can
// be masked; 64 keeps lock contention negligible at scanner worker
// counts without bloating the table for small runs.
const tableShards = 64

type shard struct {
	mu sync.RWMutex
	m  map[string]string
}

// Table is a sharded intern table. The zero value is not usable; call
// New (or use the package-level Default).
type Table struct {
	shards [tableShards]shard
}

// New returns an empty table.
func New() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].m = make(map[string]string)
	}
	return t
}

// Default is the process-wide table shared by zgrab and analysis. Its
// entries live for the process; the vocabulary it holds is bounded by
// the world's device diversity, not by the number of results.
var Default = New()

// fnv1a hashes b for shard selection (FNV-1a, inlined to keep the hot
// path free of hash.Hash allocations).
func fnv1a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// Bytes returns the canonical string equal to b, allocating it only on
// first sight. The fast path — value already interned — performs no
// allocation: the map lookup uses Go's string(b) lookup optimisation.
func (t *Table) Bytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	sh := &t.shards[fnv1a(b)&(tableShards-1)]
	sh.mu.RLock()
	s, ok := sh.m[string(b)]
	sh.mu.RUnlock()
	if ok {
		return s
	}
	sh.mu.Lock()
	if s, ok = sh.m[string(b)]; !ok {
		s = string(b)
		sh.m[s] = s
	}
	sh.mu.Unlock()
	return s
}

// String returns the canonical instance equal to s. Unlike Bytes it
// cannot avoid the caller's original allocation, but it drops the
// duplicate immediately, so retained memory stays one copy per
// distinct value.
func (t *Table) String(s string) string {
	if s == "" {
		return ""
	}
	sh := &t.shards[fnv1aString(s)&(tableShards-1)]
	sh.mu.RLock()
	c, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return c
	}
	sh.mu.Lock()
	if c, ok = sh.m[s]; !ok {
		c = s
		sh.m[c] = c
	}
	sh.mu.Unlock()
	return c
}

func fnv1aString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}
