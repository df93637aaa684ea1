package store

import "ntpscan/internal/obs"

// Metrics are the store's observability families. Writer-side counters
// (segments, blocks, bytes written; compactions) advance at drain
// barriers, so they are deterministic per slice and ride checkpoint
// telemetry unchanged across worker counts and resume. Reader-side
// counters (blocks/bytes read and skipped) are the query engine's
// pruning evidence, folded in at Iter.Close.
type Metrics struct {
	SegmentsWritten   *obs.Counter
	SegmentsCompacted *obs.Counter
	Compactions       *obs.Counter
	BlocksWritten     *obs.Counter
	BytesWritten      *obs.Counter

	BlocksRead    *obs.Counter
	BlocksSkipped *obs.Counter
	BytesRead     *obs.Counter
	BytesSkipped  *obs.Counter

	// The decoded-block cache's families: what turns repeated selective
	// scans into a hot read path.
	BlockCacheHits      *obs.Counter
	BlockCacheMisses    *obs.Counter
	BlockCacheEvictions *obs.Counter
	BlockCacheBytes     *obs.Gauge
}

// WriterSeries names the writer-side counters: the series AppendSlice
// advances, and the only ones. A campaign whose sink appends a slice
// after that slice's barrier has passed re-reads these, and only these,
// when it writes the barrier's telemetry line.
var WriterSeries = []string{
	"store_segments_written_total",
	"store_segments_compacted_total",
	"store_compactions_total",
	"store_blocks_written_total",
	"store_bytes_written_total",
}

// NewMetrics registers (or re-binds, registries are get-or-create) the
// store families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		SegmentsWritten:   reg.NewCounter("store_segments_written_total", "Immutable segments written (L0 appends and L1 compactions)."),
		SegmentsCompacted: reg.NewCounter("store_segments_compacted_total", "L0 segments consumed by compaction."),
		Compactions:       reg.NewCounter("store_compactions_total", "Compaction merges run."),
		BlocksWritten:     reg.NewCounter("store_blocks_written_total", "Column blocks written into segments."),
		BytesWritten:      reg.NewCounter("store_bytes_written_total", "Segment bytes written (compressed, incl. footers)."),
		BlocksRead:        reg.NewCounter("store_blocks_read_total", "Column blocks read by query scans."),
		BlocksSkipped:     reg.NewCounter("store_blocks_skipped_total", "Column blocks skipped by predicate pushdown."),
		BytesRead:         reg.NewCounter("store_bytes_read_total", "Block bytes read by query scans."),
		BytesSkipped:      reg.NewCounter("store_bytes_skipped_total", "Block bytes skipped by predicate pushdown."),

		BlockCacheHits:      reg.NewCounter("store_block_cache_hits_total", "Scanned blocks served from the decoded-block cache."),
		BlockCacheMisses:    reg.NewCounter("store_block_cache_misses_total", "Scanned blocks read from disk and inflated on a cache miss."),
		BlockCacheEvictions: reg.NewCounter("store_block_cache_evictions_total", "Decoded blocks evicted to hold the cache byte budget."),
		BlockCacheBytes:     reg.NewGauge("store_block_cache_bytes", "Decoded bytes currently resident in the block cache."),
	}
}
