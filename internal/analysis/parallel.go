package analysis

import (
	"runtime"
	"sync"
)

// The analysis aggregations are embarrassingly parallel: each builds
// per-key state by folding a commutative, associative update (boolean
// OR, first-wins keyed by input position) over result records. The
// fan-out is GOMAXPROCS; every parallel path merges per-chunk state in
// chunk order, so the output is bit-identical at any setting.

// Workers returns the aggregation fan-out.
func Workers() int { return runtime.GOMAXPROCS(0) }

// parallelChunks is the smallest input that is worth fanning out; below
// it the goroutine overhead dominates.
const parallelMinItems = 2048

// chunkBounds splits [0, n) into at most workers contiguous chunks.
func chunkBounds(n, workers int) [][2]int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	out := make([][2]int, 0, workers)
	for i := 0; i < workers; i++ {
		lo := n * i / workers
		hi := n * (i + 1) / workers
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// parallelFold builds one partial state per contiguous input chunk with
// build (called concurrently) and folds the partials in chunk order with
// merge (called serially). With one chunk it degenerates to a serial
// build; the fold order makes the result deterministic whenever merge
// commutes or the partial states are position-tagged.
func parallelFold[S any](n int, build func(lo, hi int) S, merge func(S)) {
	workers := Workers()
	if n < parallelMinItems || workers < 2 {
		if n > 0 {
			merge(build(0, n))
		}
		return
	}
	bounds := chunkBounds(n, workers)
	partials := make([]S, len(bounds))
	var wg sync.WaitGroup
	for i, b := range bounds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			partials[i] = build(b[0], b[1])
		}()
	}
	wg.Wait()
	for _, p := range partials {
		merge(p)
	}
}
