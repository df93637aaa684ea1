package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// dist summarises one timing: the median with its quartiles, the tail
// percentile the sample supports, and the sample count.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailP is the percentile Tail was read at (see tailPercentile).
	TailP int     `json:"tail_p"`
	Tail  float64 `json:"tail"`
}

func summarize(samples []float64) dist {
	if len(samples) == 0 {
		return dist{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p := tailPercentile(len(s))
	return dist{
		N:      len(s),
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		TailP:  p,
		Tail:   quantile(s, float64(p)/100),
	}
}

func median(samples []float64) float64 { return summarize(samples).Median }

// tailPercentile is the reporting rule for tails: the highest whole
// percentile that still has at least ten of the n samples beyond it,
// capped at 95 and floored at the median.
func tailPercentile(n int) int {
	if n < 20 {
		return 50
	}
	p := 100 - (1000+n-1)/n // largest p with n×(100−p)/100 ≥ 10
	if p > 95 {
		p = 95
	}
	if p < 50 {
		p = 50
	}
	return p
}

// relWorse is how much worse cur is than ref as a share of ref, in the
// metric's own direction; negative means better.
func relWorse(better string, ref, cur float64) float64 {
	if ref == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (cur - ref) / math.Abs(ref)
	if better == "higher" {
		return -d
	}
	return d
}
