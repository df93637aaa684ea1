// Package stats provides the small statistical utilities the analysis
// pipeline uses: medians and proportions.
package stats

import "sort"

// Median returns the median of xs (the mean of the two central elements
// for even-length input). It returns 0 for empty input. xs is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	// Halve before adding so extreme magnitudes cannot overflow.
	return s[n/2-1]/2 + s[n/2]/2
}

// MedianInts is Median over integer samples.
func MedianInts(xs []int) float64 {
	fs := make([]float64, len(xs))
	for i, v := range xs {
		fs[i] = float64(v)
	}
	return Median(fs)
}

// Proportion returns part/total as a float, or 0 when total is 0.
func Proportion(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}
