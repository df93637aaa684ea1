// Package levenshtein implements edit distance and the normalized-distance
// clustering the paper uses to group HTML page titles (§4.3.1: titles are
// grouped when their Levenshtein distance normalized to 0-1 is at most
// 0.25).
package levenshtein

import "unicode/utf8"

// Distance returns the Levenshtein edit distance between a and b, counting
// insertions, deletions and substitutions at unit cost. It operates on
// runes, not bytes, so multi-byte characters count once.
func Distance(a, b string) int {
	if a == b {
		return 0
	}
	ra, rb := []rune(a), []rune(b)
	// Ensure rb is the shorter row to bound memory at O(min(m,n)).
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur := prev[0]
		prev[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			next := min3(prev[j]+1, prev[j-1]+1, cur+cost)
			cur = prev[j]
			prev[j] = next
		}
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Normalized returns Distance(a, b) divided by the length (in runes) of
// the longer string, yielding a dissimilarity in [0, 1]. Two empty strings
// have distance 0.
func Normalized(a, b string) float64 {
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	n := la
	if lb > n {
		n = lb
	}
	if n == 0 {
		return 0
	}
	return float64(Distance(a, b)) / float64(n)
}

// Similar reports whether the normalized distance between a and b is at
// most threshold.
func Similar(a, b string, threshold float64) bool {
	// Cheap length pre-filter: if the length difference alone already
	// exceeds the threshold the full DP cannot pass it.
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	longer, shorter := la, lb
	if lb > la {
		longer, shorter = lb, la
	}
	if longer == 0 {
		return true
	}
	if float64(longer-shorter)/float64(longer) > threshold {
		return false
	}
	return Normalized(a, b) <= threshold
}

// Cluster groups strings whose normalized distance to a cluster's
// representative is at most threshold. It is the greedy first-fit
// clustering the paper's title grouping implies: items are processed in
// the given order; each item joins the first existing cluster whose
// representative is similar enough, otherwise it founds a new cluster
// with itself as representative.
//
// The weights slice, if non-nil, must parallel items; the representative
// reported for each cluster is its first (founding) item, and counts are
// summed weights. With nil weights every item counts once.
func Cluster(items []string, weights []int, threshold float64) []Group {
	var groups []Group
next:
	for i, it := range items {
		w := 1
		if weights != nil {
			w = weights[i]
		}
		for gi := range groups {
			if Similar(groups[gi].Representative, it, threshold) {
				groups[gi].Members = append(groups[gi].Members, it)
				groups[gi].Count += w
				continue next
			}
		}
		groups = append(groups, Group{
			Representative: it,
			Members:        []string{it},
			Count:          w,
		})
	}
	return groups
}

// Group is one cluster produced by Cluster.
type Group struct {
	Representative string   // the founding member, used for matching
	Members        []string // all member strings, founding member first
	Count          int      // total weight of members
}
