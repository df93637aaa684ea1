package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, -5, 7}, -1},
	}
	for _, c := range cases {
		if got := Median(c.in); !almost(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Median mutated input: %v", in)
	}
}

func TestMedianInts(t *testing.T) {
	if got := MedianInts([]int{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Fatalf("MedianInts = %v, want 2.5", got)
	}
}

func TestProportion(t *testing.T) {
	if got := Proportion(1, 4); !almost(got, 0.25) {
		t.Fatalf("Proportion = %v", got)
	}
	if got := Proportion(1, 0); got != 0 {
		t.Fatalf("Proportion(_,0) = %v", got)
	}
}

func TestMedianPropertyBounded(t *testing.T) {
	// Median must lie within [min, max] for any input.
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, v := range xs {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return Median(clean) == 0
		}
		lo, hi := clean[0], clean[0]
		for _, v := range clean {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		m := Median(clean)
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
