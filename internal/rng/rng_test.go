package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestDeriveStable(t *testing.T) {
	root := New(7)
	c1 := root.Derive("world")
	c2 := root.Derive("world")
	if c1.Uint64() != c2.Uint64() {
		t.Fatal("deriving the same label twice should yield identical streams")
	}
	c3 := root.Derive("pool")
	if c1.Uint64() == c3.Uint64() {
		t.Fatal("different labels should yield different streams")
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a, b := New(9), New(9)
	_ = a.Derive("x")
	if a.Uint64() != b.Uint64() {
		t.Fatal("Derive must not advance the parent stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n < 50; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniform(t *testing.T) {
	// Chi-square-ish sanity: 10 buckets, 100k draws, each bucket within
	// 5% relative error of the expected count.
	r := New(11)
	const n, draws = 10, 100000
	var buckets [n]int
	for i := 0; i < draws; i++ {
		buckets[r.Uint64n(n)]++
	}
	want := draws / n
	for i, c := range buckets {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Fatalf("bucket %d has %d draws, want ~%d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	if err := quick.Check(func(uint8) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if got < 0.28 || got > 0.32 {
		t.Fatalf("Bool(0.3) frequency = %v", got)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) must be true")
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(19)
	const draws = 200000
	var sum float64
	for i := 0; i < draws; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(23)
	const n, draws = 100, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.Zipf(n, 1.2)
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[n-1] {
		t.Fatalf("Zipf should be head-heavy: first=%d last=%d", counts[0], counts[n-1])
	}
	if counts[0] < draws/10 {
		t.Fatalf("Zipf head too light: %d of %d", counts[0], draws)
	}
}

func TestZipfDegenerate(t *testing.T) {
	r := New(29)
	if v := r.Zipf(1, 1.5); v != 0 {
		t.Fatalf("Zipf(1) = %d, want 0", v)
	}
	if v := r.Zipf(0, 1.5); v != 0 {
		t.Fatalf("Zipf(0) = %d, want 0", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	for n := 0; n < 40; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(37)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: %v", xs)
	}
}

func TestWeightedIndex(t *testing.T) {
	r := New(41)
	w := []float64{0, 1, 3, 0}
	counts := make([]int, len(w))
	for i := 0; i < 40000; i++ {
		idx := r.WeightedIndex(w)
		if idx < 0 || idx >= len(w) {
			t.Fatalf("index out of range: %d", idx)
		}
		counts[idx]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight entries chosen: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
	if r.WeightedIndex([]float64{0, 0}) != -1 {
		t.Fatal("all-zero weights should return -1")
	}
	if r.WeightedIndex(nil) != -1 {
		t.Fatal("empty weights should return -1")
	}
}

func TestBytesFills(t *testing.T) {
	r := New(43)
	for _, n := range []int{0, 1, 7, 8, 9, 17, 64} {
		b := make([]byte, n)
		r.Bytes(b)
		if n >= 8 {
			allZero := true
			for _, v := range b {
				if v != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Fatalf("Bytes(%d) left buffer all zero", n)
			}
		}
	}
}

func TestPickCoversAll(t *testing.T) {
	r := New(47)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[Pick(r, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick missed elements: %v", seen)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

func TestDeriveIndexed(t *testing.T) {
	r := New(7)
	// DeriveIndexed is sugar for Derive("label/i") — shard streams must
	// line up with the hand-built label exactly.
	a := New(7).DeriveIndexed("volume/shard", 3)
	b := r.Derive("volume/shard/3")
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("DeriveIndexed diverged from Derive at %d", i)
		}
	}
	// Different indices give independent streams.
	c, d := r.DeriveIndexed("x", 0), r.DeriveIndexed("x", 1)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("indexed streams 0 and 1 collide %d/100 draws", same)
	}
}

func TestStateSetStateRoundTrip(t *testing.T) {
	r := New(42).Derive("checkpoint/stream")
	for i := 0; i < 1000; i++ {
		r.Uint64() // advance to an arbitrary mid-stream position
	}
	state := r.State()

	// A fresh stream restored to that position replays the identical
	// tail — draw by draw, across every output shape.
	fresh := New(0)
	fresh.SetState(state)
	for i := 0; i < 200; i++ {
		if a, b := r.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("restored stream diverged at draw %d: %x vs %x", i, a, b)
		}
	}
	if a, b := r.Float64(), fresh.Float64(); a != b {
		t.Fatalf("Float64 after restore: %v vs %v", a, b)
	}

	// State is a copy, not an alias: drawing must not mutate a captured
	// snapshot.
	snap := r.State()
	r.Uint64()
	if snap != r.State() {
		// expected: the stream moved on while the snapshot stayed put
	} else {
		t.Fatal("State did not advance after a draw")
	}

	// The invalid all-zero state falls back to a usable stream instead
	// of the xoshiro fixed point.
	z := New(1)
	z.SetState([4]uint64{})
	if z.Uint64() == 0 && z.Uint64() == 0 && z.Uint64() == 0 {
		t.Fatal("all-zero SetState left the stream stuck at zero")
	}
}
