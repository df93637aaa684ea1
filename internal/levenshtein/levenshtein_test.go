package levenshtein

import (
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestDistanceKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"gumbo", "gambol", 2},
		{"same", "same", 0},
		{"FRITZ!Box 7590", "FRITZ!Box 7490", 1},
		{"héllo", "hello", 1}, // rune-wise, not byte-wise
	}
	for _, c := range cases {
		if got := Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(a, b string) bool { return Distance(a, b) == Distance(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceIdentity(t *testing.T) {
	f := func(a string) bool { return Distance(a, a) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceBounds(t *testing.T) {
	f := func(a, b string) bool {
		d := Distance(a, b)
		la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
		max := la
		if lb > max {
			max = lb
		}
		diff := la - lb
		if diff < 0 {
			diff = -diff
		}
		return d >= diff && d <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalized(t *testing.T) {
	if got := Normalized("", ""); got != 0 {
		t.Fatalf("Normalized empty = %v", got)
	}
	if got := Normalized("abcd", "abce"); got != 0.25 {
		t.Fatalf("Normalized = %v, want 0.25", got)
	}
	if got := Normalized("ab", "xy"); got != 1 {
		t.Fatalf("Normalized disjoint = %v, want 1", got)
	}
}

func TestNormalizedRange(t *testing.T) {
	f := func(a, b string) bool {
		n := Normalized(a, b)
		return n >= 0 && n <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimilar(t *testing.T) {
	// Paper threshold: 0.25 groups minor version differences.
	if !Similar("Plesk Obsidian 18.0.34", "Plesk Obsidian 18.0.35", 0.25) {
		t.Fatal("version variants should group")
	}
	if Similar("FRITZ!Box", "D-LINK", 0.25) {
		t.Fatal("distinct products must not group")
	}
	if !Similar("", "", 0.25) {
		t.Fatal("two empties are similar")
	}
}

func TestSimilarLengthPrefilterAgrees(t *testing.T) {
	// The fast pre-filter must never change the verdict.
	f := func(a, b string) bool {
		return Similar(a, b, 0.25) == (Normalized(a, b) <= 0.25)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClusterBasic(t *testing.T) {
	items := []string{
		"FRITZ!Box 7590", "FRITZ!Box 7490", "D-LINK Router", "FRITZ!Box 6660",
	}
	groups := Cluster(items, nil, 0.25)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2: %+v", len(groups), groups)
	}
	if groups[0].Representative != "FRITZ!Box 7590" || groups[0].Count != 3 {
		t.Fatalf("group 0 wrong: %+v", groups[0])
	}
	if groups[1].Count != 1 {
		t.Fatalf("group 1 wrong: %+v", groups[1])
	}
}

func TestClusterWeights(t *testing.T) {
	groups := Cluster([]string{"aaa", "aab"}, []int{10, 5}, 0.5)
	if len(groups) != 1 || groups[0].Count != 15 {
		t.Fatalf("weighted cluster wrong: %+v", groups)
	}
}

func TestClusterEmpty(t *testing.T) {
	if got := Cluster(nil, nil, 0.25); got != nil {
		t.Fatalf("Cluster(nil) = %v", got)
	}
}

func TestClusterCountInvariant(t *testing.T) {
	// Total count across groups equals the number of items (unit weights),
	// and every item lands in exactly one group.
	f := func(raw []string) bool {
		groups := Cluster(raw, nil, 0.25)
		total, members := 0, 0
		for _, g := range groups {
			total += g.Count
			members += len(g.Members)
		}
		return total == len(raw) && members == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDistanceTitles(b *testing.B) {
	x := "3CX Phone System Management Console"
	y := "3CX Phone System Mgmt Console v18"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Distance(x, y)
	}
}
