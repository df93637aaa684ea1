package tabulate

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := New("Table X", "Name", "Count").
		SetAligns(Left, Right).
		Cells("alpha", "12").
		Cells("b", "3456")
	out := tab.String()
	if !strings.HasPrefix(out, "Table X\n") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title, header, rule, row, row
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "alpha") || !strings.Contains(lines[3], "12") {
		t.Fatalf("row content wrong: %q", lines[3])
	}
	// Right-aligned count column: "12" should end the row at same width
	// as "3456"'s row.
	if len(lines[3]) != len(lines[4]) {
		t.Fatalf("alignment off: %q vs %q", lines[3], lines[4])
	}
}

func TestTableNoTitle(t *testing.T) {
	out := New("", "A").Cells("x").String()
	if strings.HasPrefix(out, "\n") {
		t.Fatalf("empty title should not emit blank line:\n%q", out)
	}
}

func TestTableNotes(t *testing.T) {
	out := New("T", "A").Cells("x").Note("n=%d", 5).String()
	if !strings.Contains(out, "n=5") {
		t.Fatalf("note missing:\n%s", out)
	}
}

func TestShortRowPads(t *testing.T) {
	out := New("", "A", "B").Cells("only").String()
	if !strings.Contains(out, "only") {
		t.Fatalf("row lost: %s", out)
	}
}

func TestCount(t *testing.T) {
	cases := []struct {
		in   int
		want string
	}{
		{0, "0"},
		{999, "999"},
		{1000, "1 000"},
		{3040325302, "3 040 325 302"},
		{-12345, "-12 345"},
	}
	for _, c := range cases {
		if got := Count(c.in); got != c.want {
			t.Errorf("Count(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.284); got != "28.4%" {
		t.Fatalf("Pct = %q", got)
	}
}

func TestCountPct(t *testing.T) {
	if got := CountPct(4765, 73975); got != "4 765 (6.4%)" {
		t.Fatalf("CountPct = %q", got)
	}
	if got := CountPct(5, 0); got != "5 (0%)" {
		t.Fatalf("CountPct zero total = %q", got)
	}
}
