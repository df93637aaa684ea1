// Package tabulate renders aligned plain-text tables in the style the
// paper's tables use. The experiment harness and cmd tools print their
// reproduced tables through it, and EXPERIMENTS.md embeds its output.
package tabulate

import (
	"fmt"
	"strings"
)

// Align selects column alignment.
type Align int

const (
	// Left aligns cell contents to the left (default for text).
	Left Align = iota
	// Right aligns cell contents to the right (default for numbers).
	Right
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title  string
	header []string
	aligns []Align
	rows   [][]string
	notes  []string
}

// New returns a table with the given title and column headers. Columns
// default to left alignment; use SetAligns to change.
func New(title string, headers ...string) *Table {
	t := &Table{Title: title, header: headers}
	t.aligns = make([]Align, len(headers))
	return t
}

// SetAligns sets per-column alignment. Missing trailing entries stay Left.
func (t *Table) SetAligns(aligns ...Align) *Table {
	copy(t.aligns, aligns)
	return t
}

// Cells appends a row of preformatted cells.
func (t *Table) Cells(cells ...string) *Table {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
	return t
}

// Note appends a footnote line printed under the table.
func (t *Table) Note(format string, args ...any) *Table {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
	return t
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len([]rune(c))
			if t.aligns[i] == Right {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(c)
			} else {
				b.WriteString(c)
				if i < len(cells)-1 {
					b.WriteString(strings.Repeat(" ", pad))
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for i, w := range widths {
		if i > 0 {
			total += 2
		}
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		b.WriteString("  " + n + "\n")
	}
	return b.String()
}

// Count formats an integer with thin thousands separators, matching the
// paper's "3 040 325 302" style.
func Count(n int) string {
	neg := n < 0
	if neg {
		n = -n
	}
	s := fmt.Sprintf("%d", n)
	if len(s) > 3 {
		var parts []string
		for len(s) > 3 {
			parts = append([]string{s[len(s)-3:]}, parts...)
			s = s[:len(s)-3]
		}
		parts = append([]string{s}, parts...)
		s = strings.Join(parts, " ")
	}
	if neg {
		s = "-" + s
	}
	return s
}

// Pct formats a proportion (0..1) as a percentage with one decimal.
func Pct(p float64) string { return fmt.Sprintf("%.1f%%", p*100) }

// CountPct formats "N (P%)" as the paper's Table 3 cells do.
func CountPct(n, total int) string {
	if total == 0 {
		return fmt.Sprintf("%s (0%%)", Count(n))
	}
	return fmt.Sprintf("%s (%s)", Count(n), Pct(float64(n)/float64(total)))
}
