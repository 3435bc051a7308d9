package report

import (
	"strings"
	"testing"
	"unicode/utf8"

	"ecsdns/internal/stats"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "Demo", Headers: []string{"name", "count", "share"}}
	tb.AddRow("alpha", 12, 0.5)
	tb.AddRow("beta-longer-label", 3, 0.125)
	out := tb.String()
	if !strings.HasPrefix(out, "Demo\n") {
		t.Fatalf("title missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns must align: every data row starts its second column at the
	// same offset.
	idx1 := strings.Index(lines[3], "12")
	idx2 := strings.Index(lines[4], "3")
	if idx1 != idx2 {
		t.Fatalf("columns misaligned:\n%s", out)
	}
	if !strings.Contains(out, "0.50") || !strings.Contains(out, "0.12") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
}

// TestTableAlignsMultiByteCells: a cell holding a multi-byte rune, like
// the "—" of a number the paper does not give or a "×" unit, starts the
// next column at the same character offset as an ASCII row does.
func TestTableAlignsMultiByteCells(t *testing.T) {
	tb := &Table{Headers: []string{"metric", "paper", "measured", "unit"}}
	tb.AddRow("ascii", 4.3, 4.0, "x")
	tb.AddRow("dash", "—", 8192.0, "×")
	tb.AddRow("times", "×", 1.5, "entries")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	col := func(line, cell string) int {
		return utf8.RuneCountInString(line[:strings.Index(line, cell)])
	}
	want := col(lines[2], "4.00")
	for _, tc := range []struct{ line, cell string }{{lines[3], "8192.00"}, {lines[4], "1.50"}} {
		if got := col(tc.line, tc.cell); got != want {
			t.Fatalf("%q starts at column %d, want %d as in the ASCII row:\n%s", tc.cell, got, want, tb)
		}
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := &Table{Headers: []string{"a"}}
	tb.AddRow("x")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Fatal("empty title emitted a blank line")
	}
}

func TestSeriesTable(t *testing.T) {
	series := map[string]*stats.CDF{
		"b-series": stats.NewCDF([]float64{1, 2, 3, 4}),
		"a-series": stats.NewCDF([]float64{10, 20}),
	}
	tb := SeriesTable("CDFs", "ms", series, []float64{0.5, 0.9})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Sorted by series name.
	if tb.Rows[0][0] != "a-series" || tb.Rows[1][0] != "b-series" {
		t.Fatalf("rows unsorted: %v", tb.Rows)
	}
	out := tb.String()
	for _, want := range []string{"p50", "p90", "CDFs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestSortStrings(t *testing.T) {
	s := []string{"c", "a", "b"}
	sortStrings(s)
	if s[0] != "a" || s[1] != "b" || s[2] != "c" {
		t.Fatalf("sorted = %v", s)
	}
	sortStrings(nil) // must not panic
}
