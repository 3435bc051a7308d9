// Package report renders experiment outputs as the plain-text tables and
// series the paper's tables and figures correspond to.
package report

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"ecsdns/internal/stats"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row built from stringable values.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	// Widths count runes, not bytes, so a cell holding "—" or "×" pads
	// to the same column as an ASCII one.
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// SeriesTable renders labeled CDF quantiles for a set of series — the
// textual equivalent of one CDF figure.
func SeriesTable(title, xlabel string, series map[string]*stats.CDF, quantiles []float64) *Table {
	t := &Table{Title: title}
	t.Headers = append(t.Headers, "series")
	for _, q := range quantiles {
		t.Headers = append(t.Headers, fmt.Sprintf("p%02.0f", q*100))
	}
	t.Headers = append(t.Headers, "n", "x="+xlabel)
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		cdf := series[k]
		row := []interface{}{k}
		for _, q := range quantiles {
			row = append(row, cdf.Quantile(q))
		}
		row = append(row, cdf.Len(), "")
		t.AddRow(row...)
	}
	return t
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
