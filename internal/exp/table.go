package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result mirroring one of the paper's
// tables or figure data series.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry paper-vs-measured commentary for EXPERIMENTS.md.
	Notes []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	rows := append([][]string{t.Header}, t.Rows...)
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range rows {
		var b strings.Builder
		for i, c := range row {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad+2))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		if ri == 0 {
			fmt.Fprintln(w, strings.Repeat("-", len(strings.TrimRight(b.String(), " "))))
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// mbps formats a bits/s value in Mbps.
func mbps(bps float64) string { return fmt.Sprintf("%.1f", bps/1e6) }

// WriteCSV writes the table as CSV (header + rows; title and notes are
// omitted).
func (t *Table) WriteCSV(w io.Writer) error {
	return csv.NewWriter(w).WriteAll(append([][]string{t.Header}, t.Rows...))
}
