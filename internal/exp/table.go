package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"
)

// Table is a printable experiment result mirroring one of the paper's
// tables or figure data series.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Vals are the numbers behind Rows, cell for cell: a measured cell's
	// mean over its replicates, NaN for a label or a value that did not
	// happen.
	Vals [][]float64
	// Notes carry paper-vs-measured commentary for EXPERIMENTS.md.
	Notes []string
}

// cell is one number of a table: the text it prints and the number behind
// it.
type cell struct {
	text string
	val  float64
}

// numCell is a number that needs no fold: computed, not measured by a run.
func numCell(format string, v float64) cell { return cell{fmt.Sprintf(format, v), v} }

// addRow appends a row: its label cells, then its numbers.
func (t *Table) addRow(labels []string, cells ...cell) {
	row, vals := append([]string(nil), labels...), make([]float64, len(labels), len(labels)+len(cells))
	for i := range vals {
		vals[i] = math.NaN()
	}
	for _, c := range cells {
		row, vals = append(row, c.text), append(vals, c.val)
	}
	t.Rows, t.Vals = append(t.Rows, row), append(t.Vals, vals)
}

// Fprint renders the table with aligned columns, measuring cells in runes.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	rows := append([][]string{t.Header}, t.Rows...)
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
	}
	for ri, row := range rows {
		var b strings.Builder
		for i, c := range row {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - utf8.RuneCountInString(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad+2))
		}
		line := strings.TrimRight(b.String(), " ")
		fmt.Fprintln(w, line)
		if ri == 0 {
			fmt.Fprintln(w, strings.Repeat("-", utf8.RuneCountInString(line)))
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// WriteCSV writes the table as CSV (header + rows; title and notes are
// omitted).
func (t *Table) WriteCSV(w io.Writer) error {
	return csv.NewWriter(w).WriteAll(append([][]string{t.Header}, t.Rows...))
}
