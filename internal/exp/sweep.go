package exp

import (
	"fmt"
	"math"
	"slices"

	"mpcc/internal/stats"
)

// runSpecs is the one way an experiment runs its simulations. The caller
// enumerates every Spec up front, in the order its sequential loops would
// run them; runSpecs runs each one cfg.Reps times (at least once) at seeds
// Seed + 1000·r, spec-major, flat on a RunParallel pool of cfg.Workers, so
// with one worker — which every trace tap forces — the run order is the
// enumeration order, replicate by replicate. With cfg.Probes set, each run
// gets its bus from it, on the worker that runs it. Only Spec.Seed varies
// between replicates: whatever the caller drew while declaring a spec is
// shared by all of them.
// Each Result is reduced on the worker that ran it and dropped at once, with
// its network, connections and engine arenas: only reduce's numbers outlive
// the job, the same bits for any worker count. reduce may read the Result
// freely but must touch nothing shared and start no simulations; it returns
// NaN for a value that did not happen in its run. out[i] folds spec i's
// replicates.
func runSpecs(cfg Config, specs []Spec, reduce func(*Result) []float64) []folded {
	reps := max(cfg.Reps, 1)
	runs := make([][]float64, len(specs)*reps)
	RunParallel(len(runs), cfg.Workers, func(j int) {
		s := specs[j/reps]
		s.Seed += int64(j%reps) * 1000
		if cfg.Probes != nil {
			s.Probes = cfg.Probes()
		}
		runs[j] = reduce(Run(s))
	})
	out := make([]folded, len(specs))
	for i := range out {
		out[i] = fold(runs[i*reps : (i+1)*reps])
	}
	return out
}

// folded is one spec's reduced values over its replicates: per value, the
// mean (summed in replicate order) and the replicates' range. A value
// missing from any replicate (NaN) is NaN in all three, so a cell never
// averages a run where it happened with one where it did not.
type folded struct {
	mean, lo, hi []float64
	reps         int
}

// fold folds the replicates of one spec, each the same number of values.
func fold(runs [][]float64) folded {
	f := folded{reps: len(runs)}
	vals := make([]float64, len(runs))
	for k := range runs[0] {
		for r, run := range runs {
			vals[r] = run[k]
		}
		f.mean = append(f.mean, stats.Mean(vals))
		f.lo = append(f.lo, slices.Min(vals))
		f.hi = append(f.hi, slices.Max(vals))
	}
	return f
}

// column is how a table prints one reduced value: the format of its mean,
// of its in-run spread and of its replicate range, and the text of a value
// that did not happen.
type column struct {
	format  string
	missing string // printed when any replicate misses the value
	spread  bool   // the next value is this one's in-run spread: the cell reads mean±spread
}

// mbpsCol and countCol print a goodput in Mbps and a count of events.
var (
	mbpsCol  = column{format: "%.1f"}
	countCol = column{format: "%.0f"}
)

// cell renders value k in column c: its mean, ± the mean of value k+1
// where c has an in-run spread, and over more than one replicate the
// value's range, "mean [min..max]" — or c.missing when any replicate
// misses it.
func (f folded) cell(k int, c column) cell {
	v := f.mean[k]
	if math.IsNaN(v) {
		return cell{c.missing, v}
	}
	text := fmt.Sprintf(c.format, v)
	if c.spread {
		text += "±" + fmt.Sprintf(c.format, f.mean[k+1])
	}
	if f.reps > 1 {
		text += " [" + fmt.Sprintf(c.format, f.lo[k]) + ".." + fmt.Sprintf(c.format, f.hi[k]) + "]"
	}
	return cell{text, v}
}

// cells renders f's values in order from value k on, one cell per column.
func (f folded) cells(k int, cols ...column) []cell {
	out := make([]cell, len(cols))
	for i, c := range cols {
		out[i] = f.cell(k+i, c)
	}
	return out
}

// ifAny returns vals, statistics of n completions, or NaN for each when
// there was none: a percentile of no completion times did not happen, and
// must not fold in as a 0 s completion time.
func ifAny(n int, vals ...float64) []float64 {
	if n == 0 {
		for i := range vals {
			vals[i] = math.NaN()
		}
	}
	return vals
}

// runRows runs one spec per row, as cfg says, and appends its row: its
// label, then one cell per column of reduce's values.
func (t *Table) runRows(cfg Config, labels []string, specs []Spec, cols []column, reduce func(*Result) []float64) {
	for i, f := range runSpecs(cfg, specs, reduce) {
		t.addRow(labels[i:i+1], f.cells(0, cols...)...)
	}
}

// metric is one number read off every cell of a sweep; it fills one table.
type metric struct {
	title  string
	format string // of value, of spread when there is one, and of the replicate range
	value  func(*Result) float64
	spread func(*Result) float64 // optional in-run spread: cells read value±spread
}

// goodputMbps is a flow's mean post-warmup goodput in Mbps.
func goodputMbps(title, flow string) metric {
	return metric{title: title, format: "%.1f",
		value: func(r *Result) float64 { return r.Flows[flow].GoodputBps / 1e6 }}
}

// sweep declares a figure of the usual shape: a swept parameter down the
// rows, a protocol lineup across the columns, one simulation (× replicates)
// per cell, one table per metric. The fields are the figure's whole
// definition, so a test subsamples a figure by trimming rows or protos on
// its own copy.
type sweep[R any] struct {
	head    []string         // header of the label column(s)
	rows    []R              // swept values
	label   func(R) []string // a row's label cell(s), one per head entry
	protos  []Protocol
	byProto bool // transposed: protocols down the rows, swept values across
	spec    func(row R, p Protocol) Spec
	metrics []metric
	notes   []string
}

// tables runs the sweep as cfg says, enumerating its cells table row by
// table row, and returns one table per metric.
func (s sweep[R]) tables(cfg Config) []*Table {
	lines, cols := make([][]string, len(s.rows)), make([][]string, len(s.protos))
	for i, r := range s.rows {
		lines[i] = s.label(r)
	}
	for i, p := range s.protos {
		cols[i] = []string{string(p)}
	}
	pick := func(l, c int) (R, Protocol) { return s.rows[l], s.protos[c] }
	if s.byProto {
		lines, cols = cols, lines
		pick = func(l, c int) (R, Protocol) { return s.rows[c], s.protos[l] }
	}
	header := append([]string(nil), s.head...)
	for _, c := range cols {
		header = append(header, c[0])
	}
	var specs []Spec
	for l := range lines {
		for c := range cols {
			specs = append(specs, s.spec(pick(l, c)))
		}
	}
	// A run reduces to each metric's value and in-run spread (0 without one).
	cells := runSpecs(cfg, specs, func(r *Result) []float64 {
		out := make([]float64, 0, 2*len(s.metrics))
		for _, mt := range s.metrics {
			spread := 0.0
			if mt.spread != nil {
				spread = mt.spread(r)
			}
			out = append(out, mt.value(r), spread)
		}
		return out
	})
	var tabs []*Table
	for m, mt := range s.metrics {
		t := &Table{Title: mt.title, Header: header, Notes: s.notes}
		col := column{format: mt.format, spread: mt.spread != nil}
		for l, labels := range lines {
			var row []cell
			for _, f := range cells[l*len(cols) : (l+1)*len(cols)] {
				row = append(row, f.cell(2*m, col))
			}
			t.addRow(labels, row...)
		}
		tabs = append(tabs, t)
	}
	return tabs
}
