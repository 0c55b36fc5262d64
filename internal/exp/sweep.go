package exp

import (
	"fmt"

	"mpcc/internal/stats"
)

// runSpecs is the one way an experiment runs its simulations. The caller
// enumerates every Spec up front, in the order its sequential loops would
// run them; the specs run flat on the RunParallel pool, so with one worker —
// which every trace tap forces — the run order is the enumeration order.
// Each Result is reduced on the worker that ran it and dropped at once, with
// its network, connections and engine arenas: only out[i] = reduce(Run(
// specs[i])) outlives the job, the same bits for any worker count. reduce
// may read the Result freely but must touch nothing shared and start no
// simulations.
func runSpecs[T any](specs []Spec, reduce func(*Result) T) []T {
	out := make([]T, len(specs))
	RunParallel(len(specs), func(i int) { out[i] = reduce(Run(specs[i])) })
	return out
}

// runReps runs each spec reps times (at least once) at seeds Seed + 1000·r,
// spec-major through runSpecs, and folds each spec's reduced replicates, in
// replicate order, into out[i].
func runReps[T, F any](specs []Spec, reps int, reduce func(*Result) T, fold func([]T) F) []F {
	reps = max(reps, 1)
	flat := make([]Spec, 0, len(specs)*reps)
	for _, s := range specs {
		for r := range reps {
			flat = append(flat, s)
			flat[len(flat)-1].Seed += int64(r) * 1000
		}
	}
	vals := runSpecs(flat, reduce)
	out := make([]F, len(specs))
	for i := range out {
		out[i] = fold(vals[i*reps : (i+1)*reps])
	}
	return out
}

// meanEach folds replicates of equal-length vectors into their
// element-wise mean, summed in replicate order.
func meanEach(reps [][]float64) []float64 {
	out := make([]float64, len(reps[0]))
	col := make([]float64, len(reps))
	for k := range out {
		for r, v := range reps {
			col[r] = v[k]
		}
		out[k] = stats.Mean(col)
	}
	return out
}

// rowPerSpec runs the specs once each and appends one row per spec to t:
// its label, then the cells reduced from its result.
func (t *Table) rowPerSpec(labels []string, specs []Spec, cells func(*Result) []string) {
	for i, row := range runSpecs(specs, cells) {
		t.AddRow(append([]string{labels[i]}, row...)...)
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
// rows, a protocol lineup across the columns, one simulation (× reps) per
// cell, one table per metric. A cell is the mean of its replicates' values
// and, at reps > 1, their range: "mean [min..max]". The fields are the
// figure's whole definition, so a test subsamples a figure by trimming rows
// or protos on its own copy.
type sweep[R any] struct {
	head    []string         // header of the label column(s)
	rows    []R              // swept values
	label   func(R) []string // a row's label cell(s), one per head entry
	protos  []Protocol
	byProto bool // transposed: protocols down the rows, swept values across
	spec    func(row R, p Protocol) Spec
	reps    int
	metrics []metric
	notes   []string
}

// run executes the sweep, enumerating its cells table row by table row, and
// returns one table per metric with the means behind the cells,
// vals[metric][table row][column].
func (s sweep[R]) run() (tabs []*Table, vals [][][]float64) {
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
	// A replicate reduces to each metric's value and in-run spread; a cell
	// folds them into their means and, over more than one replicate, the
	// range of the value.
	type cell struct {
		val  float64
		text string
	}
	cells := runReps(specs, s.reps, func(r *Result) []float64 {
		out := make([]float64, 0, 2*len(s.metrics))
		for _, mt := range s.metrics {
			spread := 0.0
			if mt.spread != nil {
				spread = mt.spread(r)
			}
			out = append(out, mt.value(r), spread)
		}
		return out
	}, func(reps [][]float64) []cell {
		means := meanEach(reps)
		out := make([]cell, len(s.metrics))
		for m, mt := range s.metrics {
			v := means[2*m]
			text := fmt.Sprintf(mt.format, v)
			if mt.spread != nil {
				text += "±" + fmt.Sprintf(mt.format, means[2*m+1])
			}
			if len(reps) > 1 {
				lo, hi := reps[0][2*m], reps[0][2*m]
				for _, r := range reps[1:] {
					lo, hi = min(lo, r[2*m]), max(hi, r[2*m])
				}
				text += " [" + fmt.Sprintf(mt.format, lo) + ".." + fmt.Sprintf(mt.format, hi) + "]"
			}
			out[m] = cell{v, text}
		}
		return out
	})
	for m, mt := range s.metrics {
		t := &Table{Title: mt.title, Header: header, Notes: s.notes}
		mv := make([][]float64, len(lines))
		for l, labels := range lines {
			row := append([]string(nil), labels...)
			for _, c := range cells[l*len(cols) : (l+1)*len(cols)] {
				row, mv[l] = append(row, c[m].text), append(mv[l], c[m].val)
			}
			t.AddRow(row...)
		}
		tabs, vals = append(tabs, t), append(vals, mv)
	}
	return tabs, vals
}

// tables runs the sweep and returns its tables.
func (s sweep[R]) tables() []*Table {
	tabs, _ := s.run()
	return tabs
}
