package exp

import (
	"fmt"
	"sync/atomic"

	"mpcc/internal/sim"
)

// runSpecs is the one way an experiment runs its simulations. The caller
// enumerates every Spec up front, in the order its sequential loops would
// run them. Each spec runs reps times (at least once) at seeds
// Seed + 1000·rep, all (spec, replicate) pairs flat on the RunParallel pool
// and spec-major, so with one worker — which every trace tap forces — the
// run order is the enumeration order. The job that finishes a spec last
// folds its replicates in replicate order and reduces the fold into out[i],
// the same bits for any worker count. Only that value outlives the job: the
// Results, with their networks, connections and engine arenas, are dropped
// as their spec is reduced. reduce runs on a pool worker; it may read the
// Result freely but must touch nothing shared and start no simulations.
func runSpecs[T any](specs []Spec, reps int, reduce func(*Result) T) []T {
	reps = max(reps, 1)
	out := make([]T, len(specs))
	parts := make([]*Result, len(specs)*reps)
	done := make([]atomic.Int32, len(specs))
	RunParallel(len(parts), func(j int) {
		i := j / reps
		s := specs[i]
		s.Seed += int64(j%reps) * 1000
		parts[j] = Run(s)
		if int(done[i].Add(1)) == reps {
			mine := parts[i*reps : (i+1)*reps]
			out[i] = reduce(average(mine, s.Duration))
			clear(mine)
		}
	})
	return out
}

// average folds one spec's replicates, in replicate order, into the first
// and divides the summed means by their count. A finite flow's FCT becomes
// the mean over the replicates, one in which it did not finish by the horizon
// counting as the horizon; it stays -1 if it finished in none.
func average(results []*Result, horizon sim.Time) *Result {
	agg := results[0]
	for _, res := range results[1:] {
		mergeInto(agg, res)
	}
	n := float64(len(results))
	agg.Utilization /= n
	agg.Jain /= n
	for name, fr := range agg.Flows {
		fr.GoodputBps /= n
		fr.LatencyMean /= n
		fr.LatencyStd /= n
		for i := range fr.SubflowGoodputBps {
			fr.SubflowGoodputBps[i] /= n
		}
		sum, done := sim.Time(0), 0
		for _, res := range results {
			if f := res.Flows[name]; f != nil && f.FCT >= 0 {
				sum, done = sum+f.FCT, done+1
			}
		}
		if done > 0 {
			fr.FCT = (sum + sim.Time(len(results)-done)*horizon) / sim.Time(len(results))
		}
	}
	return agg
}

// mergeInto accumulates res into agg (one replicate of average). If the
// replicates disagree on a flow's subflow count — possible when a fault
// timeline permanently removes a subflow in some seeds — subflow goodputs
// aggregate over the common prefix and the discrepancy is recorded in
// agg.Notes instead of panicking on an index out of range.
func mergeInto(agg, res *Result) {
	agg.Utilization += res.Utilization
	agg.Jain += res.Jain
	agg.Events += res.Events
	foldQueue(&agg.Queue, res.Queue)
	if agg.Obs != nil && res.Obs != nil {
		agg.Obs.Merge(res.Obs)
	}
	for name, fr := range res.Flows {
		a := agg.Flows[name]
		if a == nil {
			agg.Notes = append(agg.Notes,
				fmt.Sprintf("flow %s: present in a later replicate only; skipped", name))
			continue
		}
		a.GoodputBps += fr.GoodputBps
		if fr.GoodputBps < a.MinGoodputBps {
			a.MinGoodputBps = fr.GoodputBps
		}
		if fr.GoodputBps > a.MaxGoodputBps {
			a.MaxGoodputBps = fr.GoodputBps
		}
		a.LatencyMean += fr.LatencyMean
		a.LatencyStd += fr.LatencyStd
		n := len(a.SubflowGoodputBps)
		if len(fr.SubflowGoodputBps) != n {
			if len(fr.SubflowGoodputBps) < n {
				n = len(fr.SubflowGoodputBps)
			}
			agg.Notes = append(agg.Notes,
				fmt.Sprintf("flow %s: replicates disagree on subflow count (%d vs %d); averaging the first %d",
					name, len(a.SubflowGoodputBps), len(fr.SubflowGoodputBps), n))
		}
		for i := 0; i < n; i++ {
			a.SubflowGoodputBps[i] += fr.SubflowGoodputBps[i]
		}
	}
}

// rowPerSpec runs the specs and appends one row per spec to t: its label,
// then the cells reduced from its result.
func (t *Table) rowPerSpec(labels []string, specs []Spec, reps int, cells func(*Result) []string) {
	for i, row := range runSpecs(specs, reps, cells) {
		t.AddRow(append([]string{labels[i]}, row...)...)
	}
}

// metric is one number read off every cell of a sweep; it fills one table.
type metric struct {
	title  string
	format string // of value, and of spread when there is one
	value  func(*Result) float64
	spread func(*Result) float64 // optional: cells read value±spread
}

// goodputMbps is a flow's mean post-warmup goodput in Mbps.
func goodputMbps(title, flow string) metric {
	return metric{title: title, format: "%.1f",
		value: func(r *Result) float64 { return r.Flows[flow].GoodputBps / 1e6 }}
}

// sweep declares a figure of the usual shape: a swept parameter down the
// rows, a protocol lineup across the columns, one simulation (× reps) per
// cell, one table per metric. The fields are the figure's whole definition,
// so a test subsamples a figure by trimming rows or protos on its own copy.
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
// returns one table per metric with the numbers behind the cells,
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
	type cell struct {
		val  float64
		text string
	}
	cells := runSpecs(specs, s.reps, func(r *Result) []cell {
		out := make([]cell, len(s.metrics))
		for m, mt := range s.metrics {
			v := mt.value(r)
			out[m] = cell{v, fmt.Sprintf(mt.format, v)}
			if mt.spread != nil {
				out[m].text += "±" + fmt.Sprintf(mt.format, mt.spread(r))
			}
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
