package exp

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/stats"
	"mpcc/internal/topo"
)

// pools are the entrances to the package's one worker pool: RunParallel
// and runSpecs (with Config.Workers) read a worker count ≤ 0 as
// GOMAXPROCS(0), runPool (which a sharded world calls with the shard count)
// runs inline below two, and runSpecs runs one simulation per job on
// RunParallel — here a near-empty one whose Tweak is the job, so a job that
// panics is a cell that panics.
var pools = []struct {
	name string
	run  func(workers, n int, job func(i int))
}{
	{"RunParallel", func(workers, n int, job func(i int)) { RunParallel(n, workers, job) }},
	{"runPool", func(workers, n int, job func(i int)) { runPool(n, workers, job) }},
	{"runSpecs", func(workers, n int, job func(i int)) {
		specs := make([]Spec, n)
		for i := range specs {
			specs[i] = Spec{Duration: sim.Millisecond, Topo: topo.Fig3c(), Proto: Reno,
				Tweak: func(*topo.Net) { job(i) }}
		}
		runSpecs(Config{Workers: workers}, specs, func(r *Result) []float64 { return []float64{r.Jain} })
	}},
}

func TestRunParallelCoversAllJobs(t *testing.T) {
	for _, pool := range pools {
		for _, w := range []int{-1, 0, 1, 2, 7, 64} {
			const n = 100
			got := make([]int64, n)
			var calls atomic.Int64
			var outOfOrder atomic.Bool
			pool.run(w, n, func(i int) {
				got[i] = int64(i * i)
				if calls.Add(1) != int64(i+1) {
					outOfOrder.Store(true)
				}
			})
			if calls.Load() != n {
				t.Fatalf("%s workers=%d: %d calls, want %d", pool.name, w, calls.Load(), n)
			}
			for i := range got {
				if got[i] != int64(i*i) {
					t.Fatalf("%s workers=%d: slot %d = %d, want %d", pool.name, w, i, got[i], i*i)
				}
			}
			// One worker means inline on the caller, in index order; so do
			// fewer for runPool, while the others read them as GOMAXPROCS(0).
			if (w == 1 || w < 1 && pool.name == "runPool") && outOfOrder.Load() {
				t.Fatalf("%s workers=%d: jobs did not run in index order", pool.name, w)
			}
		}
	}
}

func TestRunParallelPropagatesPanic(t *testing.T) {
	for _, pool := range pools {
		for _, w := range []int{1, 4} {
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Errorf("%s workers=%d: recovered %v, want the job's panic", pool.name, w, r)
					}
				}()
				pool.run(w, 16, func(i int) {
					if i == 5 {
						panic("boom")
					}
				})
			}()
		}
	}
}

// quickSpec is a small two-flow run that finishes fast enough to replicate.
func quickSpec(seed int64) Spec {
	return Spec{
		Seed:     seed,
		Duration: 3 * sim.Second,
		Warmup:   1 * sim.Second,
		Topo:     topo.Fig3c(),
		Proto:    MPCCLatency,
	}
}

// TestRunAveragedParallelIdentical is the determinism regression test for
// the runner: what reduce reads off each spec must be bit-identical between
// sequential (workers=1) and concurrent execution, reduce must run once per
// spec and, with one worker, in enumeration order, and a one-spec run must
// reduce as the same spec inside a larger one. It runs under -race in make
// check, which also shakes out data races in the runner itself.
func TestRunAveragedParallelIdentical(t *testing.T) {
	specs := []Spec{quickSpec(7), quickSpec(8), quickSpec(9)}
	// A run reduces to reduce's call order, then every number of its
	// Result: its utilization and Jain index, and per flow, in name order,
	// every field of its FlowResult, each slice led by its length.
	run := func(workers int, specs []Spec) (out [][]float64) {
		var calls atomic.Int32
		for _, f := range runSpecs(Config{Workers: workers}, specs, func(r *Result) []float64 {
			out := []float64{float64(calls.Add(1)), r.Utilization, r.Jain, float64(len(r.Flows))}
			series := func(xs []float64) { out = append(append(out, float64(len(xs))), xs...) }
			var names []string
			for name := range r.Flows {
				names = append(names, name)
			}
			slices.Sort(names)
			for _, name := range names {
				fr := r.Flows[name]
				out = append(out, fr.GoodputBps, fr.LatencyMean, fr.LatencyStd, float64(fr.FCT))
				series(fr.SubflowGoodputBps)
				series(fr.Series)
				out = append(out, float64(len(fr.SubflowSeries)))
				for _, sub := range fr.SubflowSeries {
					series(sub)
				}
			}
			return out
		}) {
			out = append(out, f.mean)
		}
		if int(calls.Load()) != len(specs) {
			t.Errorf("workers=%d: reduce ran %d times, want once per spec", workers, calls.Load())
		}
		return out
	}
	seq, par := run(1, specs), run(8, specs)
	for i := range specs {
		if seq[i][0] != float64(i+1) {
			t.Errorf("workers=1: spec %d reduced %vth, want enumeration order", i, seq[i][0])
		}
		par[i][0] = seq[i][0] // concurrent specs may finish in any order
		if !slices.Equal(seq[i], par[i]) {
			t.Errorf("spec %d: reduced values differ between workers=1 and workers=8", i)
		}
	}
	if one := run(8, specs[1:2])[0]; !slices.Equal(one[1:], seq[1][1:]) {
		t.Errorf("a one-spec run differs from the same spec inside a larger one")
	}
}

// TestTwoConfigsOneProcess: a Config is all of a pass's settings, so two
// passes over the same entries at once — one on one worker with tap A, one
// on three with tap B — print the same tables, numbers and text, and each
// tap sees one run-start/run-end pair per simulation of its own pass and
// nothing of the other's.
func TestTwoConfigsOneProcess(t *testing.T) {
	ids := map[string]bool{"sched": true, "fig5a": true}
	cfg := Config{Duration: sim.Second, Warmup: 500 * sim.Millisecond, Reps: 1, Seed: 42}
	_, sims := renderTables(cfg, func(id string) bool { return ids[id] })
	want := int64(sims["sched"] + sims["fig5a"])
	if want == 0 {
		t.Fatal("the entries ran no simulation")
	}

	type tap struct{ calls, starts, ends atomic.Int64 }
	var (
		taps [2]tap
		text [2]bytes.Buffer
		vals [2]string
		wg   sync.WaitGroup
	)
	for i, workers := range []int{1, 3} {
		c := cfg
		c.Workers = workers
		c.Probes = func() *obs.Bus {
			taps[i].calls.Add(1)
			return obs.NewBus(obs.SinkFunc(func(e obs.Event) {
				switch e.Kind {
				case obs.KindRunStart:
					taps[i].starts.Add(1)
				case obs.KindRunEnd:
					taps[i].ends.Add(1)
				}
			}))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range Registry() {
				if !ids[e.ID] {
					continue
				}
				for _, tab := range e.Run(c) {
					tab.Fprint(&text[i])
					vals[i] += fmt.Sprint(tab.Vals)
				}
			}
		}()
	}
	wg.Wait()
	if !bytes.Equal(text[0].Bytes(), text[1].Bytes()) || vals[0] != vals[1] {
		t.Errorf("tables differ between the passes:\n--- workers 1 ---\n%s%s\n--- workers 3 ---\n%s%s",
			text[0].Bytes(), vals[0], text[1].Bytes(), vals[1])
	}
	for i := range taps {
		tp := &taps[i]
		if tp.calls.Load() != want || tp.starts.Load() != want || tp.ends.Load() != want {
			t.Errorf("tap %d: %d buses, %d run-start, %d run-end events; want %d each",
				i, tp.calls.Load(), tp.starts.Load(), tp.ends.Load(), want)
		}
	}
}

// TestRunRepsFold is the table test of the replicate fold: each replicate is
// the spec run on its own at Seed + 1000·r and reduced once — in replicate
// order on one worker — and a cell is the mean of its replicates plus, at
// reps > 1, their range, rendered the same for any worker count. reps ≤ 1 is
// the single run at the spec's own seed. A download that does not finish in
// a replicate counts as the deadline where the value says so, as Fig. 16
// reads it, and otherwise is a missing value: the cell prints its column's
// missing text. So is every statistic of completion times where nothing
// completed, as Fig. 19 and the web workload reduce them.
func TestRunRepsFold(t *testing.T) {
	unfinished := map[string]*FlowResult{"bulk": {GoodputBps: 2e6}, "short-1": {FCT: -1}}
	if got := fmt.Sprint(webStats(&Result{Flows: unfinished})); got != "[2 0 NaN NaN]" {
		t.Errorf("web run with no short flow done reduces to %s, want its FCTs missing", got)
	}
	for k, v := range dcFCTs([]FlowSpec{{Name: "short-1"}})(&Result{Flows: unfinished}) {
		if k%7 == 0 && v != 0 || k%7 != 0 && !math.IsNaN(v) {
			t.Errorf("Fig. 19 run with no flow done reduces value %d to %v, want a count of 0 or a missing value", k, v)
		}
	}
	goodput := func(r *Result) float64 { return r.Flows["mp"].GoodputBps / 1e6 }
	quick := func(seed int64, p Protocol) Spec { s := quickSpec(seed); s.Proto = p; return s }

	// A small download, cut between its MPCC replicates' completion times so
	// that one of three finishes and the others do not, or the reverse.
	download := func(seed int64, p Protocol) Spec { return DownloadSpec(seed, "Ohio", "Israel", p, 2_000_000) }
	var fcts []sim.Time
	for r := range int64(3) {
		fcts = append(fcts, Run(download(42+1000*r, MPCCLatency)).Flows["dl"].FCT)
	}
	if slices.Min(fcts) == slices.Max(fcts) || slices.Min(fcts) < 0 {
		t.Fatalf("download replicates %v: no completion time to cut between", fcts)
	}
	cut := func(seed int64, p Protocol) Spec {
		s := download(seed, p)
		s.Duration = (slices.Min(fcts) + slices.Max(fcts)) / 2
		return s
	}
	fig16 := liveDownloads(Config{}, "Israel").metrics[0].value
	// Fig. 19's reduce, reading the cut download as its one long flow: the
	// long class's mean FCT is missing wherever the download did not finish.
	asLong := func(seed int64, p Protocol) Spec {
		s := cut(seed, p)
		s.Flows = []FlowSpec{s.Flows[0]}
		s.Flows[0].Name = "long-0"
		return s
	}
	fig19 := func(r *Result) float64 { return dcFCTs(asLong(0, "").Flows)(r)[7*2+1] }
	fct := func(r *Result) float64 {
		if fct := r.Flows["dl"].FCT; fct >= 0 {
			return fct.Seconds()
		}
		return math.NaN()
	}

	cases := []struct {
		name          string
		workers, reps int
		spec          func(seed int64, p Protocol) Spec
		value         func(*Result) float64
		col           column
	}{
		{"reps 3, one worker", 1, 3, quick, goodput, column{format: "%.3f"}},
		{"reps 3, eight workers", 8, 3, quick, goodput, column{format: "%.3f"}},
		{"reps 1", 2, 1, quick, goodput, column{format: "%.3f"}},
		{"reps 0", 2, 0, quick, goodput, column{format: "%.3f"}},
		{"reps -2", 2, -2, quick, goodput, column{format: "%.3f"}},
		{"fig16 did-not-finish", 2, 3, cut, fig16, column{format: "%.1f"}},
		{"missing replicate", 2, 3, cut, fct, column{format: "%.1f", missing: "-"}},
		{"fig19 unfinished class", 2, 3, asLong, fig19, column{format: "%.4f", missing: "0.0000"}},
	}
	protos := []Protocol{MPCCLatency, LIA}
	rendered := map[string][]string{} // value and reps → the cells, for any worker count
	for _, tc := range cases {
		var mu sync.Mutex
		var reduced []float64 // every replicate's value, in reduce-call order
		specs := []Spec{tc.spec(42, protos[0]), tc.spec(42, protos[1])}
		runs := runSpecs(Config{Reps: tc.reps, Workers: tc.workers}, specs, func(r *Result) []float64 {
			v := tc.value(r)
			mu.Lock()
			reduced = append(reduced, v)
			mu.Unlock()
			return []float64{v}
		})

		n := max(tc.reps, 1)
		var want []float64 // each replicate run on its own, in enumeration order
		for _, p := range protos {
			for r := range int64(n) {
				want = append(want, tc.value(Run(tc.spec(42+1000*r, p))))
			}
		}
		same := func(a, b []float64) bool {
			return slices.EqualFunc(a, b, func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) })
		}
		if len(reduced) != len(want) {
			t.Errorf("%s: reduce ran %d times, want once per replicate (%d)", tc.name, len(reduced), len(want))
		}
		if tc.workers == 1 && !same(reduced, want) {
			t.Errorf("%s: reduced %v, want %v in replicate order", tc.name, reduced, want)
		}
		var cells []string
		for c, p := range protos {
			reps, got := want[c*n:(c+1)*n], runs[c].cell(0, tc.col)
			cells = append(cells, got.text)
			if mean := stats.Mean(reps); !same([]float64{got.val}, []float64{mean}) {
				t.Errorf("%s: %s value %v, want the mean of %v", tc.name, p, got.val, reps)
			}
			lo, hi := slices.Min(reps), slices.Max(reps)
			wantText := fmt.Sprintf(tc.col.format+" ["+tc.col.format+".."+tc.col.format+"]", stats.Mean(reps), lo, hi)
			switch {
			case slices.ContainsFunc(reps, math.IsNaN):
				wantText = tc.col.missing
			case n == 1:
				wantText = fmt.Sprintf(tc.col.format, reps[0])
			case p == MPCCLatency && lo == hi:
				t.Errorf("%s: MPCC replicates %v: no spread to show", tc.name, reps)
			}
			if got.text != wantText {
				t.Errorf("%s: %s cell %q, want %q", tc.name, p, got.text, wantText)
			}
		}
		mpcc := want[:n]
		switch tc.name {
		case "fig16 did-not-finish":
			if !slices.Contains(mpcc, downloadDeadline.Seconds()) || slices.Min(mpcc) == downloadDeadline.Seconds() {
				t.Errorf("%s: MPCC replicates %v: want one finished and one at the deadline", tc.name, mpcc)
			}
		case "missing replicate", "fig19 unfinished class":
			if !slices.ContainsFunc(mpcc, math.IsNaN) || slices.IndexFunc(mpcc, func(v float64) bool { return v > 0 }) < 0 {
				t.Errorf("%s: MPCC replicates %v: want one finished and one missing", tc.name, mpcc)
			}
			if cells[0] != tc.col.missing {
				t.Errorf("%s: MPCC cell %q, want the column's missing text", tc.name, cells[0])
			}
		}
		key := fmt.Sprint(tc.col, tc.spec(42, LIA).Duration, n)
		if prev, ok := rendered[key]; ok && !slices.Equal(prev, cells) {
			t.Errorf("%s: cells %q differ from an earlier worker count: %q", tc.name, cells, prev)
		}
		rendered[key] = cells
	}
}

// TestParameterGridParallelIdentical renders the Fig. 14 table at workers=1
// and workers=8 and requires byte-identical output.
func TestParameterGridParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("grid subsample is slow")
	}
	cfg := Config{Seed: 42, Duration: 2 * sim.Second, Warmup: 500 * sim.Millisecond, Reps: 1}
	render := func(workers int) []byte {
		cfg.Workers = workers
		g := ParameterGrid(cfg, topo.Fig3c, 96)
		var buf bytes.Buffer
		g.Table("grid").Fprint(&buf)
		return buf.Bytes()
	}
	seq, par := render(1), render(8)
	if !bytes.Equal(seq, par) {
		t.Errorf("grid tables differ between workers=1 and workers=8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}
