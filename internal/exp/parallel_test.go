package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mpcc/internal/sim"
	"mpcc/internal/stats"
	"mpcc/internal/topo"
)

// withWorkers runs f with the process-wide worker count set to n, restoring
// the previous value afterwards.
func withWorkers(n int, f func()) {
	prev := Workers()
	SetWorkers(n)
	defer SetWorkers(prev)
	f()
}

// pools are the entrances to the package's one worker pool: RunParallel
// takes its worker count from the process-wide setting, runPool (which a
// sharded world calls with the shard count) takes it as an argument and
// must ignore the setting, and runSpecs runs one simulation per job on
// RunParallel — here a near-empty one whose Tweak is the job, so a job that
// panics is a cell that panics.
var pools = []struct {
	name string
	run  func(workers, n int, job func(i int))
}{
	{"RunParallel", func(workers, n int, job func(i int)) {
		withWorkers(workers, func() { RunParallel(n, job) })
	}},
	{"runPool", func(workers, n int, job func(i int)) {
		withWorkers(3, func() { runPool(n, workers, job) })
	}},
	{"runSpecs", func(workers, n int, job func(i int)) {
		specs := make([]Spec, n)
		for i := range specs {
			specs[i] = Spec{Duration: sim.Millisecond, Topo: topo.Fig3c(), Proto: Reno,
				Tweak: func(*topo.Net) { job(i) }}
		}
		withWorkers(workers, func() { runSpecs(specs, func(r *Result) float64 { return r.Jain }) })
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
			// At most one worker means inline on the caller, in index order.
			if w <= 1 && outOfOrder.Load() {
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
// the sweep runner: what reduce sees of each spec must be bit-identical
// between sequential (workers=1) and concurrent execution, reduce must run
// once per spec and, with one worker, in enumeration order, and a one-spec
// sweep must reduce as the same spec inside a larger one. It runs under
// -race in make check, which also shakes out data races in the runner
// itself.
func TestRunAveragedParallelIdentical(t *testing.T) {
	specs := []Spec{quickSpec(7), quickSpec(8), quickSpec(9)}
	// seen is what reduce saw of one spec, stamped with reduce's call order.
	type seen struct {
		flows      map[string]*FlowResult
		util, jain float64
		nth        int32
	}
	sweep := func(workers int, specs []Spec) (out []seen) {
		var calls atomic.Int32
		withWorkers(workers, func() {
			out = runSpecs(specs, func(r *Result) seen {
				return seen{r.Flows, r.Utilization, r.Jain, calls.Add(1)}
			})
		})
		if int(calls.Load()) != len(specs) {
			t.Errorf("workers=%d: reduce ran %d times, want once per spec", workers, calls.Load())
		}
		return out
	}
	seq, par := sweep(1, specs), sweep(8, specs)
	for i := range specs {
		if seq[i].nth != int32(i+1) {
			t.Errorf("workers=1: spec %d reduced %dth, want enumeration order", i, seq[i].nth)
		}
		par[i].nth = seq[i].nth // concurrent specs may finish in any order
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("spec %d: reduced values differ between workers=1 and workers=8", i)
		}
	}
	one := sweep(8, specs[1:2])[0]
	if !reflect.DeepEqual(one.flows, seq[1].flows) || one.jain != seq[1].jain {
		t.Errorf("a one-spec sweep differs from the same spec inside a larger one")
	}
}

// TestRunRepsFold is the table test of the replicate fold, through a
// one-row sweep: each replicate is the spec run on its own at Seed + 1000·r
// and reduced once — in replicate order on one worker — and a cell is the
// mean of its replicates plus, at reps > 1, their range, rendered the same
// for any worker count. reps ≤ 1 is the single run at the spec's own seed,
// and a download that does not finish in a replicate counts as the
// deadline, as Fig. 16 reads it.
func TestRunRepsFold(t *testing.T) {
	goodput := metric{title: "goodput", format: "%.3f",
		value: func(r *Result) float64 { return r.Flows["mp"].GoodputBps / 1e6 }}
	quick := func(seed int64, p Protocol) Spec { s := quickSpec(seed); s.Proto = p; return s }

	// Fig. 16's metric on a small download, cut between its MPCC replicates'
	// completion times so that one finishes and one does not.
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
	fig16 := liveDownloads(Config{}, "Israel").metrics[0]

	cases := []struct {
		name          string
		workers, reps int
		spec          func(seed int64, p Protocol) Spec
		metric        metric
		direct        func(*Result) float64 // the metric, restated
	}{
		{"reps 3, one worker", 1, 3, quick, goodput, goodput.value},
		{"reps 3, eight workers", 8, 3, quick, goodput, goodput.value},
		{"reps 1", 2, 1, quick, goodput, goodput.value},
		{"reps 0", 2, 0, quick, goodput, goodput.value},
		{"reps -2", 2, -2, quick, goodput, goodput.value},
		{"fig16 did-not-finish", 2, 3, cut, fig16, func(r *Result) float64 {
			if fct := r.Flows["dl"].FCT; fct >= 0 {
				return fct.Seconds()
			}
			return downloadDeadline.Seconds()
		}},
	}
	rendered := map[string]string{} // metric and reps → the table, for any worker count
	for _, tc := range cases {
		var mu sync.Mutex
		var reduced []float64 // every replicate's value, in reduce-call order
		m := tc.metric
		m.value = func(r *Result) float64 {
			v := tc.metric.value(r)
			mu.Lock()
			reduced = append(reduced, v)
			mu.Unlock()
			return v
		}
		sw := sweep[int64]{head: []string{"seed"}, rows: []int64{42},
			label:  func(seed int64) []string { return []string{fmt.Sprint(seed)} },
			protos: []Protocol{MPCCLatency, LIA}, spec: tc.spec, reps: tc.reps, metrics: []metric{m}}
		var tabs []*Table
		var vals [][][]float64
		withWorkers(tc.workers, func() { tabs, vals = sw.run() })

		n := max(tc.reps, 1)
		var want []float64 // each replicate run on its own, in enumeration order
		for _, p := range sw.protos {
			for r := range int64(n) {
				want = append(want, tc.direct(Run(tc.spec(42+1000*r, p))))
			}
		}
		if len(reduced) != len(want) {
			t.Errorf("%s: reduce ran %d times, want once per replicate (%d)", tc.name, len(reduced), len(want))
		}
		if tc.workers == 1 && !slices.Equal(reduced, want) {
			t.Errorf("%s: reduced %v, want %v in replicate order", tc.name, reduced, want)
		}
		for c := range sw.protos {
			reps, cell := want[c*n:(c+1)*n], tabs[0].Rows[0][1+c]
			if got := vals[0][0][c]; got != stats.Mean(reps) {
				t.Errorf("%s: %s value %v, want the mean of %v", tc.name, sw.protos[c], got, reps)
			}
			if n == 1 {
				if cell != fmt.Sprintf(m.format, reps[0]) {
					t.Errorf("%s: %s cell %q, want the single run %v", tc.name, sw.protos[c], cell, reps[0])
				}
				continue
			}
			lo, hi := slices.Min(reps), slices.Max(reps)
			if want := fmt.Sprintf(m.format+" ["+m.format+".."+m.format+"]", stats.Mean(reps), lo, hi); cell != want {
				t.Errorf("%s: %s cell %q, want %q: the mean, then the replicates' range", tc.name, sw.protos[c], cell, want)
			}
			if sw.protos[c] == MPCCLatency && lo == hi {
				t.Errorf("%s: MPCC replicates %v: no spread to show", tc.name, reps)
			}
		}
		if m.title == fig16.title && !(slices.Contains(want[:n], downloadDeadline.Seconds()) && slices.Min(want[:n]) < downloadDeadline.Seconds()) {
			t.Errorf("%s: MPCC replicates %v: want one finished and one at the deadline", tc.name, want[:n])
		}
		var buf bytes.Buffer
		tabs[0].Fprint(&buf)
		key := fmt.Sprint(m.title, n)
		if prev, ok := rendered[key]; ok && prev != buf.String() {
			t.Errorf("%s: table differs from an earlier worker count:\n%s\nvs\n%s", tc.name, buf.String(), prev)
		}
		rendered[key] = buf.String()
	}
}

// TestParameterGridParallelIdentical renders the Fig. 14 table at workers=1
// and workers=8 and requires byte-identical output.
func TestParameterGridParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("grid subsample is slow")
	}
	cfg := Config{Seed: 42, Duration: 2 * sim.Second, Warmup: 500 * sim.Millisecond, Reps: 1}
	render := func() []byte {
		g := ParameterGrid(cfg, topo.Fig3c, 96)
		var buf bytes.Buffer
		g.Table("grid").Fprint(&buf)
		return buf.Bytes()
	}
	var seq, par []byte
	withWorkers(1, func() { seq = render() })
	withWorkers(8, func() { par = render() })
	if !bytes.Equal(seq, par) {
		t.Errorf("grid tables differ between workers=1 and workers=8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}
