package exp

import (
	"bytes"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
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
		withWorkers(workers, func() { runSpecs(specs, 1, func(r *Result) float64 { return r.Jain }) })
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
// the sweep runner: what reduce sees — every spec's replicates folded in
// replicate order — must be bit-identical between sequential (workers=1)
// and concurrent execution, a replicate count below 1 must mean one run,
// and a one-spec sweep must fold as the same spec inside a larger one. It
// runs under -race in make check, which also shakes out data races in the
// runner itself.
func TestRunAveragedParallelIdentical(t *testing.T) {
	specs := []Spec{quickSpec(7), quickSpec(8), quickSpec(9)}
	// fold is what reduce saw for one spec, stamped with reduce's call order.
	type fold struct {
		flows      map[string]*FlowResult
		util, jain float64
		notes      []string
		nth        int32
	}
	sweep := func(workers, reps int) (out []fold) {
		var calls atomic.Int32
		withWorkers(workers, func() {
			out = runSpecs(specs, reps, func(r *Result) fold {
				return fold{r.Flows, r.Utilization, r.Jain, r.Notes, calls.Add(1)}
			})
		})
		if int(calls.Load()) != len(specs) {
			t.Errorf("workers=%d reps=%d: reduce ran %d times, want once per spec", workers, reps, calls.Load())
		}
		return out
	}
	seq, par := sweep(1, 3), sweep(8, 3)
	for i := range specs {
		if seq[i].nth != int32(i+1) {
			t.Errorf("workers=1: spec %d reduced %dth, want enumeration order", i, seq[i].nth)
		}
		if fr := seq[i].flows["mp"]; fr.MinGoodputBps == fr.MaxGoodputBps {
			t.Errorf("spec %d: three seeds, one goodput — replicates not folded", i)
		}
		par[i].nth = seq[i].nth // concurrent specs may finish in any order
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("spec %d: fold differs between workers=1 and workers=8", i)
		}
	}
	var avg *Result
	withWorkers(8, func() { avg = averaged(specs[1], 3) })
	if !reflect.DeepEqual(avg.Flows, seq[1].flows) || avg.Jain != seq[1].jain {
		t.Errorf("a one-spec sweep differs from the same spec inside a larger one")
	}
	// A replicate count below 1 is a single run at the spec's own seed.
	one := Run(specs[0])
	for _, reps := range []int{-2, 0, 1} {
		if got := sweep(2, reps)[0]; !reflect.DeepEqual(got.flows, one.Flows) || got.util != one.Utilization {
			t.Errorf("reps=%d: not the single run", reps)
		}
	}
}

// TestRunAveragedSnapshotWorkerIdentity is the acceptance test for mergeable
// telemetry: with a per-run probe factory installed, the merged snapshot of
// an averaged spec must be identical for any worker count — counters,
// gauges, sketch-backed histogram stats, and the serialized windowed series.
func TestRunAveragedSnapshotWorkerIdentity(t *testing.T) {
	runMerged := func(workers int) *Result {
		SetProbeFactory(func() *obs.Bus { return obs.NewBus() })
		defer SetProbeFactory(nil)
		var res *Result
		withWorkers(workers, func() { res = averaged(quickSpec(11), 4) })
		return res
	}
	seq := runMerged(1)
	if seq.Obs == nil {
		t.Fatal("probed averaged run produced no snapshot")
	}
	// Counters summed over 4 replicates, not the first replicate alone.
	one := Run(func() Spec { s := quickSpec(11); s.Probes = obs.NewBus(); return s }())
	if seq.Obs.Counters["sched_picks"] <= one.Obs.Counters["sched_picks"] {
		t.Errorf("merged counters look like a single replicate: %v vs %v",
			seq.Obs.Counters["sched_picks"], one.Obs.Counters["sched_picks"])
	}
	for _, w := range []int{2, 8} {
		par := runMerged(w)
		if !reflect.DeepEqual(seq.Obs.Counters, par.Obs.Counters) {
			t.Errorf("workers=%d: merged counters differ", w)
		}
		if !reflect.DeepEqual(seq.Obs.Gauges, par.Obs.Gauges) {
			t.Errorf("workers=%d: merged gauges differ", w)
		}
		if !reflect.DeepEqual(seq.Obs.Histograms, par.Obs.Histograms) {
			t.Errorf("workers=%d: merged histogram stats differ:\nseq %+v\npar %+v",
				w, seq.Obs.Histograms, par.Obs.Histograms)
		}
		a := obs.AppendTimeline(nil, 0, seq.Obs.Series)
		b := obs.AppendTimeline(nil, 0, par.Obs.Series)
		if !bytes.Equal(a, b) {
			t.Errorf("workers=%d: merged series not byte-identical", w)
		}
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

// TestMergeIntoSubflowMismatch checks the fold runSpecs applies to a spec's
// replicates: sums divided by the replicate count, the goodput spread
// tracked, a completion time averaged with a did-not-finish counted as the
// horizon, and replicates that disagree on a flow's subflow count averaged
// over the common prefix with a note rather than a panic.
func TestMergeIntoSubflowMismatch(t *testing.T) {
	agg := average([]*Result{
		{Jain: 0.5, Flows: map[string]*FlowResult{
			"f":    {GoodputBps: 10, MinGoodputBps: 10, MaxGoodputBps: 10, SubflowGoodputBps: []float64{4, 6}, FCT: 4 * sim.Second},
			"bulk": {FCT: -1},
		}},
		{Jain: 1, Flows: map[string]*FlowResult{
			"f":    {GoodputBps: 20, MinGoodputBps: 20, MaxGoodputBps: 20, SubflowGoodputBps: []float64{20}, FCT: -1},
			"bulk": {FCT: -1},
		}},
	}, 10*sim.Second)
	if got := agg.Flows["f"].FCT; got != 7*sim.Second {
		t.Errorf("FCT average = %v, want 7s (4 s and a did-not-finish at the 10 s horizon)", got)
	}
	if got := agg.Flows["bulk"].FCT; got != -1 {
		t.Errorf("FCT of a flow that never finishes = %v, want -1", got)
	}
	a := agg.Flows["f"]
	if got := a.SubflowGoodputBps; got[0] != 12 || got[1] != 3 {
		t.Errorf("subflow average = %v, want [12 3]", got)
	}
	if agg.Jain != 0.75 || a.GoodputBps != 15 || a.MinGoodputBps != 10 || a.MaxGoodputBps != 20 {
		t.Errorf("flow average wrong: jain %v, %+v", agg.Jain, a)
	}
	if len(agg.Notes) != 1 || !strings.Contains(agg.Notes[0], "subflow count") {
		t.Errorf("expected a subflow-count note, got %v", agg.Notes)
	}
}
