package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// iteration is one closed-loop pass over a workload's legs, as the host saw
// it.
type iteration struct {
	legs       []runStats
	wallS      float64
	virtS      float64
	mallocs    uint64
	allocBytes uint64
	gcCPUS     float64 // GC CPU seconds spent during the iteration
	gcCycles   uint32
	gcPauseMs  float64
	digest     string
	attempted  int
	failures   []string
}

// gcCPUSeconds reads the runtime's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runIteration runs every leg at seed and audits the results. The heap is
// collected first so that each iteration starts from the same GC state; the
// collection is outside the timed region.
func runIteration(tr *tracer, parent int, legs []leg, seed int64, workers int, count bool) (iteration, error) {
	var it iteration
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	start := time.Now()
	for _, l := range legs {
		sp := tr.begin("exp.Run", parent, seed)
		st, err := runLeg(l, seed, workers, count)
		tr.end(sp)
		if err != nil {
			return it, err
		}
		it.legs = append(it.legs, st)
		it.virtS += st.virtS
	}
	it.wallS = time.Since(start).Seconds()
	it.gcCPUS = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	it.mallocs = m1.Mallocs - m0.Mallocs
	it.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	it.gcCycles = m1.NumGC - m0.NumGC
	it.gcPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	sp := tr.begin("check", parent, seed)
	it.digest = digest(it.legs)
	for i, st := range it.legs {
		n, fails := audit(st)
		it.attempted += n
		for _, f := range fails {
			it.failures = append(it.failures, fmt.Sprintf("leg %d (%s): %s", i, legs[i].proto, f))
		}
	}
	tr.end(sp)
	return it, nil
}

// audit counts a run's operations — one per static flow, one per arrived
// churn session — and lists the ones that failed. Rejected and abandoned
// sessions are admission outcomes the model intends, not failures.
func audit(st runStats) (attempted int, failures []string) {
	for _, f := range st.flows {
		attempted++
		switch {
		case f.goodputBps <= 0:
			failures = append(failures, fmt.Sprintf("flow %s: no goodput after warm-up", f.name))
		case f.acked > f.received || f.received > f.offered:
			failures = append(failures, fmt.Sprintf("flow %s: acked %d, received %d, offered %d out of order",
				f.name, f.acked, f.received, f.offered))
		}
	}
	if c := st.churn; c != nil {
		attempted += c.arrivals
		// Sessions that were rejected and whose retry lies beyond the horizon
		// are neither accepted nor abandoned yet.
		if pending := c.arrivals - c.accepted - c.abandoned; pending < 0 || pending > c.retried {
			failures = append(failures, fmt.Sprintf("churn: %d arrivals, %d accepted, %d abandoned leave %d pending",
				c.arrivals, c.accepted, c.abandoned, pending))
		}
		if c.accepted != c.completed+c.aborted+c.active {
			failures = append(failures, fmt.Sprintf("churn: %d accepted != %d completed + %d aborted + %d active",
				c.accepted, c.completed, c.aborted, c.active))
		}
		if c.leaks > 0 {
			failures = append(failures, fmt.Sprintf("churn: %d sessions leaked pooled buffers", c.leaks))
		}
	}
	return attempted, failures
}

// digest fingerprints the simulated outcome of an iteration: per-flow acked
// bytes and goodput bits, and the churn ledger. A change that only makes the
// simulator faster must leave it identical. Event counts stay out: a probe
// bus adds the queue sampler's events without touching the outcome.
func digest(legs []runStats) string {
	h := sha256.New()
	for i, st := range legs {
		fmt.Fprintf(h, "leg %d\n", i)
		for _, f := range st.flows {
			fmt.Fprintf(h, "%s %d %016x\n", f.name, f.acked, math.Float64bits(f.goodputBps))
		}
		if c := st.churn; c != nil {
			fmt.Fprintf(h, "churn %d %d %d %d %d %d %d %d %d\n", c.arrivals, c.accepted, c.rejected,
				c.retried, c.abandoned, c.completed, c.aborted, c.active, c.completedBytes)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns (the
// exclusive method), so that spreads computed here and by a harness agree.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// summary is a metric's samples within one run.
type summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

func summarize(unit string, xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{Median: med, Q1: q1, Q3: q3, N: len(xs), Unit: unit, Samples: xs}
}

// workloadReport is everything one workload produced in one process.
type workloadReport struct {
	Digest     string             `json:"sim_digest"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Iterations int                `json:"iterations"`
	EndToEnd   map[string]summary `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
}

func (r *workloadReport) fail(format string, a ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
}

// baseSeed is the seed of the warm-up iteration and of timed iteration 0.
func baseSeed(seed int64) int64 { return seed * 1000 }

// timeWorkload measures the end-to-end metrics: setups set-ups (spec
// generation plus one untimed warm-up iteration, which fills the pools and
// grows the heap), the cross-checks, then timed iterations for seconds with
// probes as the workload defines them and nothing else attached.
func timeWorkload(tr *tracer, name string, sz sizes, seed int64, seconds float64, setups int) (*workloadReport, error) {
	rep := &workloadReport{EndToEnd: map[string]summary{}}
	root := tr.begin("workload:"+name, -1, seed)
	defer tr.end(root)

	var legs []leg
	var setupS []float64
	for k := 0; k < setups; k++ {
		start := time.Now()
		sp := tr.begin("spec", root, baseSeed(seed))
		legs = workloadLegs(name, sz)
		tr.end(sp)
		warm, err := runIteration(tr, root, legs, baseSeed(seed), 0, false)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if rep.Digest == "" {
			rep.Digest = warm.digest
		} else if warm.digest != rep.Digest {
			rep.fail("warm-up %d: digest %s differs from %s at the same seed", k, warm.digest, rep.Digest)
		}
	}
	rep.EndToEnd["setup_s"] = summarize("s", setupS)

	// Cross-checks, once: tracing must not change the simulation, and neither
	// may the number of shard workers.
	var ref []leg
	workers := 0
	switch {
	case legs[0].jsonl:
		ref = workloadLegs("bulk_mpcc", sz)
	case legs[0].shards > 1:
		ref, workers = legs, 1
	}
	if ref != nil {
		it, err := runIteration(tr, root, ref, baseSeed(seed), workers, false)
		if err != nil {
			return nil, err
		}
		if it.digest != rep.Digest {
			rep.fail("digest %s differs from %s, the same seed untraced on one engine worker", rep.Digest, it.digest)
		}
	}

	var speed, allocs, allocMB []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		it, err := runIteration(tr, root, legs, baseSeed(seed)+int64(i), 0, false)
		if err != nil {
			return nil, err
		}
		if i == 0 && it.digest != rep.Digest {
			rep.fail("iteration 0: digest %s differs from the warm-up's %s", it.digest, rep.Digest)
		}
		rep.Iterations++
		rep.Attempted += it.attempted
		rep.Failed += len(it.failures)
		rep.Failures = append(rep.Failures, it.failures...)
		speed = append(speed, it.virtS/it.wallS)
		allocs = append(allocs, float64(it.mallocs)/it.virtS)
		allocMB = append(allocMB, float64(it.allocBytes)/1e6/it.virtS)
	}
	rep.EndToEnd["virt_s_per_wall_s"] = summarize("1", speed)
	rep.EndToEnd["allocs_per_virt_s"] = summarize("1/s", allocs)
	rep.EndToEnd["alloc_mb_per_virt_s"] = summarize("MB/s", allocMB)
	return rep, nil
}
