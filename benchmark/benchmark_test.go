package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestManifestWithinLimits(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloadDefs {
		check("workload", w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEndDefs {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	layers := perLayerDefs()
	// The 81 the issue names, and sim.shard_speedup.
	if n := len(layers); n != 82 {
		t.Errorf("%d per-layer metrics, want 82", n)
	}
	for _, m := range append(layers, endToEndDefs...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range layers {
		check("per-layer", m.Name)
	}
}

func TestManifestIsCommitted(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`; regenerate it")
	}
}

// TestEveryMetricEmitted runs both passes of every workload at the quick
// size: the names that come out are exactly the declared ones, every unit
// cost was measured, operations ran and none failed, and the shares of the
// cost model sum to one.
func TestEveryMetricEmitted(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	costs := unitCosts(tr, quickSize)
	for _, wd := range workloadDefs {
		timed, err := timeWorkload(tr, wd.Name, quickSize, 1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := traceWorkload(tr, wd.Name, quickSize, 1, 1, func() map[string]float64 { return costs })
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*workloadReport{timed, traced} {
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s: %d operations attempted, %d failed: %v", wd.Name, r.Attempted, r.Failed, r.Failures)
			}
		}
		if timed.Digest != traced.Digest {
			t.Errorf("%s: timed digest %s, traced digest %s", wd.Name, timed.Digest, traced.Digest)
		}

		if len(timed.EndToEnd) != len(endToEndDefs) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", wd.Name, len(timed.EndToEnd), len(endToEndDefs))
		}
		for _, d := range endToEndDefs {
			if s, ok := timed.EndToEnd[d.Name]; !ok || !(s.Median > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, emitted %v", wd.Name, d.Name, s.Median, ok)
			}
		}
		layers := perLayerDefs()
		if len(traced.PerLayer) != len(layers) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", wd.Name, len(traced.PerLayer), len(layers))
		}
		sum := 0.0
		for _, d := range layers {
			v, ok := traced.PerLayer[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v, emitted %v", wd.Name, d.Name, v, ok)
			}
			if d.Unit == "ns" && !(v > 0) {
				t.Errorf("%s: unit cost %s = %v", wd.Name, d.Name, v)
			}
			if strings.HasPrefix(d.Name, "share.") {
				sum += v
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: shares sum to %v", wd.Name, sum)
		}
		for _, k := range []string{"sim.events", "netem.pkts", "transport.segs_sent", "cc.acks", "cc.mis", "obs.events"} {
			if !(traced.PerLayer[k] > 0) {
				t.Errorf("%s: %s = %v", wd.Name, k, traced.PerLayer[k])
			}
		}
	}
	if len(tr.spans) == 0 {
		t.Error("no spans recorded")
	}
	for i, s := range tr.spans {
		if s.EndS < s.StartS || s.Parent >= i {
			t.Errorf("span %d %+v: ends before it starts or names a later parent", i, s)
		}
	}
}

func TestTracedBulkMatchesBulk(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	a, err := runIteration(tr, -1, workloadLegs("bulk_mpcc", quickSize), 7000, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runIteration(tr, -1, workloadLegs("traced_bulk", quickSize), 7000, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("bulk_mpcc digest %s, traced_bulk digest %s", a.digest, b.digest)
	}
	c, err := runIteration(tr, -1, workloadLegs("bulk_mpcc", quickSize), 7001, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest == c.digest {
		t.Error("two seeds gave one digest: the digest does not see the outcome")
	}
}

func TestAuditFindsFailures(t *testing.T) {
	good := runStats{
		flows: []flowStats{{name: "f", acked: 10, received: 12, offered: 15, goodputBps: 1}},
		churn: &churnStats{arrivals: 10, accepted: 7, abandoned: 2, retried: 3, completed: 5, aborted: 1, active: 1},
	}
	if n, fails := audit(good); n != 11 || len(fails) != 0 {
		t.Errorf("consistent run: %d operations, failures %v", n, fails)
	}
	for name, breakIt := range map[string]func(*runStats){
		"no goodput":       func(s *runStats) { s.flows[0].goodputBps = 0 },
		"acked > received": func(s *runStats) { s.flows[0].acked = 13 },
		"received > offer": func(s *runStats) { s.flows[0].received = 16 },
		"arrivals ledger":  func(s *runStats) { s.churn.arrivals = 14 },
		"accepted ledger":  func(s *runStats) { s.churn.completed = 6 },
		"leak":             func(s *runStats) { s.churn.leaks = 1 },
	} {
		bad := good
		bad.flows = append([]flowStats(nil), good.flows...)
		c := *good.churn
		bad.churn = &c
		breakIt(&bad)
		if _, fails := audit(bad); len(fails) != 1 {
			t.Errorf("%s: failures %v, want one", name, fails)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, med, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || med != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4)
	if q1, med, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	speed := metricDef{Name: "virt_s_per_wall_s", Better: "higher", Bound: 0.08}
	cost := metricDef{Name: "allocs_per_virt_s", Better: "lower", Bound: 0.03}
	tight := func(x float64) summary {
		return summarize("", []float64{x * 0.99, x, x * 1.01, x, x})
	}
	wide := func(x float64) summary {
		return summarize("", []float64{x * 0.8, x * 0.9, x, x * 1.1, x * 1.2})
	}
	for _, c := range []struct {
		d      metricDef
		a, b   summary
		paired bool
		want   string
	}{
		{speed, tight(100), tight(95), false, "within-bound"},
		{speed, tight(100), tight(90), false, "regressed"},
		{speed, tight(100), tight(120), false, "within-bound"},
		{cost, tight(100), tight(102), false, "within-bound"},
		{cost, tight(100), tight(104), false, "regressed"},
		{speed, wide(100), wide(99), false, "unresolved"},
		{speed, wide(100), wide(200), false, "within-bound"}, // every b sample beats every a sample
		{cost, wide(100), tight(130), false, "unresolved"},
		// Paired, the seed-to-seed width of either side cancels.
		{speed, wide(100), wide(99), true, "within-bound"},
		{speed, wide(100), wide(85), true, "regressed"},
		{cost, wide(100), wide(100), true, "within-bound"},
		{cost, wide(100), tight(100), true, "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b, c.paired); got != c.want {
			t.Errorf("%s paired=%v: a median %v, b median %v: %s, want %s", c.d.Name, c.paired, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
