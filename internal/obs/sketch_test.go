package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mpcc/internal/stats"
)

// referenceQuantile is the exact nearest-rank quantile of a sorted slice.
func referenceQuantile(sorted []float64, q float64) float64 {
	return stats.QuantileSorted(sorted, q, stats.NearestRank)
}

// TestSketchRelativeError drives 1M samples from a heavy-tailed distribution
// through the sketch and checks every reported quantile is within 1% of the
// exact value, while memory stays O(buckets).
func TestSketchRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 1_000_000
	h := &Sketch{}
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Log-normal-ish spread over ~6 decades, the shape of FCT/queue
		// distributions at population scale.
		v := math.Exp(rng.NormFloat64()*2 + 3)
		h.Observe(v)
		samples = append(samples, v)
	}
	sort.Float64s(samples)

	if !h.spilled {
		t.Fatal("1M samples did not spill to sketch mode")
	}
	if b := len(h.pos.counts) + len(h.neg.counts); b == 0 || b > 2*sketchMaxBuckets {
		t.Fatalf("bucket count %d outside O(buckets) bound", b)
	}
	if int(h.count) != n {
		t.Fatalf("count %d, want %d", int(h.count), n)
	}
	for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999, 0.9999} {
		got := h.Quantile(q)
		want := referenceQuantile(samples, q)
		if relErr := math.Abs(got-want) / want; relErr > 0.01 {
			t.Errorf("q=%v: sketch %v vs exact %v (rel err %.3f%%)", q, got, want, 100*relErr)
		}
	}
	st := h.Stats()
	if st.Min != samples[0] || st.Max != samples[n-1] {
		t.Errorf("min/max not exact: %v/%v vs %v/%v", st.Min, st.Max, samples[0], samples[n-1])
	}
	exactMean := 0.0
	for _, v := range samples {
		exactMean += v
	}
	exactMean /= n
	if relErr := math.Abs(st.Mean-exactMean) / exactMean; relErr > 0.01 {
		t.Errorf("mean %v vs exact %v (rel err %.3f%%)", st.Mean, exactMean, 100*relErr)
	}
	if st.P999 < st.P99 || st.P99 < st.P90 {
		t.Errorf("quantiles not monotone: %+v", st)
	}
}

// TestSketchExactModeMatchesHistoricalHistogram pins the exact-mode behavior
// to the pre-sketch Histogram: below the spill threshold every quantile is a
// real sample under the historical nearest-rank formula.
func TestSketchExactModeMatchesHistoricalHistogram(t *testing.T) {
	h := &Sketch{}
	for i := 100; i >= 1; i-- {
		h.Observe(float64(i))
	}
	if h.spilled {
		t.Fatal("100 samples should stay exact")
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 99}, {1, 100},
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	st := h.Stats()
	if st.Mean != 50.5 || st.P999 != 99 {
		t.Errorf("Stats = %+v", st)
	}
}

// TestSketchNegativeAndZero covers the three stores: utilities can be
// negative, queue depths are often exactly zero.
func TestSketchNegativeAndZero(t *testing.T) {
	h := &Sketch{}
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			h.Observe(-100)
		case 1:
			h.Observe(0)
		case 2:
			h.Observe(100)
		}
	}
	if !h.spilled {
		t.Fatal("300 samples should spill")
	}
	if got := h.Quantile(0.10); math.Abs(got+100) > 1 {
		t.Errorf("P10 = %v, want ~-100", got)
	}
	if got := h.Quantile(0.50); got != 0 {
		t.Errorf("P50 = %v, want 0", got)
	}
	if got := h.Quantile(0.90); math.Abs(got-100) > 1 {
		t.Errorf("P90 = %v, want ~100", got)
	}
	st := h.Stats()
	if st.Min != -100 || st.Max != 100 {
		t.Errorf("min/max = %v/%v", st.Min, st.Max)
	}
	if math.Abs(st.Mean) > 0.5 {
		t.Errorf("mean = %v, want ~0", st.Mean)
	}
}

// TestSketchMergeOrderInvariance is the determinism keystone: merged A∪B,
// merged B∪A, and the streamed union must produce byte-identical stats, in
// exact mode, sketch mode, and across the exact/sketch boundary.
// TestSketchStatsCached is the regression test for the stats/sort cache:
// repeated Stats and Quantile calls after a snapshot must not re-sort or
// re-walk buckets, and must not allocate.
func TestSketchStatsCached(t *testing.T) {
	h := &Sketch{}
	for i := 100; i >= 1; i-- {
		h.Observe(float64(i))
	}
	_ = h.Stats()
	if h.sorts != 1 {
		t.Fatalf("first Stats sorted %d times, want 1", h.sorts)
	}
	for i := 0; i < 10; i++ {
		_ = h.Stats()
		_ = h.Quantile(0.5)
	}
	if h.sorts != 1 {
		t.Errorf("repeated Stats/Quantile re-sorted (%d sorts)", h.sorts)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = h.Stats() }); allocs != 0 {
		t.Errorf("cached Stats allocated %.1f allocs/op, want 0", allocs)
	}
	// Observation invalidates the cache.
	h.Observe(200)
	if st := h.Stats(); st.Count != 101 || st.Max != 200 {
		t.Errorf("stats stale after Observe: %+v", st)
	}
	if h.sorts != 2 {
		t.Errorf("Observe should force one re-sort, got %d total", h.sorts)
	}

	// Spilled sketches cache too.
	big := &Sketch{}
	for i := 0; i < 10000; i++ {
		big.Observe(float64(i + 1))
	}
	_ = big.Stats()
	if allocs := testing.AllocsPerRun(100, func() { _ = big.Stats() }); allocs != 0 {
		t.Errorf("cached sketch-mode Stats allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestSketchObserveAllocFree checks the steady-state discipline: once the
// value range has been seen, further observations allocate nothing.
func TestSketchObserveAllocFree(t *testing.T) {
	h := &Sketch{}
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64() * 2)
	}
	for _, v := range vals {
		h.Observe(v)
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(vals[i%len(vals)])
		i++
	}); allocs != 0 {
		t.Errorf("warm Observe allocated %.2f allocs/op, want 0", allocs)
	}
}

// TestSketchCollapseBoundsMemory floods the sketch with values spanning far
// more decades than the bucket cap covers and checks memory stays bounded
// while the un-collapsed tail stays accurate.
func TestSketchCollapseBoundsMemory(t *testing.T) {
	h := &Sketch{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		// ~24 decades: exceeds sketchMaxBuckets log-spaced buckets.
		h.Observe(math.Exp((rng.Float64()*56 - 28)))
	}
	if got := len(h.pos.counts); got > sketchMaxBuckets {
		t.Fatalf("positive store has %d buckets, cap %d", got, sketchMaxBuckets)
	}
	if !(h.pos.collapsed || h.neg.collapsed) {
		t.Fatal("expected a size-cap collapse")
	}
	// High quantiles are far from the collapsed low end: still within α.
	got := h.Quantile(0.99)
	want := math.Exp(0.98*56 - 28) // approximate true q99 of the uniform exponent
	if math.Abs(math.Log(got)-math.Log(want)) > 1 {
		t.Errorf("post-collapse q99 off: %g vs ~%g", got, want)
	}
}
