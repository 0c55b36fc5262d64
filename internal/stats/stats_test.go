package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := Stddev(xs); got != 2 {
		t.Fatalf("Stddev = %v, want 2", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("empty/short-input cases should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty Min/Max should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// interpolation
	if got := Percentile([]float64{10, 20}, 50); !almost(got, 15, 1e-12) {
		t.Fatalf("interpolated P50 = %v, want 15", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	// input must not be mutated
	unsorted := []float64{3, 1, 2}
	Percentile(unsorted, 50)
	if unsorted[0] != 3 || unsorted[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("Median = %v, want 3", got)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); !almost(got, 1, 1e-12) {
		t.Fatalf("equal allocation Jain = %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); !almost(got, 0.25, 1e-12) {
		t.Fatalf("single-winner Jain = %v, want 0.25", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Fatal("degenerate Jain should be 0")
	}
}

// Property: Jain index is in [1/n, 1] for any non-negative non-zero allocation,
// and scale-invariant.
func TestQuickJainProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		nonzero := false
		for i, v := range raw {
			xs[i] = math.Abs(v)
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || xs[i] > 1e12 {
				xs[i] = 1 // clamp pathological magnitudes to avoid float overflow in the test itself
			}
			if xs[i] > 0 {
				nonzero = true
			}
		}
		j := JainIndex(xs)
		if !nonzero {
			return j == 0
		}
		n := float64(len(xs))
		if j < 1/n-1e-9 || j > 1+1e-9 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i, v := range xs {
			scaled[i] = v * 3.5
		}
		return almost(JainIndex(scaled), j, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestSlope(t *testing.T) {
	pts := []Point{{0, 1}, {1, 3}, {2, 5}, {3, 7}}
	if mean, slope, se := Regress(pts); mean != 4 || !almost(slope, 2, 1e-12) || !almost(se, 0, 1e-12) {
		t.Fatalf("Regress = %v, %v, %v, want 4, 2, 0", mean, slope, se)
	}
	if _, slope, _ := Regress([]Point{{1, 0}, {1, 5}}); slope != 0 {
		t.Fatal("vertical data should yield slope 0")
	}
	if mean, slope, se := Regress([]Point{{1, 2}}); mean != 2 || slope != 0 || se != 0 {
		t.Fatal("a single point should yield its y and slope 0")
	}
	if mean, slope, se := Regress(nil); mean != 0 || slope != 0 || se != 0 {
		t.Fatal("no points should yield zeros")
	}
}

// Property: the slope of an exact line y = a + b·x recovers b.
func TestQuickSlopeRecoversLine(t *testing.T) {
	f := func(a, b float64, n uint8) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		pts := make([]Point, int(n%20)+2)
		for i := range pts {
			pts[i] = Point{float64(i), a + b*float64(i)}
		}
		_, slope, _ := Regress(pts)
		return almost(slope, b, 1e-6*(1+math.Abs(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// twoSliceFit is the formula Regress replaced — the mean of ys, then the
// slope and its standard error over parallel xs and ys — kept as the
// reference Regress must reproduce bit for bit, because the monitor
// interval's mean RTT and latency gradient feed every MPCC decision.
func twoSliceFit(xs, ys []float64) (mean, slope, se float64) {
	mean = Mean(ys)
	n := len(xs)
	if n < 2 {
		return mean, 0, 0
	}
	mx, my := Mean(xs), Mean(ys)
	var num, den float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		num += dx * (ys[i] - my)
		den += dx * dx
	}
	if den == 0 {
		return mean, 0, 0
	}
	slope = num / den
	if n < 3 {
		return mean, slope, 0
	}
	var rss float64
	intercept := my - slope*mx
	for i := 0; i < n; i++ {
		r := ys[i] - (intercept + slope*xs[i])
		rss += r * r
	}
	return mean, slope, math.Sqrt(rss / float64(n-2) / den)
}

// TestRegressMatchesTwoSliceFormula pins Regress to the reference bit for
// bit on a table of edge cases and on random monitor-interval-like samples
// (send offsets ~0.1 ms apart, RTTs around 50 ms with noise and a gradient).
func TestRegressMatchesTwoSliceFormula(t *testing.T) {
	check := func(name string, pts []Point) {
		t.Helper()
		xs, ys := make([]float64, len(pts)), make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.X, p.Y
		}
		wm, ws, wse := twoSliceFit(xs, ys)
		gm, gs, gse := Regress(pts)
		if math.Float64bits(gm) != math.Float64bits(wm) || math.Float64bits(gs) != math.Float64bits(ws) ||
			math.Float64bits(gse) != math.Float64bits(wse) {
			t.Fatalf("%s: Regress = (%v, %v, %v), reference (%v, %v, %v)", name, gm, gs, gse, wm, ws, wse)
		}
	}
	for _, c := range []struct {
		name string
		pts  []Point
	}{
		{"empty", nil},
		{"one point", []Point{{0.004, 0.051}}},
		{"two points", []Point{{0.001, 0.05}, {0.002, 0.0513}}},
		{"two points, one offset", []Point{{0.003, 0.05}, {0.003, 0.07}}},
		{"constant offset", []Point{{0.01, 0.05}, {0.01, 0.06}, {0.01, 0.055}, {0.01, 0.052}}},
		{"exact line", []Point{{0, 1}, {1, 3}, {2, 5}, {3, 7}}},
		{"flat rtt", []Point{{0.001, 0.05}, {0.002, 0.05}, {0.003, 0.05}}},
		{"three points", []Point{{0.0011, 0.0502}, {0.0023, 0.0517}, {0.0031, 0.0509}}},
	} {
		check(c.name, c.pts)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		pts := make([]Point, rng.Intn(200))
		x := 0.0
		for j := range pts {
			x += rng.ExpFloat64() * 1e-4
			pts[j] = Point{x, 0.05 + 0.01*rng.NormFloat64()*rng.Float64() + 0.2*x}
		}
		check("random", pts)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := Summarize(xs)
	if s.N != 10 || s.Mean != 5.5 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("Summary = %+v", s)
	}
	if !almost(s.Median, 5.5, 1e-12) {
		t.Fatalf("median = %v", s.Median)
	}
	if s.P5 >= s.Median || s.Median >= s.P95 {
		t.Fatalf("percentile ordering broken: %+v", s)
	}
}
