package mpcc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParamPresets(t *testing.T) {
	lp := LossParams()
	if lp.Alpha != 0.9 || lp.Beta != 11.35 || lp.Gamma != 0 {
		t.Fatalf("LossParams = %+v", lp)
	}
	lt := LatencyParams()
	if lt.Gamma != 900 { // Vivace's b for a dimensionless RTT slope
		t.Fatalf("LatencyParams = %+v", lt)
	}
	if !lp.Valid() || !lt.Valid() {
		t.Fatal("presets must satisfy the theory bounds")
	}
	if (UtilityParams{Alpha: 1.0, Beta: 11, Gamma: 0}).Valid() {
		t.Fatal("alpha = 1 violates alpha < 1")
	}
	if (UtilityParams{Alpha: 0.9, Beta: 3, Gamma: 0}).Valid() {
		t.Fatal("beta = 3 violates beta > 3")
	}
	if (UtilityParams{Alpha: 0.9, Beta: 11, Gamma: -1}).Valid() {
		t.Fatal("negative gamma invalid")
	}
}

func TestSubflowUtilitySinglePathMatchesVivaceForm(t *testing.T) {
	// With no siblings (C = 0), Eq. 2 must reduce to the Vivace single-path
	// utility x^α − β·x·L − γ·x·dRTT/dT.
	p := LatencyParams()
	x, loss, grad := 80.0, 0.02, 0.05
	want := math.Pow(x, 0.9) - 11.35*x*loss - 900*x*grad
	if got := p.SubflowUtility(0, x, loss, grad); math.Abs(got-want) > 1e-9 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSubflowUtilityLossPenalty(t *testing.T) {
	p := LossParams()
	clean := p.SubflowUtility(50, 50, 0, 0)
	lossy := p.SubflowUtility(50, 50, 0.05, 0)
	if lossy >= clean {
		t.Fatal("loss must reduce utility")
	}
	// MPCC-loss ignores the latency gradient.
	if p.SubflowUtility(50, 50, 0, 0.5) != clean {
		t.Fatal("gamma=0 must ignore latency gradient")
	}
	// MPCC-latency does not.
	if LatencyParams().SubflowUtility(50, 50, 0, 0.5) >= clean {
		t.Fatal("gamma=1 must penalize latency increase")
	}
}

func TestSubflowUtilityZeroTotal(t *testing.T) {
	p := LossParams()
	if got := p.SubflowUtility(0, 0, 0.5, 0.5); got != 0 {
		t.Fatalf("zero-rate utility = %v, want 0", got)
	}
}

// Property (drives Theorem 5.1's proof sketch): at a fully utilized link,
// the connection with the smaller total published rate has the strictly
// larger utility derivative — the mechanism behind LMMF convergence.
func TestQuickSmallerConnectionHasLargerDerivative(t *testing.T) {
	p := LossParams()
	f := func(a, b, l uint16) bool {
		totalI := 1 + float64(a%500)            // connection i total, Mbps
		totalJ := totalI + 1 + float64(b%500)/4 // connection j strictly larger
		loss := float64(l%200) / 1000           // 0..0.2
		// The derivative in the subflow's own rate, at a fixed loss rate.
		deriv := func(others float64) float64 {
			const h = 1e-5
			return (p.SubflowUtility(others, 1+h, loss, 0) - p.SubflowUtility(others, 1-h, loss, 0)) / (2 * h)
		}
		return deriv(totalI-1) > deriv(totalJ-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// Property: utility is strictly concave in the own rate in the lossy region
// modelled as L = 1 − c/S (the Appendix A fluid loss model): the analytic
// derivative decreases as own rate grows.
func TestQuickUtilityDerivativeDecreasing(t *testing.T) {
	p := LossParams()
	f := func(cap8, x8 uint16) bool {
		capacity := 10 + float64(cap8%200)
		x := capacity * (1.01 + float64(x8%100)/100) // overloaded region
		lossAt := func(s float64) float64 { return 1 - capacity/s }
		u := func(s float64) float64 { return p.SubflowUtility(0, s, lossAt(s), 0) }
		h := 0.01
		d1 := (u(x+h) - u(x)) / h
		d2 := (u(x+10*h) - u(x+9*h)) / h
		return d2 < d1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestConnUtilityWorstCasePenalty(t *testing.T) {
	p := LossParams()
	rates := []float64{50, 50}
	// Penalty must be charged at the max across subflows (Eq. 1).
	uBothClean := p.ConnUtility(rates, []float64{0, 0}, []float64{0, 0})
	uOneLossy := p.ConnUtility(rates, []float64{0, 0.1}, []float64{0, 0})
	uBothLossy := p.ConnUtility(rates, []float64{0.1, 0.1}, []float64{0, 0})
	if uOneLossy != uBothLossy {
		t.Fatalf("worst-case penalty: one-lossy %v != both-lossy %v", uOneLossy, uBothLossy)
	}
	if uOneLossy >= uBothClean {
		t.Fatal("loss must reduce connection utility")
	}
	want := math.Pow(100, 0.9) - 100*11.35*0.1
	if math.Abs(uOneLossy-want) > 1e-9 {
		t.Fatalf("ConnUtility = %v, want %v", uOneLossy, want)
	}
}

func TestConnUtilitySingleSubflowMatchesSubflowUtility(t *testing.T) {
	// Remark in §4.1: for d = 1 the connection-level utility coincides with
	// Vivace's (and hence with Eq. 2 at C = 0).
	p := LatencyParams()
	u1 := p.ConnUtility([]float64{42}, []float64{0.03}, []float64{0.02})
	u2 := p.SubflowUtility(0, 42, 0.03, 0.02)
	if math.Abs(u1-u2) > 1e-9 {
		t.Fatalf("d=1 mismatch: %v vs %v", u1, u2)
	}
}

func TestConnUtilityPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LossParams().ConnUtility([]float64{1, 2}, []float64{0}, []float64{0, 0})
}

func TestConnUtilityZero(t *testing.T) {
	if got := LossParams().ConnUtility([]float64{0, 0}, []float64{0, 0}, []float64{0, 0}); got != 0 {
		t.Fatalf("zero-rate connection utility = %v", got)
	}
}

func TestGroupPublication(t *testing.T) {
	g := NewGroup()
	a, b, c := g.Join(), g.Join(), g.Join()
	if len(g.rates) != 3 {
		t.Fatalf("Size = %d", len(g.rates))
	}
	g.Publish(a, 10e6)
	g.Publish(b, 20e6)
	g.Publish(c, 30e6)
	if g.Total() != 60e6 {
		t.Fatalf("Total = %v", g.Total())
	}
	if g.TotalExcept(b) != 40e6 {
		t.Fatalf("TotalExcept = %v", g.TotalExcept(b))
	}
	if g.rates[c] != 30e6 {
		t.Fatalf("Rate = %v", g.rates[c])
	}
	g.Publish(b, 25e6)
	if g.Total() != 65e6 {
		t.Fatalf("Total after republish = %v", g.Total())
	}
}
