package analytic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpcc/internal/cc/mpcc"
	"mpcc/internal/fairness"
)

func TestLossFluidModel(t *testing.T) {
	if Loss(100, 50) != 0 {
		t.Fatal("underloaded link should be lossless")
	}
	if got := Loss(100, 200); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Loss(100,200) = %v, want 0.5", got)
	}
	if Loss(100, 0) != 0 {
		t.Fatal("zero load should be lossless")
	}
}

// Fig. 2's qualitative structure: below the shared-link capacity both
// derivatives are positive (both push up); above it both are negative; and
// PCC's derivative exceeds MPCC's everywhere in the underloaded region
// because the MPCC connection already enjoys its private 100 Mbps.
func TestGradientFieldFig2Structure(t *testing.T) {
	p := mpcc.LossParams()
	grid := []float64{10, 30, 50, 70, 90, 110}
	pts := GradientField(p, 100, 100, grid)
	if len(pts) != len(grid)*len(grid) {
		t.Fatalf("got %d points", len(pts))
	}
	for _, pt := range pts {
		s := pt.X + pt.Y
		if s < 95 {
			if pt.DX <= 0 || pt.DY <= 0 {
				t.Fatalf("underloaded point (%v,%v): derivatives %v,%v, want both > 0", pt.X, pt.Y, pt.DX, pt.DY)
			}
			if pt.DY <= pt.DX {
				t.Fatalf("PCC derivative %v should exceed MPCC's %v at (%v,%v)", pt.DY, pt.DX, pt.X, pt.Y)
			}
		}
		if s > 130 {
			if pt.DX >= 0 || pt.DY >= 0 {
				t.Fatalf("overloaded point (%v,%v): derivatives %v,%v, want both < 0", pt.X, pt.Y, pt.DX, pt.DY)
			}
		}
	}
}

// The red-dot equilibrium of Fig. 2: PCC ends with (almost) the whole
// shared link. Verify by running the two-player dynamics.
func TestFig2EquilibriumPCCWins(t *testing.T) {
	p := mpcc.LossParams()
	n := &fairness.Network{
		Capacity: []float64{100, 100},  // link 0 = private, link 1 = shared
		Conns:    [][]int{{0, 1}, {1}}, // MPCC2 on both, PCC on shared
	}
	initial := [][]float64{{50, 50}, {10}}
	final := Dynamics(p, n, initial, 20000)
	if final[0][1] > 20 {
		t.Fatalf("MPCC kept %.1f Mbps of the shared link, want ≈0", final[0][1])
	}
	if final[1][0] < 80 {
		t.Fatalf("PCC got only %.1f Mbps of the shared link", final[1][0])
	}
}

// Theorem 5.2 computationally: gradient dynamics on parallel-link networks
// converge to (near-)LMMF totals for the canonical topologies.
func TestDynamicsConvergeToLMMF(t *testing.T) {
	p := mpcc.LossParams()
	cases := []struct {
		name string
		net  *fairness.Network
		init [][]float64
	}{
		{"fig1", &fairness.Network{Capacity: []float64{100, 100, 100}, Conns: [][]int{{0}, {0, 1, 2}}},
			[][]float64{{30}, {30, 30, 30}}},
		{"3c", &fairness.Network{Capacity: []float64{100, 100}, Conns: [][]int{{0, 1}, {1}}},
			[][]float64{{20, 20}, {20}}},
		{"ring", &fairness.Network{Capacity: []float64{100, 100, 100}, Conns: [][]int{{0, 1}, {1, 2}, {2, 0}}},
			[][]float64{{10, 40}, {25, 25}, {60, 5}}},
		{"pooling", &fairness.Network{Capacity: []float64{100, 60}, Conns: [][]int{{0, 1}, {0, 1}}},
			[][]float64{{90, 5}, {10, 40}}},
	}
	for _, tc := range cases {
		final := Dynamics(p, tc.net, tc.init, 30000)
		got := Totals(final)
		want, err := fairness.LMMF(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			// The fluid equilibrium overshoots capacity by up to
			// 1/(β−2) ≈ 10.7% (Appendix C), so compare within 15%.
			if math.Abs(got[i]-want.Totals[i]) > 0.15*want.Totals[i]+1 {
				t.Errorf("%s: conn %d total %.1f, LMMF %.1f (all got %v want %v)",
					tc.name, i, got[i], want.Totals[i], got, want.Totals)
				break
			}
		}
	}
}

// Theorem 5.1 property: at (near-)equilibrium on random parallel-link
// networks, the residual gradient is small and totals are near-LMMF.
func TestQuickDynamicsNearLMMF(t *testing.T) {
	p := mpcc.LossParams()
	f := func(seed uint16) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		nl := 2 + r.Intn(2)
		nc := 2 + r.Intn(2)
		n := &fairness.Network{Capacity: make([]float64, nl), Conns: make([][]int, nc)}
		for i := range n.Capacity {
			n.Capacity[i] = 50 + float64(r.Intn(3))*50
		}
		for i := range n.Conns {
			perm := r.Perm(nl)
			k := 1 + r.Intn(nl)
			n.Conns[i] = append([]int(nil), perm[:k]...)
		}
		init := make([][]float64, nc)
		for i := range init {
			init[i] = make([]float64, len(n.Conns[i]))
			for j := range init[i] {
				init[i][j] = 5 + r.Float64()*50
			}
		}
		final := Dynamics(p, n, init, 30000)
		got := Totals(final)
		want, err := fairness.LMMF(n)
		if err != nil {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-want.Totals[i]) > 0.2*want.Totals[i]+2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

func TestEquilibriumResidualSmallAfterDynamics(t *testing.T) {
	p := mpcc.LossParams()
	n := &fairness.Network{Capacity: []float64{100, 100}, Conns: [][]int{{0, 1}, {1}}}
	final := Dynamics(p, n, [][]float64{{20, 20}, {20}}, 30000)
	res := EquilibriumResidual(p, n, final)
	// The fluid gradient is discontinuous at the capacity kink, so the
	// residual cannot drop below the underloaded-side derivative
	// α·total^(α−1) ≈ 0.57; "at equilibrium" means at that floor.
	if res > 0.62 {
		t.Fatalf("equilibrium residual = %v, want ≈0.57 (the kink floor)", res)
	}
	// A clearly non-equilibrium point sits above the floor.
	if r := EquilibriumResidual(p, n, [][]float64{{1, 1}, {1}}); r < 0.7 {
		t.Fatalf("non-equilibrium residual = %v, want > 0.7", r)
	}
}

// Theorem 4.1 computationally: connection-level (Eq. 1) dynamics also land
// near the LMMF allocation on the canonical parallel-link topologies.
func TestConnLevelDynamicsNearLMMF(t *testing.T) {
	p := mpcc.LossParams()
	cases := []struct {
		name string
		net  *fairness.Network
		init [][]float64
	}{
		{"fig1", &fairness.Network{Capacity: []float64{100, 100, 100}, Conns: [][]int{{0}, {0, 1, 2}}},
			[][]float64{{30}, {30, 30, 30}}},
		{"pooling", &fairness.Network{Capacity: []float64{100, 60}, Conns: [][]int{{0, 1}, {0, 1}}},
			[][]float64{{90, 5}, {10, 40}}},
	}
	for _, tc := range cases {
		final := ConnLevelDynamics(p, tc.net, tc.init, 30000)
		got := Totals(final)
		want, err := fairness.LMMF(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-want.Totals[i]) > 0.2*want.Totals[i]+2 {
				t.Errorf("%s: conn %d total %.1f, LMMF %.1f (got %v want %v)",
					tc.name, i, got[i], want.Totals[i], got, want.Totals)
				break
			}
		}
	}
}
