// Package analytic provides the closed-form fluid analysis behind the
// paper's theory: the single-link loss model L = 1 − c/S of the appendices,
// the utility-gradient vector field of Fig. 2, and the gradient-dynamics
// simulator used to validate Theorems 4.1, 5.1 and 5.2 (equilibria of the
// per-subflow utilities on parallel-link networks are LMMF, and gradient
// dynamics converge to them).
package analytic

import (
	"math"

	"mpcc/internal/cc/mpcc"
	"mpcc/internal/fairness"
)

// Loss returns the fluid drop rate on a link of capacity c carrying
// aggregate offered load s: max(0, 1 − c/s), as in Appendix A.
func Loss(c, s float64) float64 {
	if s <= c || s <= 0 {
		return 0
	}
	return 1 - c/s
}

// FieldPoint is one arrow of the Fig. 2 vector field.
type FieldPoint struct {
	X, Y   float64 // MPCC subflow rate, PCC rate (Mbps)
	DX, DY float64 // utility derivatives (direction of motion)
}

// GradientField reproduces Fig. 2: one MPCC₂ connection whose other subflow
// has a private link carrying privateMbps, competing on a shared link of
// capacity capMbps with a single-path PCC (MPCC₁) connection. For each grid
// point (x = MPCC's shared-subflow rate, y = PCC's rate) it evaluates both
// players' per-subflow utility derivatives under the fluid loss model.
func GradientField(p mpcc.UtilityParams, capMbps, privateMbps float64, grid []float64) []FieldPoint {
	var out []FieldPoint
	for _, x := range grid {
		for _, y := range grid {
			s := x + y
			loss := Loss(capMbps, s)
			// d(loss)/d(own rate) for the fluid model.
			dLoss := 0.0
			if s > capMbps && s > 0 {
				dLoss = capMbps / (s * s)
			}
			du := func(others, own float64) float64 {
				total := others + own
				if total <= 0 {
					total = 1e-9
				}
				return p.Alpha*math.Pow(total, p.Alpha-1) -
					p.Beta*(loss+total*dLoss) // d/d(own)[β·total·L]
			}
			out = append(out, FieldPoint{
				X:  x,
				Y:  y,
				DX: du(privateMbps, x),
				DY: du(0, y),
			})
		}
	}
	return out
}

// Dynamics runs synchronized per-subflow gradient dynamics with the
// paper's per-subflow utility (Eq. 2) on a parallel-link network under the
// fluid loss model, starting from the given per-subflow rates. It returns
// the final per-connection totals. The step size decays harmonically, which
// suffices for convergence on these concave games.
//
// This is the computational counterpart of Theorem 5.2: for any parallel-
// link network the dynamics should approach the LMMF allocation.
func Dynamics(p mpcc.UtilityParams, n *fairness.Network, initial [][]float64, iters int) [][]float64 {
	rates := make([][]float64, len(initial))
	for i := range initial {
		rates[i] = append([]float64(nil), initial[i]...)
	}
	load := make([]float64, len(n.Capacity))
	for it := 0; it < iters; it++ {
		// Aggregate per-link load.
		for l := range load {
			load[l] = 0
		}
		for i, links := range n.Conns {
			for j, l := range links {
				load[l] += rates[i][j]
			}
		}
		step := 2.0 / (1 + float64(it)*0.01)
		for i, links := range n.Conns {
			total := 0.0
			for _, r := range rates[i] {
				total += r
			}
			for j, l := range links {
				s := load[l]
				loss := Loss(n.Capacity[l], s)
				dLoss := 0.0
				if s > n.Capacity[l] && s > 0 {
					dLoss = n.Capacity[l] / (s * s)
				}
				if total <= 0 {
					total = 1e-9
				}
				grad := p.Alpha*math.Pow(total, p.Alpha-1) - p.Beta*(loss+total*dLoss)
				rates[i][j] += step * grad
				if rates[i][j] < 0 {
					rates[i][j] = 0
				}
			}
		}
	}
	return rates
}

// Totals sums per-subflow rates into per-connection totals.
func Totals(rates [][]float64) []float64 {
	out := make([]float64, len(rates))
	for i, rs := range rates {
		for _, r := range rs {
			out[i] += r
		}
	}
	return out
}

// EquilibriumResidual measures how far a rate configuration is from an
// equilibrium of the per-subflow utilities: the largest absolute utility
// gradient over subflows with positive rate, plus any positive gradient at
// a zero-rate subflow (which would want to grow).
func EquilibriumResidual(p mpcc.UtilityParams, n *fairness.Network, rates [][]float64) float64 {
	load := make([]float64, len(n.Capacity))
	for i, links := range n.Conns {
		for j, l := range links {
			load[l] += rates[i][j]
		}
	}
	worst := 0.0
	for i, links := range n.Conns {
		total := 0.0
		for _, r := range rates[i] {
			total += r
		}
		if total <= 0 {
			total = 1e-9
		}
		for j, l := range links {
			s := load[l]
			loss := Loss(n.Capacity[l], s)
			dLoss := 0.0
			if s > n.Capacity[l] && s > 0 {
				dLoss = n.Capacity[l] / (s * s)
			}
			grad := p.Alpha*math.Pow(total, p.Alpha-1) - p.Beta*(loss+total*dLoss)
			switch {
			case rates[i][j] > 1e-6:
				if math.Abs(grad) > worst {
					worst = math.Abs(grad)
				}
			case grad > 0:
				if grad > worst {
					worst = grad
				}
			}
		}
	}
	return worst
}

// ConnLevelDynamics runs synchronized gradient (subgradient, since Eq. 1's
// worst-case penalty is a max) dynamics with the CONNECTION-level utility of
// §4 on a parallel-link network under the fluid loss model. It is the
// computational counterpart of Theorem 4.1: equilibria of Eq. 1 are LMMF
// too, even though the paper abandoned this design for practical reasons
// (§4.3's obstacles are about measurement, not about the equilibria).
func ConnLevelDynamics(p mpcc.UtilityParams, n *fairness.Network, initial [][]float64, iters int) [][]float64 {
	rates := make([][]float64, len(initial))
	for i := range initial {
		rates[i] = append([]float64(nil), initial[i]...)
	}
	load := make([]float64, len(n.Capacity))
	for it := 0; it < iters; it++ {
		for l := range load {
			load[l] = 0
		}
		for i, links := range n.Conns {
			for j, l := range links {
				load[l] += rates[i][j]
			}
		}
		step := 2.0 / (1 + float64(it)*0.01)
		for i, links := range n.Conns {
			total := 0.0
			for _, r := range rates[i] {
				total += r
			}
			if total <= 0 {
				total = 1e-9
			}
			// Worst per-subflow penalty across the connection (Eq. 1).
			worst, worstIdx := 0.0, -1
			for j, l := range links {
				if pen := p.Beta * Loss(n.Capacity[l], load[l]); pen > worst {
					worst, worstIdx = pen, j
				}
			}
			for j, l := range links {
				grad := p.Alpha*math.Pow(total, p.Alpha-1) - worst
				if j == worstIdx {
					s := load[l]
					if s > n.Capacity[l] && s > 0 {
						grad -= p.Beta * total * n.Capacity[l] / (s * s)
					}
				}
				rates[i][j] += step * grad
				if rates[i][j] < 0 {
					rates[i][j] = 0
				}
			}
		}
	}
	return rates
}
