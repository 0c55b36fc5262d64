// Package mpcc implements the paper's primary contribution: Multipath
// Performance-oriented Congestion Control (MPCC), an online-learning
// multipath rate controller.
//
// Each subflow of a connection runs its own gradient-ascent controller over
// the subflow-specific utility function of Eq. 2, coupled to its siblings
// only through their published sending rates (§5). The connection-level
// utility of Eq. 1 — the paper's instructive "failed try" (§4) — is also
// provided, both for the ablation benchmarks and for the fairness theory
// tests.
//
// A single-subflow MPCC connection (MPCC₁) is exactly PCC Vivace.
package mpcc

import "math"

// UtilityParams are the coefficients of Eqs. 1 and 2. The paper's theory
// requires 0 ≤ Alpha < 1, Beta > 3, Gamma ≥ 0; the evaluation (§7.1) uses
// Alpha = 0.9, Beta = 11.35 and Gamma = 0 (MPCC-loss) or 1 (MPCC-latency),
// matching the PCC Vivace specification for a single subflow.
type UtilityParams struct {
	Alpha float64 // throughput reward exponent
	Beta  float64 // loss penalty coefficient
	Gamma float64 // latency-gradient penalty coefficient
}

// LossParams returns the MPCC-loss parameterization (γ = 0).
func LossParams() UtilityParams { return UtilityParams{Alpha: 0.9, Beta: 11.35, Gamma: 0} }

// LatencyParams returns the MPCC-latency parameterization. The paper states
// γ = 1 with parameters "chosen so that MPCC₁ matches the specification of
// PCC Vivace"; Vivace's utility weighs the latency gradient with b = 900
// when the gradient is the dimensionless RTT slope this implementation
// measures, so γ = 1 in the paper's units corresponds to 900 here. With a
// materially smaller coefficient the controller tolerates standing queues,
// which contradicts Fig. 9.
func LatencyParams() UtilityParams { return UtilityParams{Alpha: 0.9, Beta: 11.35, Gamma: 900} }

// Valid reports whether the parameters satisfy the paper's theoretical
// bounds (§4.1).
func (p UtilityParams) Valid() bool {
	return p.Alpha >= 0 && p.Alpha < 1 && p.Beta > 3 && p.Gamma >= 0
}

// SubflowUtility evaluates Eq. 2: the utility of subflow j sending at
// ownMbps while its siblings' published rates sum to othersMbps, given the
// loss rate and latency gradient subflow j itself observed:
//
//	U⁽ʲ⁾ = (C+x)^α − β·(C+x)·L_j − γ·(C+x)·dRTT_j/dT
//
// Rates are in Mbps (the unit the paper's parameter choices assume), loss in
// [0,1], and the latency gradient is dimensionless (s/s).
func (p UtilityParams) SubflowUtility(othersMbps, ownMbps, loss, rttGrad float64) float64 {
	total := othersMbps + ownMbps
	if total <= 0 {
		return 0
	}
	return math.Pow(total, p.Alpha) - p.Beta*total*loss - p.Gamma*total*rttGrad
}

// ConnUtility evaluates Eq. 1, the connection-level utility of §4: a reward
// on the total rate and a penalty charging the whole connection for the
// worst per-subflow combination of loss and latency gradient:
//
//	U = (Σxⱼ)^α − (Σxⱼ)·maxⱼ(β·Lⱼ + γ·dRTTⱼ/dT)
//
// ratesMbps, loss and rttGrad are parallel per-subflow slices.
func (p UtilityParams) ConnUtility(ratesMbps, loss, rttGrad []float64) float64 {
	if len(ratesMbps) != len(loss) || len(ratesMbps) != len(rttGrad) {
		panic("mpcc: mismatched per-subflow slices")
	}
	total := 0.0
	for _, r := range ratesMbps {
		total += r
	}
	if total <= 0 {
		return 0
	}
	worst := 0.0
	for j := range loss {
		pen := p.Beta*loss[j] + p.Gamma*rttGrad[j]
		if pen > worst {
			worst = pen
		}
	}
	return math.Pow(total, p.Alpha) - total*worst
}
