// Package stats provides the small statistical toolkit used throughout the
// MPCC reproduction: summary statistics, percentiles, Jain's fairness index,
// a least-squares fit (for latency gradients), time-bucketed series, and
// windowed min/max filters (for BBR).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// QuantileConvention selects one of the repo's two quantile definitions.
// Both are implemented by QuantileSorted, the single routing point for every
// quantile computed anywhere in the codebase.
//
// The convention, documented once here:
//
//   - NearestRank returns an actual sample: the value at index
//     ⌊q·N⌋−1 (clamped to [0, N−1]) of the sorted input. Telemetry
//     aggregation (obs histograms and sketches) uses this, because a reported
//     tail value should be something that was really observed, and because it
//     is reproducible from a quantile sketch's discrete buckets.
//   - Interpolated linearly interpolates between the two closest ranks at
//     rank q·(N−1) — the NumPy/matplotlib default. Experiment tables and
//     figures (Percentile, Summarize) use this, matching the paper's plots.
type QuantileConvention int

// The quantile conventions (see QuantileConvention).
const (
	NearestRank QuantileConvention = iota
	Interpolated
)

// QuantileSorted returns the q-quantile (q in [0,1]) of an already-sorted
// slice under the given convention. An empty input yields 0; q is clamped to
// [0,1].
func QuantileSorted(sorted []float64, q float64, conv QuantileConvention) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	switch conv {
	case Interpolated:
		rank := q * float64(n-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		if lo == hi {
			return sorted[lo]
		}
		frac := rank - float64(lo)
		return sorted[lo]*(1-frac) + sorted[hi]*frac
	default: // NearestRank
		idx := int(q*float64(n)) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		return sorted[idx]
	}
}

// Percentile returns the p-th percentile (0..100) of xs under the
// Interpolated convention (see QuantileConvention). It copies xs; the input
// is not modified. An empty input yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, p/100, Interpolated)
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// JainIndex returns Jain's fairness index of the allocation xs:
// (Σx)² / (n·Σx²). It is 1 for a perfectly equal allocation and 1/n when a
// single entity receives everything. An empty or all-zero allocation yields 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// Point is one (x, y) sample of a regression.
type Point struct{ X, Y float64 }

// Regress fits y on x by least squares over pts and returns the mean of the
// ys, the slope, and the slope's standard error. A monitor interval keeps
// its (send offset, RTT) samples as one array of Points, and this is its
// mean RTT and latency gradient d(RTT)/dT (§5.2); the standard error lets
// callers t-test whether the slope is distinguishable from zero (the
// latency-gradient noise filter). The slope is 0 with fewer than two points
// or when every x coincides, and the standard error is 0 when it cannot be
// estimated (fewer than three points). Empty input yields zeros.
func Regress(pts []Point) (meanY, slope, se float64) {
	n := len(pts)
	if n == 0 {
		return 0, 0, 0
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	mx, my := sx/float64(n), sy/float64(n)
	if n < 2 {
		return my, 0, 0
	}
	var num, den float64
	for _, p := range pts {
		dx := p.X - mx
		num += dx * (p.Y - my)
		den += dx * dx
	}
	if den == 0 {
		return my, 0, 0
	}
	slope = num / den
	if n < 3 {
		return my, slope, 0
	}
	var rss float64
	intercept := my - slope*mx
	for _, p := range pts {
		r := p.Y - (intercept + slope*p.X)
		rss += r * r
	}
	return my, slope, math.Sqrt(rss / float64(n-2) / den)
}

// Summary bundles the descriptive statistics the paper reports.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Min    float64
	Max    float64
	Stddev float64
	P5     float64
	P95    float64
	P99    float64
	P1     float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		Stddev: Stddev(xs),
		P5:     Percentile(xs, 5),
		P95:    Percentile(xs, 95),
		P99:    Percentile(xs, 99),
		P1:     Percentile(xs, 1),
	}
}
