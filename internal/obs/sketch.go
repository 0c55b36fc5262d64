package obs

import (
	"math"
	"sort"

	"mpcc/internal/stats"
)

// Sketch is a bounded-memory quantile sketch with a DDSketch-style
// relative-error guarantee, behind the same Observe/Quantile/Stats API the
// keep-everything Histogram exposed. It is the aggregation primitive that
// makes population-scale runs possible: memory is O(buckets) regardless of
// how many samples are observed.
//
// Two modes:
//
//   - Exact, below sketchExactThreshold samples. Raw samples are kept and
//     quantiles are exact nearest-rank values (stats.NearestRank), which
//     keeps small histograms — and every pre-sketch golden snapshot —
//     bit-identical to the historical Histogram.
//   - Sketch, above the threshold. Samples spill into log-spaced buckets
//     (three stores: positive, negative, zero) with relative accuracy
//     sketchAlpha: bucket i covers (γ^(i−1), γ^i] with γ = (1+α)/(1−α), and
//     its representative value 2γ^i/(γ+1) is within α of anything in the
//     bucket. A store exceeding sketchMaxBuckets collapses its
//     lowest-quantile end, bounding memory for pathological value ranges.
//
// Determinism contract: every statistic is a pure function of the canonical
// sketch state (integer bucket counts, min/max, or the sorted exact
// samples), and the mean is summed in canonical bucket order. The price is
// that the mean is bucket-approximate (within α) once spilled; Min/Max stay
// exact.
type Sketch struct {
	exact  []float64 // exact-mode samples; nil once spilled
	sorted bool
	sorts  int // re-sort count (cache regression tests)

	spilled  bool
	count    int64
	min, max float64
	zero     int64 // samples in [-sketchMinObservable, sketchMinObservable]
	pos, neg sketchStore

	stats      HistogramStats
	statsValid bool
}

// Sketch geometry. Alpha is the relative-error guarantee (0.5%); the bucket
// cap bounds each store to ~32 KB of counts even if observations span the
// full observable range.
const (
	sketchExactThreshold = 128
	sketchAlpha          = 0.005
	sketchMaxBuckets     = 4096
	sketchMinObservable  = 1e-12
)

var (
	sketchGamma      = (1 + sketchAlpha) / (1 - sketchAlpha)
	sketchLnGamma    = math.Log(sketchGamma)
	sketchInvLnGamma = 1 / sketchLnGamma
	// rep(i) = γ^i · 2/(γ+1): the value whose relative distance to both
	// bucket edges is exactly α.
	sketchRepFactor = 2 / (sketchGamma + 1)
)

// sketchBucketIndex returns the bucket index of a magnitude v > 0:
// the smallest i with γ^i >= v.
func sketchBucketIndex(v float64) int {
	return int(math.Ceil(math.Log(v) * sketchInvLnGamma))
}

// sketchRep returns bucket i's representative value (positive magnitude).
func sketchRep(i int) float64 {
	return math.Exp(float64(i)*sketchLnGamma) * sketchRepFactor
}

// sketchStore is one sign's bucket array. counts[j] is the count of bucket
// base+j; the slice grows on demand toward either end and is collapsed by
// the owning Sketch when it exceeds the cap.
type sketchStore struct {
	counts    []int64
	base      int
	total     int64
	collapsed bool
}

// add counts one sample in bucket idx.
func (st *sketchStore) add(idx int) {
	if st.counts == nil {
		st.counts = make([]int64, 1, 64)
		st.base = idx
	}
	switch {
	case idx < st.base:
		short := st.base - idx
		need := len(st.counts) + short
		// Headroom for further prepends, bounded so repeated
		// prepend/collapse cycles cannot compound the capacity.
		grown := make([]int64, need, need+need/2)
		copy(grown[short:], st.counts)
		st.counts = grown
		st.base = idx
	case idx >= st.base+len(st.counts):
		for idx >= st.base+len(st.counts) {
			st.counts = append(st.counts, 0)
		}
	}
	st.counts[idx-st.base]++
	st.total++
}

// clampIdx folds an out-of-range index into the collapsed end of the store,
// so post-collapse observations update the boundary bucket in place instead
// of regrowing the span the collapse just reclaimed. low selects which end
// is the collapsed one (true for the positive store).
func (st *sketchStore) clampIdx(idx int, low bool) int {
	if !st.collapsed {
		return idx
	}
	if low && idx < st.base {
		return st.base
	}
	if top := st.base + len(st.counts) - 1; !low && idx > top {
		return top
	}
	return idx
}

// collapseLowest folds the buckets below the cap boundary into the boundary
// bucket (used by the positive store, where low indices are low quantiles).
func (st *sketchStore) collapseLowest(max int) {
	excess := len(st.counts) - max
	if excess <= 0 {
		return
	}
	var sum int64
	for i := 0; i <= excess; i++ {
		sum += st.counts[i]
	}
	st.counts = st.counts[excess:]
	st.counts[0] = sum
	st.base += excess
	st.collapsed = true
}

// collapseHighest folds the buckets above the cap boundary into the boundary
// bucket (used by the negative store, where high indices are large
// magnitudes — i.e. the lowest quantiles).
func (st *sketchStore) collapseHighest(max int) {
	if len(st.counts) <= max {
		return
	}
	var sum int64
	for i := max - 1; i < len(st.counts); i++ {
		sum += st.counts[i]
	}
	st.counts = st.counts[:max]
	st.counts[max-1] = sum
	st.collapsed = true
}

// Observe records one sample.
func (h *Sketch) Observe(v float64) {
	h.statsValid = false
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	if !h.spilled {
		h.exact = append(h.exact, v)
		h.sorted = false
		if len(h.exact) > sketchExactThreshold {
			h.spill()
		}
		return
	}
	h.bucketObserve(v)
}

// spill migrates the exact samples into buckets and switches modes.
func (h *Sketch) spill() {
	h.spilled = true
	for _, v := range h.exact {
		h.bucketObserve(v)
	}
	h.exact, h.sorted = nil, false
}

func (h *Sketch) bucketObserve(v float64) {
	switch {
	case v > sketchMinObservable:
		h.pos.add(h.pos.clampIdx(sketchBucketIndex(v), true))
		h.pos.collapseLowest(sketchMaxBuckets)
	case v < -sketchMinObservable:
		h.neg.add(h.neg.clampIdx(sketchBucketIndex(-v), false))
		h.neg.collapseHighest(sketchMaxBuckets)
	default:
		h.zero++
	}
}

func (h *Sketch) sortExact() {
	if !h.sorted {
		sort.Float64s(h.exact)
		h.sorted = true
		h.sorts++
	}
}

// Quantile returns the nearest-rank q-quantile (q in [0,1]), or 0 with no
// samples. Exact below the spill threshold, within sketchAlpha relative
// error above it.
func (h *Sketch) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if !h.spilled {
		h.sortExact()
		return stats.QuantileSorted(h.exact, q, stats.NearestRank)
	}
	return h.bucketQuantile(q)
}

// bucketQuantile walks the stores in ascending value order — negative
// buckets from the largest magnitude down, then zeros, then positive buckets
// up — to the nearest-rank index, and clamps the bucket representative to
// the exact [min, max].
func (h *Sketch) bucketQuantile(q float64) float64 {
	rank := int64(q*float64(h.count)) - 1
	if q <= 0 || rank < 0 {
		rank = 0
	}
	if rank >= h.count {
		rank = h.count - 1
	}
	var cum int64
	v := h.max // fallthrough value if rounding leaves rank uncovered
	found := false
	for j := len(h.neg.counts) - 1; j >= 0 && !found; j-- {
		if cum += h.neg.counts[j]; cum > rank {
			v, found = -sketchRep(h.neg.base+j), true
		}
	}
	if !found {
		if cum += h.zero; cum > rank {
			v, found = 0, true
		}
	}
	for j := 0; j < len(h.pos.counts) && !found; j++ {
		if cum += h.pos.counts[j]; cum > rank {
			v, found = sketchRep(h.pos.base+j), true
		}
	}
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// Stats summarizes the sketch. The result is cached until the next Observe,
// so repeated snapshotting neither re-sorts nor re-walks buckets.
func (h *Sketch) Stats() HistogramStats {
	if h.statsValid {
		return h.stats
	}
	st := HistogramStats{Count: int(h.count)}
	if h.count == 0 {
		h.stats, h.statsValid = st, true
		return st
	}
	st.Min, st.Max = h.min, h.max
	if !h.spilled {
		h.sortExact()
		sum := 0.0
		for _, v := range h.exact {
			sum += v
		}
		st.Mean = sum / float64(len(h.exact))
	} else {
		// Canonical bucket-order sum.
		sum := 0.0
		for j := len(h.neg.counts) - 1; j >= 0; j-- {
			if n := h.neg.counts[j]; n != 0 {
				sum -= sketchRep(h.neg.base+j) * float64(n)
			}
		}
		for j, n := range h.pos.counts {
			if n != 0 {
				sum += sketchRep(h.pos.base+j) * float64(n)
			}
		}
		st.Mean = sum / float64(h.count)
	}
	st.P50 = h.Quantile(0.50)
	st.P90 = h.Quantile(0.90)
	st.P99 = h.Quantile(0.99)
	st.P999 = h.Quantile(0.999)
	h.stats, h.statsValid = st, true
	return st
}
