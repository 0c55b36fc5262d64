package stats

import "mpcc/internal/sim"

// Series is a time-bucketed accumulator for throughput-style measurements:
// values added at virtual times are summed into fixed-width buckets, from
// which per-bucket rates can be derived. The zero value is not usable; build
// one with NewSeries, or Reset it.
//
// Only the buckets from the first one written are stored (buckets[0] is
// bucket number base), so a series first written late in a run costs one
// allocation, not one per elapsed bucket; the leading empty buckets are still
// reported, as zeros.
type Series struct {
	bucket  sim.Time
	start   sim.Time
	base    int
	buckets []float64
}

// NewSeries returns a series whose buckets are width wide, starting at time
// start.
func NewSeries(start, width sim.Time) *Series {
	s := &Series{}
	s.Reset(start, width)
	return s
}

// Reset empties the series and restarts it at start with buckets width wide.
// It keeps the bucket storage of a series used before, so that a recycled
// owner's series costs no allocation; a new one gets room for a short-lived
// owner's whole life (most churn sessions at 100 ms buckets) in one.
func (s *Series) Reset(start, width sim.Time) {
	if width <= 0 {
		panic("stats: series bucket width must be positive")
	}
	*s = Series{bucket: width, start: start, buckets: s.buckets[:0]}
	if cap(s.buckets) == 0 {
		s.buckets = make([]float64, 0, 32)
	}
}

// Add accumulates v into the bucket containing time at. Times before the
// series start are ignored.
func (s *Series) Add(at sim.Time, v float64) {
	if at < s.start {
		return
	}
	idx := int((at - s.start) / s.bucket)
	switch {
	case len(s.buckets) == 0:
		s.base = idx // first write
	case idx < s.base:
		// Out-of-order first writes: re-base on the earlier bucket.
		s.buckets = append(make([]float64, s.base-idx), s.buckets...)
		s.base = idx
	}
	for len(s.buckets) <= idx-s.base {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[idx-s.base] += v
}

// BucketWidth returns the bucket width.
func (s *Series) BucketWidth() sim.Time { return s.bucket }

// Len returns the number of buckets touched so far.
func (s *Series) Len() int {
	if len(s.buckets) == 0 {
		return 0
	}
	return s.base + len(s.buckets)
}

// Sum returns the total accumulated value.
func (s *Series) Sum() float64 {
	t := 0.0
	for _, v := range s.buckets {
		t += v
	}
	return t
}

// SumSince returns the total accumulated at or after time from.
func (s *Series) SumSince(from sim.Time) float64 {
	t := 0.0
	for i, v := range s.buckets {
		if s.start+sim.Time(s.base+i)*s.bucket >= from {
			t += v
		}
	}
	return t
}

// Rates returns per-bucket rates (value per second), one entry per bucket.
func (s *Series) Rates() []float64 {
	out := make([]float64, s.Len())
	secs := s.bucket.Seconds()
	for i, v := range s.buckets {
		out[s.base+i] = v / secs
	}
	return out
}

// RatesSince returns per-bucket rates for buckets starting at or after from.
func (s *Series) RatesSince(from sim.Time) []float64 {
	var out []float64
	secs := s.bucket.Seconds()
	for i, n := 0, s.Len(); i < n; i++ {
		if s.start+sim.Time(i)*s.bucket >= from {
			v := 0.0
			if i >= s.base {
				v = s.buckets[i-s.base]
			}
			out = append(out, v/secs)
		}
	}
	return out
}

// MeanRate returns the average rate (value per second) between the series
// start and end.
func (s *Series) MeanRate(end sim.Time) float64 {
	dur := (end - s.start).Seconds()
	if dur <= 0 {
		return 0
	}
	return s.Sum() / dur
}

// MeanRateSince returns the average rate between from and end, counting only
// buckets at or after from.
func (s *Series) MeanRateSince(from, end sim.Time) float64 {
	if from < s.start {
		from = s.start
	}
	dur := (end - from).Seconds()
	if dur <= 0 {
		return 0
	}
	return s.SumSince(from) / dur
}

// WindowedFilter tracks the extremum of a value over a sliding window of
// virtual time, as used by BBR for max-bandwidth and min-RTT estimation.
// The zero value is not usable; build one with NewWindowedMax or
// NewWindowedMin.
type WindowedFilter struct {
	window  sim.Time
	wantMax bool
	samples []windowSample
}

type windowSample struct {
	at sim.Time
	v  float64
}

// NewWindowedMax returns a filter tracking the maximum over the window.
func NewWindowedMax(window sim.Time) *WindowedFilter {
	return &WindowedFilter{window: window, wantMax: true}
}

// NewWindowedMin returns a filter tracking the minimum over the window.
func NewWindowedMin(window sim.Time) *WindowedFilter {
	return &WindowedFilter{window: window}
}

// Update inserts a sample observed at the given time. Samples must be
// inserted in non-decreasing time order.
func (w *WindowedFilter) Update(at sim.Time, v float64) {
	// Drop samples dominated by the new one (monotonic deque).
	for len(w.samples) > 0 {
		last := w.samples[len(w.samples)-1]
		if (w.wantMax && last.v <= v) || (!w.wantMax && last.v >= v) {
			w.samples = w.samples[:len(w.samples)-1]
			continue
		}
		break
	}
	w.samples = append(w.samples, windowSample{at, v})
	w.expire(at)
}

func (w *WindowedFilter) expire(now sim.Time) {
	cut := now - w.window
	i := 0
	for i < len(w.samples)-1 && w.samples[i].at < cut {
		i++
	}
	if i > 0 {
		w.samples = append(w.samples[:0], w.samples[i:]...)
	}
}

// Get returns the current windowed extremum as of time now, or def if no
// samples remain.
func (w *WindowedFilter) Get(now sim.Time, def float64) float64 {
	w.expire(now)
	if len(w.samples) == 0 {
		return def
	}
	return w.samples[0].v
}

// Empty reports whether the filter holds no samples.
func (w *WindowedFilter) Empty() bool { return len(w.samples) == 0 }
