package stats

import (
	"slices"

	"mpcc/internal/sim"
)

// DefaultBucket is the bucket width of the repository's time series: the
// goodput and latency series of connections and subflows (and so the
// FlowResult series the figures index by bucket), the metrics registry's
// windowed series, and the default of `mpcctrace csv -bucket`.
const DefaultBucket = 100 * sim.Millisecond

// Bucket is one bucket of a Series: the sum of the values added in it and
// how many there were.
type Bucket struct {
	Sum   float64
	Count int64
}

// Series is a time-bucketed accumulator: values added at virtual times are
// summed and counted in fixed-width buckets, from which per-bucket rates
// (throughput) or means (levels such as RTTs and queue depths) are read. The
// zero value is not usable; build one with NewSeries, or Reset it.
//
// Only the buckets from the first one written are stored (buckets[0] is
// bucket number base), so a series first written late in a run costs one
// allocation, not one per elapsed bucket; the leading empty buckets are still
// reported, as zeros.
type Series struct {
	width   sim.Time
	start   sim.Time
	base    int
	buckets []Bucket
}

// NewSeries returns a series whose buckets are width wide, starting at time
// start.
func NewSeries(start, width sim.Time) *Series {
	s := &Series{}
	s.Reset(start, width)
	return s
}

// SeriesOf returns a series starting at 0 whose buckets are b: bucket i is
// b[i], and Len is len(b) even when the last buckets are empty. It keeps b,
// so it rebuilds a series from its stored form, and later writes fill b's
// spare capacity before they allocate: an owner that knows how long it
// records passes an empty b with room for all of it.
func SeriesOf(width sim.Time, b []Bucket) *Series {
	s := NewSeries(0, width)
	s.buckets = b
	return s
}

// Reset empties the series and restarts it at start with buckets width wide.
// It keeps the bucket storage of a series used before, so that a recycled
// owner's series costs no allocation.
func (s *Series) Reset(start, width sim.Time) {
	if width <= 0 {
		panic("stats: series bucket width must be positive")
	}
	*s = Series{width: width, start: start, buckets: s.buckets[:0]}
}

// Add accumulates v into the bucket containing time at. Times before the
// series start are ignored.
func (s *Series) Add(at sim.Time, v float64) {
	if at < s.start {
		return
	}
	b := s.slot(int((at - s.start) / s.width))
	b.Sum += v
	b.Count++
}

// slot returns bucket idx's storage, extending the stored buckets to it (or,
// for a write before the first stored bucket, re-basing them on it).
func (s *Series) slot(idx int) *Bucket {
	switch {
	case len(s.buckets) == 0:
		s.base = idx // first write
		if cap(s.buckets) == 0 {
			// Room for a short-lived owner's whole life (most churn
			// sessions, at DefaultBucket) in one allocation.
			s.buckets = make([]Bucket, 0, 32)
		}
	case idx < s.base:
		// Out-of-order first writes: re-base on the earlier bucket.
		s.buckets = append(make([]Bucket, s.base-idx), s.buckets...)
		s.base = idx
	}
	for len(s.buckets) <= idx-s.base {
		s.buckets = append(s.buckets, Bucket{})
	}
	return &s.buckets[idx-s.base]
}

// Merge adds o into s bucket by bucket, extending s to o's span. Both series
// must share start and width.
func (s *Series) Merge(o *Series) {
	for i, b := range o.buckets {
		d := s.slot(o.base + i)
		d.Sum += b.Sum
		d.Count += b.Count
	}
}

// Clone returns a copy of s that shares no storage with it.
func (s *Series) Clone() *Series {
	c := *s
	c.buckets = slices.Clone(s.buckets)
	return &c
}

// BucketWidth returns the bucket width.
func (s *Series) BucketWidth() sim.Time { return s.width }

// Len returns the number of buckets touched so far.
func (s *Series) Len() int {
	if len(s.buckets) == 0 {
		return 0
	}
	return s.base + len(s.buckets)
}

// Bucket returns bucket i, counted from the series start; a bucket before
// the first write or past Len reads as empty.
func (s *Series) Bucket(i int) Bucket {
	if i -= s.base; i >= 0 && i < len(s.buckets) {
		return s.buckets[i]
	}
	return Bucket{}
}

// Mean returns bucket i's mean value and whether any value landed in it.
func (s *Series) Mean(i int) (float64, bool) {
	b := s.Bucket(i)
	if b.Count == 0 {
		return 0, false
	}
	return b.Sum / float64(b.Count), true
}

// SumSince returns the total accumulated at or after time from.
func (s *Series) SumSince(from sim.Time) float64 {
	t := 0.0
	for i, b := range s.buckets {
		if s.start+sim.Time(s.base+i)*s.width >= from {
			t += b.Sum
		}
	}
	return t
}

// Rates returns per-bucket rates (value per second), one entry per bucket.
func (s *Series) Rates() []float64 {
	out := make([]float64, s.Len())
	secs := s.width.Seconds()
	for i, b := range s.buckets {
		out[s.base+i] = b.Sum / secs
	}
	return out
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
