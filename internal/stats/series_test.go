package stats

import (
	"slices"
	"testing"

	"mpcc/internal/sim"
)

func TestSeriesBucketing(t *testing.T) {
	s := NewSeries(0, sim.Second)
	s.Add(100*sim.Millisecond, 10)
	s.Add(900*sim.Millisecond, 5)
	s.Add(1500*sim.Millisecond, 7)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	rates := s.Rates()
	if rates[0] != 15 || rates[1] != 7 {
		t.Fatalf("rates = %v", rates)
	}
	if s.SumSince(0) != 22 {
		t.Fatalf("SumSince(0) = %v", s.SumSince(0))
	}
}

func TestSeriesIgnoresBeforeStart(t *testing.T) {
	s := NewSeries(10*sim.Second, sim.Second)
	s.Add(5*sim.Second, 99)
	s.Add(10*sim.Second, 1)
	if s.SumSince(0) != 1 {
		t.Fatalf("SumSince(0) = %v, want 1", s.SumSince(0))
	}
}

func TestSeriesMeanRate(t *testing.T) {
	s := NewSeries(0, sim.Second)
	for i := 0; i < 10; i++ {
		s.Add(sim.Time(i)*sim.Second, 100)
	}
	if got := s.MeanRateSince(0, 10*sim.Second); got != 100 {
		t.Fatalf("MeanRateSince(0, 10s) = %v, want 100", got)
	}
	// Skip the first 5 seconds (warmup omission like the paper's first 30s).
	if got := s.MeanRateSince(5*sim.Second, 10*sim.Second); got != 100 {
		t.Fatalf("MeanRateSince = %v, want 100", got)
	}
	if got := s.MeanRateSince(0, 0); got != 0 {
		t.Fatalf("zero-duration MeanRateSince = %v, want 0", got)
	}
}

func TestSeriesSumSinceAndRatesSince(t *testing.T) {
	s := NewSeries(0, sim.Second)
	s.Add(0, 1)
	s.Add(sim.Second, 2)
	s.Add(2*sim.Second, 4)
	if got := s.SumSince(sim.Second); got != 6 {
		t.Fatalf("SumSince = %v, want 6", got)
	}
	// Bucket i starts at i·width, so the rates since 1 s are Rates()[1:].
	if rs := s.Rates()[1:]; len(rs) != 2 || rs[0] != 2 || rs[1] != 4 {
		t.Fatalf("rates since 1s = %v", rs)
	}
}

// TestSeriesLateStart: a series first written late in a run stores only the
// buckets from there on, yet reports exactly what a series grown one zero
// bucket at a time from bucket 0 would (the dense slices below).
func TestSeriesLateStart(t *testing.T) {
	type add struct {
		at sim.Time
		v  float64
	}
	const w = 100 * sim.Millisecond
	cases := []struct {
		name  string
		start sim.Time
		adds  []add
	}{
		{"empty", 0, nil},
		{"first write at bucket 150", 0, []add{{15 * sim.Second, 3}, {15*sim.Second + 50*sim.Millisecond, 4}, {15*sim.Second + 250*sim.Millisecond, 5}}},
		{"sparse after a late start", 0, []add{{15 * sim.Second, 1}, {17 * sim.Second, 2}}},
		{"earlier write after a later one re-bases", 0, []add{{15 * sim.Second, 1}, {10 * sim.Second, 2}, {15 * sim.Second, 4}}},
		{"nonzero start", 2 * sim.Second, []add{{1 * sim.Second, 99}, {17 * sim.Second, 6}}},
	}
	for _, tc := range cases {
		s := NewSeries(tc.start, w)
		var dense []float64
		for _, a := range tc.adds {
			s.Add(a.at, a.v)
			if a.at < tc.start {
				continue
			}
			idx := int((a.at - tc.start) / w)
			for len(dense) <= idx {
				dense = append(dense, 0)
			}
			dense[idx] += a.v
		}
		if s.Len() != len(dense) {
			t.Fatalf("%s: Len = %d, want %d", tc.name, s.Len(), len(dense))
		}
		rates := s.Rates()
		for i, v := range dense {
			if rates[i] != v/w.Seconds() {
				t.Fatalf("%s: Rates[%d] = %v, want %v", tc.name, i, rates[i], v/w.Seconds())
			}
		}
		for _, from := range []sim.Time{0, 5 * sim.Second, 15 * sim.Second, 15*sim.Second + 1, 16 * sim.Second, 30 * sim.Second} {
			var sum float64
			for i, v := range dense {
				if tc.start+sim.Time(i)*w >= from {
					sum += v
				}
			}
			if got := s.SumSince(from); got != sum {
				t.Fatalf("%s: SumSince(%v) = %v, want %v", tc.name, from, got, sum)
			}
			end := 20 * sim.Second
			lo := from
			if lo < tc.start {
				lo = tc.start
			}
			want := 0.0
			if end > lo {
				want = s.SumSince(lo) / (end - lo).Seconds()
			}
			if got := s.MeanRateSince(from, end); got != want {
				t.Fatalf("%s: MeanRateSince(%v) = %v, want %v", tc.name, from, got, want)
			}
		}
	}
	// The point of the base offset: the late first write is one allocation
	// however many buckets precede it.
	if n := testing.AllocsPerRun(20, func() {
		s := NewSeries(0, w)
		s.Add(15*sim.Second, 1)
		s.Add(15*sim.Second+900*sim.Millisecond, 1)
	}); n > 1 {
		t.Fatalf("late-start series cost %.0f allocations, want 1", n)
	}
}

// TestSeriesResetKeepsStorage: a reset series reads exactly like a new one
// — no bucket of the previous life leaks, the start and width are the new
// ones — while its writes reuse the old storage.
func TestSeriesResetKeepsStorage(t *testing.T) {
	var s Series
	s.Reset(0, sim.Second)
	for at := sim.Time(0); at < 40*sim.Second; at += 250 * sim.Millisecond {
		s.Add(at, 3)
	}
	fill := func(s *Series) {
		s.Add(12*sim.Second, 1)
		s.Add(14*sim.Second+sim.Millisecond, 2)
	}
	if n := testing.AllocsPerRun(20, func() {
		s.Reset(10*sim.Second, 2*sim.Second)
		fill(&s)
	}); n != 0 {
		t.Fatalf("reset series allocated %.0f times, want 0", n)
	}
	fresh := NewSeries(10*sim.Second, 2*sim.Second)
	fill(fresh)
	if !slices.Equal(s.Rates(), fresh.Rates()) || s.SumSince(0) != fresh.SumSince(0) || s.Len() != fresh.Len() ||
		s.BucketWidth() != fresh.BucketWidth() || s.MeanRateSince(0, 20*sim.Second) != fresh.MeanRateSince(0, 20*sim.Second) {
		t.Fatalf("reset series reads %v (sum %v), a new one %v (sum %v)", s.Rates(), s.SumSince(0), fresh.Rates(), fresh.SumSince(0))
	}
}

// TestSeriesBuckets pins the per-bucket reads (sum, count, mean), Merge and
// Clone that the metrics registry, the timeline dump and mpcctrace read.
// want lists every bucket from bucket 0.
func TestSeriesBuckets(t *testing.T) {
	const w, ms = 100 * sim.Millisecond, sim.Millisecond
	type add struct {
		at sim.Time
		v  float64
	}
	of := func(adds ...add) *Series {
		s := NewSeries(0, w)
		for _, a := range adds {
			s.Add(a.at, a.v)
		}
		return s
	}
	cases := []struct {
		name   string
		series func() *Series
		want   []Bucket
	}{{
		name:   "empty",
		series: func() *Series { return of() },
	}, {
		name:   "a late first write reads leading empty buckets",
		series: func() *Series { return of(add{350 * ms, 4}, add{390 * ms, 2}) },
		want:   []Bucket{{}, {}, {}, {6, 2}},
	}, {
		name:   "an empty bucket inside the span has no mean",
		series: func() *Series { return of(add{0, 1}, add{250 * ms, 3}, add{299 * ms, -1}) },
		want:   []Bucket{{1, 1}, {}, {2, 2}},
	}, {
		name: "merge extends the shorter series and adds element-wise",
		series: func() *Series {
			s := of(add{10 * ms, 1}, add{110 * ms, 2})
			s.Merge(of(add{150 * ms, 3}, add{420 * ms, 5}))
			return s
		},
		want: []Bucket{{1, 1}, {5, 2}, {}, {}, {5, 1}},
	}, {
		name: "merge of an earlier series re-bases a late one",
		series: func() *Series {
			s := of(add{420 * ms, 5})
			s.Merge(of(add{10 * ms, 1}, add{420 * ms, 2}))
			return s
		},
		want: []Bucket{{1, 1}, {}, {}, {}, {7, 2}},
	}, {
		name: "merge into an empty series copies",
		series: func() *Series {
			s := of()
			s.Merge(of(add{210 * ms, 8}))
			s.Merge(of())
			return s
		},
		want: []Bucket{{}, {}, {8, 1}},
	}, {
		name:   "SeriesOf keeps trailing empty buckets",
		series: func() *Series { return SeriesOf(w, []Bucket{{2, 1}, {}, {}}) },
		want:   []Bucket{{2, 1}, {}, {}},
	}}
	check := func(what string, s *Series, want []Bucket) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", what, s.Len(), len(want))
		}
		for i, b := range append(want, Bucket{}) { // one past the end reads empty
			if got := s.Bucket(i); got != b {
				t.Fatalf("%s: bucket %d = %+v, want %+v", what, i, got, b)
			}
			m, ok := s.Mean(i)
			if ok != (b.Count > 0) || ok && m != b.Sum/float64(b.Count) {
				t.Fatalf("%s: bucket %d mean = %v (ok=%v), want the mean of %+v", what, i, m, ok, b)
			}
		}
	}
	for _, tc := range cases {
		s := tc.series()
		check(tc.name, s, tc.want)
		// Clone shares no storage: writes to the clone, inside and past the
		// span, leave the original as it was.
		c := s.Clone()
		check(tc.name+" (clone)", c, tc.want)
		c.Add(0, 100)
		c.Add(sim.Time(len(tc.want))*w, 7)
		check(tc.name+" (after writing its clone)", s, tc.want)
	}
}

func TestSeriesPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero width")
		}
	}()
	NewSeries(0, 0)
}

func TestWindowedMax(t *testing.T) {
	w := NewWindowedMax(10 * sim.Second)
	w.Update(0, 5)
	w.Update(1*sim.Second, 3)
	w.Update(2*sim.Second, 8)
	if got := w.Get(2*sim.Second, 0); got != 8 {
		t.Fatalf("max = %v, want 8", got)
	}
	w.Update(3*sim.Second, 2)
	if got := w.Get(3*sim.Second, 0); got != 8 {
		t.Fatalf("max = %v, want 8", got)
	}
	// After the 8 expires, the later 2 remains.
	if got := w.Get(14*sim.Second, 0); got != 2 {
		t.Fatalf("max after expiry = %v, want 2", got)
	}
}

func TestWindowedMin(t *testing.T) {
	w := NewWindowedMin(5 * sim.Second)
	w.Update(0, 30)
	w.Update(sim.Second, 25)
	w.Update(2*sim.Second, 40)
	if got := w.Get(2*sim.Second, 0); got != 25 {
		t.Fatalf("min = %v, want 25", got)
	}
	if got := w.Get(8*sim.Second, 0); got != 40 {
		t.Fatalf("min after expiry = %v, want 40", got)
	}
}

func TestWindowedFilterDefault(t *testing.T) {
	w := NewWindowedMin(sim.Second)
	if got := w.Get(0, 123); got != 123 {
		t.Fatalf("empty filter should return default, got %v", got)
	}
}

func TestWindowedFilterKeepsLastSample(t *testing.T) {
	// Even if the only sample is older than the window, Get returns it:
	// the deque never expires its final element so a quiet source still has
	// an estimate.
	w := NewWindowedMax(sim.Second)
	w.Update(0, 7)
	if got := w.Get(100*sim.Second, 0); got != 7 {
		t.Fatalf("last sample should persist, got %v", got)
	}
}
