package workload

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mpcc/internal/sim"
)

// TestPoissonInterarrivalStats checks the sample mean and coefficient of
// variation of Poisson interarrivals at a fixed seed: exponential
// interarrivals have mean 1/λ and CV 1.
func TestPoissonInterarrivalStats(t *testing.T) {
	const rate = 200.0 // arrivals/sec
	p := NewPoisson(1, rate, nil)
	const n = 50000
	var sum, sumSq float64
	prev := sim.Time(0)
	for i := 0; i < n; i++ {
		next := p.Next(prev)
		if next <= prev {
			t.Fatalf("arrival %d not strictly increasing: %d -> %d", i, prev, next)
		}
		d := (next - prev).Seconds()
		sum += d
		sumSq += d * d
		prev = next
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	cv := math.Sqrt(variance) / mean
	if math.Abs(mean-1/rate) > 0.03/rate {
		t.Errorf("interarrival mean = %.6f, want %.6f ±3%%", mean, 1/rate)
	}
	if math.Abs(cv-1) > 0.05 {
		t.Errorf("interarrival CV = %.3f, want 1 ±0.05", cv)
	}
}

// TestPoissonShapeThinning checks that a constant shape multiplier scales
// the realized rate: shape 0.25 should quarter the arrival intensity.
func TestPoissonShapeThinning(t *testing.T) {
	const rate = 400.0
	p := NewPoisson(7, rate, func(sim.Time) float64 { return 0.25 })
	const horizon = 100 * sim.Second
	count := 0
	for at := p.Next(0); at < horizon; at = p.Next(at) {
		count++
	}
	want := 0.25 * rate * horizon.Seconds()
	if math.Abs(float64(count)-want) > 0.05*want {
		t.Errorf("thinned arrivals = %d, want %.0f ±5%%", count, want)
	}
}

// TestMMPPDwellTimes drives the modulating chain directly and checks the
// per-state mean dwell matches the spec at a fixed seed.
func TestMMPPDwellTimes(t *testing.T) {
	states := []MMPPState{
		{RatePerSec: 50, MeanDwell: 200 * sim.Millisecond},
		{RatePerSec: 300, MeanDwell: 50 * sim.Millisecond},
	}
	m := NewMMPP(3, states)
	sums := make([]float64, len(states))
	counts := make([]int, len(states))
	prevEnd := sim.Time(0)
	const transitions = 40000
	for i := 0; i < transitions; i++ {
		st, end := m.cur, m.stateEnd
		sums[st] += (end - prevEnd).Seconds()
		counts[st]++
		prevEnd = end
		m.advanceTo(end) // step exactly one transition
	}
	for i, s := range states {
		mean := sums[i] / float64(counts[i])
		want := s.MeanDwell.Seconds()
		if math.Abs(mean-want) > 0.05*want {
			t.Errorf("state %d mean dwell = %.4fs, want %.4fs ±5%%", i, mean, want)
		}
	}
}

// TestMMPPRateModulation checks that arrivals during each state track that
// state's intensity, i.e. the chain actually modulates the rate.
func TestMMPPRateModulation(t *testing.T) {
	states := []MMPPState{
		{RatePerSec: 40, MeanDwell: 500 * sim.Millisecond},
		{RatePerSec: 400, MeanDwell: 500 * sim.Millisecond},
	}
	m := NewMMPP(11, states)
	// After Next accepts an arrival the chain has been advanced to that
	// instant, so m.cur is the state the arrival occurred in.
	counts := make([]float64, len(states))
	var horizon sim.Time = 400 * sim.Second
	for at := m.Next(0); at < horizon; at = m.Next(at) {
		counts[m.cur]++
	}
	// Equal mean dwells => each state active ~half the time.
	for i, s := range states {
		want := s.RatePerSec * horizon.Seconds() / 2
		if math.Abs(counts[i]-want) > 0.10*want {
			t.Errorf("state %d arrivals = %.0f, want %.0f ±10%%", i, counts[i], want)
		}
	}
}

// TestBoundedParetoTail checks support bounds, the sample mean against the
// closed form, and the tail exponent via a log-log complementary-CDF fit
// over the un-truncated region.
func TestBoundedParetoTail(t *testing.T) {
	bp := BoundedPareto{Alpha: 1.3, Min: 30e3, Max: 30e6}
	rng := rand.New(rand.NewSource(5))
	const n = 200000
	samples := make([]float64, n)
	var sum float64
	for i := range samples {
		v := bp.Sample(rng)
		if v < bp.Min || v > bp.Max {
			t.Fatalf("sample %d = %v outside [%v, %v]", i, v, bp.Min, bp.Max)
		}
		samples[i] = v
		sum += v
	}
	mean := sum / n
	want := bp.Mean()
	if math.Abs(mean-want) > 0.10*want {
		t.Errorf("sample mean = %.0f, want %.0f ±10%%", mean, want)
	}
	// Tail fit: for x << Max, P(X > x) ≈ (Min/x)^α, so
	// α ≈ -log P(X > x) / log(x/Min). Check at two decades.
	for _, x := range []float64{300e3, 3e6} {
		exceed := 0
		for _, v := range samples {
			if v > x {
				exceed++
			}
		}
		pHat := float64(exceed) / n
		alphaHat := -math.Log(pHat) / math.Log(x/bp.Min)
		if math.Abs(alphaHat-bp.Alpha) > 0.1 {
			t.Errorf("tail exponent at x=%.0f: got %.3f, want %.1f ±0.1", x, alphaHat, bp.Alpha)
		}
	}
}

// TestBackoffSchedule checks doubling, the cap, and the jitter range.
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 100 * sim.Millisecond, Cap: 800 * sim.Millisecond}
	rng := rand.New(rand.NewSource(9))
	for attempt := 0; attempt < 8; attempt++ {
		nominal := b.Base << uint(attempt)
		if nominal > b.Cap {
			nominal = b.Cap
		}
		for trial := 0; trial < 100; trial++ {
			d := b.Delay(rng, attempt)
			if d < nominal/2 || d >= nominal {
				t.Fatalf("attempt %d delay %v outside [%v, %v)", attempt, d, nominal/2, nominal)
			}
		}
	}
}

// TestDeterminismAcrossWorkers regenerates each process concurrently from
// the same seed on several goroutines and requires identical sequences —
// the property exp.RunParallel and sharding rely on.
func TestDeterminismAcrossWorkers(t *testing.T) {
	gen := func(seed int64) []sim.Time {
		ramp := func(t sim.Time) float64 { return 0.3 + 0.7*float64(t%sim.Second)/float64(sim.Second) }
		p := NewPoisson(seed, 123, ramp)
		m := NewMMPP(seed+1, []MMPPState{
			{RatePerSec: 20, MeanDwell: 100 * sim.Millisecond},
			{RatePerSec: 200, MeanDwell: 30 * sim.Millisecond},
		})
		bp := BoundedPareto{Alpha: 1.3, Min: 1e3, Max: 1e6}
		rng := rand.New(rand.NewSource(seed + 2))
		var seq []sim.Time
		pt, mt := sim.Time(0), sim.Time(0)
		for i := 0; i < 2000; i++ {
			pt = p.Next(pt)
			mt = m.Next(mt)
			seq = append(seq, pt, mt, sim.Time(bp.Sample(rng)))
		}
		return seq
	}
	const workers = 8
	out := make([][]sim.Time, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = gen(42)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(out[w]) != len(out[0]) {
			t.Fatalf("worker %d sequence length %d != %d", w, len(out[w]), len(out[0]))
		}
		for i := range out[0] {
			if out[w][i] != out[0][i] {
				t.Fatalf("worker %d diverges at %d: %d != %d", w, i, out[w][i], out[0][i])
			}
		}
	}
}
