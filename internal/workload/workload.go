// Package workload generates open-loop session workloads: arrival
// processes (Poisson, MMPP), heavy-tailed object sizes (bounded Pareto),
// and retry backoff schedules.
//
// Every generator owns its own rand.Rand seeded explicitly by the caller,
// never the simulation engine's RNG: arrival sequences must not shift when
// unrelated transport code consumes engine randomness, and must be
// byte-identical for any sweep worker count (exp.Config.Workers) and any
// engine sharding.
// Generators are single-goroutine objects; times passed to Next must be
// non-decreasing.
package workload

import (
	"math"
	"math/rand"

	"mpcc/internal/sim"
)

// Shape multiplies an arrival process's base intensity by a time-varying
// factor in (0, 1]. A nil Shape means constant intensity.
type Shape func(t sim.Time) float64

// Arrivals produces the strictly increasing instants of an arrival
// process. Next returns the first arrival strictly after now.
type Arrivals interface {
	Next(now sim.Time) sim.Time
}

// Poisson is a (possibly non-homogeneous) Poisson arrival process with
// peak intensity Rate arrivals/sec, modulated by an optional Shape.
// Non-homogeneous sampling uses Lewis–Shedler thinning at the peak rate.
type Poisson struct {
	rng   *rand.Rand
	rate  float64
	shape Shape
}

// NewPoisson returns a Poisson process with the given peak rate
// (arrivals per second of virtual time) and optional shape multiplier.
func NewPoisson(seed int64, ratePerSec float64, shape Shape) *Poisson {
	if ratePerSec <= 0 {
		panic("workload: Poisson rate must be positive")
	}
	return &Poisson{rng: rand.New(rand.NewSource(seed)), rate: ratePerSec, shape: shape}
}

// Next returns the next arrival instant strictly after now.
func (p *Poisson) Next(now sim.Time) sim.Time {
	t := now
	for {
		t += expInterval(p.rng, p.rate)
		if p.shape == nil || p.rng.Float64() < p.shape(t) { // a uniform draw in [0, 1) needs no clamp
			return t
		}
	}
}

// MMPPState is one phase of a Markov-modulated Poisson process: while the
// modulating chain sits in this state, arrivals occur at RatePerSec; the
// chain stays for an exponentially distributed dwell with mean MeanDwell
// before moving to the next state (cyclically).
type MMPPState struct {
	RatePerSec float64
	MeanDwell  sim.Time
}

// MMPP is a Markov-modulated Poisson process: a cyclic continuous-time
// chain over states, each with its own arrival intensity. Sampling thins a
// homogeneous process at the maximum state rate.
type MMPP struct {
	rng      *rand.Rand
	states   []MMPPState
	maxRate  float64
	cur      int
	stateEnd sim.Time // absolute time the current dwell expires
}

// NewMMPP returns an MMPP starting in state 0 at time 0.
func NewMMPP(seed int64, states []MMPPState) *MMPP {
	if len(states) == 0 {
		panic("workload: MMPP needs at least one state")
	}
	maxRate := 0.0
	for _, s := range states {
		if s.RatePerSec <= 0 || s.MeanDwell <= 0 {
			panic("workload: MMPP state rate and dwell must be positive")
		}
		if s.RatePerSec > maxRate {
			maxRate = s.RatePerSec
		}
	}
	m := &MMPP{rng: rand.New(rand.NewSource(seed)), states: states, maxRate: maxRate}
	m.stateEnd = m.dwell()
	return m
}

func (m *MMPP) dwell() sim.Time {
	d := sim.Time(m.rng.ExpFloat64() * float64(m.states[m.cur].MeanDwell))
	if d < 1 {
		d = 1
	}
	return d
}

// advanceTo walks the modulating chain forward so that t falls inside the
// current dwell. Dwell draws are consumed lazily, which keeps the sequence
// deterministic as long as queries are non-decreasing in time.
func (m *MMPP) advanceTo(t sim.Time) {
	for t >= m.stateEnd {
		m.cur = (m.cur + 1) % len(m.states)
		m.stateEnd += m.dwell()
	}
}

// rateAt returns the instantaneous intensity at time t.
func (m *MMPP) rateAt(t sim.Time) float64 {
	m.advanceTo(t)
	return m.states[m.cur].RatePerSec
}

// Next returns the next arrival instant strictly after now.
func (m *MMPP) Next(now sim.Time) sim.Time {
	t := now
	for {
		t += expInterval(m.rng, m.maxRate)
		if m.rng.Float64() < m.rateAt(t)/m.maxRate {
			return t
		}
	}
}

// BoundedPareto is a Pareto(α) size distribution truncated to [Min, Max]
// bytes — the standard heavy-tailed object-size model (α slightly above 1
// gives CDN-like "mostly small objects, bytes dominated by large ones").
type BoundedPareto struct {
	Alpha    float64
	Min, Max float64
}

// Sample draws one size via the inverse CDF.
func (bp BoundedPareto) Sample(rng *rand.Rand) float64 {
	if bp.Alpha <= 0 || bp.Min <= 0 || bp.Max <= bp.Min {
		panic("workload: BoundedPareto requires Alpha > 0 and 0 < Min < Max")
	}
	u := rng.Float64()
	la := math.Pow(bp.Min, -bp.Alpha)
	ha := math.Pow(bp.Max, -bp.Alpha)
	return math.Pow(u*ha+(1-u)*la, -1/bp.Alpha)
}

// Mean returns the expected size in bytes (Alpha must not equal 1).
func (bp BoundedPareto) Mean() float64 {
	a, l, h := bp.Alpha, bp.Min, bp.Max
	if a == 1 {
		return l * h / (h - l) * math.Log(h/l)
	}
	norm := 1 - math.Pow(l/h, a)
	return a * math.Pow(l, a) / norm * (math.Pow(h, 1-a) - math.Pow(l, 1-a)) / (1 - a)
}

// Backoff is a capped exponential retry schedule with multiplicative
// jitter: attempt n (0-based) waits min(Cap, Base·2ⁿ) scaled by a uniform
// factor in [0.5, 1.0) drawn from the caller's RNG — deterministic for a
// fixed seed, desynchronized across clients.
type Backoff struct {
	Base, Cap sim.Time
}

// Delay returns the wait before retry attempt n (0-based).
func (b Backoff) Delay(rng *rand.Rand, attempt int) sim.Time {
	d := b.Base
	for i := 0; i < attempt && d < b.Cap; i++ {
		d *= 2
	}
	if b.Cap > 0 && d > b.Cap {
		d = b.Cap
	}
	return sim.Time(float64(d) * (0.5 + 0.5*rng.Float64()))
}

// expInterval draws an exponential interarrival at the given rate/sec,
// floored at 1ns so arrival instants strictly increase.
func expInterval(rng *rand.Rand, ratePerSec float64) sim.Time {
	d := sim.Time(rng.ExpFloat64() / ratePerSec * float64(sim.Second))
	if d < 1 {
		d = 1
	}
	return d
}
