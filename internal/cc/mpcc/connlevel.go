package mpcc

import (
	"math"

	"mpcc/internal/cc"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// ConnLevel is the paper's first, failed design (§4): a single gradient-
// ascent learner over the connection-level utility of Eq. 1 that probes the
// per-subflow rate vector one coordinate at a time, in trials synchronized
// to the slowest subflow's RTT. It exhibits exactly the paper's three
// obstacles — noisy multidimensional gradient estimation, reaction at the
// slowest-RTT timescale, and "wrong reaction" through the shared worst-case
// penalty — and exists for the ablation benchmarks.
type ConnLevel struct {
	cfg Config
	d   int

	rates  []float64
	adapts []*connSubflow

	maxSRTT  sim.Time
	trialEnd sim.Time
	started  bool

	// per-trial accumulators, per subflow
	sent, lost []float64
	gradSum    []float64 // RTT-gradient · bytes, for a weighted average
	sampled    []bool
	scratch    []float64 // closeTrial's per-subflow rate/loss/gradient vectors

	phase      int // 0 = starting, 1 = probing
	probeSub   int // coordinate under probe
	probeStage int // 0 = +ω trial, 1 = −ω trial
	probeOmega float64
	uHi        float64
	prevU      float64
	havePrev   bool

	probes *obs.Bus
	flow   string
}

// NewConnLevel returns a connection-level controller for d subflows.
func NewConnLevel(cfg Config, d int) *ConnLevel {
	if !cfg.Params.Valid() {
		panic("mpcc: invalid utility parameters")
	}
	cl := &ConnLevel{
		cfg:     cfg,
		d:       d,
		rates:   make([]float64, d),
		sent:    make([]float64, d),
		lost:    make([]float64, d),
		gradSum: make([]float64, d),
		sampled: make([]bool, d),
		scratch: make([]float64, 3*d),
	}
	for i := range cl.rates {
		cl.rates[i] = cfg.InitialRateBps
	}
	for i := 0; i < d; i++ {
		cl.adapts = append(cl.adapts, &connSubflow{cl: cl, idx: i})
	}
	return cl
}

// Subflow returns the cc.RateController adapter for subflow i.
func (cl *ConnLevel) Subflow(i int) cc.RateController { return cl.adapts[i] }

// SetProbes attaches the observability bus. Implements cc.ProbeSetter.
// Per-subflow MI decisions carry the subflow index; the connection-level
// trial utility is emitted with Subflow = -1 (it is not attributable to one
// subflow — that is the point of the ablation).
func (cl *ConnLevel) SetProbes(b *obs.Bus, flow string) { cl.probes, cl.flow = b, flow }

func (cl *ConnLevel) phaseName() string {
	if cl.phase == 0 {
		return "starting"
	}
	return "probing"
}

// rateFor returns subflow i's rate for the current trial.
func (cl *ConnLevel) rateFor(i int) float64 {
	r := cl.rates[i]
	if cl.phase == 1 && i == cl.probeSub {
		if cl.probeStage == 0 {
			r += cl.probeOmega
		} else {
			r -= cl.probeOmega
		}
	}
	return math.Max(r, MinRateBps)
}

func (cl *ConnLevel) observeSRTT(srtt sim.Time) {
	if srtt > cl.maxSRTT {
		cl.maxSRTT = srtt
	}
}

// absorb accumulates one subflow MI into the current trial and closes the
// trial when its window has elapsed and every subflow reported.
func (cl *ConnLevel) absorb(i int, st cc.MIStats) {
	if !cl.started {
		cl.started = true
		cl.newTrial(st.End)
		// Trials start with the first statistics; this MI seeds them.
	}
	if st.Ignore {
		return
	}
	cl.sent[i] += float64(st.BytesSent)
	cl.lost[i] += float64(st.BytesLost)
	cl.gradSum[i] += st.RTTGradient * float64(st.BytesSent)
	cl.sampled[i] = true
	if st.End < cl.trialEnd {
		return
	}
	for _, ok := range cl.sampled {
		if !ok {
			return // the trial extends until every subflow reported (obstacle II)
		}
	}
	cl.closeTrial(st.End)
}

func (cl *ConnLevel) newTrial(now sim.Time) {
	dur := 2 * cl.maxSRTT
	if dur < 20*sim.Millisecond {
		dur = 20 * sim.Millisecond
	}
	cl.trialEnd = now + dur
	for i := 0; i < cl.d; i++ {
		cl.sent[i], cl.lost[i], cl.gradSum[i] = 0, 0, 0
		cl.sampled[i] = false
	}
}

func (cl *ConnLevel) closeTrial(now sim.Time) {
	// Evaluate Eq. 1 on the trial's aggregates.
	d := cl.d
	ratesMbps, loss, grad := cl.scratch[:d:d], cl.scratch[d:2*d:2*d], cl.scratch[2*d:]
	for i := 0; i < d; i++ {
		ratesMbps[i] = cl.rateFor(i) / 1e6
		loss[i], grad[i] = 0, 0
		if cl.sent[i] > 0 {
			loss[i] = cl.lost[i] / cl.sent[i]
			grad[i] = cl.gradSum[i] / cl.sent[i]
		}
	}
	u := cl.cfg.Params.ConnUtility(ratesMbps, loss, grad)
	if cl.probes != nil {
		total := 0.0
		for _, r := range ratesMbps {
			total += r * 1e6
		}
		cl.probes.UtilitySample(now, cl.flow, -1, cl.phaseName(), total, u)
	}

	switch cl.phase {
	case 0: // starting: double everything until the first decrease
		if cl.havePrev && u < cl.prevU {
			for i := range cl.rates {
				cl.rates[i] /= 2
			}
			cl.enterProbe()
		} else {
			cl.prevU = u
			cl.havePrev = true
			for i := range cl.rates {
				cl.rates[i] = math.Min(cl.rates[i]*2, MaxRateBps)
			}
		}
	case 1:
		if cl.probeStage == 0 {
			cl.uHi = u
			cl.probeStage = 1
		} else {
			total := 0.0
			for _, r := range cl.rates {
				total += r
			}
			g := (cl.uHi - u) / (2 * cl.probeOmega / 1e6)
			step := math.Min(stepConv*math.Abs(g), boundFrac*total/1e6) * 1e6
			if step < minProbeBps {
				step = minProbeBps
			}
			if g > 0 {
				cl.rates[cl.probeSub] += step
			} else if g < 0 {
				cl.rates[cl.probeSub] -= step
			}
			cl.rates[cl.probeSub] = math.Min(math.Max(cl.rates[cl.probeSub], MinRateBps), MaxRateBps)
			// Next coordinate (sequential probing: obstacle I).
			cl.probeSub = (cl.probeSub + 1) % cl.d
			cl.enterProbe()
		}
	}
	cl.newTrial(now)
}

func (cl *ConnLevel) enterProbe() {
	cl.phase = 1
	cl.probeStage = 0
	total := 0.0
	for _, r := range cl.rates {
		total += r
	}
	cl.probeOmega = math.Max(minProbeBps, probeFrac*total)
}

// connSubflow adapts one subflow of a ConnLevel to cc.RateController.
type connSubflow struct {
	cl  *ConnLevel
	idx int
}

// NextRate implements cc.RateController.
func (a *connSubflow) NextRate(now, srtt sim.Time) float64 {
	a.cl.observeSRTT(srtt)
	r := a.cl.rateFor(a.idx)
	a.cl.probes.MIDecision(now, a.cl.flow, a.idx, a.cl.phaseName(), r)
	return r
}

// OnMIComplete implements cc.RateController.
func (a *connSubflow) OnMIComplete(st cc.MIStats) { a.cl.absorb(a.idx, st) }
