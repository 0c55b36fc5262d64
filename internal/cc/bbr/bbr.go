// Package bbr implements a simplified BBR (Cardwell et al. 2016) as a
// rate-based controller: it models the path as a single bottleneck, tracks
// the windowed-max delivery rate and windowed-min RTT, and paces at a gain
// times the bandwidth estimate through the STARTUP / DRAIN / PROBE_BW /
// PROBE_RTT state machine. The inflight cap of 2×BDP is exposed through
// cc.InflightCapper.
//
// It serves as the "bbr" per-subflow baseline of the paper's evaluation and
// as the rate-based protocol in the §6 scheduler validation experiment.
package bbr

import (
	"mpcc/internal/cc"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/stats"
)

// BBR constants from the reference implementation.
const (
	highGain      = 2.885 // 2/ln(2): fills the pipe in log2(BDP) rounds
	drainGain     = 1 / highGain
	cycleLen      = 8
	bwWindowMIs   = 10              // bandwidth filter window, in MIs (≈RTTs)
	rtWindow      = 10 * sim.Second // min-RTT filter window
	probeRTTEvery = 10 * sim.Second // how often PROBE_RTT is entered
	probeRTTDur   = 200 * sim.Millisecond
)

var pacingGainCycle = [cycleLen]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

type mode int

const (
	modeStartup mode = iota
	modeDrain
	modeProbeBW
	modeProbeRTT
)

func (m mode) String() string {
	return [...]string{"startup", "drain", "probe_bw", "probe_rtt"}[m]
}

// Controller implements cc.RateController and cc.InflightCapper.
type Controller struct {
	initialRate float64

	maxBw  *stats.WindowedFilter // bits/s, windowed over miCount
	minRTT *stats.WindowedFilter // seconds

	miCount int
	mode    mode

	// startup plateau detection
	fullBwCount int
	fullBw      float64

	cycleIdx     int
	lastProbeRTT sim.Time
	probeRTTEnd  sim.Time

	probes *obs.Bus
	flow   string
	sf     int
}

// New returns a BBR controller with the given initial pacing rate in bits/s.
func New(initialRateBps float64) *Controller {
	return &Controller{
		initialRate: initialRateBps,
		maxBw:       stats.NewWindowedMax(sim.Time(bwWindowMIs)), // keyed by MI index
		minRTT:      stats.NewWindowedMin(rtWindow),
		mode:        modeStartup,
	}
}

// bwEstimate returns the current bottleneck bandwidth estimate in bits/s.
func (c *Controller) bwEstimate() float64 {
	return c.maxBw.Get(sim.Time(c.miCount), c.initialRate)
}

// rtEstimate returns the current min-RTT estimate.
func (c *Controller) rtEstimate(now sim.Time, fallback sim.Time) sim.Time {
	s := c.minRTT.Get(now, fallback.Seconds())
	if s <= 0 {
		return fallback
	}
	return sim.FromSeconds(s)
}

// SetProbes attaches the observability bus; each MI's rate decision is
// emitted with the state-machine mode as its phase, tagged with flow and sf.
// Implements cc.ProbeSetter.
func (c *Controller) SetProbes(b *obs.Bus, flow string, sf int) {
	c.probes, c.flow, c.sf = b, flow, sf
}

// NextRate implements cc.RateController.
func (c *Controller) NextRate(now, srtt sim.Time) float64 {
	r := c.nextRate(now, srtt)
	c.probes.MIDecision(now, c.flow, c.sf, c.mode.String(), r)
	return r
}

func (c *Controller) nextRate(now, srtt sim.Time) float64 {
	bw := c.bwEstimate()
	switch c.mode {
	case modeStartup:
		return highGain * bw
	case modeDrain:
		return drainGain * bw
	case modeProbeRTT:
		if now >= c.probeRTTEnd {
			c.mode = modeProbeBW
			c.cycleIdx = 0
			return bw
		}
		// Minimal rate: roughly 4 packets per RTT.
		rt := c.rtEstimate(now, srtt)
		if rt <= 0 {
			rt = 10 * sim.Millisecond
		}
		return 4 * 1500 * 8 / rt.Seconds()
	default: // modeProbeBW
		if c.lastProbeRTT > 0 && now-c.lastProbeRTT > probeRTTEvery {
			c.mode = modeProbeRTT
			c.lastProbeRTT = now
			c.probeRTTEnd = now + probeRTTDur
			rt := c.rtEstimate(now, srtt)
			if rt <= 0 {
				rt = 10 * sim.Millisecond
			}
			return 4 * 1500 * 8 / rt.Seconds()
		}
		g := pacingGainCycle[c.cycleIdx]
		c.cycleIdx = (c.cycleIdx + 1) % cycleLen
		return g * bw
	}
}

// OnMIComplete implements cc.RateController: it feeds the bandwidth and RTT
// filters and drives the startup-plateau detection.
func (c *Controller) OnMIComplete(st cc.MIStats) {
	if st.Ignore {
		return
	}
	c.miCount++
	if st.Goodput > 0 {
		c.maxBw.Update(sim.Time(c.miCount), st.Goodput)
	}
	if st.MinRTT > 0 {
		c.minRTT.Update(st.End, st.MinRTT.Seconds())
	}
	if c.lastProbeRTT == 0 {
		c.lastProbeRTT = st.End
	}
	if st.Goodput <= 0 {
		// Nothing was delivered in this MI (ACKs still in flight right
		// after start); it carries no bandwidth information, so it must not
		// drive the startup plateau detector.
		return
	}
	if c.mode == modeStartup {
		bw := c.bwEstimate()
		if bw >= 1.25*c.fullBw {
			c.fullBw = bw
			c.fullBwCount = 0
		} else {
			c.fullBwCount++
			// Reference BBR uses 3 rounds; our MI statistics arrive about
			// one MI late, so several same-rate MIs complete per doubling.
			// 6 keeps startup exponential while still detecting a plateau
			// within ~6 RTTs of saturation.
			if c.fullBwCount >= 6 {
				c.mode = modeDrain
			}
		}
	} else if c.mode == modeDrain {
		// One MI of draining is enough at MI ≈ RTT granularity.
		c.mode = modeProbeBW
		c.cycleIdx = 0
	}
}

// InflightCapBytes implements cc.InflightCapper: 2×BDP.
func (c *Controller) InflightCapBytes(now, srtt sim.Time) float64 {
	rt := c.rtEstimate(now, srtt)
	if rt <= 0 {
		rt = srtt
	}
	if rt <= 0 {
		return 1e12
	}
	bdp := c.bwEstimate() * rt.Seconds() / 8
	cap := 2 * bdp
	if cap < 4*1500 {
		cap = 4 * 1500
	}
	return cap
}
