package coupled

import (
	"math"

	"mpcc/internal/cc"
	"mpcc/internal/sim"
)

// WVegas is weighted Vegas (Cao et al. 2012): a delay-based coupled
// controller. Each subflow measures its queue backlog diff = w·(rtt −
// baseRTT)/rtt (in packets) once per RTT and steers it toward a per-subflow
// target α_r that is the connection-wide backlog budget totalAlpha split in
// proportion to the subflow's share of the aggregate rate. Subflows on less
// congested paths therefore receive larger weights, shifting traffic away
// from congestion — at the cost of the very conservative behaviour the
// paper's figures show.
type WVegas struct {
	base

	totalAlpha float64 // connection-wide backlog budget, packets

	baseRTT    sim.Time
	epochStart sim.Time
	epochRTT   sim.Time // min RTT observed in the current epoch
	haveEpoch  bool
}

// NewWVegas returns a wVegas controller registered with coupler. totalAlpha
// is the connection-wide queue-occupancy budget in packets; the reference
// implementation uses 10.
func NewWVegas(coupler *cc.Coupler, totalAlpha float64) *WVegas {
	w := &WVegas{base: newBase(coupler), totalAlpha: totalAlpha}
	w.setCwnd(2)
	return w
}

// Cwnd implements cc.WindowController.
func (c *WVegas) Cwnd() float64 { return c.cwnd }

// weight returns this subflow's share of the connection's aggregate rate.
func (c *WVegas) weight() float64 {
	sum := c.coupler.RateSum()
	if sum <= 0 || c.state.SRTT <= 0 {
		return 1 / float64(len(c.coupler.States()))
	}
	return (c.cwnd / c.state.SRTT.Seconds()) / sum
}

// OnAck implements cc.WindowController: once per RTT epoch it compares the
// measured backlog to the weighted target and adjusts the window by one
// packet, Vegas-style.
func (c *WVegas) OnAck(now, rtt sim.Time, ackedPkts float64) {
	c.observe(rtt, ackedPkts)
	if c.baseRTT == 0 || rtt < c.baseRTT {
		c.baseRTT = rtt
	}
	if !c.haveEpoch {
		c.haveEpoch = true
		c.epochStart = now
		c.epochRTT = rtt
		return
	}
	if rtt < c.epochRTT {
		c.epochRTT = rtt
	}
	srtt := c.state.SRTT
	if srtt <= 0 {
		srtt = rtt
	}
	if now-c.epochStart < srtt {
		return // adjust once per RTT
	}
	rttSec := c.epochRTT.Seconds()
	diff := c.cwnd * (rttSec - c.baseRTT.Seconds()) / rttSec
	target := c.weight() * c.totalAlpha
	switch {
	case c.inSlowStart() && diff < target:
		// Vegas slow start: double per epoch until backlog appears.
		c.setCwnd(c.cwnd * 2)
	case c.inSlowStart():
		c.ssthresh = c.minCwnd // backlog reached: leave slow start for good
	case diff < target-0.5:
		c.setCwnd(c.cwnd + 1)
	case diff > target+0.5:
		c.setCwnd(c.cwnd - 1)
	}
	c.epochStart = now
	c.epochRTT = rtt
}

// OnLossEvent implements cc.WindowController. Besides halving, it sets
// ssthresh so a loss always terminates slow start (otherwise the doubling
// phase could persist through losses on a queue too shallow to build the
// backlog that normally ends it).
func (c *WVegas) OnLossEvent(now sim.Time) {
	c.onLossShared()
	c.ssthresh = math.Max(c.cwnd/2, c.minCwnd)
	c.setCwnd(c.ssthresh)
}

// OnRTO implements cc.WindowController.
func (c *WVegas) OnRTO(now sim.Time) { c.collapseOnRTO() }
