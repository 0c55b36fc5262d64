// Package cubic implements TCP Cubic (Ha, Rhee, Xu 2008): cubic window
// growth anchored at the window size before the last loss, with the
// TCP-friendly (Reno-emulation) region for low-BDP paths. It is the
// single-path legacy competitor in the paper's TCP-friendliness experiments
// (Figs. 12–13).
package cubic

import (
	"math"

	"mpcc/internal/sim"
)

// Standard Cubic constants.
const (
	beta = 0.7 // multiplicative decrease factor
	cCub = 0.4 // cubic scaling constant
)

// Controller implements cc.WindowController with Cubic dynamics.
type Controller struct {
	cwnd     float64 // packets
	ssthresh float64
	maxCwnd  float64

	wMax       float64  // window before the last reduction
	epochStart sim.Time // start of the current growth epoch (-1 = unset)
	k          float64  // time to regrow to wMax, seconds

	// Reno-friendly region estimate.
	wEst    float64
	ackCnt  float64
	started bool
}

// New returns a Cubic controller with an initial window of 10 packets.
func New() *Controller {
	return &Controller{cwnd: 10, ssthresh: 1e9, maxCwnd: 1e9, epochStart: -1}
}

// Cwnd implements cc.WindowController.
func (c *Controller) Cwnd() float64 { return c.cwnd }

// InSlowStart reports whether the controller is below ssthresh.
func (c *Controller) InSlowStart() bool { return c.cwnd < c.ssthresh }

// OnAck implements cc.WindowController.
func (c *Controller) OnAck(now, rtt sim.Time, ackedPkts float64) {
	if c.InSlowStart() {
		c.cwnd += ackedPkts
		if c.cwnd > c.maxCwnd {
			c.cwnd = c.maxCwnd
		}
		return
	}
	if c.epochStart < 0 {
		c.epochStart = now
		if c.cwnd < c.wMax {
			c.k = math.Cbrt((c.wMax - c.cwnd) / cCub)
		} else {
			c.k = 0
			c.wMax = c.cwnd
		}
		c.wEst = c.cwnd
		c.ackCnt = 0
	}
	t := (now - c.epochStart).Seconds() + rtt.Seconds()
	target := c.wMax + cCub*math.Pow(t-c.k, 3)

	// TCP-friendly region: emulate Reno's growth.
	c.ackCnt += ackedPkts
	c.wEst = c.wMax*beta + (3*(1-beta)/(1+beta))*(c.ackCnt/c.cwnd)
	if target < c.wEst {
		target = c.wEst
	}
	if target > c.cwnd {
		c.cwnd += (target - c.cwnd) / c.cwnd * ackedPkts
	} else {
		c.cwnd += ackedPkts / (100 * c.cwnd) // minimal growth when at/above target
	}
	if c.cwnd > c.maxCwnd {
		c.cwnd = c.maxCwnd
	}
}

// OnLossEvent implements cc.WindowController.
func (c *Controller) OnLossEvent(now sim.Time) {
	c.epochStart = -1
	if c.cwnd < c.wMax {
		// Fast convergence: release bandwidth faster when the bottleneck shrank.
		c.wMax = c.cwnd * (1 + beta) / 2
	} else {
		c.wMax = c.cwnd
	}
	c.cwnd *= beta
	if c.cwnd < 2 {
		c.cwnd = 2
	}
	c.ssthresh = c.cwnd
}

// OnRTO implements cc.WindowController.
func (c *Controller) OnRTO(now sim.Time) {
	c.epochStart = -1
	c.wMax = c.cwnd
	c.ssthresh = math.Max(c.cwnd*beta, 2)
	c.cwnd = 1
}
