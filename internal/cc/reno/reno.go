// Package reno implements TCP (New)Reno congestion control: slow start to
// ssthresh, additive increase of one packet per RTT in congestion avoidance,
// and multiplicative decrease on loss. It is the uncoupled per-subflow
// baseline ("reno" in the paper's figures) and the substrate the coupled
// MPTCP algorithms modify.
package reno

import (
	"mpcc/internal/sim"
)

// Controller implements cc.WindowController with classic Reno dynamics.
// The zero value is not usable; construct with New.
type Controller struct {
	cwnd     float64 // packets
	ssthresh float64
	minCwnd  float64

	// State saved at the last loss reaction, restored by OnSpuriousLoss
	// (Eifel undo). Zero means nothing to undo.
	undoCwnd     float64
	undoSsthresh float64
}

// New returns a Reno controller with the RFC 6928 initial window of 10
// packets and no window cap (the paper disables flow-control limits with
// 300 MB buffers).
func New() *Controller {
	return &Controller{cwnd: 10, ssthresh: 1e9, minCwnd: 2}
}

// Cwnd implements cc.WindowController.
func (c *Controller) Cwnd() float64 { return c.cwnd }

// InSlowStart reports whether the controller is below ssthresh.
func (c *Controller) InSlowStart() bool { return c.cwnd < c.ssthresh }

// OnAck implements cc.WindowController: slow start grows the window by one
// packet per ACK; congestion avoidance by 1/cwnd per ACK.
func (c *Controller) OnAck(now, rtt sim.Time, ackedPkts float64) {
	if c.InSlowStart() {
		c.cwnd += ackedPkts
	} else {
		c.cwnd += ackedPkts / c.cwnd
	}
}

// OnLossEvent implements cc.WindowController: halve, once per loss episode.
func (c *Controller) OnLossEvent(now sim.Time) {
	c.undoCwnd, c.undoSsthresh = c.cwnd, c.ssthresh
	c.ssthresh = c.cwnd / 2
	if c.ssthresh < c.minCwnd {
		c.ssthresh = c.minCwnd
	}
	c.cwnd = c.ssthresh
}

// OnRTO implements cc.WindowController: collapse to one packet.
func (c *Controller) OnRTO(now sim.Time) {
	c.undoCwnd, c.undoSsthresh = c.cwnd, c.ssthresh
	c.ssthresh = c.cwnd / 2
	if c.ssthresh < c.minCwnd {
		c.ssthresh = c.minCwnd
	}
	c.cwnd = 1
}

// OnSpuriousLoss implements cc.SpuriousRepairer: restore the window and
// ssthresh saved before the last loss reaction, once, and only upward —
// growth earned since the (wrong) reaction is never taken back.
func (c *Controller) OnSpuriousLoss(now sim.Time, wasRTO bool) {
	if c.undoCwnd == 0 {
		return
	}
	if c.cwnd < c.undoCwnd {
		c.cwnd = c.undoCwnd
	}
	if c.ssthresh < c.undoSsthresh {
		c.ssthresh = c.undoSsthresh
	}
	c.undoCwnd, c.undoSsthresh = 0, 0
}
