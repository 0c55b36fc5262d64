// Package coupled implements the four MPTCP coupled congestion-control
// algorithms the paper evaluates (§7.1): LIA (RFC 6356), OLIA (Khalili et
// al.), Balia (Peng et al.), and wVegas (Cao et al.). Each subflow holds one
// controller; controllers of the same connection share a cc.Coupler through
// which they observe their siblings' windows and RTTs — the "coupling" that
// keeps an MPTCP connection no more aggressive than a single TCP flow on a
// shared bottleneck (§2).
package coupled

import (
	"math"

	"mpcc/internal/cc"
	"mpcc/internal/sim"
)

// minCwnd floors the window and ssthresh, in packets.
const minCwnd float64 = 2

// base carries the per-subflow state shared by all coupled variants:
// standard per-subflow slow start, RTT smoothing into the coupler record,
// and loss bookkeeping for OLIA's best-path estimate.
type base struct {
	coupler *cc.Coupler
	state   *cc.SubflowState

	cwnd     float64
	ssthresh float64
}

func newBase(coupler *cc.Coupler) base {
	b := base{
		coupler:  coupler,
		state:    coupler.Register(),
		cwnd:     10,
		ssthresh: 1e9,
	}
	b.state.CwndPkts = b.cwnd
	return b
}

func (b *base) setCwnd(w float64) {
	if w < minCwnd {
		w = minCwnd
	}
	b.cwnd = w
	b.state.CwndPkts = w
}

func (b *base) observe(rtt sim.Time, ackedPkts float64) {
	if b.state.SRTT == 0 {
		b.state.SRTT = rtt
	} else {
		b.state.SRTT = (7*b.state.SRTT + rtt) / 8
	}
	b.state.AckedSinceLoss += ackedPkts
}

func (b *base) onLossShared() {
	// Smooth the inter-loss interval estimate for OLIA.
	if b.state.InterLossPkts == 0 {
		b.state.InterLossPkts = b.state.AckedSinceLoss
	} else {
		b.state.InterLossPkts = 0.9*b.state.InterLossPkts + 0.1*b.state.AckedSinceLoss
	}
	b.state.AckedSinceLoss = 0
}

func (b *base) inSlowStart() bool { return b.cwnd < b.ssthresh }

// slowStartAck handles the common slow-start growth; it reports whether the
// ACK was consumed by slow start.
func (b *base) slowStartAck(ackedPkts float64) bool {
	if !b.inSlowStart() {
		return false
	}
	b.setCwnd(b.cwnd + ackedPkts)
	return true
}

func (b *base) halveOnLoss() {
	b.onLossShared()
	b.ssthresh = math.Max(b.cwnd/2, minCwnd)
	b.setCwnd(b.ssthresh)
}

func (b *base) collapseOnRTO() {
	b.onLossShared()
	b.ssthresh = math.Max(b.cwnd/2, minCwnd)
	b.cwnd = 1
	b.state.CwndPkts = 1
}

// LIA is the Linked-Increases Algorithm of RFC 6356: the congestion-
// avoidance increase per ACK on subflow i is
//
//	min( α/cwnd_total , 1/cwnd_i ),   α = cwnd_total · max_k(cwnd_k/rtt_k²) / (Σ_k cwnd_k/rtt_k)²
type LIA struct{ base }

// NewLIA returns a LIA controller registered with coupler.
func NewLIA(coupler *cc.Coupler) *LIA { return &LIA{newBase(coupler)} }

// Cwnd implements cc.WindowController.
func (c *LIA) Cwnd() float64 { return c.cwnd }

// OnAck implements cc.WindowController.
func (c *LIA) OnAck(now, rtt sim.Time, ackedPkts float64) {
	c.observe(rtt, ackedPkts)
	if c.slowStartAck(ackedPkts) {
		return
	}
	totalCwnd := c.coupler.TotalCwnd()
	rateSum := c.coupler.RateSum()
	if totalCwnd <= 0 || rateSum <= 0 {
		c.setCwnd(c.cwnd + ackedPkts/c.cwnd)
		return
	}
	maxTerm := 0.0
	for _, s := range c.coupler.States() {
		if s.SRTT > 0 {
			t := s.CwndPkts / (s.SRTT.Seconds() * s.SRTT.Seconds())
			if t > maxTerm {
				maxTerm = t
			}
		}
	}
	alpha := totalCwnd * maxTerm / (rateSum * rateSum)
	inc := math.Min(alpha/totalCwnd, 1/c.cwnd)
	c.setCwnd(c.cwnd + inc*ackedPkts)
}

// OnLossEvent implements cc.WindowController.
func (c *LIA) OnLossEvent(now sim.Time) { c.halveOnLoss() }

// OnRTO implements cc.WindowController.
func (c *LIA) OnRTO(now sim.Time) { c.collapseOnRTO() }

// OLIA is the Opportunistic Linked-Increases Algorithm (Khalili et al.
// 2013). The congestion-avoidance increase per ACK on path r is
//
//	(w_r/rtt_r²)/(Σ_p w_p/rtt_p)²  +  α_r/w_r
//
// where α_r shifts window between the "best" paths (largest ℓ_r²/w_r, with
// ℓ_r the inter-loss delivery estimate) and the largest-window paths.
type OLIA struct{ base }

// NewOLIA returns an OLIA controller registered with coupler.
func NewOLIA(coupler *cc.Coupler) *OLIA { return &OLIA{newBase(coupler)} }

// Cwnd implements cc.WindowController.
func (c *OLIA) Cwnd() float64 { return c.cwnd }

// OnAck implements cc.WindowController.
func (c *OLIA) OnAck(now, rtt sim.Time, ackedPkts float64) {
	c.observe(rtt, ackedPkts)
	if c.slowStartAck(ackedPkts) {
		return
	}
	rateSum := c.coupler.RateSum()
	if rateSum <= 0 {
		c.setCwnd(c.cwnd + ackedPkts/c.cwnd)
		return
	}
	rttSec := c.state.SRTT.Seconds()
	if rttSec <= 0 {
		rttSec = rtt.Seconds()
	}
	first := (c.cwnd / (rttSec * rttSec)) / (rateSum * rateSum)
	alpha := c.alpha()
	inc := first + alpha/c.cwnd
	c.setCwnd(c.cwnd + inc*ackedPkts)
}

// alpha computes OLIA's α_r for this subflow from the coupler state.
func (c *OLIA) alpha() float64 {
	states := c.coupler.States()
	d := float64(len(states))
	if d < 2 {
		return 0
	}
	// ℓ_p: inter-loss delivery estimate (max of smoothed and current run).
	ell := func(s *cc.SubflowState) float64 {
		return math.Max(s.InterLossPkts, s.AckedSinceLoss)
	}
	// Best paths: argmax ℓ²/w. Max-window paths: argmax w.
	bestVal, maxW := -1.0, -1.0
	for _, s := range states {
		if s.CwndPkts <= 0 {
			continue
		}
		v := ell(s) * ell(s) / s.CwndPkts
		if v > bestVal {
			bestVal = v
		}
		if s.CwndPkts > maxW {
			maxW = s.CwndPkts
		}
	}
	// Count the collected (best but not max-window) and max-window sets and
	// note which of them this subflow is in.
	var nCollected, nMax int
	var inCollected, inMax bool
	for _, s := range states {
		isBest := s.CwndPkts > 0 && ell(s)*ell(s)/s.CwndPkts >= bestVal*(1-1e-9)
		isMax := s.CwndPkts >= maxW*(1-1e-9)
		if isBest && !isMax {
			nCollected++
			inCollected = inCollected || s == c.state
		}
		if isMax {
			nMax++
			inMax = inMax || s == c.state
		}
	}
	switch {
	case nCollected == 0:
		return 0
	case inCollected:
		return 1 / (d * float64(nCollected))
	case inMax:
		return -1 / (d * float64(nMax))
	}
	return 0
}

// OnLossEvent implements cc.WindowController.
func (c *OLIA) OnLossEvent(now sim.Time) { c.halveOnLoss() }

// OnRTO implements cc.WindowController.
func (c *OLIA) OnRTO(now sim.Time) { c.collapseOnRTO() }

// Balia is the Balanced Linked Adaptation algorithm (Peng et al. 2016).
// With x_k = w_k/rtt_k and α_k = max_i(x_i)/x_k, the increase per ACK is
//
//	x_k/(rtt_k·(Σx)²) · (1+α_k)/2 · (4+α_k)/5
//
// and the decrease on loss is w_k/2 · min(α_k, 1.5).
type Balia struct{ base }

// NewBalia returns a Balia controller registered with coupler.
func NewBalia(coupler *cc.Coupler) *Balia { return &Balia{newBase(coupler)} }

// Cwnd implements cc.WindowController.
func (c *Balia) Cwnd() float64 { return c.cwnd }

func (c *Balia) rates() (own, sum, maxRate float64) {
	for _, s := range c.coupler.States() {
		if s.SRTT <= 0 {
			continue
		}
		x := s.CwndPkts / s.SRTT.Seconds()
		sum += x
		if x > maxRate {
			maxRate = x
		}
		if s == c.state {
			own = x
		}
	}
	return own, sum, maxRate
}

// OnAck implements cc.WindowController.
func (c *Balia) OnAck(now, rtt sim.Time, ackedPkts float64) {
	c.observe(rtt, ackedPkts)
	if c.slowStartAck(ackedPkts) {
		return
	}
	own, sum, maxRate := c.rates()
	if own <= 0 || sum <= 0 {
		c.setCwnd(c.cwnd + ackedPkts/c.cwnd)
		return
	}
	alpha := maxRate / own
	rttSec := c.state.SRTT.Seconds()
	inc := own / (rttSec * sum * sum) * ((1 + alpha) / 2) * ((4 + alpha) / 5)
	c.setCwnd(c.cwnd + inc*ackedPkts)
}

// OnLossEvent implements cc.WindowController.
func (c *Balia) OnLossEvent(now sim.Time) {
	c.onLossShared()
	own, _, maxRate := c.rates()
	alpha := 1.0
	if own > 0 {
		alpha = maxRate / own
	}
	dec := c.cwnd / 2 * math.Min(alpha, 1.5)
	c.ssthresh = math.Max(c.cwnd-dec, minCwnd)
	c.setCwnd(c.ssthresh)
}

// OnRTO implements cc.WindowController.
func (c *Balia) OnRTO(now sim.Time) { c.collapseOnRTO() }
