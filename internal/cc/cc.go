// Package cc defines the congestion-control interfaces shared by the
// transport layer and the concrete controllers (MPCC, Reno, Cubic, BBR, and
// the MPTCP coupled variants), plus the coupling registry through which
// MPTCP controllers observe their sibling subflows.
//
// Two controller families exist, mirroring the paper's distinction (§6):
//
//   - Rate-based controllers (MPCC/PCC Vivace, BBR) set an explicit pacing
//     rate per monitor interval and learn from per-MI statistics.
//   - Window-based controllers (Reno, Cubic, and the coupled MPTCP
//     algorithms LIA/OLIA/Balia/wVegas) maintain a congestion window and are
//     ACK-clocked.
package cc

import (
	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// MIStats summarizes one monitor interval of a rate-based subflow: what was
// sent at the configured rate and what the network did to it. These are the
// SACK-derived statistics of PCC (§3.1).
type MIStats struct {
	Index      int      // monotonically increasing MI number
	Start, End sim.Time // interval bounds
	TargetRate float64  // configured pacing rate, bits/s

	BytesSent  int
	BytesAcked int
	BytesLost  int

	SendRate float64 // achieved send rate, bits/s
	Goodput  float64 // acked bytes over the interval, bits/s
	LossRate float64 // BytesLost / BytesSent

	MinRTT      sim.Time
	AvgRTT      sim.Time
	RTTGradient float64 // least-squares slope of RTT over the MI, s/s
	// RTTGradientSE is the standard error of RTTGradient: the measurement's
	// own noise estimate, used to filter spurious gradients.
	RTTGradientSE float64

	// Ignore marks an MI that carried no packets (idle or app-limited to
	// zero); controllers must not base decisions on it.
	Ignore bool
}

// RateController is a rate-based (paced) congestion controller. The
// transport calls NextRate at every MI boundary to obtain the pacing rate
// for the new interval, and delivers completed statistics — in MI order, and
// typically about one RTT after the interval ends — via OnMIComplete.
type RateController interface {
	// NextRate returns the pacing rate for the MI beginning at now.
	NextRate(now, srtt sim.Time) float64
	// OnMIComplete delivers the statistics of a finished MI.
	OnMIComplete(st MIStats)
}

// InflightCapper is implemented by rate-based controllers that additionally
// bound the data in flight (BBR's inflight cap). The transport stops sending
// when the cap is reached even if the pacing timer allows it.
type InflightCapper interface {
	InflightCapBytes(now, srtt sim.Time) float64
}

// WindowController is an ACK-clocked, congestion-window-based controller.
// The window is measured in packets (MSS units) and may be fractional.
type WindowController interface {
	// Cwnd returns the current window in packets.
	Cwnd() float64
	// OnAck is invoked for every acknowledged packet.
	OnAck(now, rtt sim.Time, ackedPkts float64)
	// OnLossEvent is invoked once per loss episode (the fast-retransmit
	// analog: at most once per round trip of losses).
	OnLossEvent(now sim.Time)
	// OnRTO is invoked when a retransmission timeout fires.
	OnRTO(now sim.Time)
}

// SpuriousRepairer is an optional WindowController extension (Eifel undo,
// after RFC 3522/4015): when the transport proves a loss declaration
// spurious — the "lost" packet's own acknowledgement arrives after the
// congestion reaction — it calls OnSpuriousLoss so the controller can
// restore the state it saved before the multiplicative decrease. wasRTO
// distinguishes an undone timeout collapse from an undone fast-retransmit
// halving. Controllers without saved state simply omit the interface.
type SpuriousRepairer interface {
	OnSpuriousLoss(now sim.Time, wasRTO bool)
}

// ProbeSetter is implemented by controllers that emit observability events
// (MI decisions, utility samples) into a probe bus. flow names the
// connection the controller belongs to and sf the subflow it drives (-1 for
// a controller that drives all of them), so events from concurrent
// connections sharing a bus stay distinguishable. The experiment harness
// attaches its per-run bus to every controller through this interface.
type ProbeSetter interface {
	SetProbes(b *obs.Bus, flow string, sf int)
}

// FailureAware is implemented by controllers that want to be told when the
// transport's failure detector declares their subflow dead (N consecutive
// RTO episodes with no ACK) and when probing revives it. OnSubflowDown must
// stop the controller's state from leaking into connection-level coupling
// (e.g. published-rate totals); OnSubflowUp must discard learning state
// accumulated before the failure — the path that comes back is not the path
// that went down — and restart from the controller's initial condition.
type FailureAware interface {
	OnSubflowDown()
	OnSubflowUp()
}

// SubflowState is one subflow's entry in a Coupler: the live state the
// MPTCP coupled algorithms read from their siblings.
type SubflowState struct {
	CwndPkts float64
	SRTT     sim.Time
	// InterLossPkts is a smoothed estimate of packets delivered between
	// consecutive loss events, used by OLIA's best-path computation.
	InterLossPkts float64
	// AckedSinceLoss counts packets acked since the last loss event.
	AckedSinceLoss float64
}

// Coupler is the per-connection registry coupling the subflows of one MPTCP
// connection (§2): each coupled controller registers itself and may read
// every sibling's state when adapting its own window.
type Coupler struct {
	states []*SubflowState
}

// NewCoupler returns an empty coupling registry.
func NewCoupler() *Coupler { return &Coupler{} }

// Register adds a subflow and returns its state record.
func (c *Coupler) Register() *SubflowState {
	s := &SubflowState{}
	c.states = append(c.states, s)
	return s
}

// States returns the registered subflow states.
func (c *Coupler) States() []*SubflowState { return c.states }

// TotalCwnd returns the sum of all subflow windows in packets.
func (c *Coupler) TotalCwnd() float64 {
	t := 0.0
	for _, s := range c.states {
		t += s.CwndPkts
	}
	return t
}

// RateSum returns Σ cwnd_k/rtt_k in packets/second, the aggregate
// rate proxy used by LIA, OLIA, and Balia. Subflows without an RTT sample
// are skipped.
func (c *Coupler) RateSum() float64 {
	t := 0.0
	for _, s := range c.states {
		if s.SRTT > 0 {
			t += s.CwndPkts / s.SRTT.Seconds()
		}
	}
	return t
}
