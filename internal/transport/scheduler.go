package transport

import "mpcc/internal/sim"

// Scheduler decides which subflow receives the next new-data segment (§6).
// Pick returns nil when no subflow may take data right now; the connection
// retries on the next send/ack event.
type Scheduler interface {
	Pick(c *Connection) *Subflow
}

// DefaultScheduler reproduces the default MPTCP kernel scheduler: data goes
// to the lowest-RTT subflow whose congestion window is not exceeded. As §6
// explains, under rate-based congestion control the window condition is
// effectively never met, so this scheduler starves every subflow but the
// lowest-RTT one — the pathology the rate-based scheduler fixes.
type DefaultScheduler struct{}

// Pick implements Scheduler. Like the kernel's tcp_cwnd_test, the window
// condition compares packets IN FLIGHT against the window — data already
// assigned but still queued for pacing does not count, which is exactly why
// the default scheduler funnels everything to the lowest-RTT subflow under
// rate-based congestion control (§6).
func (DefaultScheduler) Pick(c *Connection) *Subflow { return lowestRTT(c, nil) }

// RateScheduler is the paper's scheduler for pacing-based multipath
// transport (§6): a subflow is unavailable while it already has at least
// threshold (10% in the paper) of the packets required to maintain its
// current sending rate for one RTT queued for sending. Among available
// subflows, the lowest-RTT one is preferred, as in the default scheduler.
type RateScheduler struct {
	// Threshold is the queued-backlog fraction above which a subflow is
	// marked unavailable (the paper's empirically chosen 0.10).
	Threshold float64
}

// NewRateScheduler returns a RateScheduler with the given threshold.
func NewRateScheduler(threshold float64) *RateScheduler {
	return &RateScheduler{Threshold: threshold}
}

// Pick implements Scheduler.
func (r *RateScheduler) Pick(c *Connection) *Subflow { return lowestRTT(c, r) }

// lowestRTT is both schedulers' walk: the lowest-RTT subflow that is not
// failed and whose packets in flight are below its window, and — when r is
// the rate scheduler — whose queue is below r's cap. nil when none is.
func lowestRTT(c *Connection, r *RateScheduler) *Subflow {
	var best *Subflow
	var bestRTT sim.Time
	for _, s := range c.subflows {
		if s.state == SubflowFailed {
			continue
		}
		if float64(s.inflightPkts) >= s.CwndPkts() {
			continue
		}
		if r != nil && s.pending.len() >= r.queueCap(s) {
			continue
		}
		if best == nil || s.srtt < bestRTT {
			best = s
			bestRTT = s.srtt
		}
	}
	return best
}

// queueCap returns the per-subflow pending-queue capacity in packets:
// threshold × (rate × RTT) for paced subflows, threshold × cwnd for
// window-based ones, floored at one packet so slow subflows still progress.
func (r *RateScheduler) queueCap(s *Subflow) int {
	var pktsPerRTT float64
	if s.rc != nil {
		pktsPerRTT = s.pktsPerRTT
	} else {
		pktsPerRTT = s.wc.Cwnd()
	}
	cap := int(r.Threshold * pktsPerRTT)
	if cap < 1 {
		cap = 1
	}
	return cap
}
