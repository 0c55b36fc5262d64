package transport

import (
	"mpcc/internal/cc"
	"mpcc/internal/sim"
	"mpcc/internal/stats"
)

// monitorInterval accumulates the statistics of one MI of a rate-based
// subflow. An MI is "closed" when its time window ends (no more packets are
// charged to it) and "resolved" when every packet sent in it has been acked
// or declared lost; only then can its utility inputs be computed (§5.2).
// Intervals are pooled per engine and reference-counted (see pool.go).
type monitorInterval struct {
	sf         *Subflow // owner, for the closure-free end-of-MI timer
	seq        int
	start, end sim.Time
	rate       float64 // configured pacing rate, bits/s

	sentBytes  int
	ackedBytes int
	lostBytes  int

	outstanding int // packets sent in this MI not yet acked/lost
	closed      bool

	// rtt holds one sample per ACK: X is the send time in seconds since
	// the MI start, Y the RTT in seconds.
	rtt    []stats.Point
	minRTT sim.Time
	refs   int32
}

func (mi *monitorInterval) onSend(bytes int) {
	mi.sentBytes += bytes
	mi.outstanding++
}

func (mi *monitorInterval) onAck(bytes int, sentAt sim.Time, rtt sim.Time) {
	mi.ackedBytes += bytes
	mi.outstanding--
	mi.rtt = append(mi.rtt, stats.Point{X: (sentAt - mi.start).Seconds(), Y: rtt.Seconds()})
	if mi.minRTT == 0 || rtt < mi.minRTT {
		mi.minRTT = rtt
	}
}

func (mi *monitorInterval) onLost(bytes int) {
	mi.lostBytes += bytes
	mi.outstanding--
}

// onSpurious repairs the interval's statistics after an Eifel-detected
// spurious loss declaration: the bytes were charged as lost but in fact
// arrived, so they move from the loss column to the acked column. The
// outstanding count is untouched — the packet was already resolved when it
// was (wrongly) declared lost.
func (mi *monitorInterval) onSpurious(bytes int) {
	mi.lostBytes -= bytes
	mi.ackedBytes += bytes
}

func (mi *monitorInterval) resolved(now sim.Time) bool {
	return mi.closed && mi.outstanding == 0 && now >= mi.end
}

// stats converts the accumulated counters into the controller-facing form.
func (mi *monitorInterval) stats() cc.MIStats {
	st := cc.MIStats{
		Index:      mi.seq,
		Start:      mi.start,
		End:        mi.end,
		TargetRate: mi.rate,
		BytesSent:  mi.sentBytes,
		BytesAcked: mi.ackedBytes,
		BytesLost:  mi.lostBytes,
		MinRTT:     mi.minRTT,
	}
	dur := (mi.end - mi.start).Seconds()
	if mi.sentBytes == 0 || dur <= 0 {
		st.Ignore = true
		return st
	}
	st.SendRate = float64(mi.sentBytes) * 8 / dur
	st.Goodput = float64(mi.ackedBytes) * 8 / dur
	st.LossRate = float64(mi.lostBytes) / float64(mi.sentBytes)
	var mean float64
	mean, st.RTTGradient, st.RTTGradientSE = stats.Regress(mi.rtt)
	st.AvgRTT = sim.FromSeconds(mean)
	return st
}
