package netem

import "mpcc/internal/sim"

// LEO-satellite path model: a link with a very high bandwidth-delay product
// whose serving satellite changes on a fixed cadence. Each handover
// atomically steps the link to a new rate and base propagation delay —
// discontinuities a gradient-following controller must re-learn from
// scratch, with no queue buildup announcing them in advance.

// HandoverStep is one entry of a handover schedule: the link's rate and
// one-way propagation delay while this satellite serves the path.
type HandoverStep struct {
	RateBps float64
	Delay   sim.Time
}

// Handover atomically steps the link to a new rate and base delay, counting
// the step in Stats and emitting a handover probe event. Packets already
// scheduled keep their departure and arrival times, exactly as SetRate and
// SetDelay alone would leave them.
func (l *Link) Handover(rateBps float64, delay sim.Time) {
	l.SetRate(rateBps)
	l.SetDelay(delay)
	l.stats.Handovers++
	l.probes.Handover(l.eng.Now(), l.Name, l.rateBps, delay)
}

// ScheduleHandovers applies count handovers to l at start, start+period,
// start+2·period, …, cycling through steps in order (step i uses
// steps[i mod len(steps)]). count <= 0 schedules one full cycle. The probe
// bus is read at each fire time, so buses attached after scheduling (the
// experiment harness attaches probes after topology tweaks) still observe
// every handover.
func (l *Link) ScheduleHandovers(steps []HandoverStep, start, period sim.Time, count int) {
	if len(steps) == 0 {
		return
	}
	if period <= 0 {
		panic("netem: handover period must be positive")
	}
	if count <= 0 {
		count = len(steps)
	}
	for i := 0; i < count; i++ {
		step := steps[i%len(steps)]
		l.eng.At(start+sim.Time(i)*period, func() { l.Handover(step.RateBps, step.Delay) })
	}
}
