package netem

import "mpcc/internal/sim"

// Scheduled link changes. An experiment declares a link's timeline up front
// — outages, flap cycles, burst-loss windows (here), a rate trace
// (ScheduleRates) or a handover cadence (ScheduleHandovers) — and the link's
// own engine executes it deterministically. Scheduling on l.Engine() means a
// change can only run on the engine that owns the link, sharded or not.

// Outage takes l down at absolute virtual time at and restores it at
// at+dur. A non-positive dur schedules a permanent outage.
func (l *Link) Outage(at, dur sim.Time) {
	l.eng.At(at, func() { l.SetDown(true) })
	if dur > 0 {
		l.eng.At(at+dur, func() { l.SetDown(false) })
	}
}

// Flaps schedules n down/up cycles on l starting at start: down for downFor,
// then up for upFor, repeated. The link is up after the last cycle.
func (l *Link) Flaps(start sim.Time, n int, downFor, upFor sim.Time) {
	at := start
	for i := 0; i < n; i++ {
		l.eng.At(at, func() { l.SetDown(true) })
		l.eng.At(at+downFor, func() { l.SetDown(false) })
		at += downFor + upFor
	}
}

// BurstLoss enables Gilbert–Elliott burst loss on l at absolute time at and
// disables it again at at+dur. A non-positive dur leaves it enabled.
func (l *Link) BurstLoss(at, dur sim.Time, ge GilbertElliott) {
	l.eng.At(at, func() { l.SetGilbertElliott(&ge) })
	if dur > 0 {
		l.eng.At(at+dur, func() { l.SetGilbertElliott(nil) })
	}
}
