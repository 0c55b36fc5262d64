package obs

import "mpcc/internal/sim"

// QueueProbe exposes one link's instantaneous queue depth to the sampler.
// Depth returns queued bytes at call time; netem.Link.QueueProbe builds one.
type QueueProbe struct {
	Link  string
	Depth func() int
}

// SampleQueues schedules a self-repeating timer on eng that emits a
// KindQueueDepth event per probe every `every` of virtual time, starting at
// now+every, for the rest of the run.
//
// Call this only when probes are live: scheduling the timer changes the
// engine's event count, so a run with a sampler is deterministic but not
// event-count-identical to one without.
func SampleQueues(eng *sim.Engine, b *Bus, every sim.Time, probes ...QueueProbe) {
	if b == nil || eng == nil || every <= 0 || len(probes) == 0 {
		return
	}
	s := &queueSampler{eng: eng, bus: b, every: every, probes: probes}
	eng.Schedule(eng.Now()+every, sampleQueuesEvent, s)
}

// queueSampler is SampleQueues' state: one pooled engine event, re-posted
// by a static callback, so a running sampler allocates nothing.
type queueSampler struct {
	eng    *sim.Engine
	bus    *Bus
	every  sim.Time
	probes []QueueProbe
}

func sampleQueuesEvent(arg any) {
	s := arg.(*queueSampler)
	now := s.eng.Now()
	for _, p := range s.probes {
		s.bus.QueueDepth(now, p.Link, p.Depth())
	}
	s.eng.Schedule(now+s.every, sampleQueuesEvent, s)
}
