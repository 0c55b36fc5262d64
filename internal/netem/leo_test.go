package netem

import (
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

func TestScheduleHandoversStepsOnSchedule(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "leo", 100*mbps, 20*sim.Millisecond, 1<<20)
	steps := []HandoverStep{
		{RateBps: 40 * mbps, Delay: 30 * sim.Millisecond},
		{RateBps: 80 * mbps, Delay: 15 * sim.Millisecond},
	}
	var at []sim.Time
	var rates []float64
	bus := obs.NewBus(obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindHandover {
			at = append(at, ev.At)
			rates = append(rates, ev.Value)
		}
	}))
	l.ScheduleHandovers(steps, sim.Second, sim.Second, 3)
	// Probes attach after scheduling, as the experiment harness does
	// (Build → Tweak → SetProbes): handovers must still be observed.
	e.At(500*sim.Millisecond, func() { l.SetProbes(bus) })
	e.Run(4 * sim.Second)

	if got := l.Stats().Handovers; got != 3 {
		t.Fatalf("Handovers = %d, want 3", got)
	}
	wantAt := []sim.Time{sim.Second, 2 * sim.Second, 3 * sim.Second}
	if len(at) != 3 {
		t.Fatalf("handover probes at %v, want exactly 3", at)
	}
	for i := range wantAt {
		if at[i] != wantAt[i] {
			t.Fatalf("handover %d fired at %v, want exactly %v", i, at[i], wantAt[i])
		}
	}
	// The third step wraps around to steps[0].
	if rates[0] != 40*mbps || rates[1] != 80*mbps || rates[2] != 40*mbps {
		t.Fatalf("handover rates = %v, want cycle 40/80/40 Mbps", rates)
	}
	if l.Rate() != 40*mbps || l.delay != 30*sim.Millisecond {
		t.Fatalf("final link state = %v bps / %v, want 40 Mbps / 30 ms", l.Rate(), l.delay)
	}
}

func TestScheduleHandoversStopAndDefaults(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "leo", 100*mbps, 20*sim.Millisecond, 1<<20)
	steps := []HandoverStep{
		{RateBps: 40 * mbps, Delay: 30 * sim.Millisecond},
		{RateBps: 80 * mbps, Delay: 15 * sim.Millisecond},
	}
	// count <= 0 runs one full cycle and then stops.
	l.ScheduleHandovers(steps, sim.Second, sim.Second, 0)
	e.Run(10 * sim.Second)
	if got := l.Stats().Handovers; got != 2 {
		t.Fatalf("Handovers = %d, want one cycle of 2", got)
	}
	if l.Rate() != 80*mbps || l.delay != 15*sim.Millisecond {
		t.Fatalf("final link state = %v bps / %v, want the last step's 80 Mbps / 15 ms", l.Rate(), l.delay)
	}
	// Empty schedules are inert.
	l.ScheduleHandovers(nil, sim.Second, sim.Second, 5)
	if n := e.Pending(); n != 0 {
		t.Fatalf("empty schedule left %d pending events", n)
	}
}
