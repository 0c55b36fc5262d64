package netem

import (
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// send injects n back-to-back packets of 1000 bytes and returns how many
// were delivered.
func sendN(e *sim.Engine, p *Path, n int) int {
	delivered := 0
	sink := SinkFunc(func(*Packet) { delivered++ })
	for i := 0; i < n; i++ {
		p.Send(1000, nil, sink, nil)
	}
	e.Run(0)
	return delivered
}

func TestLinkDownBlackholes(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 100*mbps, sim.Millisecond, 1<<20)
	p := NewPath(e, "p", l)
	l.SetDown(true)
	if got := sendN(e, p, 10); got != 0 {
		t.Fatalf("down link delivered %d packets", got)
	}
	st := l.Stats()
	if st.DropsOutage != 10 {
		t.Fatalf("DropsOutage = %d, want 10", st.DropsOutage)
	}
	if st.Outages != 1 {
		t.Fatalf("Outages = %d, want 1", st.Outages)
	}
	// Re-asserting down while already down must not double-count.
	l.SetDown(true)
	if l.Stats().Outages != 1 {
		t.Fatal("redundant SetDown(true) counted an outage")
	}
	l.SetDown(false)
	if got := sendN(e, p, 10); got != 10 {
		t.Fatalf("restored link delivered %d/10", got)
	}
}

func TestZeroRateStalls(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 100*mbps, sim.Millisecond, 1<<20)
	p := NewPath(e, "p", l)
	l.SetRate(0)
	drops := 0
	var reason obs.DropCause
	if got := sendN(e, p, 5); got != 0 {
		t.Fatalf("zero-rate link delivered %d packets", got)
	}
	p.Send(1000, nil, SinkFunc(func(*Packet) {}), func(_ *Packet, r obs.DropCause) {
		drops++
		reason = r
	})
	e.Run(0)
	if drops != 1 || reason != obs.CauseOutage {
		t.Fatalf("zero-rate drop = %d/%v, want 1/outage", drops, reason)
	}
	l.SetRate(100 * mbps)
	if got := sendN(e, p, 5); got != 5 {
		t.Fatalf("restored link delivered %d/5", got)
	}
}

func TestGilbertElliottBurstLoss(t *testing.T) {
	e := sim.NewEngine(7)
	l := NewLink(e, "l", 1000*mbps, 0, 1<<30)
	p := NewPath(e, "p", l)
	// Mean burst 1/0.25 = 4 packets, stationary bad probability
	// 0.02/(0.02+0.25) ≈ 7.4%; LossBad = 1 makes drops ≡ bad state.
	l.SetGilbertElliott(&GilbertElliott{PGoodBad: 0.02, PBadGood: 0.25, LossBad: 1})
	const n = 20000
	got := sendN(e, p, n)
	lossRate := float64(n-got) / n
	if lossRate < 0.05 || lossRate > 0.10 {
		t.Fatalf("GE loss rate %.3f outside [0.05, 0.10] around stationary 0.074", lossRate)
	}
	st := l.Stats()
	if st.DropsBurst != uint64(n-got) {
		t.Fatalf("DropsBurst = %d, dropped %d", st.DropsBurst, n-got)
	}
	if st.DropsRandom != 0 {
		t.Fatal("GE drops must not count as random loss")
	}
	// Burstiness: with LossBad=1 and mean burst 4, consecutive-drop runs
	// must be far longer than i.i.d. loss at the same rate would produce.
	// Re-run recording the drop pattern.
	e2 := sim.NewEngine(7)
	l2 := NewLink(e2, "l", 1000*mbps, 0, 1<<30)
	p2 := NewPath(e2, "p", l2)
	l2.SetGilbertElliott(&GilbertElliott{PGoodBad: 0.02, PBadGood: 0.25, LossBad: 1})
	outcome := make([]bool, 0, n) // true = dropped
	sink := SinkFunc(func(*Packet) { outcome = append(outcome, false) })
	onDrop := func(*Packet, obs.DropCause) { outcome = append(outcome, true) }
	for i := 0; i < n; i++ {
		p2.Send(1000, nil, sink, onDrop)
	}
	e2.Run(0)
	runs, dropped := 0, 0
	inRun := false
	for _, d := range outcome {
		if d {
			dropped++
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	meanBurst := float64(dropped) / float64(runs)
	if meanBurst < 2.5 {
		t.Fatalf("mean drop-burst length %.2f, want ≥ 2.5 (bursty)", meanBurst)
	}
	l2.SetGilbertElliott(nil)
	if got := sendN(e2, p2, 100); got != 100 {
		t.Fatalf("disabled GE still dropped: delivered %d/100", got)
	}
}

func TestFaultInjectorOutage(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 100*mbps, 0, 1<<20)
	l.Outage(10*sim.Millisecond, 20*sim.Millisecond)
	e.Run(5 * sim.Millisecond)
	if l.down {
		t.Fatal("down before the scheduled outage")
	}
	e.Run(15 * sim.Millisecond)
	if !l.down {
		t.Fatal("not down during the outage")
	}
	e.Run(35 * sim.Millisecond)
	if l.down {
		t.Fatal("still down after the outage")
	}
	if l.Stats().Outages != 1 {
		t.Fatalf("Outages = %d", l.Stats().Outages)
	}
}

func TestFaultInjectorFlaps(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 100*mbps, 0, 1<<20)
	l.Flaps(0, 3, 5*sim.Millisecond, 5*sim.Millisecond)
	downAt := []sim.Time{2 * sim.Millisecond, 12 * sim.Millisecond, 22 * sim.Millisecond}
	upAt := []sim.Time{7 * sim.Millisecond, 17 * sim.Millisecond, 27 * sim.Millisecond}
	for i := range downAt {
		e.Run(downAt[i])
		if !l.down {
			t.Fatalf("cycle %d: not down at %v", i, downAt[i])
		}
		e.Run(upAt[i])
		if l.down {
			t.Fatalf("cycle %d: still down at %v", i, upAt[i])
		}
	}
	if l.Stats().Outages != 3 {
		t.Fatalf("Outages = %d, want 3", l.Stats().Outages)
	}
}

func TestFaultInjectorBurstLossWindow(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 100*mbps, 0, 1<<20)
	l.BurstLoss(10*sim.Millisecond, 10*sim.Millisecond,
		GilbertElliott{PGoodBad: 1, PBadGood: 0, LossBad: 1})
	e.Run(15 * sim.Millisecond)
	if !l.geOn {
		t.Fatal("burst loss not enabled inside the window")
	}
	e.Run(25 * sim.Millisecond)
	if l.geOn {
		t.Fatal("burst loss still enabled after the window")
	}
}
