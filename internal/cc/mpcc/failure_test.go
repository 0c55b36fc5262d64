package mpcc

import (
	"math/rand"
	"testing"

	"mpcc/internal/cc"
	"mpcc/internal/sim"
)

func TestGroupExcludesDeadSubflows(t *testing.T) {
	g := NewGroup()
	a, b, c := g.Join(), g.Join(), g.Join()
	g.Publish(a, 10e6)
	g.Publish(b, 20e6)
	g.Publish(c, 30e6)
	if got := g.Total(); got != 60e6 {
		t.Fatalf("Total = %v", got)
	}
	g.SetAlive(b, false)
	if !g.down[b] {
		t.Fatal("b should be dead")
	}
	if got := g.Total(); got != 40e6 {
		t.Fatalf("Total with b dead = %v, want 40e6", got)
	}
	if got := g.TotalExcept(a); got != 30e6 {
		t.Fatalf("TotalExcept(a) with b dead = %v, want 30e6", got)
	}
	// The dead subflow's own published rate is still readable.
	if g.rates[b] != 20e6 {
		t.Fatalf("Rate(b) = %v", g.rates[b])
	}
	g.SetAlive(b, true)
	if got := g.Total(); got != 60e6 {
		t.Fatalf("Total after revival = %v, want 60e6", got)
	}
}

func TestControllerImplementsFailureAware(t *testing.T) {
	c, _ := newTestController(LossParams())
	if _, ok := any(c).(cc.FailureAware); !ok {
		t.Fatal("Controller must implement cc.FailureAware")
	}
}

func TestOnSubflowDownExcludesRateFromSiblings(t *testing.T) {
	grp := NewGroup()
	cfg := DefaultConfig(LossParams())
	c1 := New(cfg, grp, rand.New(rand.NewSource(1)))
	c2 := New(cfg, grp, rand.New(rand.NewSource(1)))
	grp.Publish(c1.id, 80e6)
	grp.Publish(c2.id, 20e6)
	before := grp.TotalExcept(c2.id)
	c1.OnSubflowDown()
	after := grp.TotalExcept(c2.id)
	if before != 80e6 || after != 0 {
		t.Fatalf("TotalExcept before/after down = %v/%v, want 80e6/0", before, after)
	}
}

func TestOnSubflowUpResetsLearningState(t *testing.T) {
	c, grp := newTestController(LossParams())
	// Drive the controller well past slow start so it accumulates real
	// probing/moving state, then fail and revive it.
	d := newDriver(c, 100e6)
	for i := 0; i < 400; i++ {
		d.step()
	}
	if c.state.String() == "starting" {
		t.Fatal("driver failed to leave slow start; test premise broken")
	}
	preRate := c.rate
	if preRate == c.cfg.InitialRateBps {
		t.Fatalf("converged rate %v did not move off the initial rate; test premise broken", preRate)
	}
	c.OnSubflowDown()
	if !grp.down[c.id] {
		t.Fatal("controller did not mark itself dead")
	}
	c.OnSubflowUp()
	if !!grp.down[c.id] {
		t.Fatal("controller did not mark itself alive")
	}
	if c.state.String() != "starting" {
		t.Fatalf("state after revival = %q, want starting", c.state.String())
	}
	if c.rate != c.cfg.InitialRateBps {
		t.Fatalf("rate after revival = %v, want initial %v", c.rate, c.cfg.InitialRateBps)
	}
	if grp.rates[c.id] != c.cfg.InitialRateBps {
		t.Fatalf("published rate after revival = %v", grp.rates[c.id])
	}
	// A stale completion from before the failure must be ignored (planned
	// queue was discarded)…
	c.OnMIComplete(cc.MIStats{BytesSent: 1000, SendRate: 50e6, End: d.now})
	// …and the controller must then slow-start cleanly all over again.
	rates := []float64{}
	for i := 0; i < 6; i++ {
		rates = append(rates, c.NextRate(d.now, 30*sim.Millisecond))
		c.OnMIComplete(cc.MIStats{
			TargetRate: rates[i], SendRate: rates[i],
			BytesSent: int(rates[i] * 0.03 / 8), Start: d.now, End: d.now + 30*sim.Millisecond,
		})
		d.now += 30 * sim.Millisecond
	}
	if rates[0] != c.cfg.InitialRateBps {
		t.Fatalf("first post-revival MI rate = %v, want initial", rates[0])
	}
	grew := false
	for i := 1; i < len(rates); i++ {
		if rates[i] > rates[i-1]*1.5 {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("post-revival rates %v never doubled — slow start did not restart", rates)
	}
}
