package reno

import (
	"testing"

	"mpcc/internal/sim"
)

func TestSlowStartDoublesPerRTT(t *testing.T) {
	c := New()
	if c.Cwnd() != 10 {
		t.Fatalf("initial Cwnd = %v", c.Cwnd())
	}
	// One RTT worth of ACKs (cwnd packets) doubles the window.
	w := c.Cwnd()
	for i := 0; i < int(w); i++ {
		c.OnAck(0, 30*sim.Millisecond, 1)
	}
	if c.Cwnd() != 2*w {
		t.Fatalf("after 1 RTT of acks cwnd = %v, want %v", c.Cwnd(), 2*w)
	}
	if !c.InSlowStart() {
		t.Fatal("should still be in slow start")
	}
}

func TestCongestionAvoidanceLinear(t *testing.T) {
	c := New()
	c.OnLossEvent(0) // exit slow start: cwnd 5, ssthresh 5
	if c.InSlowStart() {
		t.Fatal("should be in congestion avoidance after loss")
	}
	w := c.Cwnd()
	for i := 0; i < int(w); i++ {
		c.OnAck(0, 30*sim.Millisecond, 1)
	}
	// Approximately +1 packet per RTT.
	if got := c.Cwnd(); got < w+0.9 || got > w+1.1 {
		t.Fatalf("CA growth per RTT = %v, want ≈1", got-w)
	}
}

func TestLossHalves(t *testing.T) {
	c := New()
	c.cwnd = 100
	c.OnLossEvent(0)
	if c.Cwnd() != 50 {
		t.Fatalf("after loss cwnd = %v, want 50", c.Cwnd())
	}
}

func TestRTOCollapses(t *testing.T) {
	c := New()
	c.cwnd = 100
	c.OnRTO(0)
	if c.Cwnd() != 1 {
		t.Fatalf("after RTO cwnd = %v, want 1", c.Cwnd())
	}
	// Recovery: slow start back to ssthresh = 50 then linear.
	if !c.InSlowStart() {
		t.Fatal("should slow-start after RTO")
	}
}

func TestMinimumWindow(t *testing.T) {
	c := New()
	c.cwnd = 2
	for i := 0; i < 10; i++ {
		c.OnLossEvent(0)
	}
	if c.Cwnd() < 2 {
		t.Fatalf("cwnd fell below floor: %v", c.Cwnd())
	}
}

func TestAIMDSawtooth(t *testing.T) {
	// After many AIMD cycles the window oscillates between W/2 and W.
	c := New()
	c.OnLossEvent(0)
	var peaks []float64
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 2000; i++ {
			c.OnAck(0, 30*sim.Millisecond, 1)
			if c.Cwnd() >= 60 {
				break
			}
		}
		peaks = append(peaks, c.Cwnd())
		c.OnLossEvent(0)
		if got := c.Cwnd(); got < peaks[len(peaks)-1]/2-1 || got > peaks[len(peaks)-1]/2+1 {
			t.Fatalf("halving broken: peak %v → %v", peaks[len(peaks)-1], got)
		}
	}
}
