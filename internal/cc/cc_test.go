package cc

import (
	"testing"

	"mpcc/internal/sim"
)

func TestCouplerRegistry(t *testing.T) {
	c := NewCoupler()
	a := c.Register()
	b := c.Register()
	if len(c.States()) != 2 {
		t.Fatalf("states = %d", len(c.States()))
	}
	a.CwndPkts, b.CwndPkts = 10, 30
	if got := c.TotalCwnd(); got != 40 {
		t.Fatalf("TotalCwnd = %v", got)
	}
}

func TestCouplerRateSum(t *testing.T) {
	c := NewCoupler()
	a := c.Register()
	b := c.Register()
	a.CwndPkts, a.SRTT = 100, 100*sim.Millisecond // 1000 pkts/s
	b.CwndPkts, b.SRTT = 50, 50*sim.Millisecond   // 1000 pkts/s
	if got := c.RateSum(); got != 2000 {
		t.Fatalf("RateSum = %v, want 2000", got)
	}
	// Subflows without an RTT sample are skipped, not divided by zero.
	c.Register().CwndPkts = 999
	if got := c.RateSum(); got != 2000 {
		t.Fatalf("RateSum with unsampled subflow = %v", got)
	}
}
