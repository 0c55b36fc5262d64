package bbr

import (
	"testing"

	"mpcc/internal/cc"
	"mpcc/internal/sim"
)

// drive feeds the controller a fluid single-link model for n MIs and
// returns the last configured rate.
func drive(c *Controller, capBps float64, rtprop sim.Time, n int) float64 {
	now := sim.Time(0)
	miDur := rtprop
	last := 0.0
	for i := 0; i < n; i++ {
		rate := c.NextRate(now, rtprop)
		last = rate
		goodput := rate
		rtt := rtprop
		if rate > capBps {
			goodput = capBps
			// queueing inflates RTT proportionally to overload
			rtt = rtprop + sim.FromSeconds((rate-capBps)/capBps*rtprop.Seconds())
		}
		st := cc.MIStats{
			Index: i, Start: now, End: now + miDur,
			TargetRate: rate, SendRate: rate, Goodput: goodput,
			MinRTT: rtt, AvgRTT: rtt,
			BytesSent: int(rate * miDur.Seconds() / 8),
		}
		st.BytesAcked = int(goodput * miDur.Seconds() / 8)
		now += miDur
		c.OnMIComplete(st)
	}
	return last
}

func TestStartupRampsExponentially(t *testing.T) {
	c := New(2e6)
	if c.mode.String() != "startup" {
		t.Fatalf("initial mode = %s", c.mode.String())
	}
	drive(c, 100e6, 30*sim.Millisecond, 3)
	if got := c.bwEstimate(); got < 4e6 {
		t.Fatalf("bw estimate after 3 MIs = %v, want growth", got)
	}
}

func TestStartupExitsAtPlateau(t *testing.T) {
	c := New(2e6)
	drive(c, 100e6, 30*sim.Millisecond, 30)
	if c.mode.String() == "startup" {
		t.Fatal("never exited startup on a saturated link")
	}
}

func TestConvergesToBottleneck(t *testing.T) {
	c := New(2e6)
	drive(c, 100e6, 30*sim.Millisecond, 200)
	bw := c.bwEstimate()
	if bw < 90e6 || bw > 110e6 {
		t.Fatalf("bw estimate = %.1f Mbps, want ≈100", bw/1e6)
	}
}

func TestProbeBWCycleGains(t *testing.T) {
	c := New(2e6)
	drive(c, 100e6, 30*sim.Millisecond, 60)
	if c.mode.String() != "probe_bw" {
		t.Fatalf("mode = %s, want probe_bw", c.mode.String())
	}
	// Over one 8-MI cycle, rates must include one above and one below bw.
	var above, below bool
	bw := c.bwEstimate()
	now := 100 * sim.Second
	for i := 0; i < cycleLen; i++ {
		// keep lastProbeRTT recent so PROBE_RTT does not trigger here
		c.lastProbeRTT = now
		r := c.NextRate(now, 30*sim.Millisecond)
		if r > 1.1*bw {
			above = true
		}
		if r < 0.9*bw {
			below = true
		}
	}
	if !above || !below {
		t.Fatalf("gain cycle missing probe up/down (above=%v below=%v)", above, below)
	}
}

func TestProbeRTTEntered(t *testing.T) {
	c := New(2e6)
	// 30ms MIs: 400 MIs = 12 s > probeRTTEvery.
	sawProbeRTT := false
	now := sim.Time(0)
	rtprop := 30 * sim.Millisecond
	for i := 0; i < 500; i++ {
		rate := c.NextRate(now, rtprop)
		if c.mode.String() == "probe_rtt" {
			sawProbeRTT = true
		}
		st := cc.MIStats{Index: i, Start: now, End: now + rtprop,
			TargetRate: rate, SendRate: rate, Goodput: min64(rate, 100e6),
			MinRTT: rtprop, BytesSent: 1000, BytesAcked: 1000}
		now += rtprop
		c.OnMIComplete(st)
	}
	if !sawProbeRTT {
		t.Fatal("PROBE_RTT never entered in 15s")
	}
	if c.mode.String() == "probe_rtt" {
		t.Fatal("stuck in PROBE_RTT")
	}
}

func TestInflightCap(t *testing.T) {
	c := New(2e6)
	drive(c, 100e6, 30*sim.Millisecond, 200)
	// 2×BDP at 100 Mbps × ~30 ms ≈ 750 KB; accept the probe-inflated band.
	capBytes := c.InflightCapBytes(100*sim.Second, 30*sim.Millisecond)
	if capBytes < 500e3 || capBytes > 1.3e6 {
		t.Fatalf("inflight cap = %.0f KB, want ≈750", capBytes/1e3)
	}
}

func TestIgnoredMIDoesNotPolluteFilters(t *testing.T) {
	c := New(2e6)
	c.OnMIComplete(cc.MIStats{Ignore: true})
	if c.miCount != 0 {
		t.Fatal("ignored MI advanced the filter clock")
	}
}

func TestRandomLossResilience(t *testing.T) {
	// BBR is loss-agnostic: 1% random loss must not depress the estimate.
	c := New(2e6)
	now := sim.Time(0)
	rtprop := 30 * sim.Millisecond
	capBps := 100e6
	for i := 0; i < 200; i++ {
		rate := c.NextRate(now, rtprop)
		goodput := min64(rate, capBps) * 0.99
		st := cc.MIStats{Index: i, Start: now, End: now + rtprop,
			TargetRate: rate, SendRate: rate, Goodput: goodput,
			LossRate: 0.01, MinRTT: rtprop, BytesSent: 1000, BytesAcked: 990}
		now += rtprop
		c.OnMIComplete(st)
	}
	if bw := c.bwEstimate(); bw < 85e6 {
		t.Fatalf("bw with 1%% loss = %.1f Mbps, want ≈99", bw/1e6)
	}
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
