package mpcc

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mpcc/internal/cc"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// miDriver feeds a controller synthetic MI statistics generated by a fluid
// single-link model: loss appears when the configured rate exceeds capacity.
type miDriver struct {
	c        *Controller
	capBps   float64
	now      sim.Time
	miDur    sim.Time
	idx      int
	lastRate float64
}

func newDriver(c *Controller, capBps float64) *miDriver {
	return &miDriver{c: c, capBps: capBps, miDur: 30 * sim.Millisecond}
}

// step runs one MI: asks the controller for a rate, synthesizes the
// resulting stats, and completes the MI one step later (in-order, as the
// transport guarantees).
func (d *miDriver) step() {
	rate := d.c.NextRate(d.now, d.miDur)
	d.lastRate = rate
	st := cc.MIStats{
		Index:      d.idx,
		Start:      d.now,
		End:        d.now + d.miDur,
		TargetRate: rate,
		SendRate:   rate,
		BytesSent:  int(rate * d.miDur.Seconds() / 8),
	}
	if rate > d.capBps {
		st.LossRate = 1 - d.capBps/rate
		st.BytesLost = int(float64(st.BytesSent) * st.LossRate)
	}
	st.BytesAcked = st.BytesSent - st.BytesLost
	st.Goodput = rate * (1 - st.LossRate)
	d.now += d.miDur
	d.idx++
	d.c.OnMIComplete(st)
}

func newTestController(p UtilityParams) (*Controller, *Group) {
	g := NewGroup()
	cfg := DefaultConfig(p)
	c := New(cfg, g, rand.New(rand.NewSource(11)))
	return c, g
}

func TestControllerStartsInSlowStart(t *testing.T) {
	c, _ := newTestController(LossParams())
	if c.state.String() != "starting" {
		t.Fatalf("initial state = %s", c.state.String())
	}
	if c.rate != 2e6 {
		t.Fatalf("initial Rate = %v", c.rate)
	}
}

func TestSlowStartDoublesUntilLoss(t *testing.T) {
	c, _ := newTestController(LossParams())
	d := newDriver(c, 100e6)
	var rates []float64
	for i := 0; i < 40 && c.state.String() == "starting"; i++ {
		d.step()
		rates = append(rates, d.lastRate)
	}
	if c.state.String() == "starting" {
		t.Fatalf("never left slow start; rates %v", rates)
	}
	// It must have reached a meaningful fraction of capacity before exiting.
	peak := 0.0
	for _, r := range rates {
		peak = math.Max(peak, r)
	}
	if peak < 50e6 {
		t.Fatalf("slow start peaked at %.1f Mbps, want ≥ 50", peak/1e6)
	}
	// And must have reverted below the lossy rate on exit.
	if c.rate > 1.1*peak {
		t.Fatalf("rate after revert %.1f > peak %.1f", c.rate/1e6, peak/1e6)
	}
}

func TestConvergesNearCapacitySingleFlow(t *testing.T) {
	// MPCC1 == PCC Vivace: alone on a 100 Mbps link it should settle near
	// (and slightly above, per the theory: S ∈ (c, c(1+1/(β−2))]) capacity.
	c, _ := newTestController(LossParams())
	d := newDriver(c, 100e6)
	for i := 0; i < 600; i++ {
		d.step()
	}
	got := c.rate / 1e6
	if got < 90 || got > 115 {
		t.Fatalf("converged to %.1f Mbps, want ≈100 (state %s)", got, c.state.String())
	}
}

func TestConvergedRateWithinTheoreticalBand(t *testing.T) {
	// Appendix C: from some point onward S_r ∈ (c_r, c_r·(1+1/(β−2))].
	// With β = 11.35 the band is (100, 110.7]. Allow a little slack for the
	// discrete step dynamics.
	c, _ := newTestController(LossParams())
	d := newDriver(c, 100e6)
	for i := 0; i < 400; i++ {
		d.step()
	}
	var observed []float64
	for i := 0; i < 200; i++ {
		d.step()
		observed = append(observed, d.lastRate/1e6)
	}
	mean := 0.0
	for _, r := range observed {
		mean += r
	}
	mean /= float64(len(observed))
	if mean < 90 || mean > 112 {
		t.Fatalf("steady-state mean rate %.1f Mbps outside theoretical band", mean)
	}
}

func TestRandomLossResilience(t *testing.T) {
	// With 1% non-congestion loss (below the utility's break-even), the
	// controller should still push near capacity — the Fig. 6 behaviour.
	c, _ := newTestController(LossParams())
	capBps := 100e6
	d := newDriver(c, capBps)
	now := sim.Time(0)
	idx := 0
	for i := 0; i < 600; i++ {
		rate := c.NextRate(now, d.miDur)
		loss := 0.01
		if rate > capBps {
			loss += 1 - capBps/rate
		}
		sent := int(rate * d.miDur.Seconds() / 8)
		st := cc.MIStats{
			Index: idx, Start: now, End: now + d.miDur,
			TargetRate: rate, SendRate: rate,
			BytesSent: sent, BytesLost: int(float64(sent) * loss),
			LossRate: loss, Goodput: rate * (1 - loss),
		}
		st.BytesAcked = st.BytesSent - st.BytesLost
		now += d.miDur
		idx++
		c.OnMIComplete(st)
	}
	if got := c.rate / 1e6; got < 80 {
		t.Fatalf("rate with 1%% random loss = %.1f Mbps, want ≥ 80", got)
	}
}

func TestLatencyVariantBacksOffOnGradient(t *testing.T) {
	// MPCC-latency must reduce its rate when the RTT gradient is positive
	// even with zero loss (bufferbloat avoidance, Fig. 9).
	c, _ := newTestController(LatencyParams())
	capBps := 100e6
	d := &miDriver{c: c, capBps: capBps, miDur: 30 * sim.Millisecond}
	now := sim.Time(0)
	for i := 0; i < 600; i++ {
		rate := c.NextRate(now, d.miDur)
		grad := 0.0
		if rate > capBps {
			grad = (rate - capBps) / capBps // queue growth rate, s/s
		}
		sent := int(rate * d.miDur.Seconds() / 8)
		st := cc.MIStats{
			Index: i, Start: now, End: now + d.miDur,
			TargetRate: rate, SendRate: rate, BytesSent: sent,
			BytesAcked: sent, Goodput: rate, RTTGradient: grad,
		}
		now += d.miDur
		c.OnMIComplete(st)
	}
	got := c.rate / 1e6
	if got < 85 || got > 112 {
		t.Fatalf("MPCC-latency settled at %.1f Mbps, want ≈100", got)
	}
}

func TestTwoControllersShareLinkFairly(t *testing.T) {
	// Two single-subflow MPCC connections on one 100 Mbps link must converge
	// to ≈50/50 (resource pooling, §4.2). Each controller has its own Group
	// (they are separate connections).
	rng := rand.New(rand.NewSource(3))
	g1, g2 := NewGroup(), NewGroup()
	c1 := New(DefaultConfig(LossParams()), g1, rng)
	c2 := New(DefaultConfig(LossParams()), g2, rng)
	capBps := 100e6
	miDur := 30 * sim.Millisecond
	now := sim.Time(0)
	r1, r2 := c1.rate, c2.rate
	feed := func(c *Controller, own, other float64, i int) {
		total := own + other
		loss := 0.0
		if total > capBps {
			loss = 1 - capBps/total
		}
		sent := int(own * miDur.Seconds() / 8)
		st := cc.MIStats{
			Index: i, Start: now, End: now + miDur,
			TargetRate: own, SendRate: own, BytesSent: sent,
			BytesLost: int(float64(sent) * loss), LossRate: loss,
			Goodput: own * (1 - loss),
		}
		st.BytesAcked = st.BytesSent - st.BytesLost
		c.OnMIComplete(st)
	}
	for i := 0; i < 1500; i++ {
		nr1 := c1.NextRate(now, miDur)
		nr2 := c2.NextRate(now, miDur)
		feed(c1, nr1, nr2, i)
		feed(c2, nr2, nr1, i)
		r1, r2 = nr1, nr2
		now += miDur
	}
	share1 := r1 / (r1 + r2)
	if share1 < 0.30 || share1 > 0.70 {
		t.Fatalf("unfair split: %.1f / %.1f Mbps", r1/1e6, r2/1e6)
	}
	if total := (r1 + r2) / 1e6; total < 85 || total > 115 {
		t.Fatalf("total %.1f Mbps, want ≈100", total)
	}
}

func TestRatePublicationAtMIBoundary(t *testing.T) {
	g := NewGroup()
	c := New(DefaultConfig(LossParams()), g, rand.New(rand.NewSource(1)))
	r := c.NextRate(0, 30*sim.Millisecond)
	if g.rates[c.id] != r {
		t.Fatalf("published %v, chose %v", g.rates[c.id], r)
	}
}

func TestProbeOmegaScalesWithConnectionTotal(t *testing.T) {
	// §5.2: ω is a fraction of the connection's TOTAL rate, not the
	// subflow's own. With a sibling publishing 200 Mbps, the probe spread of
	// a 10 Mbps subflow must reflect the total.
	g := NewGroup()
	c := New(DefaultConfig(LossParams()), g, rand.New(rand.NewSource(1)))
	sibling := g.Join()
	g.Publish(sibling, 200e6)
	// Force the controller into probing at a known rate (high enough that
	// the r−ω trial does not clamp at the rate floor).
	c.state = phaseProbing
	c.rate = 50e6
	g.Publish(c.id, 50e6)
	r1 := c.NextRate(0, 30*sim.Millisecond)
	r2 := c.NextRate(0, 30*sim.Millisecond)
	spread := math.Abs(r1 - r2)
	wantOmega := probeFrac * 250e6
	if math.Abs(spread-2*wantOmega) > 1e3 {
		t.Fatalf("probe spread = %.2f Mbps, want 2ω = %.2f Mbps", spread/1e6, 2*wantOmega/1e6)
	}
}

func TestIgnoredMIRetriesDecision(t *testing.T) {
	c, _ := newTestController(LossParams())
	miDur := 30 * sim.Millisecond
	r := c.NextRate(0, miDur)
	// Deliver an app-limited empty MI: the controller must not advance and
	// must re-issue the slow-start trial at the same rate.
	c.OnMIComplete(cc.MIStats{Index: 0, Start: 0, End: miDur, TargetRate: r, Ignore: true})
	r2 := c.NextRate(miDur, miDur)
	if r2 != r {
		t.Fatalf("after ignored MI rate = %v, want %v", r2, r)
	}
	if c.state.String() != "starting" {
		t.Fatalf("state = %s", c.state.String())
	}
}

func TestRateClamping(t *testing.T) {
	g := NewGroup()
	cfg := DefaultConfig(LossParams())
	cfg.InitialRateBps = MaxRateBps / 2
	c := New(cfg, g, rand.New(rand.NewSource(1)))
	d := newDriver(c, 4*MaxRateBps) // capacity far above the ceiling
	for i := 0; i < 100; i++ {
		d.step()
		if d.lastRate > MaxRateBps {
			t.Fatalf("rate %v exceeded MaxRateBps", d.lastRate)
		}
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid params")
		}
	}()
	cfg := DefaultConfig(UtilityParams{Alpha: 2, Beta: 1, Gamma: 0})
	New(cfg, NewGroup(), rand.New(rand.NewSource(1)))
}

func TestAdaptsToCapacityDrop(t *testing.T) {
	// Fig. 7 behaviour: when capacity halves, the controller must track down.
	c, _ := newTestController(LossParams())
	d := newDriver(c, 100e6)
	for i := 0; i < 400; i++ {
		d.step()
	}
	d.capBps = 40e6
	for i := 0; i < 400; i++ {
		d.step()
	}
	got := c.rate / 1e6
	if got < 32 || got > 50 {
		t.Fatalf("after capacity drop rate = %.1f Mbps, want ≈40", got)
	}
	d.capBps = 100e6
	for i := 0; i < 400; i++ {
		d.step()
	}
	if got := c.rate / 1e6; got < 80 {
		t.Fatalf("after capacity restore rate = %.1f Mbps, want ≈100", got)
	}
}

// Fuzz-style robustness: under arbitrary (even nonsensical) MI statistics
// the controller must never panic and must keep its rate within bounds.
func TestQuickControllerRobustToGarbageStats(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGroup()
		c := New(DefaultConfig(LossParams()), g, rng)
		now := sim.Time(0)
		for i := 0; i < int(n)+20; i++ {
			r := c.NextRate(now, 30*sim.Millisecond)
			if r < MinRateBps-1 || r > MaxRateBps+1 {
				return false
			}
			sent := rng.Intn(2_000_000)
			lost := 0
			if sent > 0 {
				lost = rng.Intn(sent + 1)
			}
			st := cc.MIStats{
				Index:       i,
				Start:       now,
				End:         now + sim.Time(1+rng.Intn(int(100*sim.Millisecond))),
				TargetRate:  r,
				SendRate:    rng.Float64() * 2 * r,
				BytesSent:   sent,
				BytesLost:   lost,
				BytesAcked:  sent - lost,
				LossRate:    float64(lost) / math.Max(1, float64(sent)),
				RTTGradient: rng.NormFloat64(),
				MinRTT:      sim.Time(rng.Intn(int(sim.Second))),
				Ignore:      rng.Intn(10) == 0,
			}
			now = st.End
			c.OnMIComplete(st)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(33))}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerReceivesDecisionsAndUtilities(t *testing.T) {
	c, _ := newTestController(LossParams())
	var decisions, observations int
	c.SetProbes(obs.NewBus(obs.SinkFunc(func(e obs.Event) {
		switch e.Kind {
		case obs.KindMIDecision:
			decisions++
			if e.Flow != "conn0" || e.State == "" || e.Value <= 0 {
				t.Errorf("bad decision event %+v", e)
			}
		case obs.KindUtility:
			observations++
		}
	})), "conn0")
	d := newDriver(c, 100e6)
	for i := 0; i < 50; i++ {
		d.step()
	}
	if decisions != 50 {
		t.Fatalf("decisions = %d, want 50", decisions)
	}
	if observations == 0 {
		t.Fatal("no utility observations traced")
	}
	c.SetProbes(nil, "") // detaching must not panic afterwards
	d.step()
}

// TestGroupResetRebuildsControllers: after Reset, New rebuilds the group's
// retired controllers in place without allocating, and a rebuilt pair
// decides exactly as a new pair on a new group does.
func TestGroupResetRebuildsControllers(t *testing.T) {
	cfg := DefaultConfig(LossParams())
	drive := func(a, b *Controller) []float64 {
		da, db := newDriver(a, 40e6), newDriver(b, 60e6)
		var rates []float64
		for i := 0; i < 300; i++ {
			da.step()
			db.step()
			rates = append(rates, da.lastRate, db.lastRate)
		}
		return rates
	}
	g := NewGroup()
	rng := rand.New(rand.NewSource(5))
	a, b := New(cfg, g, rng), New(cfg, g, rng)
	drive(a, b)

	var a2, b2 *Controller
	if n := testing.AllocsPerRun(10, func() {
		g.Reset()
		a2, b2 = New(cfg, g, rng), New(cfg, g, rng)
	}); n != 0 {
		t.Fatalf("rebuilding a reset group's controllers allocated %.0f times", n)
	}
	if (a2 != a || b2 != b) && (a2 != b || b2 != a) || len(g.rates) != 2 {
		t.Fatalf("Reset then New built new controllers (or %d members), want the retired two", len(g.rates))
	}
	rng.Seed(9)
	rebuilt := drive(a2, b2)
	g2 := NewGroup()
	rng2 := rand.New(rand.NewSource(9))
	if fresh := drive(New(cfg, g2, rng2), New(cfg, g2, rng2)); !slices.Equal(rebuilt, fresh) {
		t.Fatal("rebuilt controllers decide differently from new ones")
	}
}
