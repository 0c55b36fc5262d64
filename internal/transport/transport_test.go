package transport

import (
	"testing"

	"mpcc/internal/cc"
	"mpcc/internal/cc/bbr"
	"mpcc/internal/cc/coupled"
	"mpcc/internal/cc/cubic"
	ccmpcc "mpcc/internal/cc/mpcc"
	"mpcc/internal/cc/reno"
	"mpcc/internal/netem"
	"mpcc/internal/sim"
)

const mbps = 1e6

// testNet is a reusable 1- or 2-link rig with the paper's defaults.
type testNet struct {
	eng   *sim.Engine
	links []*netem.Link
}

func newTestNet(seed int64, nLinks int) *testNet {
	eng := sim.NewEngine(seed)
	tn := &testNet{eng: eng}
	for i := 0; i < nLinks; i++ {
		l := netem.NewLink(eng, "link", 100*mbps, 30*sim.Millisecond, 375000)
		tn.links = append(tn.links, l)
	}
	return tn
}

func (tn *testNet) path(links ...int) *netem.Path {
	ls := make([]*netem.Link, len(links))
	for i, idx := range links {
		ls[i] = tn.links[idx]
	}
	return netem.NewPath(tn.eng, "p", ls...)
}

func newMPCCConn(tn *testNet, name string, params ccmpcc.UtilityParams, paths ...*netem.Path) *Connection {
	c := NewConnection(tn.eng, name)
	grp := ccmpcc.NewGroup()
	for _, p := range paths {
		ctl := ccmpcc.New(ccmpcc.DefaultConfig(params), grp, tn.eng.Rand())
		c.AddRateSubflow(p, ctl)
	}
	c.SetApp(Bulk{}, nil)
	return c
}

func goodputMbps(c *Connection, from, end sim.Time) float64 {
	return c.MeanGoodputBps(from, end) / mbps
}

func TestSingleMPCCFlowFillsLink(t *testing.T) {
	tn := newTestNet(1, 1)
	c := newMPCCConn(tn, "mp", ccmpcc.LossParams(), tn.path(0))
	c.Start(0)
	tn.eng.Run(20 * sim.Second)
	got := goodputMbps(c, 5*sim.Second, 20*sim.Second)
	if got < 85 || got > 101 {
		t.Fatalf("MPCC1 goodput = %.1f Mbps, want ≈95+", got)
	}
}

func TestMPCC2FillsTwoLinks(t *testing.T) {
	tn := newTestNet(2, 2)
	c := newMPCCConn(tn, "mp", ccmpcc.LossParams(), tn.path(0), tn.path(1))
	c.Start(0)
	tn.eng.Run(25 * sim.Second)
	got := goodputMbps(c, 8*sim.Second, 25*sim.Second)
	if got < 160 || got > 202 {
		t.Fatalf("MPCC2 goodput = %.1f Mbps, want ≈190", got)
	}
}

func TestMPCCLatencyKeepsQueuesShort(t *testing.T) {
	// Deep buffer (4×BDP): MPCC-latency should keep mean RTT well below the
	// bloated maximum, MPCC-loss will fill it.
	run := func(params ccmpcc.UtilityParams) float64 {
		tn := newTestNet(3, 1)
		tn.links[0].SetBuffer(4 * 375000)
		c := newMPCCConn(tn, "mp", params, tn.path(0))
		c.Start(0)
		tn.eng.Run(20 * sim.Second)
		mean, _ := c.MeanLatency()
		return mean
	}
	latLoss := run(ccmpcc.LossParams())
	latLat := run(ccmpcc.LatencyParams())
	if latLat >= latLoss {
		t.Fatalf("MPCC-latency RTT %.1f ms not below MPCC-loss %.1f ms", latLat*1e3, latLoss*1e3)
	}
	// Base RTT is 60 ms; the latency variant should stay in its vicinity.
	if latLat > 0.120 {
		t.Fatalf("MPCC-latency mean RTT = %.1f ms, want < 120", latLat*1e3)
	}
}

func TestTwoMPCCFlowsShareFairly(t *testing.T) {
	tn := newTestNet(4, 1)
	c1 := newMPCCConn(tn, "a", ccmpcc.LossParams(), tn.path(0))
	c2 := newMPCCConn(tn, "b", ccmpcc.LossParams(), tn.path(0))
	c1.Start(0)
	c2.Start(0)
	tn.eng.Run(30 * sim.Second)
	g1 := goodputMbps(c1, 10*sim.Second, 30*sim.Second)
	g2 := goodputMbps(c2, 10*sim.Second, 30*sim.Second)
	if g1+g2 < 80 {
		t.Fatalf("total %.1f Mbps too low", g1+g2)
	}
	share := g1 / (g1 + g2)
	if share < 0.30 || share > 0.70 {
		t.Fatalf("unfair split: %.1f vs %.1f Mbps", g1, g2)
	}
}

func TestRenoFlowFillsLink(t *testing.T) {
	tn := newTestNet(5, 1)
	c := NewConnection(tn.eng, "reno")
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	tn.eng.Run(20 * sim.Second)
	got := goodputMbps(c, 5*sim.Second, 20*sim.Second)
	// BDP-sized buffer: Reno should achieve high utilization.
	if got < 75 {
		t.Fatalf("Reno goodput = %.1f Mbps, want ≥ 75", got)
	}
}

func TestCubicFlowFillsLink(t *testing.T) {
	tn := newTestNet(6, 1)
	c := NewConnection(tn.eng, "cubic")
	c.AddWindowSubflow(tn.path(0), cubic.New())
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	tn.eng.Run(20 * sim.Second)
	got := goodputMbps(c, 5*sim.Second, 20*sim.Second)
	if got < 75 {
		t.Fatalf("Cubic goodput = %.1f Mbps, want ≥ 75", got)
	}
}

func TestBBRFlowFillsLink(t *testing.T) {
	tn := newTestNet(7, 1)
	c := NewConnection(tn.eng, "bbr")
	c.AddRateSubflow(tn.path(0), bbr.New(2*mbps))
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	tn.eng.Run(20 * sim.Second)
	got := goodputMbps(c, 5*sim.Second, 20*sim.Second)
	if got < 80 || got > 105 {
		t.Fatalf("BBR goodput = %.1f Mbps, want ≈95", got)
	}
}

func TestLIATwoSubflowsUseBothLinks(t *testing.T) {
	tn := newTestNet(8, 2)
	c := NewConnection(tn.eng, "lia", WithScheduler(DefaultScheduler{}))
	cp := cc.NewCoupler()
	c.AddWindowSubflow(tn.path(0), coupled.NewLIA(cp))
	c.AddWindowSubflow(tn.path(1), coupled.NewLIA(cp))
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	tn.eng.Run(30 * sim.Second)
	got := goodputMbps(c, 10*sim.Second, 30*sim.Second)
	if got < 120 {
		t.Fatalf("LIA 2-subflow goodput = %.1f Mbps, want ≥ 120", got)
	}
	// Both subflows must carry meaningful traffic.
	for _, s := range c.Subflows() {
		if s.DeliveredBytes() < int64(got)/8*1e6/10 {
			t.Fatalf("subflow %d starved: %d bytes", s.id, s.DeliveredBytes())
		}
	}
}

func TestLIACoupledFairToSinglePathReno(t *testing.T) {
	// Topology 3a: both LIA subflows and a Reno flow share ONE link. The
	// coupled MPTCP connection must not take more than a single Reno flow
	// (RFC 6356 goal 3) — allow generous slack for dynamics.
	tn := newTestNet(9, 1)
	mp := NewConnection(tn.eng, "lia", WithScheduler(DefaultScheduler{}))
	cp := cc.NewCoupler()
	mp.AddWindowSubflow(tn.path(0), coupled.NewLIA(cp))
	mp.AddWindowSubflow(tn.path(0), coupled.NewLIA(cp))
	mp.SetApp(Bulk{}, nil)
	sp := NewConnection(tn.eng, "reno")
	sp.AddWindowSubflow(tn.path(0), reno.New())
	sp.SetApp(Bulk{}, nil)
	mp.Start(0)
	sp.Start(0)
	tn.eng.Run(40 * sim.Second)
	gmp := goodputMbps(mp, 15*sim.Second, 40*sim.Second)
	gsp := goodputMbps(sp, 15*sim.Second, 40*sim.Second)
	if gmp > 1.8*gsp {
		t.Fatalf("coupled LIA too aggressive on shared bottleneck: MP %.1f vs SP %.1f", gmp, gsp)
	}
}

func TestFileTransferFCT(t *testing.T) {
	tn := newTestNet(10, 1)
	c := NewConnection(tn.eng, "file")
	c.AddWindowSubflow(tn.path(0), reno.New())
	var done sim.Time = -1
	c.SetApp(NewFile(5_000_000), func(fct sim.Time) { done = fct })
	c.Start(0)
	tn.eng.Run(30 * sim.Second)
	if done < 0 {
		t.Fatal("5 MB file never completed")
	}
	if c.FCT() != done {
		t.Fatal("FCT getter disagrees with callback")
	}
	// 5 MB at ≤100 Mbps with slow start: at least 0.4 s, at most a few s.
	if done < 400*sim.Millisecond || done > 10*sim.Second {
		t.Fatalf("FCT = %v implausible", done)
	}
	if c.AckedBytes() != 5_000_000 {
		t.Fatalf("acked %d bytes, want 5000000", c.AckedBytes())
	}
}

func TestFileCompletesDespiteRandomLoss(t *testing.T) {
	tn := newTestNet(11, 1)
	tn.links[0].SetLoss(0.02)
	c := NewConnection(tn.eng, "lossyfile")
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(NewFile(1_000_000), nil)
	c.Start(0)
	tn.eng.Run(60 * sim.Second)
	if c.FCT() < 0 {
		t.Fatal("file did not complete under 2% random loss (retransmission broken)")
	}
	if c.AckedBytes() != 1_000_000 {
		t.Fatalf("acked %d, want 1000000 exactly (duplicate delivery counted?)", c.AckedBytes())
	}
}

func TestDefaultSchedulerStarvesSecondSubflowUnderRateCC(t *testing.T) {
	// §6: with rate-based CC and the default scheduler, everything goes to
	// the lowest-RTT subflow. Make link 0 clearly lower-RTT.
	tn := newTestNet(12, 2)
	tn.links[1].SetDelay(60 * sim.Millisecond)
	c := newMPCCConn(tn, "mp", ccmpcc.LossParams(), tn.path(0), tn.path(1))
	c2 := NewConnection(tn.eng, "mp-def", WithScheduler(DefaultScheduler{}))
	_ = c // build identical conn with default scheduler instead
	grp := ccmpcc.NewGroup()
	c2.AddRateSubflow(tn.path(0), ccmpcc.New(ccmpcc.DefaultConfig(ccmpcc.LossParams()), grp, tn.eng.Rand()))
	c2.AddRateSubflow(tn.path(1), ccmpcc.New(ccmpcc.DefaultConfig(ccmpcc.LossParams()), grp, tn.eng.Rand()))
	c2.SetApp(Bulk{}, nil)
	c2.Start(0)
	tn.eng.Run(20 * sim.Second)
	got := goodputMbps(c2, 5*sim.Second, 20*sim.Second)
	if got > 130 {
		t.Fatalf("default scheduler achieved %.1f Mbps with rate CC; expected starvation ≈100", got)
	}
	sf := c2.Subflows()
	if sf[1].DeliveredBytes() > sf[0].DeliveredBytes()/4 {
		t.Fatalf("high-RTT subflow not starved: %d vs %d bytes",
			sf[1].DeliveredBytes(), sf[0].DeliveredBytes())
	}
}

func TestRateSchedulerUsesBothSubflows(t *testing.T) {
	tn := newTestNet(13, 2)
	tn.links[1].SetDelay(60 * sim.Millisecond)
	c := newMPCCConn(tn, "mp", ccmpcc.LossParams(), tn.path(0), tn.path(1))
	c.Start(0)
	tn.eng.Run(25 * sim.Second)
	got := goodputMbps(c, 8*sim.Second, 25*sim.Second)
	if got < 150 {
		t.Fatalf("rate scheduler achieved %.1f Mbps, want ≈190", got)
	}
}

func TestShallowBufferMPCCvsLIA(t *testing.T) {
	// Fig. 5a headline: with a 9 KB buffer (2.4% of BDP) MPCC still fills
	// the link; LIA cannot.
	run := func(mk func(tn *testNet) *Connection) float64 {
		tn := newTestNet(14, 1)
		tn.links[0].SetBuffer(9000)
		c := mk(tn)
		c.Start(0)
		tn.eng.Run(20 * sim.Second)
		return goodputMbps(c, 5*sim.Second, 20*sim.Second)
	}
	gMPCC := run(func(tn *testNet) *Connection {
		return newMPCCConn(tn, "mp", ccmpcc.LossParams(), tn.path(0))
	})
	gLIA := run(func(tn *testNet) *Connection {
		c := NewConnection(tn.eng, "lia", WithScheduler(DefaultScheduler{}))
		c.AddWindowSubflow(tn.path(0), coupled.NewLIA(cc.NewCoupler()))
		c.SetApp(Bulk{}, nil)
		return c
	})
	if gMPCC < 75 {
		t.Fatalf("MPCC at 9KB buffer = %.1f Mbps, want ≥ 75", gMPCC)
	}
	if gLIA > gMPCC {
		t.Fatalf("LIA (%.1f) should not beat MPCC (%.1f) at 9KB buffer", gLIA, gMPCC)
	}
}

func TestMPCCResilientToRandomLoss(t *testing.T) {
	// Fig. 6a headline: 1% random loss barely dents MPCC; it cripples LIA.
	run := func(mk func(tn *testNet) *Connection) float64 {
		tn := newTestNet(15, 1)
		tn.links[0].SetLoss(0.01)
		c := mk(tn)
		c.Start(0)
		tn.eng.Run(20 * sim.Second)
		return goodputMbps(c, 5*sim.Second, 20*sim.Second)
	}
	gMPCC := run(func(tn *testNet) *Connection {
		return newMPCCConn(tn, "mp", ccmpcc.LossParams(), tn.path(0))
	})
	gLIA := run(func(tn *testNet) *Connection {
		c := NewConnection(tn.eng, "lia", WithScheduler(DefaultScheduler{}))
		c.AddWindowSubflow(tn.path(0), coupled.NewLIA(cc.NewCoupler()))
		c.SetApp(Bulk{}, nil)
		return c
	})
	if gMPCC < 70 {
		t.Fatalf("MPCC at 1%% loss = %.1f Mbps, want ≥ 70", gMPCC)
	}
	if gLIA > gMPCC/2 {
		t.Fatalf("LIA at 1%% loss = %.1f Mbps, expected far below MPCC's %.1f", gLIA, gMPCC)
	}
}

func TestSubflowAccessors(t *testing.T) {
	tn := newTestNet(16, 1)
	c := newMPCCConn(tn, "mp", ccmpcc.LossParams(), tn.path(0))
	s := c.Subflows()[0]
	if s.id != 0 || s.Path() == nil {
		t.Fatal("accessors broken")
	}
	c.Start(0)
	tn.eng.Run(2 * sim.Second)
	if s.SRTT() <= 0 || s.curRate <= 0 || s.SentPkts() == 0 {
		t.Fatalf("runtime accessors: srtt=%v rate=%v sent=%d", s.SRTT(), s.curRate, s.SentPkts())
	}
}

func TestStartPanics(t *testing.T) {
	tn := newTestNet(17, 1)
	c := NewConnection(tn.eng, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("Start with no subflows should panic")
		}
	}()
	c.Start(0)
}

func TestAddSubflowAfterStartPanics(t *testing.T) {
	tn := newTestNet(18, 1)
	c := NewConnection(tn.eng, "x")
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	tn.eng.Run(sim.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("AddRateSubflow after Start should panic")
		}
	}()
	c.AddWindowSubflow(tn.path(0), reno.New())
}

func TestLatencyAccounting(t *testing.T) {
	tn := newTestNet(19, 1)
	c := newMPCCConn(tn, "mp", ccmpcc.LossParams(), tn.path(0))
	c.Start(0)
	tn.eng.Run(5 * sim.Second)
	mean, std := c.MeanLatency()
	if mean < 0.060 || mean > 0.200 {
		t.Fatalf("mean RTT = %.1f ms, want ≥ base 60ms", mean*1e3)
	}
	if std < 0 {
		t.Fatalf("stddev = %v", std)
	}
}

// BenchmarkMPCCVirtualSecond measures the wall cost of one virtual second
// of a saturated MPCC2 connection — the unit cost every experiment scales
// with.
func BenchmarkMPCCVirtualSecond(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tn := newTestNet(int64(i), 2)
		c := newMPCCConn(tn, "bench", ccmpcc.LossParams(), tn.path(0), tn.path(1))
		c.Start(0)
		tn.eng.Run(1 * sim.Second)
	}
}
