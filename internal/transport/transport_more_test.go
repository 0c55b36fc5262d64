package transport

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpcc/internal/cc"
	"mpcc/internal/cc/coupled"
	ccmpcc "mpcc/internal/cc/mpcc"
	"mpcc/internal/cc/reno"
	"mpcc/internal/sim"
)

func TestConnectionOptions(t *testing.T) {
	tn := newTestNet(30, 1)
	c := NewConnection(tn.eng, "opts", WithMinRTO(50*sim.Millisecond))
	if c.minRTO != 50*sim.Millisecond {
		t.Fatalf("option not applied: minrto=%v", c.minRTO)
	}
	s := c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	tn.eng.Run(5 * sim.Second)
	if c.AckedBytes() == 0 {
		t.Fatal("no delivery with a lowered RTO floor")
	}
	// Every delivered segment is one MSS.
	if got := c.AckedBytes() % DefaultMSS; got != 0 {
		t.Fatalf("acked bytes %d not a multiple of MSS %d", c.AckedBytes(), DefaultMSS)
	}
	// The RTO's variance term is floored at the lowered minimum, not the
	// default one.
	if s.rto >= s.srtt+DefaultMinRTO {
		t.Fatalf("rto %v with srtt %v ignores the 50ms floor", s.rto, s.srtt)
	}
}

func TestFileWithNonMSSTail(t *testing.T) {
	// 1 MB + 700 bytes: the final segment is smaller than the MSS and must
	// still be delivered and counted exactly.
	tn := newTestNet(31, 1)
	c := NewConnection(tn.eng, "tail")
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(NewFile(1_000_700), nil)
	c.Start(0)
	tn.eng.Run(20 * sim.Second)
	if c.FCT() < 0 {
		t.Fatal("file with tail segment never completed")
	}
	if c.AckedBytes() != 1_000_700 {
		t.Fatalf("acked %d, want 1000700", c.AckedBytes())
	}
}

func TestBlackoutRecovery(t *testing.T) {
	// Failure injection: the link drops everything for 2 seconds
	// mid-transfer; the connection must recover via RTO and finish.
	tn := newTestNet(32, 1)
	link := tn.links[0]
	c := NewConnection(tn.eng, "blackout")
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(NewFile(8_000_000), nil)
	c.Start(0)
	tn.eng.At(1*sim.Second, func() { link.SetLoss(1.0) })
	tn.eng.At(3*sim.Second, func() { link.SetLoss(0) })
	tn.eng.Run(60 * sim.Second)
	if c.FCT() < 0 {
		t.Fatal("transfer did not survive a 2s blackout")
	}
	if c.FCT() < 3*sim.Second {
		t.Fatalf("FCT %v implausibly beat the blackout", c.FCT())
	}
	if c.AckedBytes() != 8_000_000 {
		t.Fatalf("acked %d bytes", c.AckedBytes())
	}
}

func TestMPCCBlackoutRecovery(t *testing.T) {
	// Same failure injection for the rate-based path.
	tn := newTestNet(33, 1)
	link := tn.links[0]
	c := newMPCCConn(tn, "mp", ccmpcc.LossParams(), tn.path(0))
	c.Start(0)
	tn.eng.At(2*sim.Second, func() { link.SetLoss(1.0) })
	tn.eng.At(4*sim.Second, func() { link.SetLoss(0) })
	tn.eng.Run(25 * sim.Second)
	// It must be sending again at a healthy rate at the end.
	got := goodputMbps(c, 15*sim.Second, 25*sim.Second)
	if got < 50 {
		t.Fatalf("post-blackout goodput = %.1f Mbps, want recovery toward 100", got)
	}
}

func TestTwoSubflowsSameLink(t *testing.T) {
	// Topology 3a: both MPCC subflows share one link with a PCC flow. The
	// MPCC connection must not starve the single-path flow (goal 3, §2).
	tn := newTestNet(34, 1)
	mp := newMPCCConn(tn, "mp", ccmpcc.LossParams(), tn.path(0), tn.path(0))
	sp := newMPCCConn(tn, "sp", ccmpcc.LossParams(), tn.path(0))
	mp.Start(0)
	sp.Start(0)
	tn.eng.Run(40 * sim.Second)
	gmp := goodputMbps(mp, 20*sim.Second, 40*sim.Second)
	gsp := goodputMbps(sp, 20*sim.Second, 40*sim.Second)
	if gsp < 20 {
		t.Fatalf("single-path starved: MP %.1f vs SP %.1f Mbps", gmp, gsp)
	}
	if gmp+gsp < 75 {
		t.Fatalf("total %.1f Mbps too low", gmp+gsp)
	}
}

func TestOLIAAndBaliaEndToEnd(t *testing.T) {
	for name, mk := range map[string]func(*cc.Coupler) cc.WindowController{
		"olia":  func(cp *cc.Coupler) cc.WindowController { return coupled.NewOLIA(cp) },
		"balia": func(cp *cc.Coupler) cc.WindowController { return coupled.NewBalia(cp) },
	} {
		tn := newTestNet(35, 2)
		c := NewConnection(tn.eng, name, WithScheduler(DefaultScheduler{}))
		cp := cc.NewCoupler()
		c.AddWindowSubflow(tn.path(0), mk(cp))
		c.AddWindowSubflow(tn.path(1), mk(cp))
		c.SetApp(Bulk{}, nil)
		c.Start(0)
		tn.eng.Run(30 * sim.Second)
		got := goodputMbps(c, 10*sim.Second, 30*sim.Second)
		if got < 110 {
			t.Fatalf("%s 2-subflow goodput = %.1f Mbps, want ≥ 110", name, got)
		}
	}
}

func TestWVegasEndToEndLowLatency(t *testing.T) {
	tn := newTestNet(36, 2)
	c := NewConnection(tn.eng, "wvegas", WithScheduler(DefaultScheduler{}))
	cp := cc.NewCoupler()
	c.AddWindowSubflow(tn.path(0), coupled.NewWVegas(cp, 10))
	c.AddWindowSubflow(tn.path(1), coupled.NewWVegas(cp, 10))
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	tn.eng.Run(30 * sim.Second)
	// wVegas is delay-based: whatever it achieves, queues stay short.
	mean, _ := c.MeanLatency()
	if mean > 0.075 { // base RTT 60 ms
		t.Fatalf("wVegas mean RTT = %.1f ms, want near 60 (short queues)", mean*1e3)
	}
	if c.AckedBytes() == 0 {
		t.Fatal("wVegas delivered nothing")
	}
}

func TestRetransmissionCounting(t *testing.T) {
	tn := newTestNet(37, 1)
	tn.links[0].SetLoss(0.05)
	c := NewConnection(tn.eng, "retx")
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(NewFile(2_000_000), nil)
	c.Start(0)
	tn.eng.Run(120 * sim.Second)
	s := c.Subflows()[0]
	if c.FCT() < 0 {
		t.Fatal("file never completed at 5% loss")
	}
	if s.LostPkts() == 0 {
		t.Fatal("no losses recorded at 5% loss")
	}
	// Sent packets must exceed the file's packet count (retransmissions).
	if s.SentPkts() <= 2_000_000/1500 {
		t.Fatalf("sent %d pkts, expected retransmissions on top of %d", s.SentPkts(), 2_000_000/1500)
	}
}

// Property: for random short runs, the subflow packet ledger balances:
// sent = acked + lost + in-flight (counting transmissions, where every
// loss/ack resolves exactly one transmission).
func TestQuickPacketLedger(t *testing.T) {
	f := func(seed uint8, lossPct uint8) bool {
		tn := newTestNet(int64(seed)+100, 1)
		tn.links[0].SetLoss(float64(lossPct%10) / 100)
		c := NewConnection(tn.eng, "ledger")
		c.AddWindowSubflow(tn.path(0), reno.New())
		c.SetApp(Bulk{}, nil)
		c.Start(0)
		tn.eng.Run(3 * sim.Second)
		s := c.Subflows()[0]
		resolved := uint64(0)
		for _, rec := range s.outstanding[s.outHead:] {
			if rec != nil && !rec.acked && !rec.lost {
				resolved++
			}
		}
		// in-flight tracked counter must match the ledger scan
		return uint64(s.inflightPkts) == resolved
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestStartDelay(t *testing.T) {
	tn := newTestNet(38, 1)
	c := newMPCCConn(tn, "late", ccmpcc.LossParams(), tn.path(0))
	c.Start(5 * sim.Second)
	tn.eng.Run(4 * sim.Second)
	if c.AckedBytes() != 0 {
		t.Fatal("connection sent before its start time")
	}
	tn.eng.Run(10 * sim.Second)
	if c.AckedBytes() == 0 {
		t.Fatal("connection never started")
	}
}

func TestZeroWarmupAccounting(t *testing.T) {
	tn := newTestNet(39, 1)
	c := newMPCCConn(tn, "warm", ccmpcc.LossParams(), tn.path(0))
	c.Start(0)
	tn.eng.Run(5 * sim.Second)
	full := c.MeanGoodputBps(0, 5*sim.Second)
	tail := c.MeanGoodputBps(4*sim.Second, 5*sim.Second)
	if full <= 0 || tail <= 0 {
		t.Fatal("goodput accounting broken")
	}
	// The tail (steady state) must beat the whole-run mean (slow start).
	if tail < full {
		t.Fatalf("tail %.1f < full-run %.1f — warmup omission pointless", tail/1e6, full/1e6)
	}
}

func TestJitteredLinkKeepsOrderAndDelivers(t *testing.T) {
	tn := newTestNet(53, 1)
	tn.links[0].SetJitter(5 * sim.Millisecond)
	c := newMPCCConn(tn, "jit", ccmpcc.LossParams(), tn.path(0))
	c.Start(0)
	tn.eng.Run(15 * sim.Second)
	got := goodputMbps(c, 6*sim.Second, 15*sim.Second)
	if got < 60 {
		t.Fatalf("goodput with 5ms jitter = %.1f Mbps, want ≥ 60", got)
	}
	// FIFO jitter must not trigger spurious dup-threshold losses beyond
	// what the clean link shows.
	s := c.Subflows()[0]
	if s.LostPkts() > s.SentPkts()/10 {
		t.Fatalf("jitter caused %d losses of %d sent", s.LostPkts(), s.SentPkts())
	}
}

func TestReceiveWindowDefault(t *testing.T) {
	// The default is the paper's 300 MB flow-control-disabling buffer, as a
	// named constant rather than a silent unlimited: far above any send
	// buffer the repo configures, so it never binds unless opted down.
	tn := newTestNet(60, 1)
	c := NewConnection(tn.eng, "norwnd")
	if got, want := c.rwndLimit(), int64(DefaultRcvBufBytes); got != want {
		t.Fatalf("default rwnd limit = %d, want DefaultRcvBufBytes %d", got, want)
	}
	c2 := NewConnection(tn.eng, "unlimited", WithRcvBuf(0))
	if c2.rwndLimit() <= 1<<60 {
		t.Fatal("WithRcvBuf(0) should mean unlimited")
	}
}

func TestReceiveWindowHeadOfLineBlocking(t *testing.T) {
	// §7.2.7: with a finite receive buffer, losses on the lossy subflow
	// stall the whole connection until retransmissions fill the holes. A
	// tiny buffer should cap throughput well below the clean subflow's
	// capacity; a large buffer should not.
	run := func(rcvBuf int64) float64 {
		tn := newTestNet(61, 2)
		tn.links[1].SetLoss(0.02) // lossy second path
		c := NewConnection(tn.eng, "rwnd", WithRcvBuf(rcvBuf))
		grp := ccmpcc.NewGroup()
		cfg := ccmpcc.DefaultConfig(ccmpcc.LossParams())
		c.AddRateSubflow(tn.path(0), ccmpcc.New(cfg, grp, tn.eng.Rand()))
		c.AddRateSubflow(tn.path(1), ccmpcc.New(cfg, grp, tn.eng.Rand()))
		c.SetApp(Bulk{}, nil)
		c.Start(0)
		tn.eng.Run(20 * sim.Second)
		return goodputMbps(c, 8*sim.Second, 20*sim.Second)
	}
	small := run(64 * 1500) // 64 packets of reassembly space
	large := run(100 << 20) // effectively unlimited
	if large < 120 {
		t.Fatalf("large-buffer goodput = %.1f Mbps, want ≈180", large)
	}
	if small > large*0.8 {
		t.Fatalf("HoL blocking missing: small-buffer %.1f vs large %.1f Mbps", small, large)
	}
}

func TestInOrderBytesTracksDelivery(t *testing.T) {
	tn := newTestNet(62, 1)
	c := NewConnection(tn.eng, "inorder")
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(NewFile(1_000_000), nil)
	c.Start(0)
	tn.eng.Run(20 * sim.Second)
	if c.InOrderBytes() != 1_000_000 {
		t.Fatalf("in-order bytes = %d, want 1000000", c.InOrderBytes())
	}
}

func TestReceiveWindowFileStillCompletes(t *testing.T) {
	tn := newTestNet(63, 2)
	tn.links[1].SetLoss(0.03)
	c := NewConnection(tn.eng, "rwndfile", WithRcvBuf(32*1500))
	grp := ccmpcc.NewGroup()
	cfg := ccmpcc.DefaultConfig(ccmpcc.LossParams())
	c.AddRateSubflow(tn.path(0), ccmpcc.New(cfg, grp, tn.eng.Rand()))
	c.AddRateSubflow(tn.path(1), ccmpcc.New(cfg, grp, tn.eng.Rand()))
	c.SetApp(NewFile(3_000_000), nil)
	c.Start(0)
	tn.eng.Run(120 * sim.Second)
	if c.FCT() < 0 {
		t.Fatal("file stalled permanently under a tiny receive window")
	}
}

func TestSchedulersSkipFailedSubflow(t *testing.T) {
	tn := newTestNet(88, 2)
	c := NewConnection(tn.eng, "sched")
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.AddWindowSubflow(tn.path(1), reno.New())
	s0, s1 := c.Subflows()[0], c.Subflows()[1]
	s0.srtt, s1.srtt = 50*sim.Millisecond, 10*sim.Millisecond
	s1.state = SubflowFailed // lower RTT, but dead: must never be picked
	for _, sched := range []Scheduler{DefaultScheduler{}, NewRateScheduler(0.10)} {
		if got := sched.Pick(c); got != s0 {
			t.Fatalf("%T picked %v, want the live subflow", sched, got)
		}
	}
}

func TestSchedulerAvoidsDeadPathSubflow(t *testing.T) {
	// A subflow whose path died pins unacked data at its window until the
	// failure detector clears it; either way the scheduler must not assign
	// new data to it. Run both detector configurations through an outage.
	run := func(threshold int) (*Connection, *testNet) {
		tn := newTestNet(89, 2)
		c := NewConnection(tn.eng, "pin",
			WithScheduler(DefaultScheduler{}), WithFailThreshold(threshold))
		c.AddWindowSubflow(tn.path(0), reno.New())
		c.AddWindowSubflow(tn.path(1), reno.New())
		c.SetApp(Bulk{}, nil)
		c.Start(0)
		tn.eng.At(1*sim.Second, func() { tn.links[1].SetDown(true) })
		tn.eng.Run(10 * sim.Second)
		return c, tn
	}

	// Detector on: the dead subflow is Failed with zero inflight — only the
	// state check keeps schedulers away from it.
	c, _ := run(DefaultFailThreshold)
	dead := c.Subflows()[1]
	if dead.state != SubflowFailed {
		t.Fatal("dead-path subflow not declared failed")
	}
	if dead.InflightPkts() != 0 || pendingPkts(dead) != 0 {
		t.Fatalf("failed subflow holds inflight=%d pending=%d", dead.InflightPkts(), pendingPkts(dead))
	}
	if got := c.sched.Pick(c); got == dead {
		t.Fatal("scheduler picked a failed subflow")
	}
	if got := goodputMbps(c, 5*sim.Second, 10*sim.Second); got < 70 {
		t.Fatalf("live path goodput %.1f Mbps after failover, want ≈95", got)
	}

	// Detector off: the backed-off retransmission stays pinned in flight at
	// cwnd, so the window test must keep the scheduler away.
	c2, _ := run(0)
	dead2 := c2.Subflows()[1]
	if dead2.state == SubflowFailed {
		t.Fatal("detector disabled but subflow failed")
	}
	if dead2.InflightPkts() == 0 {
		t.Fatal("expected unacked data pinned in flight on the dead path")
	}
	if got := c2.sched.Pick(c2); got == dead2 {
		t.Fatal("scheduler picked the cwnd-pinned dead subflow")
	}
}

func TestMeanLatencySinceOmitsTransient(t *testing.T) {
	tn := newTestNet(70, 1)
	tn.links[0].SetBuffer(4 * 375000) // deep buffer: slow start bloats it
	c := newMPCCConn(tn, "lat", ccmpcc.LatencyParams(), tn.path(0))
	c.Start(0)
	tn.eng.Run(15 * sim.Second)
	all, _ := c.MeanLatency()
	tail := c.MeanLatencySince(8 * sim.Second)
	if tail > all {
		t.Fatalf("steady-state latency %.1fms above whole-run %.1fms", tail*1e3, all*1e3)
	}
	if tail < 0.060 {
		t.Fatalf("tail latency %.1fms below the 60ms base RTT", tail*1e3)
	}
}
