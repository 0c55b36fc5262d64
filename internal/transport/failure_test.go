package transport

import (
	"slices"
	"testing"

	ccmpcc "mpcc/internal/cc/mpcc"
	"mpcc/internal/cc/reno"
	"mpcc/internal/sim"
)

func TestBackedOffRTODoublingAndCap(t *testing.T) {
	tn := newTestNet(80, 1)
	c := NewConnection(tn.eng, "b")
	s := c.AddWindowSubflow(tn.path(0), reno.New())
	s.rto = 300 * sim.Millisecond
	if got := s.backedOffRTO(); got != 300*sim.Millisecond {
		t.Fatalf("no-backoff RTO = %v", got)
	}
	s.backoff = 3
	if got := s.backedOffRTO(); got != 2400*sim.Millisecond {
		t.Fatalf("3-backoff RTO = %v, want 2.4s", got)
	}
	s.backoff = 30
	if got := s.backedOffRTO(); got != maxRTO {
		t.Fatalf("deep backoff RTO = %v, want cap %v", got, maxRTO)
	}
}

func TestSubflowFailsAfterConsecutiveRTOs(t *testing.T) {
	tn := newTestNet(81, 1)
	c := NewConnection(tn.eng, "fail") // the link stays down: probes never revive it
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	tn.eng.At(1*sim.Second, func() { tn.links[0].SetDown(true) })
	tn.eng.Run(20 * sim.Second)
	s := c.Subflows()[0]
	if s.state != SubflowFailed {
		t.Fatal("subflow never failed during a permanent outage")
	}
	if s.Fails() != 1 {
		t.Fatalf("Fails = %d, want 1", s.Fails())
	}
	// Detection takes DefaultFailThreshold backed-off RTO episodes:
	// ≈ rto·(1+2+4) after the outage with rto ≈ 260 ms.
	if at := s.LastFailureAt(); at < 1*sim.Second || at > 6*sim.Second {
		t.Fatalf("failed at %v, want within a few RTOs of the 1s outage", at)
	}
	if s.InflightPkts() != 0 {
		t.Fatalf("failed subflow still counts %d packets in flight", s.InflightPkts())
	}
	if pendingPkts(s) != 0 {
		t.Fatalf("failed subflow still holds %d queued segments", pendingPkts(s))
	}
}

func TestFailureDetectorDisabledBacksOffForever(t *testing.T) {
	tn := newTestNet(82, 1)
	c := NewConnection(tn.eng, "nofail", WithFailThreshold(0))
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	s := c.Subflows()[0]
	tn.eng.At(1*sim.Second, func() { tn.links[0].SetDown(true) })
	// Baseline after the link-queue drain and the first RTO collapse: from
	// here on every transmission is a pure retransmission into the void.
	tn.eng.Run(2 * sim.Second)
	baseline := s.SentPkts()
	tn.eng.Run(30 * sim.Second)
	if s.state == SubflowFailed || s.Fails() != 0 {
		t.Fatal("detector disabled but the subflow failed anyway")
	}
	// Exponential backoff: retransmissions into the dead path are spaced
	// rto·2^k apart, so 28 seconds of outage yield only a handful of sends
	// (a fixed-RTO sender would emit one every 260 ms — over a hundred).
	sentAfter := s.SentPkts() - baseline
	if sentAfter > 15 {
		t.Fatalf("%d transmissions into a dead path — RTO backoff missing", sentAfter)
	}
	if sentAfter == 0 {
		t.Fatal("no retransmission attempts at all")
	}
}

func TestFailoverRetainsGoodputOnLiveSibling(t *testing.T) {
	tn := newTestNet(83, 2)
	c := newMPCCConn(tn, "mp", ccmpcc.LossParams(), tn.path(0), tn.path(1))
	c.Start(0)
	tn.eng.At(5*sim.Second, func() { tn.links[1].SetDown(true) })
	tn.eng.Run(25 * sim.Second)
	dead := c.Subflows()[1]
	if dead.state != SubflowFailed {
		t.Fatal("outaged subflow not declared failed")
	}
	pre := goodputMbps(c, 3*sim.Second, 5*sim.Second)
	post := goodputMbps(c, 15*sim.Second, 25*sim.Second)
	if pre < 150 {
		t.Fatalf("pre-outage goodput %.1f Mbps — premise broken (want ≈190)", pre)
	}
	// The connection must retain roughly the surviving link's capacity.
	if post < 75 {
		t.Fatalf("post-failover goodput %.1f Mbps, want ≈95 (one link)", post)
	}
}

func TestFailoverFileCompletesUnderFiniteRcvBuf(t *testing.T) {
	// With a finite receive buffer the holes left by the dead subflow would
	// stall the connection forever (§7.2.7 head-of-line blocking) unless its
	// unacked segments migrate to the live sibling's retransmission queue.
	tn := newTestNet(84, 2)
	c := NewConnection(tn.eng, "file", WithRcvBuf(256*1500))
	grp := ccmpcc.NewGroup()
	cfg := ccmpcc.DefaultConfig(ccmpcc.LossParams())
	c.AddRateSubflow(tn.path(0), ccmpcc.New(cfg, grp, tn.eng.Rand()))
	c.AddRateSubflow(tn.path(1), ccmpcc.New(cfg, grp, tn.eng.Rand()))
	c.SetApp(NewFile(30_000_000), nil)
	c.Start(0)
	tn.eng.At(1*sim.Second, func() { tn.links[1].SetDown(true) })
	tn.eng.Run(60 * sim.Second)
	if c.FCT() < 0 {
		t.Fatal("file stalled after a single-path outage (migration broken)")
	}
	if c.AckedBytes() != 30_000_000 {
		t.Fatalf("acked %d bytes, want 30000000", c.AckedBytes())
	}
	if c.Subflows()[1].state != SubflowFailed {
		t.Fatal("outaged subflow not failed")
	}
}

func TestProbeRevivalRestartsMPCC(t *testing.T) {
	tn := newTestNet(85, 1)
	c := newMPCCConn(tn, "rev", ccmpcc.LossParams(), tn.path(0))
	c.Start(0)
	tn.eng.At(2*sim.Second, func() { tn.links[0].SetDown(true) })
	tn.eng.At(5*sim.Second, func() { tn.links[0].SetDown(false) })
	tn.eng.Run(25 * sim.Second)
	s := c.Subflows()[0]
	if s.Fails() != 1 {
		t.Fatalf("Fails = %d, want exactly 1 (fail then revive)", s.Fails())
	}
	if s.state == SubflowFailed {
		t.Fatal("subflow still failed after the link came back")
	}
	if at := s.LastRevivalAt(); at < 5*sim.Second || at > 6*sim.Second {
		t.Fatalf("revived at %v, want within one probe interval of the 5s restore", at)
	}
	// The controller restarted from its initial condition and must have
	// re-learned the link by the tail window.
	if got := goodputMbps(c, 15*sim.Second, 25*sim.Second); got < 60 {
		t.Fatalf("post-revival goodput %.1f Mbps, want recovery toward 95", got)
	}
}

func TestSinglePathOutageOrphansThenRevival(t *testing.T) {
	// With no live sibling the failed subflow's segments are held at the
	// connection and re-adopted on revival; the file must still complete.
	tn := newTestNet(86, 1)
	c := NewConnection(tn.eng, "orph")
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(NewFile(50_000_000), nil)
	c.Start(0)
	tn.eng.At(1*sim.Second, func() { tn.links[0].SetDown(true) })
	tn.eng.At(6*sim.Second, func() { tn.links[0].SetDown(false) })
	tn.eng.Run(60 * sim.Second)
	s := c.Subflows()[0]
	if s.Fails() != 1 {
		t.Fatalf("Fails = %d, want 1", s.Fails())
	}
	if c.FCT() < 0 {
		t.Fatal("file never completed after revival")
	}
	if c.FCT() < 6*sim.Second {
		t.Fatalf("FCT %v implausibly beat the outage window", c.FCT())
	}
	if c.AckedBytes() != 50_000_000 {
		t.Fatalf("acked %d bytes", c.AckedBytes())
	}
	if c.orphans.len() != 0 {
		t.Fatalf("%d segments still orphaned after revival", c.orphans.len())
	}
}

func TestFlappingLinkSurvives(t *testing.T) {
	// Three down/up cycles longer than the detection time: the subflow must
	// fail and revive repeatedly without wedging the transfer.
	tn := newTestNet(87, 1)
	c := NewConnection(tn.eng, "flap")
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(NewFile(10_000_000), nil)
	c.Start(0)
	for i := 0; i < 3; i++ {
		at := sim.Time(1+4*i) * sim.Second
		tn.eng.At(at, func() { tn.links[0].SetDown(true) })
		tn.eng.At(at+3*sim.Second, func() { tn.links[0].SetDown(false) })
	}
	tn.eng.Run(120 * sim.Second)
	s := c.Subflows()[0]
	if s.Fails() < 2 {
		t.Fatalf("Fails = %d across 3 long flaps, want ≥ 2", s.Fails())
	}
	if c.FCT() < 0 {
		t.Fatal("transfer wedged by flapping")
	}
	if c.AckedBytes() != 10_000_000 {
		t.Fatalf("acked %d bytes", c.AckedBytes())
	}
}

// TestMigrateFromOrderAndAllocs pins where a failed subflow's segments go:
// undelivered retransmissions, then undelivered pending data, each dealt
// round-robin from the first live sibling (dead ones and the failed subflow
// skipped), delivered ones released, and everything to the connection's
// orphans when no sibling is live. A warm failover allocates nothing.
func TestMigrateFromOrderAndAllocs(t *testing.T) {
	tn := newTestNet(88, 1)
	c := NewConnection(tn.eng, "mig")
	for i := 0; i < 4; i++ {
		c.AddWindowSubflow(tn.path(0), reno.New())
	}
	sf := c.Subflows()
	sf[2].state = SubflowFailed
	fill := func(s *Subflow) {
		for i, delivered := range []bool{false, true, false, false} {
			seg := c.acquireSeg(int64(i), 1)
			seg.delivered = delivered
			s.retx.push(seg)
		}
		for i := 10; i < 12; i++ {
			s.pending.push(c.acquireSeg(int64(i), 1))
		}
	}
	offs := func(q *segQueue) []int64 {
		var out []int64
		for _, seg := range q.items() {
			out = append(out, seg.off)
		}
		return out
	}
	drain := func(q *segQueue) {
		for q.len() > 0 {
			c.releaseSeg(q.pop())
		}
	}

	fill(sf[0])
	c.migrateFrom(sf[0])
	for _, tc := range []struct {
		name string
		q    *segQueue
		want []int64
	}{
		{"sf1 retx", &sf[1].retx, []int64{0, 3}},
		{"sf3 retx", &sf[3].retx, []int64{2}},
		{"sf1 pending", &sf[1].pending, []int64{10}},
		{"sf3 pending", &sf[3].pending, []int64{11}},
		{"sf2 retx", &sf[2].retx, nil},
		{"sf0 retx", &sf[0].retx, nil},
		{"sf0 pending", &sf[0].pending, nil},
		{"orphans", &c.orphans, nil},
	} {
		if got := offs(tc.q); !slices.Equal(got, tc.want) {
			t.Errorf("%s: offsets %v, want %v", tc.name, got, tc.want)
		}
	}
	if c.segLive != 5 {
		t.Errorf("%d segments live after migration, want 5 (the delivered one released)", c.segLive)
	}

	sf[1].state, sf[3].state = SubflowFailed, SubflowFailed
	drain(&sf[1].retx)
	drain(&sf[1].pending)
	drain(&sf[3].retx)
	drain(&sf[3].pending)
	fill(sf[0])
	c.migrateFrom(sf[0])
	if got, want := offs(&c.orphans), []int64{0, 2, 3, 10, 11}; !slices.Equal(got, want) {
		t.Errorf("orphans with no live sibling: offsets %v, want %v", got, want)
	}
	drain(&c.orphans)

	sf[1].state, sf[3].state = SubflowActive, SubflowActive
	if n := testing.AllocsPerRun(20, func() {
		fill(sf[0])
		c.migrateFrom(sf[0])
		for _, s := range sf {
			drain(&s.retx)
			drain(&s.pending)
		}
	}); n != 0 {
		t.Errorf("a warm failover allocates %.1f objects, want 0", n)
	}
}

// pendingPkts counts the segments assigned to s and not yet sent.
func pendingPkts(s *Subflow) int { return s.pending.len() + s.retx.len() }
