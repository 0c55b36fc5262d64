package transport

import (
	"testing"

	ccmpcc "mpcc/internal/cc/mpcc"
	"mpcc/internal/cc/reno"
	"mpcc/internal/netem"
	"mpcc/internal/sim"
)

// drained asserts the connection returned every pooled record and segment.
func drained(t *testing.T, c *Connection, when string) {
	t.Helper()
	if recs, segs := c.PoolInUse(); recs != 0 || segs != 0 {
		t.Fatalf("%s: pool gauges not drained: %d recs, %d segs live", when, recs, segs)
	}
}

func TestCloseMidTransferReleasesPools(t *testing.T) {
	tn := newTestNet(70, 2)
	c := newMPCCConn(tn, "mid", ccmpcc.LossParams(), tn.path(0), tn.path(1))
	c.Start(0)
	tn.eng.At(2*sim.Second, c.Close)
	tn.eng.Run(5 * sim.Second)
	if !c.closed || c.closeReason != CloseDone {
		t.Fatalf("closed=%v cause=%v, want closed done", c.closed, c.closeReason)
	}
	if c.closedAt != 2*sim.Second {
		t.Fatalf("ClosedAt = %v, want 2s", c.closedAt)
	}
	drained(t, c, "after in-flight packets drained")
	if p := tn.eng.Pending(); p != 0 {
		t.Fatalf("%d timers still pending after close drained", p)
	}
}

// TestCloseReclaimsLostRecordsOnceTheNetworkDrains: the only references a
// close cannot reclaim synchronously are packets inside links. A packet that
// loss detection declared lost has left the in-flight window, and no timer
// holds its record, so once the 30 ms link has drained the pools are home and
// nothing is left pending — with no retransmission timer to wait for.
func TestCloseReclaimsLostRecordsOnceTheNetworkDrains(t *testing.T) {
	tn := newTestNet(78, 1)
	tn.links[0].SetLoss(0.05)
	c := NewConnection(tn.eng, "lossy")
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	tn.eng.At(sim.Second, c.Close)
	tn.eng.Run(sim.Second + 100*sim.Millisecond)
	if c.Subflows()[0].LostPkts() == 0 {
		t.Fatal("no loss declared before the close: the test is vacuous, pick a lossier seed")
	}
	drained(t, c, "100 ms after the close")
	if p := tn.eng.Pending(); p != 0 {
		t.Fatalf("%d timers still pending 100 ms after the close", p)
	}
}

// TestCloseKeepsReceivedBytes: teardown hands the reassembly islands'
// storage back to the arena, but the byte ledger read after close is the one
// that held at close — out-of-order data above a hole still counts.
func TestCloseKeepsReceivedBytes(t *testing.T) {
	tn := newTestNet(76, 1)
	tn.links[0].SetLoss(0.05)
	c := NewConnection(tn.eng, "holes")
	c.AddWindowSubflow(tn.path(0), reno.New())
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	var before, islands int64
	for at := sim.Second; !c.closed; at += 10 * sim.Millisecond {
		tn.eng.Run(at)
		if islands = c.rcv.buffered(); islands > 0 {
			before = c.ReceivedBytes()
			c.shutdown(CloseAborted)
		}
	}
	if got := c.ReceivedBytes(); got != before {
		t.Fatalf("ReceivedBytes = %d after close, %d before (%d bytes in islands)", got, before, islands)
	}
	if a, r := c.AckedBytes(), c.ReceivedBytes(); a > r {
		t.Fatalf("acked %d > received %d after close", a, r)
	}
}

// TestAbortReleasesPools aborts a connection with data packets in its link
// and acknowledgements on its 300 ms reverse path. They drain into the
// pools, and change nothing the connection accounts: its ledger stays as it
// was at the abort.
func TestAbortReleasesPools(t *testing.T) {
	tn := newTestNet(71, 1)
	c := NewConnection(tn.eng, "ab")
	p := tn.path(0)
	p.SetAckDelay(300 * sim.Millisecond)
	c.AddWindowSubflow(p, reno.New())
	acks := ackCount(c)
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	for !(tn.eng.Now() > 1500*sim.Millisecond && *acks > 0 && netem.PacketsInUse(tn.eng) > *acks) {
		if !tn.eng.Step() {
			t.Fatal("engine went idle before the abort condition held")
		}
	}
	c.shutdown(CloseAborted)
	atAbort := connLedger(c)
	tn.eng.Run(4 * sim.Second)
	if c.closeReason != CloseAborted {
		t.Fatalf("cause = %v, want abort", c.closeReason)
	}
	if got := connLedger(c); got != atAbort {
		t.Fatalf("packets that arrived after the abort moved the ledger:\nat abort:\n%s\ndrained:\n%s", atAbort, got)
	}
	drained(t, c, "after abort")
	if p := tn.eng.Pending(); p != 0 {
		t.Fatalf("%d timers still pending after abort drained", p)
	}
}

// TestCloseFromCompletionCallback closes the connection from inside the
// completion callback — i.e. re-entrantly from within ACK processing.
func TestCloseFromCompletionCallback(t *testing.T) {
	tn := newTestNet(72, 1)
	c := newMPCCConn(tn, "cb", ccmpcc.LossParams(), tn.path(0))
	var closedReason CloseReason
	c.SetOnClose(func(r CloseReason, _ sim.Time) { closedReason = r })
	c.SetApp(NewFile(200*1500), func(sim.Time) { c.Close() })
	c.Start(0)
	tn.eng.Run(10 * sim.Second)
	if c.FCT() < 0 {
		t.Fatal("file never completed")
	}
	if !c.closed || closedReason != CloseDone {
		t.Fatalf("closed=%v reason=%v, want closed done", c.closed, closedReason)
	}
	drained(t, c, "after completion-callback close")
}

func TestHandshakeTimeout(t *testing.T) {
	tn := newTestNet(73, 1)
	tn.links[0].SetDown(true) // nothing ever gets through
	c := newMPCCConn(tn, "hs", ccmpcc.LossParams(), tn.path(0))
	c.Start(0)
	// Re-apply options after construction is not supported; build anew.
	c2 := NewConnection(tn.eng, "hs2", WithHandshakeTimeout(300*sim.Millisecond))
	grp := ccmpcc.NewGroup()
	cfg := ccmpcc.DefaultConfig(ccmpcc.LossParams())
	c2.AddRateSubflow(tn.path(0), ccmpcc.New(cfg, grp, tn.eng.Rand()))
	c2.SetApp(Bulk{}, nil)
	c2.Start(0)
	tn.eng.Run(2 * sim.Second)
	if c.closed {
		t.Fatal("connection without timeouts should stay open")
	}
	if c2.closeReason != CloseHandshake {
		t.Fatalf("cause = %v, want handshake", c2.closeReason)
	}
	if c2.closedAt != 300*sim.Millisecond {
		t.Fatalf("ClosedAt = %v, want 300ms", c2.closedAt)
	}
	drained(t, c2, "after handshake timeout")
}

func TestIdleTimeout(t *testing.T) {
	tn := newTestNet(74, 1)
	c := NewConnection(tn.eng, "idle", WithIdleTimeout(500*sim.Millisecond))
	grp := ccmpcc.NewGroup()
	cfg := ccmpcc.DefaultConfig(ccmpcc.LossParams())
	c.AddRateSubflow(tn.path(0), ccmpcc.New(cfg, grp, tn.eng.Rand()))
	// A small file completes quickly; with no more progress the idle
	// watchdog closes the connection 500ms after the last delivery.
	c.SetApp(NewFile(40*1500), nil)
	c.Start(0)
	tn.eng.Run(5 * sim.Second)
	if c.closeReason != CloseIdle {
		t.Fatalf("cause = %v, want idle", c.closeReason)
	}
	if want := c.LastDeliveredAt() + 500*sim.Millisecond; c.closedAt != want {
		t.Fatalf("ClosedAt = %v, want last delivery + 500ms = %v", c.closedAt, want)
	}
	drained(t, c, "after idle timeout")
}

// TestChurnLeak10kSessions is the satellite leak check: 10k sessions —
// completions, mid-flight aborts, acknowledgements that outlive their
// session on a long reverse path, lossy and duplicating paths —
// after which every per-connection pool gauge must be back at zero, the
// engine must hold no stray timers, and the engine arena must have every
// object home (arena out == Σ PoolInUse == 0) while having grown with peak
// concurrency, not with the session count.
func TestChurnLeak10kSessions(t *testing.T) {
	tn := newTestNet(75, 2)
	tn.links[1].SetLoss(0.01)      // losses exercise retx/RTO teardown paths
	tn.links[0].SetDuplicate(0.01) // clones exercise RetainMeta after close
	grp := ccmpcc.NewGroup()
	cfg := ccmpcc.DefaultConfig(ccmpcc.LossParams())
	const sessions = 10000
	conns := make([]*Connection, 0, sessions)
	for i := 0; i < sessions; i++ {
		i := i
		path := func(link int) *netem.Path {
			p := tn.path(link)
			if i%3 == 1 {
				p.SetAckDelay(50 * sim.Millisecond)
			}
			return p
		}
		c := NewConnection(tn.eng, "s", WithRcvBuf(64*1500))
		if i%2 == 0 {
			c.AddRateSubflow(path(0), ccmpcc.New(cfg, grp, tn.eng.Rand()))
			c.AddRateSubflow(path(1), ccmpcc.New(cfg, grp, tn.eng.Rand()))
		} else {
			c.AddWindowSubflow(path(i%2), reno.New())
		}
		start := sim.Time(i) * 2 * sim.Millisecond
		if i%7 == 3 {
			// Abort mid-flight with data pending and packets in the air.
			c.SetApp(NewFile(40*1500), nil)
			tn.eng.At(start+1*sim.Millisecond, func() { c.shutdown(CloseAborted) })
		} else {
			c.SetApp(NewFile(4*1500), func(sim.Time) { c.Close() })
		}
		c.Start(start)
		conns = append(conns, c)
	}
	tn.eng.Run(sim.Time(sessions)*2*sim.Millisecond + 10*sim.Second)
	for i, c := range conns {
		if !c.closed {
			t.Fatalf("session %d never closed (fct=%v)", i, c.FCT())
		}
		if recs, segs := c.PoolInUse(); recs != 0 || segs != 0 {
			t.Fatalf("session %d leaked: %d recs, %d segs live", i, recs, segs)
		}
	}
	if p := tn.eng.Pending(); p != 0 {
		t.Fatalf("%d timers still pending after all sessions closed", p)
	}
	a := arenaOf(tn.eng)
	if recs, segs, mis := a.recs.InUse(), a.segs.InUse(), a.mis.InUse(); recs|segs|mis != 0 {
		t.Fatalf("arena not drained at engine idle: %d recs, %d segs, %d MIs out", recs, segs, mis)
	}
	if n := netem.PacketsInUse(tn.eng); n != 0 {
		t.Fatalf("%d packets still out of the engine arena at idle", n)
	}
	// ~40k records and segments went through; a handful of slabs served them.
	if lim := 8 * poolSlab; a.recs.Made() > lim || a.segs.Made() > lim || a.mis.Made() > lim {
		t.Fatalf("arena grew with session count: %d records, %d segments, %d MIs provisioned",
			a.recs.Made(), a.segs.Made(), a.mis.Made())
	}
}

// TestArenaIsPerEngine: two engines never share pooled objects — shard
// workers and RunParallel jobs run engines concurrently without locks.
func TestArenaIsPerEngine(t *testing.T) {
	e1, e2 := sim.NewEngine(1), sim.NewEngine(1)
	a1, again, a2 := arenaOf(e1), arenaOf(e1), arenaOf(e2)
	if a1 != again {
		t.Fatal("one engine must resolve to one arena")
	}
	if a1 == a2 {
		t.Fatal("distinct engines share an arena")
	}
}

// TestArenaDoubleReleasePanics: moving the pools from the connection to the
// engine kept the over-release tripwires on every refcounted object.
func TestArenaDoubleReleasePanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("double release of a %s did not panic", what)
			}
		}()
		f()
	}
	c := NewConnection(sim.NewEngine(1), "x")
	seg := c.acquireSeg(0, 1500)
	c.releaseSeg(seg)
	mustPanic("segment", func() { c.releaseSeg(seg) })

	rec := c.acquireRec()
	rec.refs = 1
	c.releaseRec(rec)
	mustPanic("pktRec", func() { c.releaseRec(rec) })

	mi := c.arena.mis.Get()
	mi.refs = 1
	c.releaseMI(mi)
	mustPanic("monitorInterval", func() { c.releaseMI(mi) })
}
