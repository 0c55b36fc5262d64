package transport

import (
	"bytes"
	"fmt"
	"testing"

	"mpcc/internal/cc"
	ccmpcc "mpcc/internal/cc/mpcc"
	"mpcc/internal/cc/reno"
	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// TestRecycleWaitsForTheNetwork recycles a closed connection while things
// still point at it and steps the engine to idle. With one connection on
// the engine, every event still pending after its close is one of those
// things, so after every event the connection must be back in the arena
// exactly when nothing is pending. Each case leaves a different holder for
// last, and must be seen holding the connection on its own.
func TestRecycleWaitsForTheNetwork(t *testing.T) {
	type held struct{ recs, acks, mis, probes, pkts int }
	// inFlight: data packets (each with its clone) in the link and
	// acknowledgements on the reverse path.
	inFlight := func(c *Connection, acks int) bool {
		return acks > 0 && netem.PacketsInUse(c.eng) > acks
	}
	cases := []struct {
		name string
		rig  func(tn *testNet) *Connection
		// closeWhen picks the instant to close; last says what must be seen
		// holding the connection alone.
		closeWhen func(c *Connection, acks int) bool
		last      func(h held) bool
	}{{
		// A slow subflow's MIs outlast its packets: a data packet with its
		// duplication clone in a link and an acknowledgement on the way back
		// at the close, and the pending MI-end timer last.
		name: "mi timer",
		rig: func(tn *testNet) *Connection {
			tn.links[0].SetDuplicate(1)
			c := NewConnection(tn.eng, "slow")
			c.AddRateSubflow(tn.path(0), fixedRate{0.5 * mbps})
			return c
		},
		closeWhen: func(c *Connection, acks int) bool { return c.eng.Now() > sim.Second && inFlight(c, acks) },
		last:      func(h held) bool { return h.mis > 0 && h.pkts == 0 },
	}, {
		// Window subflows have no MIs. One's 1 s reverse path keeps a batch
		// of acknowledgements in flight after the other's data packets have
		// arrived.
		name: "ack batch",
		rig: func(tn *testNet) *Connection {
			tn.links[1].SetDuplicate(1)
			slow := tn.path(0)
			slow.SetAckDelay(sim.Second)
			c := NewConnection(tn.eng, "late-acks")
			c.AddWindowSubflow(slow, fixedWin{64})
			c.AddWindowSubflow(tn.path(1), fixedWin{64})
			return c
		},
		closeWhen: func(c *Connection, acks int) bool { return c.eng.Now() > 3*sim.Second && inFlight(c, acks) },
		last:      func(h held) bool { return h.acks > 0 && h.pkts == h.acks },
	}, {
		// A failed subflow's revival probe is the only packet left.
		name: "revival probe",
		rig: func(tn *testNet) *Connection {
			tn.links[0].SetDuplicate(1)
			c := NewConnection(tn.eng, "probing", WithFailThreshold(1))
			c.AddRateSubflow(tn.path(0), fixedRate{20 * mbps})
			tn.eng.At(sim.Second, func() { tn.links[0].SetDown(true) })
			tn.eng.At(3*sim.Second, func() { tn.links[0].SetDown(false) })
			return c
		},
		closeWhen: func(c *Connection, acks int) bool { return c.probeLive > 0 && c.miLive == 0 },
		last:      func(h held) bool { return h.probes > 0 && h.recs == 0 && h.mis == 0 },
	}, {
		// Closed before its start event ran.
		name: "start event",
		rig: func(tn *testNet) *Connection {
			c := NewConnection(tn.eng, "never")
			c.AddRateSubflow(tn.path(0), fixedRate{20 * mbps})
			return c
		},
		closeWhen: func(c *Connection, acks int) bool { return true },
		last:      func(h held) bool { return h.pkts == 0 && h.mis == 0 },
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tn := newTestNet(81, 2)
			a := arenaOf(tn.eng)
			c := tc.rig(tn)
			acks := ackCount(c)
			c.SetApp(Bulk{}, nil)
			c.Start(10 * sim.Millisecond)
			for !tc.closeWhen(c, *acks) {
				if !tn.eng.Step() {
					t.Fatal("engine went idle before the close condition held")
				}
			}
			c.Close()
			c.Recycle()
			sawLast := false
			for {
				h := held{c.recLive, *acks, c.miLive, c.probeLive, netem.PacketsInUse(tn.eng)}
				home := a.conns.InUse() == 0
				if pending := tn.eng.Pending(); home != (pending == 0) {
					t.Fatalf("t=%v: connection home=%v with %d events pending (%+v)", tn.eng.Now(), home, pending, h)
				}
				sawLast = sawLast || !home && tc.last(h)
				if !tn.eng.Step() {
					break
				}
			}
			if !sawLast {
				t.Fatal("the case's last holder was never seen holding the connection alone")
			}
			if recs, segs := c.PoolInUse(); recs != 0 || segs != 0 || netem.PacketsInUse(tn.eng) != 0 {
				t.Fatalf("idle engine: %d recs, %d segs, %d packets out", recs, segs, netem.PacketsInUse(tn.eng))
			}
			sf := c.Subflows()[0]
			next := NewConnection(tn.eng, "next")
			if next != c {
				t.Fatal("the drained connection was not handed out again")
			}
			if next.closed || next.recycled || len(next.Subflows()) != 0 || next.FCT() != -1 || next.Goodput().Len() != 0 {
				t.Fatalf("reused connection not reset: closed=%v subflows=%d fct=%v", next.closed, len(next.Subflows()), next.FCT())
			}
			if s := next.AddWindowSubflow(tn.path(0), reno.New()); s != sf || s.SentPkts() != 0 || s.Goodput().Len() != 0 {
				t.Fatal("the reused connection did not rebuild its subflow in place")
			}
		})
	}
}

// TestRecycledConnectionRunsLikeFresh runs one script twice on twin engines
// that first drive a connection through loss, reordering, duplication and a
// subflow failure with migration, then abort it. One twin recycles that
// connection and its MPCC group, so the script runs on the rebuilt objects;
// the other leaves them to the garbage collector, so the script runs on new
// ones. The traces and every ledger must be identical.
func TestRecycledConnectionRunsLikeFresh(t *testing.T) {
	run := func(recycle bool) (trace, ledger string) {
		var buf bytes.Buffer
		jw := obs.NewJSONLWriter(&buf)
		bus := obs.NewBus(jw)
		tn := newTestNet(91, 2)
		for _, l := range tn.links {
			l.SetProbes(bus)
		}
		paths := func() []*netem.Path {
			ps := []*netem.Path{tn.path(0), tn.path(1)}
			for _, p := range ps {
				p.SetProbes(bus)
			}
			return ps
		}
		attach := func(name string, grp *ccmpcc.Group, opts ...ConnOption) *Connection {
			c := NewConnection(tn.eng, name, append(opts, WithProbes(bus))...)
			for i, p := range paths() {
				ctl := ccmpcc.New(ccmpcc.DefaultConfig(ccmpcc.LossParams()), grp, tn.eng.Rand())
				ctl.SetProbes(bus, name, i)
				c.AddRateSubflow(p, ctl)
			}
			return c
		}

		// The dirty life.
		l0, l1 := tn.links[0], tn.links[1]
		l0.SetLoss(0.03)
		l0.SetReorder(&netem.Reorder{Prob: 0.1, MaxEarly: 20 * sim.Millisecond})
		l0.SetDuplicate(0.05)
		grp := ccmpcc.NewGroup()
		old := attach("old", grp, WithFailThreshold(2))
		old.SetApp(Bulk{}, nil)
		old.Start(0)
		tn.eng.At(2*sim.Second, func() { l1.SetDown(true) })
		tn.eng.Run(4 * sim.Second)
		if old.Subflows()[1].Fails() == 0 || old.Subflows()[0].SpuriousPkts() == 0 || old.Subflows()[0].LostPkts() == 0 {
			t.Fatalf("dirty life too clean: fails=%d spurious=%d lost=%d", old.Subflows()[1].Fails(),
				old.Subflows()[0].SpuriousPkts(), old.Subflows()[0].LostPkts())
		}
		old.shutdown(CloseAborted)
		if recycle {
			old.Recycle()
			grp.Reset()
		} else {
			grp = ccmpcc.NewGroup()
		}
		tn.eng.Run(0)
		// A clean restart, so that state leaking from the dirty life (a
		// reordering-mode subflow, say) shows.
		l1.SetDown(false)
		l0.SetReorder(nil)
		for _, l := range tn.links {
			l.SetLoss(0.01)
		}

		// The script.
		c := attach("script", grp)
		if reused := c == old; reused != recycle {
			t.Fatalf("recycle=%v but script connection reused=%v", recycle, reused)
		}
		c.SetApp(NewFile(4<<20), func(sim.Time) { c.Close() })
		c.Start(tn.eng.Now() + sim.Millisecond)
		tn.eng.Run(0)
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String(), connLedger(c)
	}
	freshTrace, freshLedger := run(false)
	trace, ledger := run(true)
	if ledger != freshLedger {
		t.Fatalf("ledgers differ:\nfresh:\n%s\nrecycled:\n%s", freshLedger, ledger)
	}
	if trace != freshTrace {
		t.Fatalf("traces differ (%d vs %d bytes)", len(freshTrace), len(trace))
	}
}

// connLedger renders everything a connection and its subflows account.
func connLedger(c *Connection) string {
	mean, std := c.MeanLatency()
	ledger := fmt.Sprintf("acked %d received %d offered %d inorder %d fct %v cause %v at %v latency %v %v %v gap %v last %v goodput %v\n",
		c.AckedBytes(), c.ReceivedBytes(), c.OfferedBytes(), c.InOrderBytes(), c.FCT(), c.closeReason, c.closedAt,
		mean, std, c.MeanLatencySince(sim.Second), c.MaxDeliveryGap(), c.LastDeliveredAt(), c.Goodput().Rates())
	for _, s := range c.Subflows() {
		ledger += fmt.Sprintf("sf%d sent %d/%d delivered %d lost %d spurious %d/%d fails %d state %v srtt %v rate %v goodput %v\n",
			s.id, s.SentPkts(), s.SentBytes(), s.DeliveredBytes(), s.LostPkts(), s.SpuriousPkts(), s.spuriousRTOs,
			s.Fails(), s.state, s.SRTT(), s.curRate, s.Goodput().Rates())
	}
	return ledger
}

// TestGroupReusedAtCloseRunsLikeFresh is the churn driver's close: an MPCC
// connection is aborted with data packets (and duplication clones) in its
// links, acknowledgements on a long reverse path and an MI-end timer pending,
// and its group is reset at once and taken by the next connection, which
// starts while the old one drains. The twin gives the next connection a new
// group instead. Traces and ledgers must be identical.
func TestGroupReusedAtCloseRunsLikeFresh(t *testing.T) {
	run := func(reuse bool) (trace, ledger string) {
		var buf bytes.Buffer
		jw := obs.NewJSONLWriter(&buf)
		bus := obs.NewBus(jw)
		tn := newTestNet(93, 2)
		for _, l := range tn.links {
			l.SetProbes(bus)
		}
		tn.links[0].SetLoss(0.01)
		tn.links[0].SetDuplicate(0.05)
		attach := func(name string, grp *ccmpcc.Group) (*Connection, []*ccmpcc.Controller) {
			c := NewConnection(tn.eng, name, WithProbes(bus))
			var ctls []*ccmpcc.Controller
			for i := range tn.links {
				p := tn.path(i)
				p.SetProbes(bus)
				p.SetAckDelay(200 * sim.Millisecond)
				ctl := ccmpcc.New(ccmpcc.DefaultConfig(ccmpcc.LossParams()), grp, tn.eng.Rand())
				ctl.SetProbes(bus, name, i)
				c.AddRateSubflow(p, ctl)
				ctls = append(ctls, ctl)
			}
			return c, ctls
		}

		grp := ccmpcc.NewGroup()
		old, oldCtls := attach("old", grp)
		acks := ackCount(old)
		old.SetApp(Bulk{}, nil)
		old.Start(0)
		for !(tn.eng.Now() > sim.Second && *acks > 0 && netem.PacketsInUse(tn.eng) > *acks && old.miLive > 0) {
			if !tn.eng.Step() {
				t.Fatal("engine went idle before the close condition held")
			}
		}
		old.shutdown(CloseAborted)
		old.Recycle()
		if reuse {
			grp.Reset()
		} else {
			grp = ccmpcc.NewGroup()
		}
		c, ctls := attach("next", grp)
		if reused := ctls[0] == oldCtls[1] && ctls[1] == oldCtls[0]; reused != reuse { // the group rebuilds last-built first
			t.Fatalf("reuse=%v but controllers reused=%v", reuse, reused)
		}
		if c == old || old.miLive == 0 || old.recLive == 0 {
			t.Fatalf("the old connection drained before the next one started (miLive %d, recLive %d)", old.miLive, old.recLive)
		}
		c.SetApp(NewFile(4<<20), func(sim.Time) { c.Close() })
		c.Start(tn.eng.Now() + sim.Millisecond)
		tn.eng.Run(0)
		if !c.closed || c.FCT() < 0 {
			t.Fatalf("next connection did not complete: closed=%v fct=%v", c.closed, c.FCT())
		}
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String(), connLedger(c)
	}
	freshTrace, freshLedger := run(false)
	trace, ledger := run(true)
	if ledger != freshLedger {
		t.Fatalf("ledgers differ:\nfresh group:\n%s\nreused group:\n%s", freshLedger, ledger)
	}
	if trace != freshTrace {
		t.Fatalf("traces differ (%d vs %d bytes)", len(freshTrace), len(trace))
	}
}

// guard fails the test when a controller method runs after its
// connection's shutdown: the churn driver hands the controllers of a closed
// connection to the next session.
type guard struct {
	t     *testing.T
	conn  **Connection
	calls *int
}

func (g guard) check(method string) {
	*g.calls++
	if c := *g.conn; c != nil && c.closed {
		g.t.Errorf("%s: %s called at %v, after the close at %v", c.Name, method, c.eng.Now(), c.closedAt)
	}
}

type guardedRate struct {
	guard
	*ccmpcc.Controller
}

func (g guardedRate) NextRate(now, srtt sim.Time) float64 {
	g.check("NextRate")
	return g.Controller.NextRate(now, srtt)
}
func (g guardedRate) OnMIComplete(st cc.MIStats) {
	g.check("OnMIComplete")
	g.Controller.OnMIComplete(st)
}
func (g guardedRate) OnSubflowDown() { g.check("OnSubflowDown"); g.Controller.OnSubflowDown() }
func (g guardedRate) OnSubflowUp()   { g.check("OnSubflowUp"); g.Controller.OnSubflowUp() }

type guardedWindow struct {
	guard
	*reno.Controller
}

func (g guardedWindow) Cwnd() float64 { g.check("Cwnd"); return g.Controller.Cwnd() }
func (g guardedWindow) OnAck(now, rtt sim.Time, n float64) {
	g.check("OnAck")
	g.Controller.OnAck(now, rtt, n)
}
func (g guardedWindow) OnLossEvent(now sim.Time) {
	g.check("OnLossEvent")
	g.Controller.OnLossEvent(now)
}
func (g guardedWindow) OnRTO(now sim.Time) { g.check("OnRTO"); g.Controller.OnRTO(now) }
func (g guardedWindow) OnSpuriousLoss(now sim.Time, wasRTO bool) {
	g.check("OnSpuriousLoss")
	g.Controller.OnSpuriousLoss(now, wasRTO)
}

// TestNoControllerCallAfterShutdown closes connections every way a
// connection closes — from the completion callback inside ACK processing
// (on the default reverse path and with acknowledgements delayed on a long
// one), by abort with packets in flight, by the idle watchdog, and while a
// failed subflow probes — over a lossy, reordering, duplicating path, and
// fails on any controller call after the close. An MPCC connection's close
// also does what the churn driver's does: it resets the group inside the
// close hook and hands its controllers to a next connection that starts at
// once, while the closed one's packets, acknowledgements and MI-end timer
// are still in flight; the next connection's calls are legal, the closed
// one's are not.
func TestNoControllerCallAfterShutdown(t *testing.T) {
	type closer struct {
		name string
		opts []ConnOption
		// setup installs the app and arranges the close.
		setup func(tn *testNet, c *Connection)
	}
	file := func(tn *testNet, c *Connection) { c.SetApp(NewFile(2<<20), func(sim.Time) { c.Close() }) }
	closers := []closer{
		{"completion", nil, file},
		{"completion delayed acks", nil, func(tn *testNet, c *Connection) {
			for _, s := range c.Subflows() {
				s.Path().SetAckDelay(250 * sim.Millisecond)
			}
			file(tn, c)
		}},
		{"abort", nil, func(tn *testNet, c *Connection) {
			c.SetApp(Bulk{}, nil)
			tn.eng.At(3*sim.Second+7*sim.Millisecond, func() { c.shutdown(CloseAborted) })
		}},
		{"idle", []ConnOption{WithIdleTimeout(300 * sim.Millisecond)}, func(tn *testNet, c *Connection) {
			c.SetApp(NewFile(300<<10), nil)
		}},
		{"failed", []ConnOption{WithFailThreshold(1)}, func(tn *testNet, c *Connection) {
			c.SetApp(Bulk{}, nil)
			tn.eng.At(2*sim.Second, func() { tn.links[1].SetDown(true) })
			tn.eng.At(4*sim.Second, func() { tn.links[1].SetDown(false) })
			tn.eng.At(4*sim.Second+20*sim.Millisecond, func() { c.shutdown(CloseAborted) })
		}},
	}
	for _, kind := range []string{"mpcc", "reno"} {
		for _, cl := range closers {
			t.Run(kind+"/"+cl.name, func(t *testing.T) {
				tn := newTestNet(83, 2)
				tn.links[0].SetLoss(0.02)
				tn.links[0].SetReorder(&netem.Reorder{Prob: 0.05, MaxEarly: 10 * sim.Millisecond})
				tn.links[0].SetDuplicate(0.05)
				var c *Connection
				calls := 0
				g := guard{t, &c, &calls}
				c = NewConnection(tn.eng, kind+"/"+cl.name, cl.opts...)
				grp := ccmpcc.NewGroup()
				for i := range tn.links {
					if kind == "mpcc" {
						ctl := ccmpcc.New(ccmpcc.DefaultConfig(ccmpcc.LossParams()), grp, tn.eng.Rand())
						c.AddRateSubflow(tn.path(i), guardedRate{g, ctl})
					} else {
						c.AddWindowSubflow(tn.path(i), guardedWindow{g, reno.New()})
					}
				}
				var next *Connection
				if kind == "mpcc" {
					c.SetOnClose(func(CloseReason, sim.Time) {
						grp.Reset()
						next = NewConnection(tn.eng, "next")
						gn := guard{t, &next, &calls}
						for i := range tn.links {
							ctl := ccmpcc.New(ccmpcc.DefaultConfig(ccmpcc.LossParams()), grp, tn.eng.Rand())
							next.AddRateSubflow(tn.path(i), guardedRate{gn, ctl})
						}
						next.SetApp(NewFile(256<<10), func(sim.Time) { next.Close() })
						next.Start(tn.eng.Now())
					})
				}
				cl.setup(tn, c)
				c.Start(0)
				tn.eng.Run(0)
				if !c.closed || calls == 0 {
					t.Fatalf("closed=%v after %d controller calls", c.closed, calls)
				}
				if kind == "mpcc" && (next == nil || next.FCT() < 0) {
					t.Fatal("the connection that took the group did not complete its file")
				}
			})
		}
	}
}

// ackCount counts the acknowledgements of c's subflows on their reverse
// paths. It wraps each subflow's two sinks: one acknowledgement leaves for
// every data packet the open receiver takes in, and one arrives at every
// senderAck. Call it before Start.
func ackCount(c *Connection) *int {
	n := new(int)
	for _, s := range c.subflows {
		s.rxSink, s.ackSink = countedRx{s, n}, countedAck{s, n}
	}
	return n
}

type acksOf struct {
	s *Subflow
	n *int
}

type (
	countedRx  acksOf
	countedAck acksOf
)

func (r countedRx) Deliver(pkt *netem.Packet) {
	if !r.s.conn.closed {
		*r.n++
	}
	r.s.receiverDeliver(pkt)
}

func (a countedAck) Deliver(pkt *netem.Packet) {
	*a.n--
	a.s.senderAck(pkt)
}
