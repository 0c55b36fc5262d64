package transport

import (
	"slices"
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// TestOneRTOTimerPerSubflow: a flight of 64 packets per subflow into a
// blacked-out link leaves one pending retransmission timer per subflow, not
// one per packet.
func TestOneRTOTimerPerSubflow(t *testing.T) {
	tn := newTestNet(1, 2)
	c := NewConnection(tn.eng, "flight")
	for i, l := range tn.links {
		l.SetDown(true)
		c.AddWindowSubflow(tn.path(i), fixedWin{64})
	}
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	tn.eng.Run(10 * sim.Millisecond)
	for _, s := range c.Subflows() {
		if n := s.InflightPkts(); n < 32 {
			t.Fatalf("%v has %d packets in flight, want ≥ 32", s, n)
		}
	}
	if p, n := tn.eng.Pending(), len(c.Subflows()); p > n {
		t.Fatalf("%d timers pending for %d subflows", p, n)
	}
}

// rtoRig is a started window subflow that transmits only by hand: its window
// is zero and its link blacked out, so the engine holds nothing but the
// subflow's retransmission timer and the events a test schedules.
type rtoRig struct {
	eng      *sim.Engine
	s        *Subflow
	recs     []*pktRec // hand-sent records in send order, each with a test reference
	episodes int       // RTO episodes opened (KindRTOBackoff probes)
}

func newRTORig() *rtoRig {
	r := &rtoRig{}
	tn := newTestNet(1, 1)
	tn.links[0].SetDown(true)
	bus := obs.NewBus(obs.SinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindRTOBackoff {
			r.episodes++
		}
	}))
	c := NewConnection(tn.eng, "rto", WithFailThreshold(0), WithProbes(bus))
	c.AddWindowSubflow(tn.path(0), fixedWin{0})
	c.SetApp(Bulk{}, nil)
	c.Start(0)
	tn.eng.Step() // the start event
	r.eng, r.s = tn.eng, c.Subflows()[0]
	return r
}

func (r *rtoRig) send(n int) {
	for ; n > 0; n-- {
		r.s.transmit(r.s.conn.acquireSeg(0, 1500))
		rec := r.s.outstanding[len(r.s.outstanding)-1]
		rec.refs++
		r.recs = append(r.recs, rec)
	}
}

// rtoStep runs at one instant: hand-send some packets, then acknowledge
// earlier records (by send order).
type rtoStep struct {
	at   sim.Time
	send int
	ack  []int
}

// TestRTODeadlines drives the one retransmission timer through scripts of
// sends and acknowledgements. Each fire of the timer must time out exactly
// the listed records, every one at its own deadline, in send order; between
// events no unresolved record may be overdue and the timer must be armed no
// later than the earliest unresolved deadline.
func TestRTODeadlines(t *testing.T) {
	ms := sim.Millisecond
	cases := []struct {
		name     string
		steps    []rtoStep
		fires    [][]int // records timed out by each fire of the timer
		episodes int
	}{{
		// rec 0 times out and backs the RTO off; rec 1 is sent under the
		// doubled RTO, rec 2's ACK resets the backoff, so rec 3, sent
		// later, is due before rec 1.
		name:     "backoff reset makes a later packet due first",
		steps:    []rtoStep{{at: 0, send: 1}, {at: 300 * ms, send: 2}, {at: 310 * ms, ack: []int{2}}, {at: 320 * ms, send: 1}},
		fires:    [][]int{{0}, {3}, {1}},
		episodes: 2,
	}, {
		// The timer armed for recs 0–1 fires after both were acked: nothing
		// times out, and it re-arms for rec 2.
		name:     "fire with every due record acked re-arms",
		steps:    []rtoStep{{at: 0, send: 2}, {at: 10 * ms, ack: []int{0, 1}}, {at: 100 * ms, send: 1}},
		fires:    [][]int{{}, {2}},
		episodes: 1,
	}, {
		name:     "flight due at one instant is one episode",
		steps:    []rtoStep{{at: 0, send: 5}},
		fires:    [][]int{{0, 1, 2, 3, 4}},
		episodes: 1,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRTORig()
			scripted := false
			for _, st := range tc.steps {
				r.eng.At(st.at, func() {
					scripted = true
					r.send(st.send)
					for _, i := range st.ack {
						r.s.ack(r.recs[i])
					}
				})
			}
			var fires [][]int
			lost := map[int]bool{}
			for steps := 0; r.eng.Step(); steps++ {
				if steps > 100 {
					t.Fatal("the retransmission timer never went quiet")
				}
				now := r.eng.Now()
				if !scripted {
					fire := []int{}
					for i, rec := range r.recs {
						if rec.lost && !lost[i] {
							lost[i] = true
							fire = append(fire, i)
							if rec.rtoAt != now {
								t.Errorf("record %d timed out at %v, its deadline is %v", i, now, rec.rtoAt)
							}
						}
					}
					fires = append(fires, fire)
				}
				scripted = false
				for i, rec := range r.recs {
					if rec.acked || rec.lost {
						continue
					}
					if rec.rtoAt <= now {
						t.Fatalf("at %v record %d is overdue (deadline %v)", now, i, rec.rtoAt)
					}
					if !r.s.rtoTimer.Pending() || r.s.rtoTimerAt > rec.rtoAt {
						t.Fatalf("at %v record %d is due at %v but the timer is armed for %v (pending %v)",
							now, i, rec.rtoAt, r.s.rtoTimerAt, r.s.rtoTimer.Pending())
					}
				}
			}
			if !slices.EqualFunc(fires, tc.fires, slices.Equal[[]int]) {
				t.Fatalf("timer fires timed out %v, want %v", fires, tc.fires)
			}
			if r.episodes != tc.episodes {
				t.Fatalf("%d RTO episodes, want %d", r.episodes, tc.episodes)
			}
			// Every timeout queued its segment for retransmission: the queue
			// holds them in the order the records timed out.
			var order []*segment
			for _, fire := range tc.fires {
				for _, i := range fire {
					order = append(order, r.recs[i].seg)
				}
			}
			if got := r.s.retx.items(); !slices.Equal(got, order) {
				t.Fatalf("retransmission queue not in timeout order")
			}
		})
	}
}
