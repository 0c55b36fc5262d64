package netem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// The differential test for the lazily settled link queue: the same random
// traffic runs on twin engines (same seed), once through the real Links and
// once through refNet, which keeps the event-driven accounting a link had
// before settle existed — an event at each packet's serialization end,
// scheduled right before its arrival, decrements the queue. Apart from
// those events the twins fire the same events in the same order, so after
// every shared event the queues, counters and drop decisions must agree.

// refNet runs reference links: real Link values used only as parameter and
// state holders (their transmit FIFOs stay empty, so settle is a no-op on
// them), driven by enqueue below instead of Link.enqueue.
type refNet struct {
	eng      *sim.Engine
	dequeues int // serialization-end events fired
}

func (r *refNet) forward(pkt *Packet) {
	if pkt.hop >= len(pkt.path.links) {
		pkt.sink.Deliver(pkt)
		pkt.release()
		return
	}
	l := pkt.path.links[pkt.hop]
	pkt.hop++
	r.enqueue(l, pkt)
}

// enqueue is Link.enqueue with the queue released by a serialization-done
// event instead of settle.
func (r *refNet) enqueue(l *Link, pkt *Packet) {
	now := r.eng.Now()
	if l.dupProb > 0 && !pkt.dup && r.eng.Rand().Float64() < l.dupProb {
		clone := acquire(pkt.owner)
		clone.Size, clone.SentAt, clone.Meta = pkt.Size, pkt.SentAt, pkt.Meta
		clone.path, clone.hop, clone.sink, clone.dup = pkt.path, pkt.hop, pkt.sink, true
		l.stats.Duplicated++
		defer r.enqueue(l, clone)
	}
	if l.down || l.rateBps <= 0 {
		l.stats.DropsOutage++
		l.drop(pkt, obs.CauseOutage)
		return
	}
	if l.geOn {
		if l.geBad {
			if r.eng.Rand().Float64() < l.ge.PBadGood {
				l.geBad = false
			}
		} else if r.eng.Rand().Float64() < l.ge.PGoodBad {
			l.geBad = true
		}
		p := l.ge.LossGood
		if l.geBad {
			p = l.ge.LossBad
		}
		if p > 0 && r.eng.Rand().Float64() < p {
			l.stats.DropsBurst++
			l.drop(pkt, obs.CauseBurst)
			return
		}
	}
	if l.lossProb > 0 && r.eng.Rand().Float64() < l.lossProb {
		l.stats.DropsRandom++
		l.drop(pkt, obs.CauseRandom)
		return
	}
	if l.policer != nil {
		if !l.policer.Conforms(now, pkt.Size) {
			l.stats.DropsPolicer++
			l.stats.PolicerDropBytes += uint64(pkt.Size)
			l.drop(pkt, obs.CausePolicer)
			return
		}
		l.stats.PolicerPassedBytes += uint64(pkt.Size)
	}
	inService := 0
	if l.busyUntil > now {
		inService = pkt.Size
	}
	if l.queuedBytes-inService+pkt.Size > l.bufBytes {
		l.stats.DropsQueueFull++
		l.drop(pkt, obs.CauseQueueFull)
		return
	}
	l.stats.EnqueuedPackets++
	l.stats.EnqueuedBytes += uint64(pkt.Size)
	l.queuedBytes += pkt.Size
	l.maxQueued = max(l.maxQueued, l.queuedBytes)

	start := max(now, l.busyUntil)
	if l.shaper != nil {
		if conformAt := l.shaper.Borrow(now, pkt.Size); conformAt > start {
			l.stats.ShaperDelayed++
			start = conformAt
		}
	}
	done := start + sim.FromSeconds(float64(pkt.Size)*8/l.rateBps)
	l.busyUntil = done
	delay := l.delay
	if l.jitter > 0 {
		delay += sim.Time(r.eng.Rand().Int63n(int64(l.jitter)))
	}
	arrive := done + delay
	if l.reorderOn && delay > 0 && l.reorderDecide() {
		maxSkip := delay
		if l.reorder.MaxEarly > 0 && l.reorder.MaxEarly < maxSkip {
			maxSkip = l.reorder.MaxEarly
		}
		arrive = done + delay - sim.Time(r.eng.Rand().Int63n(int64(maxSkip))) - 1
		l.stats.Reordered++
	} else {
		if arrive <= l.lastArrival {
			arrive = l.lastArrival + 1
		}
		l.lastArrival = arrive
	}
	r.eng.At(done, func() {
		r.dequeues++
		l.queuedBytes -= pkt.Size
		l.stats.DeliveredBytes += uint64(pkt.Size)
	})
	r.eng.At(arrive, func() { r.forward(pkt) })
}

// lazyTwin is one side of the differential run: an engine, its links, a
// traffic generator and the logs of what the links dropped and delivered.
type lazyTwin struct {
	eng   *sim.Engine
	links []*Link
	rng   *rand.Rand // traffic draws, separate from the links' engine stream
	left  int        // packets still to send
	log   []string   // drops and deliveries in order

	send     func(size int)
	dequeues func() int // serialization-end events fired (reference only)
	onTick   func()     // called before each send
}

// lazyScenario configures link i of both twins identically.
type lazyScenario struct {
	name  string
	hops  int
	setup func(l *Link, i int)
}

// Link rates are chosen so every 100-byte multiple serializes in a whole
// number of 100 ns, and traffic is sent on the same 100 ns grid: arrivals
// keep landing exactly on a predecessor's serialization end.
const (
	lazyRate    = 8e9
	lazyPackets = 1500
)

func newLazyTwin(sc lazyScenario, seed int64, ref bool) *lazyTwin {
	e := sim.NewEngine(seed)
	tw := &lazyTwin{eng: e, rng: rand.New(rand.NewSource(seed)), left: lazyPackets}
	for i := 0; i < sc.hops; i++ {
		l := NewLink(e, fmt.Sprintf("l%d", i), lazyRate/float64(1+i%2), 0, 3000)
		sc.setup(l, i)
		l.SetProbes(obs.NewBus(obs.SinkFunc(func(ev obs.Event) {
			if ev.Kind == obs.KindDrop {
				tw.log = append(tw.log, fmt.Sprintf("%v drop %s %v %d", ev.At, ev.Link, ev.Cause, ev.Bytes))
			}
		})))
		tw.links = append(tw.links, l)
	}
	sink := SinkFunc(func(p *Packet) {
		tw.log = append(tw.log, fmt.Sprintf("%v deliver %d dup=%v", e.Now(), p.Size, p.dup))
	})
	if ref {
		r := &refNet{eng: e}
		a, path := arenaOf(e), NewPath(e, "ref", tw.links...)
		tw.send = func(size int) {
			pkt := acquire(a)
			pkt.Size, pkt.SentAt, pkt.path, pkt.sink = size, e.Now(), path, sink
			r.forward(pkt)
		}
		tw.dequeues = func() int { return r.dequeues }
	} else {
		path := NewPath(e, "p", tw.links...)
		tw.send = func(size int) { path.Send(size, nil, sink, nil) }
		tw.dequeues = func() int { return 0 }
	}
	// Mid-queue rate change and outage on the first link, then a stop.
	l0 := tw.links[0]
	e.At(100*sim.Microsecond, func() { l0.SetRate(lazyRate / 2) })
	e.At(200*sim.Microsecond, func() { l0.SetDown(true) })
	e.At(230*sim.Microsecond, func() { l0.SetDown(false) })
	e.At(300*sim.Microsecond, func() { e.Stop() })
	e.At(350*sim.Microsecond, func() { l0.SetRate(lazyRate) })
	e.At(0, tw.tick)
	return tw
}

// tick sends one packet and schedules the next send, randomly before or
// after the send so the next arrival's seq falls on either side of the
// packet it may meet at its serialization end.
func (tw *lazyTwin) tick() {
	size := 100 * (1 + tw.rng.Intn(15))
	gap := 100 * sim.Time(tw.rng.Intn(8))
	tw.left--
	first := tw.left > 0 && tw.rng.Intn(2) == 0
	if first {
		tw.eng.At(tw.eng.Now()+gap, tw.tick)
	}
	if tw.onTick != nil {
		tw.onTick()
	}
	tw.send(size)
	if tw.left > 0 && !first {
		tw.eng.At(tw.eng.Now()+gap, tw.tick)
	}
}

// step fires the next event shared by both twins: one on the real engine,
// and on the reference engine everything up to and including the next
// event that is not a serialization end.
func step(real, ref *lazyTwin) (okReal, okRef bool) {
	okReal = real.eng.Step()
	for {
		n := ref.dequeues()
		if !ref.eng.Step() {
			return okReal, false
		}
		if ref.dequeues() == n {
			return okReal, true
		}
	}
}

func (tw *lazyTwin) state() string {
	s := fmt.Sprintf("now=%v log=%d", tw.eng.Now(), len(tw.log))
	for _, l := range tw.links {
		s += fmt.Sprintf(" | %s q=%d max=%d %+v", l.Name, l.QueuedBytes(), l.MaxQueuedBytes(), l.Stats())
	}
	return s
}

func lazyScenarios() []lazyScenario {
	return []lazyScenario{
		{"plain", 1, func(*Link, int) {}},
		{"shaper and policer", 1, func(l *Link, _ int) {
			l.SetDelay(300)
			l.SetShaper(lazyRate/3, 2000)
			l.SetPolicer(lazyRate*0.6, 6000)
		}},
		{"jitter reorder duplication", 1, func(l *Link, _ int) {
			l.SetDelay(2 * sim.Microsecond)
			l.SetJitter(700)
			l.SetReorder(&Reorder{Prob: 0.2, Corr: 0.3, Gap: 7})
			l.SetDuplicate(0.1)
		}},
		{"burst and random loss", 1, func(l *Link, _ int) {
			l.SetDelay(300)
			l.SetGilbertElliott(&GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.8})
			l.SetLoss(0.05)
		}},
		{"three hops", 3, func(l *Link, i int) {
			switch i {
			case 0:
				l.SetDuplicate(0.1)
			case 1:
				l.SetDelay(1 * sim.Microsecond)
				l.SetJitter(300)
				l.SetShaper(lazyRate/3, 3000)
			case 2:
				l.SetDelay(500)
				l.SetReorder(&Reorder{Prob: 0.1, Gap: 5, MaxEarly: 300})
			}
		}},
	}
}

// TestLazyQueueMatchesEventAccounting checks the real link against the
// reference after every shared event, across a horizon, a stopped run and
// the steps between, and asserts the traffic really met serialization ends
// in both seq orders.
func TestLazyQueueMatchesEventAccounting(t *testing.T) {
	var fired, pending int // sends landing on a serialization end, per order
	for _, sc := range lazyScenarios() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				real, ref := newLazyTwin(sc, seed, false), newLazyTwin(sc, seed, true)
				real.onTick = func() {
					for p := real.links[0].txHead; p != nil; p = p.txNext {
						if p.txDone == real.eng.Now() {
							if real.eng.Fired(p.txDone, p.txSeq) {
								fired++
							} else {
								pending++
							}
						}
					}
				}
				check := func(when string) {
					t.Helper()
					if a, b := real.state(), ref.state(); a != b {
						t.Fatalf("%s:\n real %s\n ref  %s", when, a, b)
					}
					if a, b := real.log, ref.log; len(a) > 0 && a[len(a)-1] != b[len(b)-1] {
						t.Fatalf("%s: last log entry %q, reference %q", when, a[len(a)-1], b[len(b)-1])
					}
				}
				// Horizons on the traffic grid, then a run that the stop
				// event ends, then one event at a time to the end.
				for h := 10 * sim.Microsecond; h <= 150*sim.Microsecond; h += 10 * sim.Microsecond {
					real.eng.Run(h)
					ref.eng.Run(h)
					check(fmt.Sprintf("at the horizon %v", h))
				}
				real.eng.Run(0)
				ref.eng.Run(0)
				check("after Stop")
				for n := 0; ; n++ {
					okReal, okRef := step(real, ref)
					if okReal != okRef {
						t.Fatalf("event %d: real fired %v, reference %v", n, okReal, okRef)
					}
					if !okReal {
						break
					}
					check(fmt.Sprintf("event %d", n))
				}
				if !slices.Equal(real.log, ref.log) {
					t.Fatal("drop/delivery logs differ")
				}
				for _, l := range real.links {
					if l.txHead != nil || l.QueuedBytes() != 0 {
						t.Fatalf("%s: idle link still holds %d bytes on its FIFO", l.Name, l.QueuedBytes())
					}
				}
				if n := PacketsInUse(real.eng); n != 0 {
					t.Fatalf("%d packets still in use on an idle engine", n)
				}

				// Unobserved, the link must settle on its own: the same
				// run with no reads in between logs the same decisions.
				quiet := newLazyTwin(sc, seed, false)
				for quiet.eng.Step() {
				}
				if !slices.Equal(quiet.log, ref.log) {
					t.Fatal("an unobserved run decides differently from the reference")
				}
			})
		}
	}
	if fired == 0 || pending == 0 {
		t.Fatalf("sends at a serialization end: %d after it fired, %d before; want both", fired, pending)
	}
}
