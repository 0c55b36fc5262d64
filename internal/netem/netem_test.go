package netem

import (
	"math"
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

const mbps = 1e6

func collector() (Sink, *[]*Packet) {
	var got []*Packet
	return SinkFunc(func(p *Packet) { got = append(got, p) }), &got
}

func TestLinkSerializationAndPropagation(t *testing.T) {
	e := sim.NewEngine(1)
	// 8 Mbps, 10 ms delay: a 1000-byte packet serializes in 1 ms.
	l := NewLink(e, "l", 8*mbps, 10*sim.Millisecond, 100000)
	p := NewPath(e, "p", l)
	var deliveredAt sim.Time
	sink := SinkFunc(func(*Packet) { deliveredAt = e.Now() })
	p.Send(1000, nil, sink, nil)
	e.Run(0)
	want := 11 * sim.Millisecond
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestLinkQueueingBackToBack(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 8*mbps, 0, 1<<20)
	p := NewPath(e, "p", l)
	var times []sim.Time
	sink := SinkFunc(func(*Packet) { times = append(times, e.Now()) })
	for i := 0; i < 5; i++ {
		p.Send(1000, nil, sink, nil)
	}
	e.Run(0)
	if len(times) != 5 {
		t.Fatalf("delivered %d, want 5", len(times))
	}
	for i, at := range times {
		want := sim.Time(i+1) * sim.Millisecond
		if at != want {
			t.Fatalf("packet %d delivered at %v, want %v", i, at, want)
		}
	}
}

func TestLinkDropTail(t *testing.T) {
	e := sim.NewEngine(1)
	// Buffer of 2000 bytes: 1 packet in service + 2 queued fit; the rest drop.
	l := NewLink(e, "l", 8*mbps, 0, 2000)
	p := NewPath(e, "p", l)
	sink, got := collector()
	drops := 0
	var reason obs.DropCause
	onDrop := func(_ *Packet, r obs.DropCause) { drops++; reason = r }
	for i := 0; i < 6; i++ {
		p.Send(1000, nil, sink, onDrop)
	}
	e.Run(0)
	if len(*got) != 3 {
		t.Fatalf("delivered %d, want 3", len(*got))
	}
	if drops != 3 {
		t.Fatalf("drops = %d, want 3", drops)
	}
	if reason != obs.CauseQueueFull {
		t.Fatalf("reason = %v, want queue-full", reason)
	}
	st := l.Stats()
	if st.DropsQueueFull != 3 || st.EnqueuedPackets != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLinkRandomLoss(t *testing.T) {
	e := sim.NewEngine(42)
	l := NewLink(e, "l", 1000*mbps, 0, 1<<30)
	l.SetLoss(0.10)
	p := NewPath(e, "p", l)
	sink, got := collector()
	const n = 20000
	for i := 0; i < n; i++ {
		p.Send(100, nil, sink, nil)
	}
	e.Run(0)
	lossRate := 1 - float64(len(*got))/n
	if math.Abs(lossRate-0.10) > 0.01 {
		t.Fatalf("observed loss %.4f, want ≈0.10", lossRate)
	}
	if l.Stats().DropsRandom == 0 {
		t.Fatal("no random drops counted")
	}
}

func TestLinkConservation(t *testing.T) {
	// Property: delivered + dropped == sent, for a randomized pattern.
	e := sim.NewEngine(7)
	l := NewLink(e, "l", 10*mbps, sim.Millisecond, 5000)
	l.SetLoss(0.05)
	p := NewPath(e, "p", l)
	delivered, dropped := 0, 0
	sink := SinkFunc(func(*Packet) { delivered++ })
	onDrop := func(*Packet, obs.DropCause) { dropped++ }
	const n = 5000
	for i := 0; i < n; i++ {
		at := sim.Time(e.Rand().Int63n(int64(sim.Second)))
		e.At(at, func() { p.Send(1200, nil, sink, onDrop) })
	}
	e.Run(0)
	if delivered+dropped != n {
		t.Fatalf("conservation violated: %d delivered + %d dropped != %d", delivered, dropped, n)
	}
	if l.QueuedBytes() != 0 {
		t.Fatalf("residual queue %d bytes", l.QueuedBytes())
	}
}

func TestLinkThroughputMatchesRate(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 100*mbps, 10*sim.Millisecond, 1<<20)
	p := NewPath(e, "p", l)
	deliveredBytes := 0
	sink := SinkFunc(func(pk *Packet) {
		if e.Now() <= sim.Second {
			deliveredBytes += pk.Size
		}
	})
	// Offer 200 Mbps for 1 second; the link should deliver ≈100 Mbit.
	var send func()
	sent := 0
	interval := sim.FromSeconds(1500 * 8 / (200 * mbps))
	send = func() {
		p.Send(1500, nil, sink, nil)
		sent++
		if e.Now() < sim.Second {
			e.At(e.Now()+interval, send)
		}
	}
	e.At(0, send)
	e.Run(2 * sim.Second)
	gotMbps := float64(deliveredBytes) * 8 / 1e6
	if math.Abs(gotMbps-100) > 2 {
		t.Fatalf("delivered %.1f Mbit in 1s, want ≈100", gotMbps)
	}
}

func TestMultiLinkPath(t *testing.T) {
	e := sim.NewEngine(1)
	l1 := NewLink(e, "l1", 8*mbps, 5*sim.Millisecond, 1<<20)
	l2 := NewLink(e, "l2", 8*mbps, 7*sim.Millisecond, 1<<20)
	p := NewPath(e, "p", l1, l2)
	var at sim.Time
	p.Send(1000, nil, SinkFunc(func(*Packet) { at = e.Now() }), nil)
	e.Run(0)
	want := 2*sim.Millisecond + 12*sim.Millisecond // two serializations + two props
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	if p.PropDelay() != 12*sim.Millisecond {
		t.Fatalf("PropDelay = %v", p.PropDelay())
	}
	if p.BaseRTT() != 24*sim.Millisecond {
		t.Fatalf("BaseRTT = %v", p.BaseRTT())
	}
}

func TestPathExtraAndReverseDelay(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 8*mbps, 10*sim.Millisecond, 1<<20)
	p := NewPath(e, "p", l)
	p.SetExtraDelay(3 * sim.Millisecond)
	if p.PropDelay() != 13*sim.Millisecond {
		t.Fatalf("PropDelay with extra = %v", p.PropDelay())
	}
	if p.BaseRTT() != 26*sim.Millisecond {
		t.Fatalf("BaseRTT with extra = %v", p.BaseRTT())
	}
	var at sim.Time
	p.Send(1000, nil, SinkFunc(func(*Packet) { at = e.Now() }), nil)
	e.Run(0)
	if at != 14*sim.Millisecond { // 3ms extra + 1ms tx + 10ms prop
		t.Fatalf("delivered at %v, want 14ms", at)
	}
}

func TestSendFeedback(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 8*mbps, 10*sim.Millisecond, 1<<20)
	p := NewPath(e, "p", l)
	var at sim.Time
	var meta any
	e.At(5*sim.Millisecond, func() {
		p.SendFeedback("ack", SinkFunc(func(pk *Packet) { at = e.Now(); meta = pk.Meta }))
	})
	e.Run(0)
	if at != 15*sim.Millisecond {
		t.Fatalf("feedback at %v, want 15ms", at)
	}
	if meta != "ack" {
		t.Fatalf("meta = %v", meta)
	}
}

func TestLinkParameterChanges(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 8*mbps, 10*sim.Millisecond, 1000)
	l.SetRate(16 * mbps)
	l.SetDelay(5 * sim.Millisecond)
	l.SetBuffer(5000)
	l.SetLoss(0.5)
	if l.Rate() != 16*mbps || l.delay != 5*sim.Millisecond || l.Buffer() != 5000 || l.lossProb != 0.5 {
		t.Fatal("setters not reflected in getters")
	}
	p := NewPath(e, "p", l)
	var at sim.Time
	// With 0 loss restored, a 1000B packet takes 0.5ms tx + 5ms prop.
	l.SetLoss(0)
	p.Send(1000, nil, SinkFunc(func(*Packet) { at = e.Now() }), nil)
	e.Run(0)
	if at != 5500*sim.Microsecond {
		t.Fatalf("delivered at %v, want 5.5ms", at)
	}
}

func TestBDPBytes(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 100*mbps, 30*sim.Millisecond, 0)
	// 100 Mbps × 30 ms = 3 Mbit = 375000 bytes — the paper's default BDP.
	if got := l.BDPBytes(); got != 375000 {
		t.Fatalf("BDP = %d, want 375000", got)
	}
}

func TestLinkPanics(t *testing.T) {
	e := sim.NewEngine(1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero rate", func() { NewLink(e, "l", 0, 0, 0) })
	mustPanic("neg buffer", func() { NewLink(e, "l", 1, 0, -1) })
	l := NewLink(e, "l", 1, 0, 0)
	mustPanic("bad loss", func() { l.SetLoss(1.5) })
	mustPanic("bad GE", func() { l.SetGilbertElliott(&GilbertElliott{PGoodBad: 1.5}) })
	// SetRate no longer panics on zero/negative: both model a stalled link.
	l.SetRate(-1)
	if l.Rate() != 0 {
		t.Fatalf("negative rate should clamp to 0, got %v", l.Rate())
	}
}

func TestLinkEmitsDropProbes(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "wifi", 8*mbps, 0, 2000)
	var drops []obs.Event
	l.SetProbes(obs.NewBus(obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindDrop {
			drops = append(drops, ev)
		}
	})))
	p := NewPath(e, "p", l)
	sink, _ := collector()
	for i := 0; i < 6; i++ {
		p.Send(1000, nil, sink, nil)
	}
	e.Run(0)
	if len(drops) != 3 {
		t.Fatalf("got %d drop events, want 3", len(drops))
	}
	for _, ev := range drops {
		if ev.Link != "wifi" || ev.Cause != obs.CauseQueueFull || ev.Bytes != 1000 {
			t.Errorf("drop event %+v", ev)
		}
	}
	probe := l.QueueProbe()
	if probe.Link != "wifi" || probe.Depth == nil {
		t.Fatalf("QueueProbe = %+v", probe)
	}
}

func TestScheduleRates(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 10*mbps, 0, 1<<20)
	e.At(5*sim.Millisecond, func() {
		// Offsets count from the moment of scheduling.
		l.ScheduleRates([]RatePoint{
			{At: 10 * sim.Millisecond, RateBps: 20 * mbps},
			{At: 20 * sim.Millisecond, RateBps: 5 * mbps},
		}, 30*sim.Millisecond)
	})
	e.Run(14 * sim.Millisecond)
	if l.Rate() != 10*mbps {
		t.Fatalf("rate at 14ms = %v, want the initial rate", l.Rate())
	}
	e.Run(20 * sim.Millisecond)
	if l.Rate() != 20*mbps {
		t.Fatalf("rate at 20ms = %v", l.Rate())
	}
	e.Run(30 * sim.Millisecond)
	if l.Rate() != 5*mbps {
		t.Fatalf("rate at 30ms = %v", l.Rate())
	}
	// Looping: the first point re-applies at 45ms.
	e.Run(50 * sim.Millisecond)
	if l.Rate() != 20*mbps {
		t.Fatalf("rate at 50ms = %v (loop broken)", l.Rate())
	}
}

func TestReorderGapOvertakesInFlight(t *testing.T) {
	e := sim.NewEngine(3)
	// Long propagation relative to packet spacing so an early dispatch can
	// overtake several in-flight predecessors.
	l := NewLink(e, "l", 8*mbps, 50*sim.Millisecond, 1<<20)
	l.SetReorder(&Reorder{Gap: 3})
	var reorders []obs.Event
	l.SetProbes(obs.NewBus(obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindReorder {
			reorders = append(reorders, ev)
		}
	})))
	p := NewPath(e, "p", l)
	var order []int
	sink := SinkFunc(func(pk *Packet) { order = append(order, pk.Meta.(int)) })
	const n = 9
	for i := 0; i < n; i++ {
		p.Send(1000, i, sink, nil)
	}
	e.Run(0)
	if len(order) != n {
		t.Fatalf("delivered %d, want %d", len(order), n)
	}
	if got := l.Stats().Reordered; got != n/3 {
		t.Fatalf("Reordered = %d, want %d", got, n/3)
	}
	if len(reorders) != n/3 {
		t.Fatalf("got %d reorder events, want %d", len(reorders), n/3)
	}
	for _, ev := range reorders {
		if ev.Link != "l" || ev.Bytes != 1000 || ev.Value <= 0 {
			t.Errorf("reorder event %+v", ev)
		}
	}
	inverted := false
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inverted = true
		}
	}
	if !inverted {
		t.Fatalf("no inversion in delivery order %v", order)
	}
}

func TestReorderProbFrequency(t *testing.T) {
	e := sim.NewEngine(11)
	l := NewLink(e, "l", 1000*mbps, 20*sim.Millisecond, 1<<30)
	l.SetReorder(&Reorder{Prob: 0.25, MaxEarly: 5 * sim.Millisecond})
	p := NewPath(e, "p", l)
	sink, got := collector()
	const n = 4000
	for i := 0; i < n; i++ {
		p.Send(100, nil, sink, nil)
	}
	e.Run(0)
	if len(*got) != n {
		t.Fatalf("delivered %d, want %d (reordering must not drop)", len(*got), n)
	}
	rate := float64(l.Stats().Reordered) / n
	if math.Abs(rate-0.25) > 0.03 {
		t.Fatalf("reorder rate %.4f, want ≈0.25", rate)
	}
}

func TestReorderDeterminism(t *testing.T) {
	run := func() []int {
		e := sim.NewEngine(7)
		l := NewLink(e, "l", 8*mbps, 30*sim.Millisecond, 1<<20)
		l.SetReorder(&Reorder{Prob: 0.5, Corr: 0.3, Gap: 5})
		p := NewPath(e, "p", l)
		var order []int
		sink := SinkFunc(func(pk *Packet) { order = append(order, pk.Meta.(int)) })
		for i := 0; i < 50; i++ {
			p.Send(1000, i, sink, nil)
		}
		e.Run(0)
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery order diverges at %d: %v vs %v", i, a, b)
		}
	}
}

func TestLinkDuplication(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 8*mbps, 5*sim.Millisecond, 1<<20)
	l.SetDuplicate(1)
	dupEvents := 0
	l.SetProbes(obs.NewBus(obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindDuplicate {
			dupEvents++
		}
	})))
	p := NewPath(e, "p", l)
	counts := map[int]int{}
	sink := SinkFunc(func(pk *Packet) { counts[pk.Meta.(int)]++ })
	drops := 0
	onDrop := func(*Packet, obs.DropCause) { drops++ }
	for i := 0; i < 3; i++ {
		p.Send(1000, i, sink, onDrop)
	}
	e.Run(0)
	for i := 0; i < 3; i++ {
		if counts[i] != 2 {
			t.Fatalf("meta %d delivered %d times, want 2 (counts %v)", i, counts[i], counts)
		}
	}
	if got := l.Stats().Duplicated; got != 3 {
		t.Fatalf("Duplicated = %d, want 3", got)
	}
	if dupEvents != 3 {
		t.Fatalf("got %d duplicate events, want 3", dupEvents)
	}
	if drops != 0 {
		t.Fatalf("sender saw %d drops, want 0", drops)
	}
	if l.Stats().EnqueuedPackets != 6 {
		t.Fatalf("EnqueuedPackets = %d, want 6 (copies count)", l.Stats().EnqueuedPackets)
	}
}

func TestDuplicateDropInvisibleToSender(t *testing.T) {
	e := sim.NewEngine(1)
	// Total loss: both the original and its copy drop, but the sender's
	// onDrop must fire only for the original — a lost copy the sender never
	// sent is not a loss signal.
	l := NewLink(e, "l", 8*mbps, 0, 1<<20)
	l.SetDuplicate(1)
	l.SetLoss(1)
	p := NewPath(e, "p", l)
	sink, got := collector()
	drops := 0
	p.Send(1000, nil, sink, func(*Packet, obs.DropCause) { drops++ })
	e.Run(0)
	if len(*got) != 0 {
		t.Fatalf("delivered %d, want 0", len(*got))
	}
	if drops != 1 {
		t.Fatalf("sender saw %d drops, want 1 (original only)", drops)
	}
	if l.Stats().DropsRandom != 2 {
		t.Fatalf("DropsRandom = %d, want 2 (original + copy)", l.Stats().DropsRandom)
	}
	if l.Stats().Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", l.Stats().Duplicated)
	}
}

// Regression: reviving a link must reset the in-order delivery guard, or a
// stale pre-outage arrival time stretches post-revival delays.
func TestSetDownResetsArrivalGuard(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 8*mbps, 100*sim.Millisecond, 1<<20)
	p := NewPath(e, "p", l)
	var times []sim.Time
	sink := SinkFunc(func(*Packet) { times = append(times, e.Now()) })
	p.Send(1000, nil, sink, nil) // arrives at 101ms, guard = 101ms
	e.At(10*sim.Millisecond, func() { l.SetDown(true) })
	e.At(20*sim.Millisecond, func() {
		l.SetDown(false)
		l.SetDelay(sim.Millisecond)
	})
	e.At(30*sim.Millisecond, func() { p.Send(1000, nil, sink, nil) })
	e.Run(0)
	if len(times) != 2 {
		t.Fatalf("delivered %d, want 2", len(times))
	}
	// The post-revival packet (30ms send + 1ms tx + 1ms prop = 32ms) arrives
	// ahead of the slow pre-outage one; without the reset the guard would
	// hold it until just past the first packet's 101ms arrival.
	if want := 32 * sim.Millisecond; times[0] != want {
		t.Fatalf("post-revival delivery at %v, want %v", times[0], want)
	}
	if want := 101 * sim.Millisecond; times[1] != want {
		t.Fatalf("pre-outage delivery at %v, want %v", times[1], want)
	}
}

func TestAckCompressionBatches(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 8*mbps, 10*sim.Millisecond, 1<<20)
	p := NewPath(e, "p", l)
	p.SetAckCompression(5 * sim.Millisecond)
	compress := 0
	p.SetProbes(obs.NewBus(obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindAckCompress {
			compress++
			if ev.Link != "p" || ev.Value <= 0 {
				t.Errorf("ack-compress event %+v", ev)
			}
		}
	})))
	var times []sim.Time
	sink := SinkFunc(func(*Packet) { times = append(times, e.Now()) })
	for _, at := range []sim.Time{sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond, 5 * sim.Millisecond} {
		e.At(at, func() { p.SendFeedback("ack", sink) })
	}
	e.Run(0)
	if len(times) != 4 {
		t.Fatalf("delivered %d ACKs, want 4", len(times))
	}
	for i, at := range times {
		// Natural arrivals 11, 12, 13ms defer to the 15ms boundary; the 5ms
		// send lands exactly on it and is not deferred.
		if at != 15*sim.Millisecond {
			t.Fatalf("ACK %d at %v, want 15ms", i, at)
		}
	}
	if compress != 3 {
		t.Fatalf("got %d ack-compress events, want 3", compress)
	}
}

func TestAckDelayAndJitter(t *testing.T) {
	e := sim.NewEngine(5)
	l := NewLink(e, "l", 8*mbps, 10*sim.Millisecond, 1<<20)
	p := NewPath(e, "p", l)
	p.SetAckDelay(5 * sim.Millisecond)
	if p.BaseRTT() != 20*sim.Millisecond {
		t.Fatalf("BaseRTT = %v, want 20ms (impairment must not leak in)", p.BaseRTT())
	}
	var at sim.Time
	p.SendFeedback("ack", SinkFunc(func(*Packet) { at = e.Now() }))
	e.Run(0)
	if at != 15*sim.Millisecond {
		t.Fatalf("delayed ACK at %v, want 15ms", at)
	}

	p.SetAckDelay(0)
	p.SetAckJitter(4 * sim.Millisecond)
	var times []sim.Time
	sink := SinkFunc(func(*Packet) { times = append(times, e.Now()) })
	base := e.Now()
	for i := 0; i < 50; i++ {
		p.SendFeedback("ack", sink)
	}
	e.Run(0)
	if len(times) != 50 {
		t.Fatalf("delivered %d ACKs, want 50", len(times))
	}
	spread := false
	for _, got := range times {
		d := got - base - 10*sim.Millisecond
		if d < 0 || d >= 4*sim.Millisecond {
			t.Fatalf("ACK jitter %v outside [0, 4ms)", d)
		}
		if d != times[0]-base-10*sim.Millisecond {
			spread = true
		}
	}
	if !spread {
		t.Fatal("jitter produced identical ACK delays")
	}
}

func TestImpairmentParamValidation(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 8*mbps, 0, 0)
	p := NewPath(e, "p", l)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("reorder prob", func() { l.SetReorder(&Reorder{Prob: 1.5}) })
	mustPanic("reorder corr", func() { l.SetReorder(&Reorder{Corr: -0.1}) })
	mustPanic("dup prob", func() { l.SetDuplicate(2) })
	mustPanic("ack jitter", func() { p.SetAckJitter(-1) })
	mustPanic("ack compress", func() { p.SetAckCompression(-1) })
	mustPanic("ack delay", func() { p.SetAckDelay(-1) })
	l.SetReorder(&Reorder{Prob: 0.5})
	if !l.reorderOn || l.reorder.Prob != 0.5 {
		t.Fatalf("reorder = %+v, %v", l.reorder, l.reorderOn)
	}
	l.SetReorder(nil)
	if l.reorderOn {
		t.Fatal("SetReorder(nil) did not disable")
	}
	l.SetDuplicate(0.25)
	if l.dupProb != 0.25 {
		t.Fatalf("dupProb = %v", l.dupProb)
	}
}

func BenchmarkLinkForward(b *testing.B) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 1e12, sim.Millisecond, 1<<30)
	p := NewPath(e, "p", l)
	sink := SinkFunc(func(*Packet) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Send(1500, nil, sink, nil)
		if i%1024 == 0 {
			e.Run(e.Now() + sim.Millisecond)
		}
	}
	e.Run(0)
}
