package netem

import (
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// TestQueueDepthNeverExceedsBuffer floods a link at several times its
// capacity and asserts the drop-tail bound on every queue-depth sample the
// obs bus sees, plus the occupancy high-water mark: the backlog may exceed
// the configured buffer only by the one packet treated as in service (its
// bytes are not charged against the buffer — see enqueue), never by more.
func TestQueueDepthNeverExceedsBuffer(t *testing.T) {
	const (
		bufBytes = 30000
		pktSize  = 1500
		rate     = 4 * mbps
	)
	e := sim.NewEngine(5)
	l := NewLink(e, "l", rate, 5*sim.Millisecond, bufBytes)
	p := NewPath(e, "p", l)

	maxSample := 0
	samples := 0
	bus := obs.NewBus(obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind != obs.KindQueueDepth {
			return
		}
		samples++
		if int(ev.Bytes) > maxSample {
			maxSample = int(ev.Bytes)
		}
	}))
	l.SetProbes(bus)
	obs.SampleQueues(e, bus, sim.Millisecond, l.QueueProbe())

	// Paced overload at 4× link rate for 2 s: the queue must saturate and
	// stay saturated, so the bound is exercised at its tightest.
	sink, _ := collector()
	var feed func()
	gap := sim.FromSeconds(pktSize * 8 / (4 * rate))
	feed = func() {
		p.Send(pktSize, nil, sink, nil)
		if e.Now() < 2*sim.Second {
			e.At(e.Now()+gap, feed)
		}
	}
	e.At(0, feed)
	e.Run(3 * sim.Second)

	bound := bufBytes + pktSize
	if samples == 0 {
		t.Fatal("no queue-depth samples on the bus")
	}
	if maxSample > bound {
		t.Fatalf("queue-depth sample of %d B exceeds buffer %d + one packet %d", maxSample, bufBytes, pktSize)
	}
	if l.MaxQueuedBytes() > bound {
		t.Fatalf("occupancy high-water %d B exceeds buffer %d + one packet %d", l.MaxQueuedBytes(), bufBytes, pktSize)
	}
	// The overload must actually have filled the buffer, or the bound was
	// never tested.
	if l.MaxQueuedBytes() < bufBytes-pktSize {
		t.Fatalf("high-water %d B never approached the %d B buffer — overload too weak", l.MaxQueuedBytes(), bufBytes)
	}
	if l.Stats().DropsQueueFull == 0 {
		t.Fatal("no drop-tail drops under 4× overload")
	}
}

// TestQueueHighWaterTracksExactFill pins the high-water accounting against
// an exact back-to-back fill: with a b-byte buffer and p-byte packets, the
// first packet goes into service and b/p more queue behind it.
func TestQueueHighWaterTracksExactFill(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, "l", 8*mbps, 0, 3000)
	p := NewPath(e, "p", l)
	sink, got := collector()
	for i := 0; i < 10; i++ {
		p.Send(1000, nil, sink, nil)
	}
	e.Run(0)
	// 1 in service + 3 queued admitted; high water = 4000 bytes momentarily.
	if want := 4; len(*got) != want {
		t.Fatalf("delivered %d, want %d", len(*got), want)
	}
	if l.MaxQueuedBytes() != 4000 {
		t.Fatalf("high-water %d, want 4000", l.MaxQueuedBytes())
	}
	if l.QueuedBytes() != 0 {
		t.Fatalf("queue not drained: %d bytes left", l.QueuedBytes())
	}
}
