package netem

import (
	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// Path is a unidirectional route through an ordered set of links, ending at
// a sink, plus a delay-only reverse channel for feedback. One transport
// subflow sends on exactly one Path.
type Path struct {
	Name  string
	eng   *sim.Engine
	links []*Link

	// extraDelay adds fixed one-way delay not attributable to any shared
	// link (e.g. last-mile latency private to this path).
	extraDelay sim.Time

	// ACK-path impairment knobs (all zero = the clean delay-only reverse
	// channel, whose one-way delay is PropDelay). ackDelay is a fixed
	// asymmetric reverse-path addition on top of it; ackJitter adds a
	// uniform [0, ackJitter) per-feedback delay with no in-order guard, so
	// ACKs may arrive out of order; ackCompress defers each feedback arrival
	// to the next multiple of the slot width, so ACKs landing inside one
	// slot arrive back to back (ACK compression/aggregation, as on
	// half-duplex or cellular uplinks).
	ackDelay    sim.Time
	ackJitter   sim.Time
	ackCompress sim.Time

	probes *obs.Bus // nil when observability is disabled

	// arena is the engine's packet pool, looked up once at NewPath.
	arena *arena
}

// arena is netem's share of the engine-scoped object arena (sim.Engine.Local):
// the pool of every Packet on one engine. Because it outlives any path, a
// session opened late in a run sends on packets that sessions long closed
// have released.
type arena = sim.Pool[Packet]

type arenaKey struct{}

const packetSlab = 32

func arenaOf(eng *sim.Engine) *arena {
	return eng.Local(arenaKey{}, func() any { return &arena{Slab: packetSlab} }).(*arena)
}

// PacketsInUse returns how many pooled packets of eng's arena are currently
// inside the network (acquired and not yet released). It is zero on an idle
// engine: every packet is released at its terminal event.
func PacketsInUse(eng *sim.Engine) int { return arenaOf(eng).InUse() }

// acquire returns a zeroed packet that goes back to a at its terminal event.
func acquire(a *arena) *Packet {
	pkt := a.Get()
	pkt.owner = a
	return pkt
}

// release recycles pkt after its terminal event (delivery or drop).
func (pkt *Packet) release() {
	a := pkt.owner
	if a == nil {
		return // packet built outside an arena (tests)
	}
	*pkt = Packet{}
	a.Put(pkt)
}

// NewPath builds a path over links on engine eng. Every link must live on
// that same engine: a path is a strictly local object (its packets and
// feedback events all schedule on eng), so a link from another shard would
// silently corrupt event ordering — it panics instead.
func NewPath(eng *sim.Engine, name string, links ...*Link) *Path {
	for _, l := range links {
		if l.eng != eng {
			panic("netem: link " + l.Name + " lives on a different engine than path " + name)
		}
	}
	return &Path{Name: name, eng: eng, links: links, arena: arenaOf(eng)}
}

// Engine returns the engine the path schedules on.
func (p *Path) Engine() *sim.Engine { return p.eng }

// SetExtraDelay adds a fixed path-private one-way delay.
func (p *Path) SetExtraDelay(d sim.Time) { p.extraDelay = d }

// SetAckDelay adds a fixed asymmetric reverse-path delay to every feedback
// packet, on top of the forward propagation delay the reverse channel
// mirrors. It models an impairment, so it is not reflected in BaseRTT —
// estimators observe it only through the ACKs themselves.
func (p *Path) SetAckDelay(d sim.Time) {
	if d < 0 {
		panic("netem: negative ack delay")
	}
	p.ackDelay = d
}

// SetAckJitter adds a uniform [0, d) extra delay per feedback packet. There
// is deliberately no in-order guard on the reverse channel: jittered ACKs
// may overtake each other, as they do on impaired reverse paths.
func (p *Path) SetAckJitter(d sim.Time) {
	if d < 0 {
		panic("netem: negative ack jitter")
	}
	p.ackJitter = d
}

// SetAckCompression batches feedback arrivals at d-spaced slot boundaries:
// an ACK whose natural arrival falls strictly inside a slot is deferred to
// the slot's end, so all ACKs of one slot arrive back to back. 0 disables.
func (p *Path) SetAckCompression(d sim.Time) {
	if d < 0 {
		panic("netem: negative ack compression slot")
	}
	p.ackCompress = d
}

// SetProbes attaches an observability bus; the path emits an ack-compress
// event for every deferred feedback packet. nil detaches.
func (p *Path) SetProbes(b *obs.Bus) { p.probes = b }

// Links returns the links composing the path.
func (p *Path) Links() []*Link { return p.links }

// PropDelay returns the total forward propagation delay (excluding queueing
// and serialization).
func (p *Path) PropDelay() sim.Time {
	d := p.extraDelay
	for _, l := range p.links {
		d += l.delay
	}
	return d
}

// BaseRTT returns the zero-queue round-trip time of the path: the
// feedback channel's one-way delay is the forward propagation delay.
func (p *Path) BaseRTT() sim.Time { return 2 * p.PropDelay() }

// Send injects a packet of size bytes carrying meta onto the path. sink
// receives it if it survives every link; onDrop (optional) is invoked if any
// link drops it. The path-private extra delay is applied before the first
// link. The packet is owned by the engine's arena and recycled at its
// terminal event, so neither sink nor onDrop may retain it past their return.
func (p *Path) Send(size int, meta any, sink Sink, onDrop func(*Packet, obs.DropCause)) {
	pkt := acquire(p.arena)
	pkt.Size = size
	pkt.SentAt = p.eng.Now()
	pkt.Meta = meta
	pkt.path = p
	pkt.sink = sink
	pkt.onDrop = onDrop
	if p.extraDelay > 0 {
		p.eng.Schedule(p.eng.Now()+p.extraDelay, packetForwardEvent, pkt)
	} else {
		pkt.forward()
	}
}

// SendFeedback delivers meta to sink after the path's reverse delay. It is
// used for ACK traffic, which the emulator models as delay-only (see the
// package comment). Like Send, the delivered *Packet is recycled as soon as
// the sink returns.
func (p *Path) SendFeedback(meta any, sink Sink) {
	pkt := acquire(p.arena)
	pkt.SentAt = p.eng.Now()
	pkt.Meta = meta
	pkt.sink = sink
	at := p.eng.Now() + p.PropDelay() + p.ackDelay
	if p.ackJitter > 0 {
		at += sim.Time(p.eng.Rand().Int63n(int64(p.ackJitter)))
	}
	if p.ackCompress > 0 {
		if rem := at % p.ackCompress; rem != 0 {
			wait := p.ackCompress - rem
			p.probes.AckCompress(p.eng.Now(), p.Name, wait)
			at += wait
		}
	}
	p.eng.Schedule(at, feedbackDeliverEvent, pkt)
}

// feedbackDeliverEvent fires when a feedback packet completes its delay-only
// reverse trip.
func feedbackDeliverEvent(a any) {
	pkt := a.(*Packet)
	pkt.sink.Deliver(pkt)
	pkt.release()
}

// onDrop is stored on the packet so transports learn about their own losses
// immediately in tests; real senders infer loss from missing feedback.
func (pkt *Packet) forward() {
	hops := pkt.path.links
	if pkt.hop > 0 {
		// Its arrival is past its serialization end: off the FIFO before the
		// packet is reused by the next link or the pool.
		hops[pkt.hop-1].settle()
	}
	if pkt.hop >= len(hops) {
		if pkt.sink != nil {
			pkt.sink.Deliver(pkt)
		}
		pkt.release()
		return
	}
	link := hops[pkt.hop]
	pkt.hop++
	link.enqueue(pkt)
}
