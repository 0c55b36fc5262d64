package topo

import (
	"math/rand"

	"mpcc/internal/netem"
	"mpcc/internal/sim"
)

// The live AWS→residential experiment of §7.3 downloads files from six
// cloud regions to three homes, each with a WiFi interface and a tethered
// cellular interface. This file synthesizes those paths: the WAN contributes
// (distance-dependent) propagation delay, and each home's two access links
// are the bottlenecks — WiFi with a moderate buffer and negligible random
// loss, cellular with non-congestion loss and a bloated buffer. Those are
// exactly the properties the paper attributes its live results to (loss
// resilience and bufferbloat avoidance growing with BDP).

// Servers lists the AWS regions of Fig. 16.
var Servers = []string{"Ohio", "SaoPaulo", "London", "Tokyo", "Frankfurt", "NorthCalifornia"}

// Homes lists the residential endpoints of Fig. 16.
var Homes = []string{"Israel", "Boston", "Illinois"}

// wanOneWayMs[home][server] is the synthetic WAN one-way delay in ms,
// approximating geodesic Internet latencies.
var wanOneWayMs = map[string]map[string]float64{
	"Israel":   {"Ohio": 75, "SaoPaulo": 110, "London": 35, "Tokyo": 110, "Frankfurt": 30, "NorthCalifornia": 90},
	"Boston":   {"Ohio": 15, "SaoPaulo": 75, "London": 45, "Tokyo": 90, "Frankfurt": 50, "NorthCalifornia": 40},
	"Illinois": {"Ohio": 8, "SaoPaulo": 80, "London": 50, "Tokyo": 85, "Frankfurt": 55, "NorthCalifornia": 30},
}

// access is one access interface of a home: its link and what the path over
// it adds on top of the WAN's propagation delay.
type access struct {
	rateBps float64
	delay   sim.Time
	buf     int
	loss    float64
	extra   sim.Time
}

// homeAccesses holds each home's WiFi interface and its cellular one, the
// latter with a bloated buffer, non-congestion loss (handovers, radio) and
// extra delay.
var homeAccesses = map[string][2]access{
	"Israel":   {{40e6, 3 * sim.Millisecond, 256_000, 0.0001, 0}, {25e6, 15 * sim.Millisecond, 768_000, 0.003, 25 * sim.Millisecond}},
	"Boston":   {{80e6, 3 * sim.Millisecond, 384_000, 0.0001, 0}, {35e6, 15 * sim.Millisecond, 1_000_000, 0.002, 20 * sim.Millisecond}},
	"Illinois": {{60e6, 3 * sim.Millisecond, 320_000, 0.0001, 0}, {30e6, 15 * sim.Millisecond, 900_000, 0.0025, 22 * sim.Millisecond}},
}

// WANPair is the pair of access paths for one (server, home) download, as a
// value: Topo holds the WiFi and the cellular access link, in that order, and
// one flow, "dl", with a subflow over each; acc is what the draw made of each.
type WANPair struct {
	Topo *Topology
	acc  [2]access // extra includes the WAN's delay
}

// NewWANPair describes the WiFi and cellular paths from server to home. rng
// perturbs the access parameters ±15% so repeated runs see varied
// conditions, as live measurements do; nil draws nothing.
func NewWANPair(server, home string, rng *rand.Rand) *WANPair {
	delays, ok := wanOneWayMs[home]
	if !ok {
		panic("topo: unknown home " + home)
	}
	d, ok := delays[server]
	if !ok {
		panic("topo: unknown server " + server)
	}
	jitter := func(v float64) float64 {
		if rng == nil {
			return v
		}
		return v * (0.85 + 0.3*rng.Float64())
	}
	acc := homeAccesses[home]
	wan := sim.FromSeconds(jitter(d) / 1e3)
	acc[0].rateBps = jitter(acc[0].rateBps)
	acc[1].rateBps = jitter(acc[1].rateBps)
	acc[1].loss = jitter(acc[1].loss)
	acc[0].extra += wan
	acc[1].extra += wan

	wifi, cell := server+"-"+home+"-wifi", server+"-"+home+"-cell"
	return &WANPair{acc: acc, Topo: &Topology{
		Name:  server + "-" + home,
		Links: []string{wifi, cell},
		Flows: []FlowDef{{Name: "dl", Paths: [][]string{{wifi}, {cell}}}},
	}}
}

// Tweak gives the built access links their parameters (an exp.Spec.Tweak).
func (w *WANPair) Tweak(net *Net) {
	for i, a := range w.acc {
		l := net.Link(w.Topo.Links[i])
		l.SetRate(a.rateBps)
		l.SetDelay(a.delay)
		l.SetBuffer(a.buf)
		l.SetLoss(a.loss)
	}
}

// PathTweak adds the WAN's delay to a path over one of the pair's access
// links (an exp.FlowSpec.PathTweak). It stays on the path rather than in the
// link's delay: a packet crosses it as an event of its own, ahead of the queue.
func (w *WANPair) PathTweak(p *netem.Path) {
	for i, a := range w.acc {
		if p.Links()[0].Name == w.Topo.Links[i] {
			p.SetExtraDelay(a.extra)
		}
	}
}
