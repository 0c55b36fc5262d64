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

// homeAccess describes a home's two access interfaces.
type homeAccess struct {
	wifiBps    float64
	wifiBuf    int
	wifiLoss   float64
	cellBps    float64
	cellBuf    int     // bloated
	cellLoss   float64 // non-congestion loss (handovers, radio)
	cellExtraD sim.Time
}

var homeAccesses = map[string]homeAccess{
	"Israel":   {wifiBps: 40e6, wifiBuf: 256_000, wifiLoss: 0.0001, cellBps: 25e6, cellBuf: 768_000, cellLoss: 0.003, cellExtraD: 25 * sim.Millisecond},
	"Boston":   {wifiBps: 80e6, wifiBuf: 384_000, wifiLoss: 0.0001, cellBps: 35e6, cellBuf: 1_000_000, cellLoss: 0.002, cellExtraD: 20 * sim.Millisecond},
	"Illinois": {wifiBps: 60e6, wifiBuf: 320_000, wifiLoss: 0.0001, cellBps: 30e6, cellBuf: 900_000, cellLoss: 0.0025, cellExtraD: 22 * sim.Millisecond},
}

// WANPair is the pair of access paths for one (server, home) download, as a
// value: a two-link topology plus the parameters that make its links and
// paths this pair's.
type WANPair struct {
	// Topo holds the WiFi and the cellular access link, in that order, and
	// one flow, "dl", with a subflow over each.
	Topo *Topology

	acc              homeAccess // after the draw
	wifiWAN, cellWAN sim.Time   // WAN delay carried by each path
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
	acc := homeAccesses[home]
	jitter := func(v float64) float64 {
		if rng == nil {
			return v
		}
		return v * (0.85 + 0.3*rng.Float64())
	}
	wan := sim.FromSeconds(jitter(d) / 1e3)
	acc.wifiBps = jitter(acc.wifiBps)
	acc.cellBps = jitter(acc.cellBps)
	acc.cellLoss = jitter(acc.cellLoss)

	wifi, cell := server+"-"+home+"-wifi", server+"-"+home+"-cell"
	return &WANPair{
		Topo: &Topology{
			Name:  server + "-" + home,
			Links: []string{wifi, cell},
			Flows: []FlowDef{{Name: "dl", Paths: [][]string{{wifi}, {cell}}}},
		},
		acc: acc, wifiWAN: wan, cellWAN: wan + acc.cellExtraD,
	}
}

// Tweak gives the built access links the pair's parameters (an exp.Spec's
// Tweak).
func (w *WANPair) Tweak(net *Net) {
	wifi, cell := net.Link(w.Topo.Links[0]), net.Link(w.Topo.Links[1])
	wifi.SetRate(w.acc.wifiBps)
	wifi.SetDelay(3 * sim.Millisecond)
	wifi.SetBuffer(w.acc.wifiBuf)
	wifi.SetLoss(w.acc.wifiLoss)
	cell.SetRate(w.acc.cellBps)
	cell.SetDelay(15 * sim.Millisecond)
	cell.SetBuffer(w.acc.cellBuf)
	cell.SetLoss(w.acc.cellLoss)
}

// PathTweak adds the WAN's propagation delay to a path over one of the
// pair's access links (an exp.FlowSpec's PathTweak). The delay stays on the
// path rather than in the link's: a packet crosses it as an event of its
// own before it reaches the access queue.
func (w *WANPair) PathTweak(p *netem.Path) {
	if p.Links()[0].Name == w.Topo.Links[0] {
		p.SetExtraDelay(w.wifiWAN)
	} else {
		p.SetExtraDelay(w.cellWAN)
	}
}
