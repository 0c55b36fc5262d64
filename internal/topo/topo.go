// Package topo builds the evaluation topologies of the paper: the five
// 1- and 2-link networks of Fig. 3, the OLIA and LIA topologies of Fig. 4,
// the 2-spine Clos data-center testbed of Fig. 18, and the synthetic
// AWS→residential WAN paths of §7.3.
//
// A Net instantiates named netem links on a simulation engine and builds
// paths over them by name, so experiments can tweak any link (buffer, loss,
// bandwidth) before or during a run.
package topo

import (
	"fmt"

	"mpcc/internal/fairness"
	"mpcc/internal/netem"
	"mpcc/internal/sim"
)

// Paper defaults (§7.1): 100 Mbps links, 30 ms one-way latency, BDP (375 KB)
// buffers.
const (
	DefaultRate   = 100e6
	DefaultDelay  = 30 * sim.Millisecond
	DefaultBuffer = 375000
)

// Net is a collection of named links on one engine.
type Net struct {
	Eng   *sim.Engine
	links map[string]*netem.Link
	order []string
}

// NewNet returns an empty network on eng.
func NewNet(eng *sim.Engine) *Net {
	return &Net{Eng: eng, links: make(map[string]*netem.Link)}
}

// AddLink creates a named link on the net's default engine.
func (n *Net) AddLink(name string, rateBps float64, delay sim.Time, bufBytes int) *netem.Link {
	return n.AddLinkOn(n.Eng, name, rateBps, delay, bufBytes)
}

// AddLinkOn creates a named link on an explicit engine, for sharded builds
// where different link clusters live on different shard engines (see
// Partition.Build). The net's own Eng is then just the first shard.
func (n *Net) AddLinkOn(eng *sim.Engine, name string, rateBps float64, delay sim.Time, bufBytes int) *netem.Link {
	if _, dup := n.links[name]; dup {
		panic("topo: duplicate link " + name)
	}
	l := netem.NewLink(eng, name, rateBps, delay, bufBytes)
	n.links[name] = l
	n.order = append(n.order, name)
	return l
}

// AddDefaultLink creates a link with the paper's default parameters.
func (n *Net) AddDefaultLink(name string) *netem.Link {
	return n.AddLink(name, DefaultRate, DefaultDelay, DefaultBuffer)
}

// Link returns the named link, panicking if absent.
func (n *Net) Link(name string) *netem.Link {
	l, ok := n.links[name]
	if !ok {
		panic("topo: unknown link " + name)
	}
	return l
}

// LinkNames returns the link names in creation order.
func (n *Net) LinkNames() []string { return n.order }

// TotalCapacity returns the sum of link rates in bits/s.
func (n *Net) TotalCapacity() float64 {
	t := 0.0
	for _, name := range n.order {
		t += n.links[name].Rate()
	}
	return t
}

// Path builds a path traversing the named links in order. The path lives
// on its first link's engine (identical to n.Eng on unsharded nets);
// NewPath rejects link sets that span engines, which would indicate a bad
// partition.
func (n *Net) Path(names ...string) *netem.Path {
	ls := make([]*netem.Link, len(names))
	for i, name := range names {
		ls[i] = n.Link(name)
	}
	eng := n.Eng
	if len(ls) > 0 {
		eng = ls[0].Engine()
	}
	return netem.NewPath(eng, fmt.Sprint(names), ls...)
}

// Paths builds one path per link-name sequence: a flow's subflows.
func (n *Net) Paths(pathNames [][]string) []*netem.Path {
	out := make([]*netem.Path, len(pathNames))
	for i, names := range pathNames {
		out[i] = n.Path(names...)
	}
	return out
}

// FlowDef declares one connection of a canonical topology: its name, its
// subflows as link-name sequences, and its role in the figures.
type FlowDef struct {
	Name  string
	Paths [][]string
}

// Multipath reports whether the flow has more than one subflow.
func (f FlowDef) Multipath() bool { return len(f.Paths) > 1 }

// Topology is a canonical evaluation network: link definitions plus the
// flows the corresponding figure runs over it.
type Topology struct {
	Name  string
	Links []string // created with defaults; experiments mutate as needed
	Flows []FlowDef
	// ParallelLinkNet maps the topology onto the fairness package's
	// parallel-link abstraction (nil when not a parallel-link network).
	ParallelLinkNet *fairness.Network
}

// Build instantiates the topology's links (with paper defaults) on eng.
func (t *Topology) Build(eng *sim.Engine) *Net {
	n := NewNet(eng)
	for _, name := range t.Links {
		n.AddDefaultLink(name)
	}
	return n
}

// Fig3a: a multipath connection with two subflows and a single-path
// connection all sharing one link ("single link MP-SP").
func Fig3a() *Topology {
	return &Topology{
		Name:  "3a-single-link-MP-SP",
		Links: []string{"link1"},
		Flows: []FlowDef{
			{Name: "mp", Paths: [][]string{{"link1"}, {"link1"}}},
			{Name: "sp", Paths: [][]string{{"link1"}}},
		},
		ParallelLinkNet: &fairness.Network{
			Capacity: []float64{DefaultRate},
			Conns:    [][]int{{0}, {0}},
		},
	}
}

// Fig3b: one multipath connection over two parallel links.
func Fig3b() *Topology {
	return &Topology{
		Name:  "3b-one-MP",
		Links: []string{"link1", "link2"},
		Flows: []FlowDef{
			{Name: "mp", Paths: [][]string{{"link1"}, {"link2"}}},
		},
		ParallelLinkNet: &fairness.Network{
			Capacity: []float64{DefaultRate, DefaultRate},
			Conns:    [][]int{{0, 1}},
		},
	}
}

// Fig3c: multipath on both links, single-path on link 2
// ("two links MP-SP").
func Fig3c() *Topology {
	return &Topology{
		Name:  "3c-two-links-MP-SP",
		Links: []string{"link1", "link2"},
		Flows: []FlowDef{
			{Name: "mp", Paths: [][]string{{"link1"}, {"link2"}}},
			{Name: "sp", Paths: [][]string{{"link2"}}},
		},
		ParallelLinkNet: &fairness.Network{
			Capacity: []float64{DefaultRate, DefaultRate},
			Conns:    [][]int{{0, 1}, {1}},
		},
	}
}

// Fig3d: multipath on both links, one single-path flow on each
// ("two links MP-SP-SP").
func Fig3d() *Topology {
	return &Topology{
		Name:  "3d-two-links-MP-SP-SP",
		Links: []string{"link1", "link2"},
		Flows: []FlowDef{
			{Name: "mp", Paths: [][]string{{"link1"}, {"link2"}}},
			{Name: "sp1", Paths: [][]string{{"link1"}}},
			{Name: "sp2", Paths: [][]string{{"link2"}}},
		},
		ParallelLinkNet: &fairness.Network{
			Capacity: []float64{DefaultRate, DefaultRate},
			Conns:    [][]int{{0, 1}, {0}, {1}},
		},
	}
}

// Fig3e: two multipath connections sharing both links.
func Fig3e() *Topology {
	return &Topology{
		Name:  "3e-two-MP",
		Links: []string{"link1", "link2"},
		Flows: []FlowDef{
			{Name: "mp1", Paths: [][]string{{"link1"}, {"link2"}}},
			{Name: "mp2", Paths: [][]string{{"link1"}, {"link2"}}},
		},
		ParallelLinkNet: &fairness.Network{
			Capacity: []float64{DefaultRate, DefaultRate},
			Conns:    [][]int{{0, 1}, {0, 1}},
		},
	}
}

// Fig4a is the "OLIA topology" from Khalili et al.: a single-path flow
// confined to link 1 while a multipath flow uses links 1 and 2.
func Fig4a() *Topology {
	return &Topology{
		Name:  "4a-OLIA",
		Links: []string{"link1", "link2"},
		Flows: []FlowDef{
			{Name: "sp", Paths: [][]string{{"link1"}}},
			{Name: "mp", Paths: [][]string{{"link1"}, {"link2"}}},
		},
		ParallelLinkNet: &fairness.Network{
			Capacity: []float64{DefaultRate, DefaultRate},
			Conns:    [][]int{{0}, {0, 1}},
		},
	}
}

// Fig4b is the "LIA topology" from Wischik et al.: three links and three
// multipath connections in a ring, each using two of the links.
func Fig4b() *Topology {
	return &Topology{
		Name:  "4b-LIA-ring",
		Links: []string{"link1", "link2", "link3"},
		Flows: []FlowDef{
			{Name: "mp1", Paths: [][]string{{"link1"}, {"link2"}}},
			{Name: "mp2", Paths: [][]string{{"link2"}, {"link3"}}},
			{Name: "mp3", Paths: [][]string{{"link3"}, {"link1"}}},
		},
		ParallelLinkNet: &fairness.Network{
			Capacity: []float64{DefaultRate, DefaultRate, DefaultRate},
			Conns:    [][]int{{0, 1}, {1, 2}, {2, 0}},
		},
	}
}

// SharedBottleneck: one multipath connection whose two subflows enter on
// disjoint access links but then traverse a single common link — the
// adversarial shared-bottleneck shape for policer/shaper studies. Links
// build with paper defaults; experiments overprovision the access links
// and attach a token-bucket policer or shaper to the shared one via Tweak,
// making it the sole contention point. Not a parallel-link network: the
// LMMF abstraction cannot express the serial hop.
func SharedBottleneck() *Topology {
	return &Topology{
		Name:  "shared-bottleneck",
		Links: []string{"access1", "access2", "shared"},
		Flows: []FlowDef{
			{Name: "mp", Paths: [][]string{{"access1", "shared"}, {"access2", "shared"}}},
		},
	}
}

// ConvergenceSuite returns the five topologies of Fig. 10.
func ConvergenceSuite() []*Topology {
	return []*Topology{Fig3a(), Fig3c(), Fig3d(), Fig3e(), Fig4b()}
}
