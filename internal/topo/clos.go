package topo

import (
	"fmt"

	"mpcc/internal/netem"
	"mpcc/internal/sim"
)

// ClosConfig sizes the Fig. 18 data-center testbed. The defaults scale the
// paper's 25 Gbps fabric down 100× (see DESIGN.md) so packet-level
// simulation of the FCT experiment sustains multi-second congestion epochs
// while staying tractable; flow sizes scale with it, preserving the
// flow-lifetime-to-RTT ratios that determine the Fig. 19 shape.
type ClosConfig struct {
	LinkRateBps float64
	LinkDelay   sim.Time
	BufferBytes int
	NumHosts    int
	NumToRs     int
	NumSpines   int
}

// DefaultClosConfig returns the scaled testbed configuration.
func DefaultClosConfig() ClosConfig {
	return ClosConfig{
		LinkRateBps: 250e6,
		LinkDelay:   20 * sim.Microsecond,
		BufferBytes: 150_000,
		NumHosts:    6,
		NumToRs:     4,
		NumSpines:   2,
	}
}

// Clos is a 2-layer Clos fabric: hosts at ToRs, ToRs fully meshed to
// spines. Subflows are placed on distinct spine paths via ECMP hashing, as
// the testbed's hardcoded shortest paths were.
type Clos struct {
	Cfg ClosConfig
	eng *sim.Engine

	links    []*netem.Link   // every link, in creation order
	hostUp   []*netem.Link   // host → ToR
	hostDown []*netem.Link   // ToR → host
	torUp    [][]*netem.Link // [tor][spine] ToR → spine
	torDown  [][]*netem.Link // [spine][tor] spine → ToR
}

// NewClos builds the fabric on eng.
func NewClos(eng *sim.Engine, cfg ClosConfig) *Clos {
	c := &Clos{Cfg: cfg, eng: eng}
	mk := func(name string) *netem.Link {
		l := netem.NewLink(eng, name, cfg.LinkRateBps, cfg.LinkDelay, cfg.BufferBytes)
		c.links = append(c.links, l)
		return l
	}
	for h := 0; h < cfg.NumHosts; h++ {
		c.hostUp = append(c.hostUp, mk(fmt.Sprintf("h%d-up", h)))
		c.hostDown = append(c.hostDown, mk(fmt.Sprintf("h%d-down", h)))
	}
	c.torUp = make([][]*netem.Link, cfg.NumToRs)
	c.torDown = make([][]*netem.Link, cfg.NumSpines)
	for s := 0; s < cfg.NumSpines; s++ {
		c.torDown[s] = make([]*netem.Link, cfg.NumToRs)
	}
	for t := 0; t < cfg.NumToRs; t++ {
		c.torUp[t] = make([]*netem.Link, cfg.NumSpines)
		for s := 0; s < cfg.NumSpines; s++ {
			c.torUp[t][s] = mk(fmt.Sprintf("tor%d-spine%d", t, s))
			c.torDown[s][t] = mk(fmt.Sprintf("spine%d-tor%d", s, t))
		}
	}
	return c
}

// Links returns every link of the fabric in creation order (the order probe
// wiring must follow to keep traces reproducible).
func (c *Clos) Links() []*netem.Link { return c.links }

// ToROf returns the ToR a host attaches to.
func (c *Clos) ToROf(host int) int { return host % c.Cfg.NumToRs }

// ECMPSpine hashes (src, dst, subflow) onto a spine, emulating the
// testbed's ECMP path choice per subflow.
func (c *Clos) ECMPSpine(src, dst, subflow int) int {
	h := uint32(src)*2654435761 ^ uint32(dst)*40503 ^ uint32(subflow)*9176
	return int(h % uint32(c.Cfg.NumSpines))
}

// Path returns the subflow's path from src to dst through the given spine
// (ignored when both hosts share a ToR).
func (c *Clos) Path(src, dst, spine int) *netem.Path {
	st, dt := c.ToROf(src), c.ToROf(dst)
	name := fmt.Sprintf("h%d→h%d/s%d", src, dst, spine)
	if st == dt {
		return netem.NewPath(c.eng, name, c.hostUp[src], c.hostDown[dst])
	}
	return netem.NewPath(c.eng, name,
		c.hostUp[src], c.torUp[st][spine], c.torDown[spine][dt], c.hostDown[dst])
}

// SubflowPaths returns n ECMP-spread paths from src to dst, one per subflow.
func (c *Clos) SubflowPaths(src, dst, n int) []*netem.Path {
	out := make([]*netem.Path, n)
	for i := 0; i < n; i++ {
		out[i] = c.Path(src, dst, c.ECMPSpine(src, dst, i))
	}
	return out
}

// TotalCapacity sums the fabric's link rates (for utilization accounting).
func (c *Clos) TotalCapacity() float64 {
	n := len(c.hostUp) + len(c.hostDown)
	n += c.Cfg.NumToRs * c.Cfg.NumSpines * 2
	return float64(n) * c.Cfg.LinkRateBps
}
