package topo

import (
	"fmt"

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

// Clos is a 2-layer Clos fabric as a value: hosts at ToRs, ToRs fully meshed
// to spines. Subflows are placed on distinct spine paths via ECMP hashing,
// as the testbed's hardcoded shortest paths were.
type Clos struct {
	Cfg ClosConfig
}

// Topology returns the fabric's links — host up- and downlinks, then each
// ToR's up- and downlink per spine — and no flows: the experiment declares
// them over SubflowPaths.
func (c Clos) Topology() *Topology {
	t := &Topology{Name: "clos"}
	for h := 0; h < c.Cfg.NumHosts; h++ {
		t.Links = append(t.Links, hostUp(h), hostDown(h))
	}
	for tor := 0; tor < c.Cfg.NumToRs; tor++ {
		for s := 0; s < c.Cfg.NumSpines; s++ {
			t.Links = append(t.Links, torUp(tor, s), torDown(s, tor))
		}
	}
	return t
}

func hostUp(h int) string       { return fmt.Sprintf("h%d-up", h) }
func hostDown(h int) string     { return fmt.Sprintf("h%d-down", h) }
func torUp(tor, s int) string   { return fmt.Sprintf("tor%d-spine%d", tor, s) }
func torDown(s, tor int) string { return fmt.Sprintf("spine%d-tor%d", s, tor) }

// Tweak gives every built link the fabric's parameters (an exp.Spec.Tweak).
func (c Clos) Tweak(net *Net) {
	for _, name := range net.LinkNames() {
		l := net.Link(name)
		l.SetRate(c.Cfg.LinkRateBps)
		l.SetDelay(c.Cfg.LinkDelay)
		l.SetBuffer(c.Cfg.BufferBytes)
	}
}

// ECMPSpine hashes (src, dst, subflow) onto a spine, emulating the
// testbed's ECMP path choice per subflow.
func (c Clos) ECMPSpine(src, dst, subflow int) int {
	h := uint32(src)*2654435761 ^ uint32(dst)*40503 ^ uint32(subflow)*9176
	return int(h % uint32(c.Cfg.NumSpines))
}

// Path returns the links of the path from src to dst through the given
// spine (ignored when both hosts share a ToR: host h attaches to ToR
// h mod NumToRs).
func (c Clos) Path(src, dst, spine int) []string {
	st, dt := src%c.Cfg.NumToRs, dst%c.Cfg.NumToRs
	if st == dt {
		return []string{hostUp(src), hostDown(dst)}
	}
	return []string{hostUp(src), torUp(st, spine), torDown(spine, dt), hostDown(dst)}
}

// SubflowPaths returns n ECMP-spread paths from src to dst, one per subflow.
func (c Clos) SubflowPaths(src, dst, n int) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = c.Path(src, dst, c.ECMPSpine(src, dst, i))
	}
	return out
}
