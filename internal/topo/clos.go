package topo

import (
	"fmt"

	"mpcc/internal/sim"
)

// The Fig. 18 data-center testbed, scaled: its 25 Gbps fabric runs 100×
// slower (see DESIGN.md) so packet-level simulation of the FCT experiment
// sustains multi-second congestion epochs while staying tractable; flow
// sizes scale with it, preserving the flow-lifetime-to-RTT ratios that
// determine the Fig. 19 shape.
const (
	// ClosHosts is the number of hosts, numbered 0 … ClosHosts−1; host h
	// attaches to ToR h mod 4.
	ClosHosts int = 6

	closToRs        int      = 4
	closSpines      int      = 2
	closLinkRateBps float64  = 250e6
	closLinkDelay   sim.Time = 20 * sim.Microsecond
	closBufferBytes int      = 150_000
)

// Clos is a 2-layer Clos fabric as a value: hosts at ToRs, ToRs fully meshed
// to spines. Subflows are placed on distinct spine paths via ECMP hashing,
// as the testbed's hardcoded shortest paths were.
type Clos struct{}

// Topology returns the fabric's links — host up- and downlinks, then each
// ToR's up- and downlink per spine — and no flows: the experiment declares
// them over SubflowPaths.
func (Clos) Topology() *Topology {
	t := &Topology{Name: "clos"}
	for h := 0; h < ClosHosts; h++ {
		t.Links = append(t.Links, hostUp(h), hostDown(h))
	}
	for tor := 0; tor < closToRs; tor++ {
		for s := 0; s < closSpines; s++ {
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
func (Clos) Tweak(net *Net) {
	for _, name := range net.LinkNames() {
		l := net.Link(name)
		l.SetRate(closLinkRateBps)
		l.SetDelay(closLinkDelay)
		l.SetBuffer(closBufferBytes)
	}
}

// ECMPSpine hashes (src, dst, subflow) onto a spine, emulating the
// testbed's ECMP path choice per subflow.
func (Clos) ECMPSpine(src, dst, subflow int) int {
	h := uint32(src)*2654435761 ^ uint32(dst)*40503 ^ uint32(subflow)*9176
	return int(h % uint32(closSpines))
}

// Path returns the links of the path from src to dst through the given
// spine (ignored when both hosts share a ToR).
func (Clos) Path(src, dst, spine int) []string {
	st, dt := src%closToRs, dst%closToRs
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
