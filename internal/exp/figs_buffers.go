package exp

import (
	"fmt"

	"mpcc/internal/topo"
)

// Fig5aBuffers is the buffer sweep of Fig. 5a (KB on link 1; link 2 stays
// at the 375 KB BDP).
var Fig5aBuffers = []int{3, 9, 30, 60, 120, 240, 375}

// kbLabel and pctLabel render the label cell of a buffer (KB) and of a
// probability (fraction, shown in percent) sweep row.
func kbLabel(kb int) []string        { return []string{fmt.Sprint(kb)} }
func pctLabel(frac float64) []string { return []string{fmt.Sprintf("%g", frac*100)} }

// bufferSweep declares the sweep Figs. 5 and 12 share: link 1's buffer
// shrinks below the BDP (Fig5aBuffers) under each protocol of the lineup;
// sp, when set, overrides the single-path peer.
func bufferSweep(cfg Config, tp func() *topo.Topology, protos []Protocol, sp Protocol, metrics ...metric) sweep[int] {
	return sweep[int]{
		head: []string{"buffer_KB"}, rows: Fig5aBuffers, label: kbLabel,
		protos: protos, metrics: metrics,
		spec: func(buf int, p Protocol) Spec {
			s := cfg.spec(tp(), p, bufTweak("link1", buf*1000))
			s.SPProto = sp
			return s
		},
	}
}

// shallowBufferMP declares Fig. 5a: the goodput of a single multipath
// connection over two links (topology 3b) as link 1's buffer shrinks below
// the BDP. MPCC should stay near full utilization down to ~9 KB while the
// MPTCP variants need ~60 KB (§7.2.1).
func shallowBufferMP(cfg Config) sweep[int] {
	return bufferSweep(cfg, topo.Fig3b, MultipathSet, "", goodputMbps(
		"Fig 5a — multipath goodput vs link-1 buffer (topology 3b), Mbps", "mp"))
}

// shallowBufferSP declares Fig. 5b: the goodput of the single-path
// connection sharing link 2 with the multipath sender (topology 3c) as the
// multipath sender's private link-1 buffer shrinks. MPTCP variants that
// underuse link 1 press harder on link 2 and squeeze the single-path flow.
func shallowBufferSP(cfg Config) sweep[int] {
	return bufferSweep(cfg, topo.Fig3c, MultipathSet, "", goodputMbps(
		"Fig 5b — single-path goodput vs link-1 buffer (topology 3c), Mbps", "sp"))
}

// Fig6LossRates is the random-loss sweep of Fig. 6 (fractions).
var Fig6LossRates = []float64{0.00001, 0.0001, 0.001, 0.01, 0.05, 0.1}

// lossSweep declares the sweep Figs. 6 and 13 share: i.i.d. random loss on
// link 1 (Fig6LossRates) under each protocol of the lineup.
func lossSweep(cfg Config, tp func() *topo.Topology, protos []Protocol, sp Protocol, metrics ...metric) sweep[float64] {
	return sweep[float64]{
		head: []string{"loss_pct"}, rows: Fig6LossRates, label: pctLabel,
		protos: protos, metrics: metrics,
		spec: func(loss float64, p Protocol) Spec {
			s := cfg.spec(tp(), p, lossTweak("link1", loss))
			s.SPProto = sp
			return s
		},
	}
}

// randomLossMP declares Fig. 6a: multipath goodput on topology 3b with
// i.i.d. random loss on link 1.
func randomLossMP(cfg Config) sweep[float64] {
	return lossSweep(cfg, topo.Fig3b, MultipathSet, "", goodputMbps(
		"Fig 6a — multipath goodput vs link-1 random loss (topology 3b), Mbps", "mp"))
}

// randomLossSP declares Fig. 6b: single-path goodput on topology 3c with
// random loss on the multipath sender's private link.
func randomLossSP(cfg Config) sweep[float64] {
	return lossSweep(cfg, topo.Fig3c, MultipathSet, "", goodputMbps(
		"Fig 6b — single-path goodput vs link-1 random loss (topology 3c), Mbps", "sp"))
}

func bufTweak(link string, bytes int) func(*topo.Net) {
	return func(n *topo.Net) { n.Link(link).SetBuffer(bytes) }
}

func lossTweak(link string, p float64) func(*topo.Net) {
	return func(n *topo.Net) { n.Link(link).SetLoss(p) }
}

func protoNames(ps []Protocol) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = string(p)
	}
	return out
}
